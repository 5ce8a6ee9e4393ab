"""Command-line front end.

Subcommands
-----------
phase      chi / fixed-point variance over a (sigma_b, sigma_w) grid -> CSV
kernel     per-depth kernel trace for one input pair -> CSV
rates      depth sweep of kernel residuals + decay-law fits -> CSV + JSON
spectrum   spherical-harmonic spectra over depths -> CSV
train      closed-form kernel training on a dataset -> JSON (+ CSV)
empirical  finite-width Monte-Carlo vs the mean-field kernel -> CSV
selftest   run all module invariant suites

Every emitted CSV comes from one table writer, ``write_csv``, which takes
whole columns (name -> values and description, in file order): floats are
written with %.17g, everything else with ``str``.  The CSV starts with a
reproducibility header (version, full config, seed) and gets a
``<name>.schema.json`` sidecar describing its columns and giving the time
it was written, so that identical runs give byte-identical CSVs.  Outputs
are written atomically (temp file + rename).  ``rates``, ``spectrum`` and
``train`` run at most MAX_DEPTH = 33,554,432 layers.
Exit codes: 0 ok, 2 config error, 3 numeric error, 4 io error.

Config precedence: command-line flags > --config file (flat ``key = value``
lines, keys matching the subcommand's long option names) > built-in
defaults.  BLAS thread counts follow the standard OPENBLAS_NUM_THREADS /
OMP_NUM_THREADS variables, which numpy reads at import: set them before
the process starts.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
import tempfile

import numpy as np
from numpy.random import default_rng

from . import __version__
from .activations import ActivationModel, make_activation
from .asymptotics import default_depth_grid, fit_rate
from .errors import DivergenceError, NumericError
from .kernels import (CONV_KINDS, Architecture, InputPair, KindLaw, kind_law,
                      limiting_kernel, normalize, ntk_trace)
from .phase import InitParams, PhaseReport, classify, eoc_curve
from .regression import (Dataset, KernelSpec, accuracy, build_gram, evolve,
                         one_hot, predict)
from .spectral import MAX_DIMENSION, KernelConfig, eigen_trend, zonal_profiles

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_FLOAT_FMT = "%.17g"  # round-trip exact for 64-bit floats
#: rows formatted and written per step: the text of a block, not of the file
_BLOCK_ROWS = 4096
#: the largest --j-max of ``rates``, and MAX_DEPTH = 32 * 2^20 = 33,554,432
#: the deepest layer that ``rates``, ``spectrum`` and ``train`` run, about
#: six minutes of layers at 10 us each.  They store a few layers alone, so
#: no allocation would refuse a deeper run that cannot finish
MAX_J = 20
MAX_DEPTH = default_depth_grid(MAX_J)[-1]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".deepntk-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_echo(args: argparse.Namespace) -> str:
    items = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func",) and v is not None}
    return " ".join(f"{k}={v}" for k, v in items.items())


def _csv_lines(args: argparse.Namespace, columns: dict[str, np.ndarray]):
    """The header lines, then one line per row: each block of rows formats
    each column once, %.17g for float columns and ``str`` for the others."""
    yield f"# deepntk {__version__}\n# config: {_config_echo(args)}\n"
    yield ",".join(columns) + "\n"
    formats = [_FLOAT_FMT.__mod__ if a.dtype.kind == "f" else str
               for a in columns.values()]
    for start in range(0, max(map(len, columns.values())), _BLOCK_ROWS):
        cells = [map(fmt, a[start:start + _BLOCK_ROWS].tolist())
                 for fmt, a in zip(formats, columns.values())]
        yield "\n".join(map(",".join, zip(*cells, strict=True))) + "\n"


def write_csv(path: str, args: argparse.Namespace,
              table: dict[str, tuple[object, str]]) -> None:
    """Write ``table`` as a CSV with a ``.schema.json`` sidecar.

    ``table`` maps each column name, in file order, to its values (an
    array or list, one entry per row) and its description; columns of
    unequal lengths raise ValueError and leave no file.  The time stamp
    goes in the sidecar only, so identical runs give byte-identical CSVs.
    """
    columns = {name: np.asarray(values) for name, (values, _) in table.items()}
    _atomic_write(path, _csv_lines(args, columns))
    sidecar = {
        "file": os.path.basename(path),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "columns": [{"name": name, "description": text}
                    for name, (_, text) in table.items()],
    }
    _atomic_write(path + ".schema.json", [json.dumps(sidecar, indent=2) + "\n"])


def write_json(path: str, args: argparse.Namespace, payload: dict) -> None:
    """Write payload as JSON; a NaN or infinity in it is a numeric error."""
    payload = {"version": __version__, "config": _config_echo(args), **payload}
    try:
        text = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from None
    _atomic_write(path, [text + "\n"])


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

def load_dataset(path: str, normalize_mode: str = "none") -> Dataset:
    """CSV with a header row, numeric feature columns, final label column.

    Blank and ``#`` lines are skipped; messages name the line of the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(idx, ln) for idx, ln in enumerate(lines, start=1)
            if ln.strip() and not ln.startswith("#")]
    if len(rows) < 2:
        raise ConfigError(f"{path}: need a header row and at least one data row")
    features = []
    labels = []
    width = None
    for idx, line in rows[1:]:
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise ConfigError(f"{path}:{idx}: need >= 1 feature and a label")
        if len(parts) != width:
            raise ConfigError(f"{path}:{idx}: expected {width} columns, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{idx}: malformed number ({exc})") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{path}:{idx}: non-finite value")
        features.append(vals[:-1])
        labels.append(vals[-1])
    X = np.asarray(features, dtype=np.float64)
    if normalize_mode == "unit_sphere":
        norms = np.linalg.norm(X, axis=1)
        zero = np.nonzero(norms == 0)[0]
        if zero.size:
            raise ConfigError(f"{path}: row {rows[zero[0] + 1][0]} has zero norm")
        X = X / norms[:, None]
    Z = one_hot(np.asarray(labels))
    return Dataset(X, Z)


def synthetic_sphere(d: int, n: int, seed: int) -> np.ndarray:
    """n deterministic points on S^{d-1}."""
    if d < 1:
        raise ConfigError(f"--sphere-d must be at least 1, got {d}")
    rng = default_rng(seed)
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def sphere_dataset(d: int, n: int, seed: int) -> Dataset:
    """Two-class sphere dataset: label = sign of the first coordinate."""
    X = synthetic_sphere(d, n, seed)
    return Dataset(X, one_hot((X[:, 0] > 0).astype(int)))


# ---------------------------------------------------------------------------
# shared kernel construction
# ---------------------------------------------------------------------------

def _params_from(args, act: ActivationModel) -> InitParams:
    if getattr(args, "phase", None) == "eoc" and args.sigma_w is None:
        sb = args.sigma_b if args.sigma_b is not None else 0.0
        if args.activation == "relu":
            if sb != 0.0:
                raise ConfigError("the ReLU critical point requires sigma_b = 0")
            return InitParams(0.0, float(np.sqrt(2.0)))
        return InitParams(sb, eoc_curve(act, sb))
    if args.sigma_b is None or args.sigma_w is None:
        raise ConfigError("need --sigma-b and --sigma-w (or --phase eoc)")
    return InitParams(args.sigma_b, args.sigma_w)


def _parse_grid(spec: str, flag: str) -> np.ndarray:
    """'a:b:n' -> n >= 1 evenly spaced values; 'v1,v2,...' -> explicit list."""
    if ":" in spec:
        a, b, n = spec.split(":")
        if int(n) < 1:
            raise ConfigError(f"{flag} needs a count of at least 1, got {spec!r}")
        return np.linspace(float(a), float(b), int(n))
    return np.array([float(v) for v in spec.split(",")])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _classify_or_divergent(act: ActivationModel, params: InitParams) -> PhaseReport:
    try:
        return classify(act, params)
    except NumericError:
        return PhaseReport(float("inf"), float("inf"), "divergent")


def cmd_phase(args) -> int:
    act = make_activation(args.activation)
    grid = np.meshgrid(_parse_grid(args.sigma_b_grid, "--sigma-b-grid"),
                       _parse_grid(args.sigma_w_grid, "--sigma-w-grid"), indexing="ij")
    sb, sw = (a.ravel() for a in grid)  # sigma_b-major, as the file lists them
    reports = [_classify_or_divergent(act, InitParams(b, w))
               for b, w in zip(sb.tolist(), sw.tolist())]
    write_csv(args.output, args, {
        "sigma_b": (sb, "bias scale"),
        "sigma_w": (sw, "weight scale"),
        "q": ([r.q_fixed for r in reports], "limiting layer variance (inf if divergent)"),
        "chi": ([r.chi for r in reports], "sigma_w^2 E[phi'(sqrt(q) Z)^2]"),
        "phase": ([r.phase for r in reports], "ordered | chaotic | eoc | divergent"),
    })
    return EXIT_OK


def _kernel_pair(args) -> tuple[InputPair, Architecture]:
    """The pair of ``kernel`` and its architecture (conv: M = dim / --channels)."""
    if args.input:
        ds = load_dataset(args.input,
                          "unit_sphere" if args.normalize == "unit_sphere" else "none")
        if ds.n < 2:
            raise ConfigError("need at least two inputs for a pair")
        x, xp = ds.X[0], ds.X[1]
    else:
        X = synthetic_sphere(args.sphere_d, 2, args.seed)
        x, xp = X[0], X[1]
    if args.arch not in CONV_KINDS:
        return InputPair(x, xp), Architecture(args.arch)
    n0 = args.channels
    if n0 < 1:
        raise ConfigError(f"--channels must be at least 1, got {n0}")
    if x.size % n0:
        raise ConfigError("input dimension must be divisible by --channels")
    m = x.size // n0
    return (InputPair(x.reshape(n0, m), xp.reshape(n0, m)),
            Architecture(args.arch, positions=m, filter_half_width=args.filter_k))


def cmd_kernel(args) -> int:
    act = make_activation(args.activation)
    params = _params_from(args, act)
    pair, arch = _kernel_pair(args)
    trace = ntk_trace(arch, pair, act, params, args.depth)
    try:
        law = kind_law(arch, act, params)
    except DivergenceError:  # ReLU past sqrt(2): no variance fixed point
        law = KindLaw("chaotic", False, "exp")
    # each view builds its whole (L,) column: read it once
    ntk = trace.ntk
    if law.normalized:
        meaning = ("K / alpha_l: alpha_l = l (ffnn, cnn), "
                   "l (1+sigma_w^2/2)^(l-1) (resnet kinds), "
                   "l^(sigma_w^2/2) log max(l, 2) (scaled kinds)")
    else:
        meaning = "K itself: off the critical curve no depth normalisation applies"
    law_name = f"{law.model} law" + (f", {law.phase} phase" if law.phase else "")
    write_csv(args.output, args, {
        "l": (np.arange(1, args.depth + 1), "layer index (1-based)"),
        "qx": (trace.qx, "variance of the first input's field"),
        "qxp": (trace.qxp, "variance of the second input's field"),
        "c": (trace.corr, "field correlation"),
        "qdot": (trace.qdot, "kernel multiplier sigma_w^2 E[phi' phi'] (NaN at l=1)"),
        "K": (ntk, "kernel value"),
        "K_normalized": (normalize(trace) if law.normalized else ntk,
                         f"{meaning} ({law_name}; see kernels.kind_law)"),
    })
    return EXIT_OK


def cmd_rates(args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be at least 1, got {args.pairs}")
    if args.j_max < 7:  # fit_rate needs 8 depths, j = 0..7
        raise ConfigError(f"--j-max must be at least 7, got {args.j_max}")
    if args.j_max > MAX_J:
        raise ConfigError(f"--j-max must be at most {MAX_J}, got {args.j_max}")
    act = make_activation(args.activation)
    params = _params_from(args, act)
    config = KernelConfig(Architecture(args.arch), act, params)
    grid = default_depth_grid(args.j_max)
    rng = default_rng(args.seed)
    d = args.sphere_d
    x0 = synthetic_sphere(d, 2, args.seed)
    # pairs with first-layer correlations spread across [-0.9, 0.9]: a max
    # over them approximates the sup over input pairs that are not colinear
    targets = rng.uniform(-0.9, 0.9, args.pairs)
    values = zonal_profiles(config, d, grid, targets)
    lim = limiting_kernel(config.architecture, act, params, InputPair(x0[0], x0[1]))
    law = config.law
    r = np.maximum(np.abs(values - lim), 1e-300).max(axis=1)  # one per grid depth
    fit = fit_rate(grid, r, law.model)
    alt = fit_rate(grid, r, "exp" if law.model == "power" else "power")
    # every non-exp law is written as A L^p, inv_log included (whose law is
    # A / log(L)^p): the seed-0 reference in perfbench pins this column
    depths = np.asarray(grid, dtype=float)
    theory = fit.prefactor * (np.exp(-fit.exponent * depths) if law.model == "exp"
                              else depths ** fit.exponent)
    write_csv(args.output, args, {
        "L": (grid, "depth"),
        "residual": (r, "max over pairs of |K_normalized^L - limit|"),
        "theory_residual": (theory, f"fitted {fit.model} law evaluated at L"),
    })
    write_json(os.path.splitext(args.output)[0] + ".fit.json", args, {
        "phase": law.phase or args.arch,
        "limit": lim,
        "fit": {"model": fit.model, "exponent": fit.exponent,
                "prefactor": fit.prefactor, "r_squared": fit.r_squared},
        "alternative": {"model": alt.model, "exponent": alt.exponent,
                        "r_squared": alt.r_squared},
    })
    return EXIT_OK


def _seed(text: str) -> int:
    """The argparse type of every seed option, which names the flag of a
    value it refuses: numpy's generators take integers >= 0 only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _check_depth(depth: int, flag: str) -> None:
    if depth > MAX_DEPTH:
        raise ConfigError(f"{flag} must be at most {MAX_DEPTH}, got {depth}")


def cmd_spectrum(args) -> int:
    if not 3 <= args.d <= MAX_DIMENSION:
        raise ConfigError(f"--d must be in [3, {MAX_DIMENSION}], got {args.d}")
    depths = [int(v) for v in args.depths.split(",")]
    _check_depth(max(depths), "--depths")
    act = make_activation(args.activation)
    params = _params_from(args, act)
    config = KernelConfig(Architecture(args.arch), act, params)
    table = eigen_trend(config, args.d, depths, args.kmax)
    decs = [table[L] for L in depths]
    write_csv(args.output, args, {
        "L": (np.repeat(depths, args.kmax + 1), "depth"),
        "k": (np.tile(np.arange(args.kmax + 1), len(depths)), "harmonic degree"),
        "mu_k": (np.concatenate([dec.mu for dec in decs]),
                 "Funk-Hecke coefficient of the normalized kernel"),
        "mu_k_normalized": (np.concatenate([dec.normalized_mass() for dec in decs]),
                            "mu_k N(d,k) / sum_j mu_j N(d,j)"),
    })
    return EXIT_OK


def cmd_train(args) -> int:
    _check_depth(args.depth, "--depth")
    if not np.isfinite(args.test_fraction):
        raise ConfigError(f"--test-fraction must be finite, got {args.test_fraction}")
    act = make_activation(args.activation)
    params = _params_from(args, act)
    if args.data:
        ds_full = load_dataset(args.data, args.normalize)
    else:
        ds_full = sphere_dataset(args.sphere_d, args.sphere_n, args.seed)
    rng = default_rng(args.split_seed)
    n = ds_full.n
    perm = rng.permutation(n)
    n_test = int(round(args.test_fraction * n))
    for split, size in (("train", n - n_test), ("test", n_test)):
        if size < 1:
            raise ConfigError(f"the {split} split is empty ({n} examples, "
                              f"--test-fraction {args.test_fraction})")
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    ds = Dataset(ds_full.X[train_idx], ds_full.Z[train_idx])
    spec = KernelSpec(Architecture(args.arch), act, params, args.depth)
    state = build_gram(ds, spec)
    t = np.inf if args.time == "infinity" else float(args.time)
    train_pred = evolve(state, ds.Z, t)
    train_acc = accuracy(train_pred, ds.Z)
    preds = predict(state, ds, spec, ds_full.X[test_idx], t)
    test_acc = accuracy(preds, ds_full.Z[test_idx])
    write_json(args.output, args, {
        "min_eig": state.min_eig,
        "max_eig": state.max_eig,
        "rank_deficient": state.rank_deficient,
        "train_acc": train_acc,
        "test_acc": test_acc,
        "n_train": int(n - n_test),
        "n_test": int(n_test),
    })
    if args.predictions:
        write_csv(args.predictions, args, {
            "index": (test_idx, "row index in the input dataset"),
            "predicted": (np.argmax(preds, axis=1), "argmax class of f_t(x)"),
            "label": (np.argmax(ds_full.Z[test_idx], axis=1), "true class"),
        })
    return EXIT_OK


def cmd_empirical(args) -> int:
    from .empirical import width_convergence_study
    act = make_activation(args.activation)
    params = _params_from(args, act)
    X = synthetic_sphere(args.sphere_d, 2, args.seed)
    widths = [int(w) for w in args.widths.split(",")]
    study = width_convergence_study(args.arch, act, params, X[0], X[1],
                                    widths, args.depth, args.seeds,
                                    base_seed=args.seed)
    mean, ref = np.asarray(study["mean"]), study["reference"]
    write_csv(args.output, args, {
        "width": (widths, "hidden width"),
        "mean_K": (mean, "seed-mean empirical kernel"),
        "std_K": (study["std"], "seed standard deviation"),
        "meanfield_K": (np.full(len(widths), ref), "infinite-width kernel value"),
        "rel_err": (np.abs(mean - ref) / abs(ref), "|mean_K - meanfield_K| / |meanfield_K|"),
    })
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all
    return EXIT_OK if run_all(verbose=True) else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_kernel_flags(p: argparse.ArgumentParser, archs) -> None:
    p.add_argument("--arch", choices=archs, default="ffnn")
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--sigma-b", type=float, default=None)
    p.add_argument("--sigma-w", type=float, default=None)
    p.add_argument("--phase", choices=("eoc",), default=None,
                   help="derive (sigma_b, sigma_w) on the critical curve")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never
    changes it, and config-file values enter as argv tokens, not defaults."""
    parser = argparse.ArgumentParser(prog="deepntk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None,
                        help="flat 'key = value' file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase", help="phase diagram grid")
    p.add_argument("--activation", choices=("relu", "tanh"), default="tanh")
    p.add_argument("--sigma-b-grid", default="0:1:5",
                   help="'a:b:n' linspace or comma list")
    p.add_argument("--sigma-w-grid", default="0.5:2.5:9")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("kernel", help="per-depth kernel trace for one pair")
    _add_kernel_flags(p, ("ffnn", "cnn", "resnet_dense", "resnet_conv",
                          "scaled_resnet_dense", "scaled_resnet_conv"))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--input", default=None, help="CSV dataset; first two rows form the pair")
    p.add_argument("--normalize", choices=("none", "unit_sphere"), default="none")
    p.add_argument("--sphere-d", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--channels", type=int, default=1, help="n0 for conv inputs")
    p.add_argument("--filter-k", type=int, default=1)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("rates", help="depth sweep of kernel residuals + fits")
    _add_kernel_flags(p, ("ffnn", "resnet_dense", "scaled_resnet_dense"))
    p.add_argument("--j-max", type=int, default=8,
                   help=f"depth grid 32*2^j, j<=j_max (7 to {MAX_J})")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--sphere-d", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("spectrum", help="harmonic spectra over depths")
    _add_kernel_flags(p, ("ffnn", "resnet_dense", "scaled_resnet_dense"))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--depths", default="3,30,300")
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", help="closed-form kernel training")
    _add_kernel_flags(p, ("ffnn",))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--data", default=None, help="CSV dataset (features..., label)")
    p.add_argument("--normalize", choices=("none", "unit_sphere"), default="none")
    p.add_argument("--sphere-d", type=int, default=10)
    p.add_argument("--sphere-n", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--time", default="infinity", help="training time t or 'infinity'")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--predictions", default=None, help="optional per-example CSV")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("empirical", help="finite-width Monte-Carlo study")
    _add_kernel_flags(p, ("ffnn", "resnet_dense"))
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--widths", default="64,128,256,512,1024")
    p.add_argument("--seeds", type=int, default=30)
    p.add_argument("--sphere-d", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("selftest", help="run all module invariant suites")
    p.set_defaults(func=cmd_selftest)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert config-file values as ``--key=value`` right after the subcommand.

    Flags given on the command line come later, so they win; argparse
    converts the values and rejects keys the subcommand does not have.
    """
    idx = next((i for i, tok in enumerate(argv)
                if tok == "--config" or tok.startswith("--config=")), None)
    if idx is None:
        return argv
    if argv[idx] == "--config":  # "--config PATH": the path is the next token
        idx += 1
        if idx == len(argv):
            raise ConfigError("--config needs a path")
        path = argv[idx]
    else:
        path = argv[idx].partition("=")[2]
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                tokens.append(f"--{key.replace('_', '-')}={value}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    # the subcommand is the first token that is neither an option nor the path
    command = next((i for i, tok in enumerate(argv)
                    if i != idx and not tok.startswith("-")), len(argv) - 1)
    return argv[:command + 1] + tokens + argv[command + 1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"deepntk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, ValueError, MemoryError) as exc:
        # MemoryError: a size flag past what the machine can allocate
        print(f"deepntk [{args.command}]: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"deepntk [{args.command}]: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"deepntk [{args.command}]: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
