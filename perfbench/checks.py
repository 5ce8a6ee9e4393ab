"""Correctness gate: every op's outputs are read back and checked.

An op fails on a non-zero exit code, a non-finite number in its outputs, a
broken seed-independent invariant, or, at the default seed, a departure
from the reference values recorded at the seed commit
(``reference.json``) beyond the relative tolerance stated below for that
quantity.  ``extract`` turns an op's outputs into plain values; ``check``
returns the list of failure messages (empty when the op passed).
"""
from __future__ import annotations

import csv
import json
import math

# Reference tolerances (relative).  They state how exactly the seed commit
# computes each quantity, not how much a run may drift to pass.
RTOL = {
    # closed-form ReLU recursions; Gram eigenvalues also carry the
    # condition number, so 1e-7 leaves room for a kernel engine exact to
    # ~1e-10 per entry
    "relu": 1e-7,
    # tanh maps at q* = 0.512 (EOC, sigma_b = 0.2) by order-64 quadrature
    "tanh": 1e-6,
    # phase grid: order-64 quadrature differs from order 256 by up to
    # 4.3e-4 in q and 1.1e-2 in chi at (sigma_b, sigma_w) = (1, 2.5), so a
    # more accurate quadrature must not count as a failure
    "phase_q": 1e-3,
    "phase_chi": 2e-2,
    # rate fits and residuals: residuals are differences of nearly equal
    # kernel values at depth 4096
    "rates": 1e-6,
    # spectrum: tolerance relative to the largest coefficient of a depth
    "spectrum": 1e-9,
    # finite-width Monte Carlo: deterministic given the seed
    "empirical": 1e-9,
    # gamma iterators in deficit form
    "expansion": 1e-9,
}

#: check_expansion relative error at depth 10^4 stays under these for
#: gamma0 in [0.3, 0.8] (largest, at gamma0 = 0.3: 4.3e-3, 8.8e-3, 0.922)
EXPANSION_BOUND = {"ffnn": 6e-3, "resnet_dense": 1.2e-2, "scaled_resnet_dense": 0.93}

#: empirical mean kernel within this many standard errors of the mean field
EMPIRICAL_Z = 6.0

_PHASES = ("ordered", "chaotic", "eoc", "divergent")
_PHASE_TOL = 1e-8  # |chi - 1| band of the critical set in deepntk.phase
_S_RELU = 2.0 * math.sqrt(2.0) / (3.0 * math.pi)
_KAPPA_RELU = 9.0 * math.pi**2 / 2.0


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _linspace(spec: str) -> list[float]:
    a, b, n = spec.split(":")
    a, b, n = float(a), float(b), int(n)
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def extract(op: dict, value) -> dict:
    """Plain values of one op's outputs (``value`` is a library op's return)."""
    kind = op["check"]
    if kind == "train":
        out = {k: _json(op["output"])[k] for k in
               ("min_eig", "max_eig", "rank_deficient", "train_acc", "test_acc",
                "n_train", "n_test")}
        rows = _rows(op["predictions"])
        out["index"] = [int(r["index"]) for r in rows]
        out["predicted"] = [int(r["predicted"]) for r in rows]
        out["label"] = [int(r["label"]) for r in rows]
        return out
    if kind == "phase":
        rows = _rows(op["output"])
        return {col: [r[col] if col == "phase" else float(r[col]) for r in rows]
                for col in ("sigma_b", "sigma_w", "q", "chi", "phase")}
    if kind == "rates":
        rows = _rows(op["output"])
        fit = _json(op["fit"])
        return {"L": [int(r["L"]) for r in rows],
                "residual": [float(r["residual"]) for r in rows],
                "theory_residual": [float(r["theory_residual"]) for r in rows],
                "phase": fit["phase"], "limit": fit["limit"],
                "model": fit["fit"]["model"], "exponent": fit["fit"]["exponent"],
                "prefactor": fit["fit"]["prefactor"],
                "r_squared": fit["fit"]["r_squared"],
                "alt_model": fit["alternative"]["model"],
                "alt_r_squared": fit["alternative"]["r_squared"]}
    if kind == "spectrum":
        rows = _rows(op["output"])
        return {col: [float(r[col]) for r in rows]
                for col in ("L", "k", "mu_k", "mu_k_normalized")}
    if kind == "empirical":
        rows = _rows(op["output"])
        return {col: [float(r[col]) for r in rows]
                for col in ("width", "mean_K", "std_K", "meanfield_K", "rel_err")}
    if kind == "expansion":
        return {"cases": [{k: float(v[k]) for k in
                           ("gamma", "product", "constant", "relative_error")}
                          for v in value]}
    raise ValueError(f"unknown check {kind!r}")


def _numbers(obj):
    if isinstance(obj, bool) or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rtol * abs(b if scale is None else scale)


def _compare(name, got, ref, rtol, fails, scale=None):
    """Append a failure unless got matches ref (numbers within rtol)."""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            fails.append(f"{name}: {got!r:.80} is not a list of {len(ref)} values")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(f"{name}[{i}]", g, r, rtol, fails, scale)
    elif isinstance(ref, (bool, str, int)) or rtol is None:
        if got != ref:
            fails.append(f"{name}: {got!r} != reference {ref!r}")
    elif not _close(got, ref, rtol, scale):
        fails.append(f"{name}: {got!r} departs from reference {ref!r} (rtol {rtol:g})")


def _invariants(op: dict, v: dict) -> list[str]:
    fails = []
    kind = op["check"]
    if kind == "train":
        n, n_test = op["n"], op["n_test"]
        if v["n_train"] + v["n_test"] != n or v["n_test"] != n_test:
            fails.append(f"split {v['n_train']}+{v['n_test']} != {n - n_test}+{n_test}")
        if not v["rank_deficient"]:
            if v["train_acc"] != 1.0:
                fails.append(f"train_acc {v['train_acc']} != 1 at t=inf with a "
                             "full-rank Gram matrix")
            if not 0.0 < v["min_eig"] <= v["max_eig"]:
                fails.append(f"eigenvalues out of order: {v['min_eig']}, {v['max_eig']}")
        if (len(v["index"]) != n_test or len(set(v["index"])) != n_test
                or not all(0 <= i < n for i in v["index"])):
            fails.append("predictions CSV does not list each test point once")
        elif any(v["label"][i] != op["labels"][idx] for i, idx in enumerate(v["index"])):
            fails.append("predictions CSV labels differ from the generated labels")
        elif any(p not in (0, 1) for p in v["predicted"]):
            fails.append("predicted class outside {0, 1}")
        elif abs(v["test_acc"] - sum(p == lab for p, lab in zip(v["predicted"], v["label"]))
                 / n_test) > 1e-12:
            fails.append("test_acc disagrees with the predictions CSV")
    elif kind == "phase":
        grid = [(b, w) for b in _linspace(op["sigma_b_grid"])
                for w in _linspace(op["sigma_w_grid"])]
        got = list(zip(v["sigma_b"], v["sigma_w"]))
        if len(got) != len(grid) or any(not (_close(a, c, 1e-12, 1) and _close(b, d, 1e-12, 1))
                                        for (a, b), (c, d) in zip(got, grid)):
            fails.append("phase rows do not follow the requested grid")
        for i, (q, chi, ph) in enumerate(zip(v["q"], v["chi"], v["phase"])):
            if ph not in _PHASES:
                fails.append(f"row {i}: unknown phase {ph!r}")
            elif ph == "divergent":
                continue  # q = chi = inf is the CLI's documented sentinel
            elif not (math.isfinite(q) and math.isfinite(chi)) or q < 0 or chi <= 0:
                fails.append(f"row {i}: q={q}, chi={chi} not finite and positive")
            else:
                want = ("eoc" if abs(chi - 1.0) <= _PHASE_TOL
                        else "ordered" if chi < 1.0 else "chaotic")
                if ph != want:
                    fails.append(f"row {i}: phase {ph} but chi={chi} means {want}")
    elif kind == "rates":
        if v["L"] != [32 * 2**j for j in range(op["j_max"] + 1)]:
            fails.append(f"depth grid {v['L']}")
        if not all(r > 0 for r in v["residual"] + v["theory_residual"] + [v["limit"]]):
            fails.append("residuals and the limit must be positive")
        if v["model"] != op["model"]:
            fails.append(f"fit model {v['model']} != expected {op['model']}")
        if not v["r_squared"] > v["alt_r_squared"]:
            fails.append(f"{v['model']} fit (R^2 {v['r_squared']}) is not better than "
                         f"{v['alt_model']} (R^2 {v['alt_r_squared']})")
        if op["name"] == "rates_ffnn" and v["phase"] != "eoc":
            fails.append(f"ffnn at --phase eoc classified as {v['phase']}")
    elif kind == "spectrum":
        kmax = op["kmax"]
        want = [(L, k) for L in op["depths"] for k in range(kmax + 1)]
        if list(zip(v["L"], v["k"])) != want:
            fails.append("spectrum rows do not cover every (depth, k)")
        else:
            for j, L in enumerate(op["depths"]):
                mass = v["mu_k_normalized"][j * (kmax + 1):(j + 1) * (kmax + 1)]
                if abs(sum(mass) - 1.0) > 1e-9:
                    fails.append(f"L={L}: normalized masses sum to {sum(mass)!r}")
                if min(mass) < -1e-12:
                    fails.append(f"L={L}: negative harmonic mass {min(mass)!r}")
    elif kind == "empirical":
        if v["width"] != [float(w) for w in op["widths"]]:
            fails.append(f"widths {v['width']}")
        ref = v["meanfield_K"][0]
        if any(r != ref for r in v["meanfield_K"]):
            fails.append("mean-field reference differs between rows")
        for w, m, s, e in zip(v["width"], v["mean_K"], v["std_K"], v["rel_err"]):
            if abs(m - ref) > EMPIRICAL_Z * s / math.sqrt(op["seeds"]):
                fails.append(f"width {w:g}: mean {m} is more than {EMPIRICAL_Z:g} "
                             f"standard errors from the mean field {ref}")
            if not _close(e, abs(m - ref) / abs(ref), 1e-9):
                fails.append(f"width {w:g}: rel_err {e} inconsistent")
    elif kind == "expansion":
        for (arch, _sb, sw), case in zip(op["cases"], v["cases"]):
            constant = {"ffnn": _KAPPA_RELU,
                        "resnet_dense": _KAPPA_RELU * (1.0 + 2.0 / sw**2) ** 2,
                        "scaled_resnet_dense": 16.0 / (_S_RELU**2 * sw**4)}[arch]
            if not _close(case["constant"], constant, 1e-12):
                fails.append(f"{arch}: constant {case['constant']} != {constant}")
            if not 0.0 < case["gamma"] < op["gamma0"]:
                fails.append(f"{arch}: gamma {case['gamma']} not in (0, gamma0)")
            if not case["relative_error"] < EXPANSION_BOUND[arch]:
                fails.append(f"{arch}: relative error {case['relative_error']} >= "
                             f"{EXPANSION_BOUND[arch]}")
    return fails


def _reference_rtol(op: dict, key: str):
    """Tolerance for one extracted key; None means exact equality."""
    kind = op["check"]
    if kind == "train":
        if key in ("min_eig", "max_eig"):
            return RTOL["relu"] if "relu" in op["argv"] else RTOL["tanh"]
        return None
    if kind == "phase":
        return {"q": RTOL["phase_q"], "chi": RTOL["phase_chi"]}.get(key)
    return RTOL[kind]


def check(op: dict, rc, value, reference: dict | None) -> list[str]:
    """Failure messages for one op run; ``reference`` only at the default seed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        v = extract(op, value)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    bad = [x for x in _numbers(v) if not math.isfinite(x)]
    if op["check"] == "phase":
        bad = [x for x, ph in zip(v["q"] + v["chi"], v["phase"] * 2)
               if not math.isfinite(x) and ph != "divergent"]
    fails = [f"{len(bad)} non-finite output values"] if bad else []
    fails += _invariants(op, v)
    if reference is not None:
        for key, ref in reference.items():
            if key == "cases":
                for i, (g, r) in enumerate(zip(v[key], ref)):
                    for k in r:
                        _compare(f"cases[{i}].{k}", g[k], r[k], RTOL["expansion"], fails)
            elif op["check"] == "spectrum" and key == "mu_k":
                n = op["kmax"] + 1
                for j in range(len(op["depths"])):
                    block = ref[j * n:(j + 1) * n]
                    _compare(f"mu_k[L={op['depths'][j]}]", v[key][j * n:(j + 1) * n],
                             block, RTOL["spectrum"], fails, max(map(abs, block)))
            else:
                _compare(key, v.get(key), ref, _reference_rtol(op, key), fails)
    return fails
