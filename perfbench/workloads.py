"""Workload definitions: seeded inputs and the fixed op sequence of each run.

Every input the program sees is generated here from the workload seed and
written into the run directory; ops only pass file names and flags.  The
amount of work never depends on the seed, only the input values do, so
timings from different seeds are comparable.

An op is a dict with a ``name`` (unique within its workload), a ``kind``
("cli" for an in-process ``deepntk.cli.main(argv)`` call, "expansion" for a
direct ``asymptotics.check_expansion`` call) and what the checker needs to
validate its outputs.
"""
from __future__ import annotations

import os

import numpy as np

DEFAULT_SEED = 0

# Sizes, chosen so one workload process takes a few seconds on one core.
# train_relu_deep keeps depth 1000 so that deep layers enter the
# near-c=1 series branch of the ReLU map; n sets the Gram width P.
RELU_TRAIN = {"n": 100, "d": 10, "depth": 1000}
TANH_TRAIN = {"n": 32, "d": 10, "depth": 24, "sigma_b": 0.2}
PHASE_GRID = {"sigma_b_grid": "0:1:5", "sigma_w_grid": "0.5:2.5:9"}
RATES = {"j_max": 7, "pairs": 10, "sphere_d": 10}
RESIDUAL_PARAMS = {"sigma_b": 0.1, "sigma_w": 1.0}
SPECTRUM = {"d": 3, "depths": (3, 30, 300, 1000), "kmax": 64}
EMPIRICAL = {"depth": 4, "widths": (64, 128, 256, 512), "seeds": 10}
EXPANSION_DEPTH = 10_000
TEST_FRACTION = 0.25

WORKLOADS = {
    "train_relu_deep": "closed-form ReLU recursion at wide P and depth 1000; "
                       "its stored (L, P) history sets peak memory; no quadrature",
    "tanh_quadrature": "tanh maps by bivariate Gauss-Hermite quadrature, the "
                       "only workload where gaussmath is the bottleneck",
    "depth_laws": "few pairs at many layers: rates, spectrum, finite-width "
                  "oracle and the gamma iterators of the expansion check",
}


def _out(rundir: str, name: str) -> str:
    """Outputs go to rundir/out, which is emptied before every process."""
    return os.path.join(rundir, "out", name)


def _sphere_csv(path: str, rng: np.random.Generator, n: int, d: int) -> list[int]:
    """n Gaussian points in R^d with labels from a random hyperplane.

    Rows are written unnormalised; ``--normalize unit_sphere`` projects them.
    Returns the labels.
    """
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    labels = [int(v) for v in (X @ w > 0)]
    lines = [",".join([f"x{i}" for i in range(d)] + ["label"])]
    lines += [",".join(repr(float(v)) for v in row) + f",{lab}"
              for row, lab in zip(X, labels)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return labels


def _train_op(rundir, rng, activation, size, extra):
    name = "train"
    data = os.path.join(rundir, f"{name}.data.csv")
    labels = _sphere_csv(data, rng, size["n"], size["d"])
    split_seed = int(rng.integers(2**31))
    out = _out(rundir, f"{name}.json")
    preds = _out(rundir, f"{name}.predictions.csv")
    argv = ["train", "--activation", activation, "--phase", "eoc",
            "--depth", str(size["depth"]), "--data", data,
            "--normalize", "unit_sphere", "--time", "infinity",
            "--test-fraction", str(TEST_FRACTION),
            "--split-seed", str(split_seed), "--predictions", preds,
            "-o", out] + extra
    return {"name": name, "kind": "cli", "argv": argv, "check": "train",
            "output": out, "predictions": preds, "labels": labels,
            "n": size["n"], "n_test": round(TEST_FRACTION * size["n"])}


def _rates_op(name, rundir, seed, arch, flags, model):
    out = _out(rundir, f"{name}.csv")
    argv = ["rates", "--arch", arch, "--activation", "relu", *flags,
            "--j-max", str(RATES["j_max"]), "--pairs", str(RATES["pairs"]),
            "--sphere-d", str(RATES["sphere_d"]), "--seed", str(seed), "-o", out]
    return {"name": name, "kind": "cli", "argv": argv, "check": "rates",
            "output": out, "fit": os.path.splitext(out)[0] + ".fit.json",
            "model": model, "j_max": RATES["j_max"]}


def build(workload: str, seed: int, rundir: str) -> list[dict]:
    """Write the seeded inputs of one workload into rundir; return its ops."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if workload == "train_relu_deep":
        return [_train_op(rundir, rng, "relu", RELU_TRAIN, [])]
    if workload == "tanh_quadrature":
        phase_out = _out(rundir, "phase.csv")
        phase = {"name": "phase", "kind": "cli", "check": "phase",
                 "argv": ["phase", "--activation", "tanh",
                          "--sigma-b-grid", PHASE_GRID["sigma_b_grid"],
                          "--sigma-w-grid", PHASE_GRID["sigma_w_grid"],
                          "-o", phase_out],
                 "output": phase_out, **PHASE_GRID}
        train = _train_op(rundir, rng, "tanh", TANH_TRAIN,
                          ["--sigma-b", str(TANH_TRAIN["sigma_b"])])
        return [phase, train]
    if workload == "depth_laws":
        op_seed = int(rng.integers(2**31))
        res = ["--sigma-b", str(RESIDUAL_PARAMS["sigma_b"]),
               "--sigma-w", str(RESIDUAL_PARAMS["sigma_w"])]
        spectrum_out = _out(rundir, "spectrum.csv")
        empirical_out = _out(rundir, "empirical.csv")
        gamma0 = 0.3 + 0.5 * float(rng.random())
        return [
            _rates_op("rates_ffnn", rundir, op_seed, "ffnn", ["--phase", "eoc"], "power"),
            _rates_op("rates_resnet", rundir, op_seed, "resnet_dense", res, "power"),
            _rates_op("rates_scaled", rundir, op_seed, "scaled_resnet_dense", res,
                      "inv_log"),
            {"name": "spectrum", "kind": "cli", "check": "spectrum",
             "argv": ["spectrum", "--arch", "ffnn", "--activation", "relu",
                      "--phase", "eoc", "--d", str(SPECTRUM["d"]),
                      "--depths", ",".join(map(str, SPECTRUM["depths"])),
                      "--kmax", str(SPECTRUM["kmax"]), "-o", spectrum_out],
             "output": spectrum_out, "depths": list(SPECTRUM["depths"]),
             "kmax": SPECTRUM["kmax"]},
            {"name": "empirical", "kind": "cli", "check": "empirical",
             "argv": ["empirical", "--arch", "resnet_dense", "--activation", "relu",
                      "--phase", "eoc", "--depth", str(EMPIRICAL["depth"]),
                      "--widths", ",".join(map(str, EMPIRICAL["widths"])),
                      "--seeds", str(EMPIRICAL["seeds"]), "--seed", str(op_seed),
                      "-o", empirical_out],
             "output": empirical_out, "widths": list(EMPIRICAL["widths"]),
             "seeds": EMPIRICAL["seeds"]},
            {"name": "expansion", "kind": "expansion", "check": "expansion",
             "depth": EXPANSION_DEPTH, "gamma0": gamma0,
             "cases": [["ffnn", 0.0, float(np.sqrt(2.0))],
                       ["resnet_dense", RESIDUAL_PARAMS["sigma_b"],
                        RESIDUAL_PARAMS["sigma_w"]],
                       ["scaled_resnet_dense", RESIDUAL_PARAMS["sigma_b"],
                        RESIDUAL_PARAMS["sigma_w"]]]},
        ]
    raise ValueError(f"unknown workload {workload!r}")
