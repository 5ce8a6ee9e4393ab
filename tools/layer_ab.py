"""Same-process A/B of the kernel engine: microseconds per layer.

Usage (from the repository root):

    python3 tools/layer_ab.py A/src B/src

Loads the ``deepntk`` package of two source trees into one process (as
``deepntk_a`` and ``deepntk_b``) and times ``kernels.dense_layer_arrays``
storing the last layer alone on each case (``keep=[L]``), alternating
which tree runs first.
Cases: ReLU at (sigma_b, sigma_w) = (0, sqrt 2) and Tanh at sigma_b = 0.2 on
its critical sigma_w, ffnn, at P = 1, 10, 256, 1875 and 2850 pairs, with
shared first-layer variances (qx = qxp = 1 given as scalars, as ``rates``,
``spectrum`` and the sigma_b = 0 ReLU Gram pass them) and with per-pair
variances.  P = 2850 is the Gram of 75 points (75 self pairs, c = 1) and
P = 1875 the cross pairs of 25 test rows with them; the smaller P draw
correlations uniform in [-0.9, 0.9].  Per-pair variances are uniform in
[0.2, 2] for ReLU; Tanh takes 8 distinct values in [0.5, 1.5], so that its
series table stays small.  Each case takes 12 runs per tree at seed 0;
each run is a fresh call over 400 layers (fewer at large P) after one
warm-up call per tree, so a Tanh run starts from a table that holds its
variances.

Prints one JSON object to stdout: per case the median and quartiles of
each tree's microseconds per layer, the median of the per-run ratio
B/A - 1, and in how many runs B was faster.  Needs numpy only.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

import numpy as np

ACTIVATIONS = ("relu", "tanh")
SIZES = (1, 10, 256, 1875, 2850)
RUNS = 12
SEED = 0
LAYERS = 400  # per run at small P, scaled down at large P


def load(src: str, name: str):
    """The ``deepntk`` package under ``src`` as the module ``name``."""
    root = os.path.join(os.path.abspath(src), "deepntk")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sphere(rng, n: int, d: int = 10) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def correlations(rng, size: int) -> np.ndarray:
    """First-layer correlations of ``size`` pairs (see the module docstring)."""
    if size == 2850:
        x = _sphere(rng, 75)
        i, j = np.triu_indices(75)
        c = np.einsum("ij,ij->i", x[i], x[j])
        c[i == j] = 1.0
        return c
    if size == 1875:
        return (_sphere(rng, 25) @ _sphere(rng, 75).T).ravel()
    return rng.uniform(-0.9, 0.9, size)


def first_layer(rng, activation: str, size: int, shared: bool):
    c = correlations(rng, size)
    if shared:
        return 1.0, 1.0, c
    if activation == "relu":
        qx, qxp = rng.uniform(0.2, 2.0, (2, size))
    else:
        qx, qxp = rng.choice(np.linspace(0.5, 1.5, 8), (2, size))
    return qx, qxp, c * np.sqrt(qx * qxp)


def layers_for(activation: str, size: int) -> int:
    cost = size if activation == "relu" else 4 * size
    return max(20, min(LAYERS, LAYERS * 64 // max(cost, 1)))


def time_call(pkg, activation, params, first, depth) -> float:
    start = time.perf_counter()
    pkg.kernels.dense_layer_arrays("ffnn", activation, params, *first, depth,
                                   keep=[depth])
    return time.perf_counter() - start


def run(src_a: str, src_b: str) -> dict:
    pkgs = (load(src_a, "deepntk_a"), load(src_b, "deepntk_b"))
    for pkg in pkgs:
        importlib.import_module(pkg.__name__ + ".kernels")
    cases = {}
    for activation in ACTIVATIONS:
        sb = 0.0 if activation == "relu" else 0.2
        sw = [float(np.sqrt(2.0)) if activation == "relu"
              else pkg.eoc_curve(pkg.make_activation("tanh"), sb) for pkg in pkgs]
        params = [pkg.InitParams(sb, w) for pkg, w in zip(pkgs, sw)]
        for size in SIZES:
            depth = layers_for(activation, size)
            for shared in (True, False):
                rng = np.random.default_rng([SEED, size, int(shared)])
                first = first_layer(rng, activation, size, shared)
                models = [pkg.make_activation(activation) for pkg in pkgs]
                for k in (0, 1):  # warm-up: imports, Tanh series rows
                    time_call(pkgs[k], models[k], params[k], first, depth)
                us = ([], [])
                for r in range(RUNS):
                    for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                        us[k].append(1e6 * time_call(pkgs[k], models[k], params[k],
                                                     first, depth) / depth)
                ratios = [b / a - 1.0 for a, b in zip(*us)]
                name = f"{activation}/P={size}/{'shared' if shared else 'per_pair'}"
                cases[name] = {
                    "layers": depth,
                    "a_us": _quartiles(us[0]),
                    "b_us": _quartiles(us[1]),
                    "median_ratio_b_over_a_minus_1": round(statistics.median(ratios), 4),
                    "b_faster_in": sum(b < a for a, b in zip(*us)),
                    "runs": RUNS,
                }
                print(name, cases[name]["a_us"]["median"], "->",
                      cases[name]["b_us"]["median"], file=sys.stderr)
    return cases


def _quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": round(q2, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/layer_ab.py A/src B/src", file=sys.stderr)
        return 2
    result = {
        "what": "microseconds per layer of dense_layer_arrays('ffnn', ...) "
                "storing the last layer alone, same process, alternating runs",
        "a": argv[0], "b": argv[1], "runs": RUNS, "seed": SEED,
        "cases": run(*argv),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
