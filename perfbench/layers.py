"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

Stats: ``calls`` (count), ``s`` (inclusive seconds), ``self_s`` (seconds
minus the time inside traced callees), and work counts computed from
argument sizes, not measured: pairs, pair-layers, integrand evaluations,
iterator steps, bytes.  A function a workload never calls reports 0.
"""
from __future__ import annotations

#: op names of all workloads; each gets a ``cli.op.<name>.s`` metric
OP_NAMES = ("train", "phase", "rates_ffnn", "rates_resnet", "rates_scaled",
            "spectrum", "empirical", "expansion")

_COUNT = ("count", "lower")
_SEC = ("s", "lower")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _table(agg: dict, overhead_s: float) -> dict:
    """name -> (value, unit, better)."""
    def f(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "work2": 0})

    e2p, dla, chk = f("gaussmath.expect2_pairs"), f("kernels.dense_layer_arrays"), \
        f("asymptotics.check_expansion")
    t = {
        "gaussmath.expect2_pairs.calls": (e2p["calls"], *_COUNT),
        "gaussmath.expect2_pairs.pairs": (e2p["work"], *_COUNT),
        "gaussmath.expect2_pairs.self_s": (e2p["self_s"], *_SEC),
        "gaussmath.expect2_pairs.us_per_pair": (_ratio(e2p["self_s"], e2p["work"], 1e6),
                                                "us", "lower"),
        "gaussmath.expect2.calls": (f("gaussmath.expect2")["calls"], *_COUNT),
        "gaussmath.expect2.self_s": (f("gaussmath.expect2")["self_s"], *_SEC),
        "gaussmath.expect1.calls": (f("gaussmath.expect1")["calls"], *_COUNT),
        "gaussmath.expect1.self_s": (f("gaussmath.expect1")["self_s"], *_SEC),
        "gaussmath.integrand_evals": (sum(f(f"gaussmath.{n}")["work2"] for n in
                                          ("expect2_pairs", "expect2", "expect1")),
                                      *_COUNT),
        "activations.phiphi_expectation.self_s":
            (f("activations.phiphi_expectation")["self_s"], *_SEC),
        "activations.phiprime_expectation.self_s":
            (f("activations.phiprime_expectation")["self_s"], *_SEC),
        "activations.relu_one_minus_f.calls":
            (f("activations.relu_one_minus_f")["calls"], *_COUNT),
        "activations.relu_one_minus_f.self_s":
            (f("activations.relu_one_minus_f")["self_s"], *_SEC),
        "phase.eoc_curve.calls": (f("phase.eoc_curve")["calls"], *_COUNT),
        "phase.eoc_curve.s": (f("phase.eoc_curve")["s"], *_SEC),
        "phase.classify.calls": (f("phase.classify")["calls"], *_COUNT),
        "phase.classify.s": (f("phase.classify")["s"], *_SEC),
        "kernels.dense_layer_arrays.calls": (dla["calls"], *_COUNT),
        "kernels.dense_layer_arrays.pair_layers": (dla["work"], *_COUNT),
        "kernels.dense_layer_arrays.self_s": (dla["self_s"], *_SEC),
        "kernels.dense_layer_arrays.ns_per_pair_layer":
            (_ratio(dla["self_s"], dla["work"], 1e9), "ns", "lower"),
        # ten (L, P) float64 arrays per call
        "kernels.dense_layer_arrays.bytes_out": (10 * 8 * dla["work"], "B", "lower"),
        "kernels.limiting_kernel.calls": (f("kernels.limiting_kernel")["calls"], *_COUNT),
        "kernels.limiting_kernel.s": (f("kernels.limiting_kernel")["s"], *_SEC),
        "regression.build_gram.calls": (f("regression.build_gram")["calls"], *_COUNT),
        "regression.build_gram.self_s": (f("regression.build_gram")["self_s"], *_SEC),
        "regression.predict.calls": (f("regression.predict")["calls"], *_COUNT),
        "regression.predict.self_s": (f("regression.predict")["self_s"], *_SEC),
        "regression.predict.s": (f("regression.predict")["s"], *_SEC),
        "regression.evolve.s": (f("regression.evolve")["s"], *_SEC),
        "asymptotics.check_expansion.calls": (chk["calls"], *_COUNT),
        "asymptotics.check_expansion.steps": (chk["work"], *_COUNT),
        "asymptotics.check_expansion.self_s": (chk["self_s"], *_SEC),
        # inclusive time: the map evaluations are traced callees
        "asymptotics.check_expansion.steps_per_s": (_ratio(chk["work"], chk["s"]),
                                                    "1/s", "higher"),
        "asymptotics.fit_rate.calls": (f("asymptotics.fit_rate")["calls"], *_COUNT),
        "asymptotics.fit_rate.s": (f("asymptotics.fit_rate")["s"], *_SEC),
        "spectral.zonal_profile.calls": (f("spectral.zonal_profile")["calls"], *_COUNT),
        "spectral.zonal_profile.self_s": (f("spectral.zonal_profile")["self_s"], *_SEC),
        "spectral.decompose.calls": (f("spectral.decompose")["calls"], *_COUNT),
        "spectral.decompose.self_s": (f("spectral.decompose")["self_s"], *_SEC),
        "empirical.sample_net.calls": (f("empirical.sample_net")["calls"], *_COUNT),
        "empirical.sample_net.s": (f("empirical.sample_net")["s"], *_SEC),
        "empirical.empirical_ntk.calls": (f("empirical.empirical_ntk")["calls"], *_COUNT),
        "empirical.empirical_ntk.s": (f("empirical.empirical_ntk")["s"], *_SEC),
    }
    for op in OP_NAMES:
        t[f"cli.op.{op}.s"] = (f(f"cli.op.{op}")["s"], *_SEC)
    t.update({
        "cli.load_dataset.s": (f("cli.load_dataset")["s"], *_SEC),
        "cli.load_dataset.bytes": (f("cli.load_dataset")["work"], "B", "lower"),
        "cli.write_csv.calls": (f("cli.write_csv")["calls"], *_COUNT),
        "cli.write_csv.bytes": (f("cli.write_csv")["work"], "B", "lower"),
        "cli.write_csv.s": (f("cli.write_csv")["s"], *_SEC),
        "cli.write_json.calls": (f("cli.write_json")["calls"], *_COUNT),
        "cli.write_json.s": (f("cli.write_json")["s"], *_SEC),
        "trace.overhead_s": (overhead_s, *_SEC),
    })
    return t


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple((name, unit, better)
                  for name, (_v, unit, better) in _table({}, 0.0).items())


def per_layer_metrics(agg: dict, overhead_s: float) -> dict:
    """The metrics object of a traced run's result line."""
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _b) in _table(agg, overhead_s).items()}
