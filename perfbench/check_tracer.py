"""The benchmark's own tests: exact tracer counts, span coverage, the gate.

Run from the repository root (about half a minute; not part of the tier-1
suite, which collects only ``tests/``):

    python3 -m pytest -q perfbench/check_tracer.py

Expected counts are derived from the workload sizes in workloads.py.  A
wrapper missing at one import site of a function (``dense_layer_arrays``
is imported by name into ``cli``, ``regression`` and ``spectral``) shows as
a count mismatch.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import workloads as wl
from layers import PER_LAYER, per_layer_metrics
from run import END_TO_END_UNITS, HERE, ROOT, StartError, spawn

#: Gauss-Jacobi nodes of the Funk-Hecke rule (deepntk.spectral.DEFAULT_NODES)
SPECTRUM_NODES = 256
HERMITE_ORDER = 64


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced process per workload at the default seed."""
    out = {}
    for name in wl.WORKLOADS:
        rundir = str(tmp_path_factory.mktemp(name))
        ops = wl.build(name, wl.DEFAULT_SEED, rundir)
        res = spawn(rundir, ops, True, "traced")
        out[name] = (ops, res, rundir)
    return out


def _reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _metrics(traced, name):
    return {k: m["value"] for k, m in
            per_layer_metrics(traced[name][1]["trace"]["summary"], 0.0).items()}


def test_train_relu_deep_counts(traced):
    m = _metrics(traced, "train_relu_deep")
    n, L = wl.RELU_TRAIN["n"], wl.RELU_TRAIN["depth"]
    n_test = round(wl.TEST_FRACTION * n)
    n_train = n - n_test
    pair_layers = n_train * (n_train + 1) // 2 * L + n_test * n_train * L
    assert m["regression.build_gram.calls"] == 1
    assert m["regression.predict.calls"] == n_test
    assert m["kernels.dense_layer_arrays.calls"] == 1 + n_test
    assert m["kernels.dense_layer_arrays.pair_layers"] == pair_layers
    assert m["kernels.dense_layer_arrays.bytes_out"] == 10 * 8 * pair_layers
    assert m["gaussmath.expect2_pairs.calls"] == 0
    assert m["gaussmath.integrand_evals"] == 0
    assert m["phase.eoc_curve.calls"] == 0
    assert m["asymptotics.check_expansion.calls"] == 0
    assert m["cli.write_csv.calls"] == 1 and m["cli.write_json.calls"] == 1
    data = [a for a in traced["train_relu_deep"][0][0]["argv"] if a.endswith(".data.csv")]
    assert m["cli.load_dataset.bytes"] == os.path.getsize(data[0])


def test_tanh_quadrature_counts(traced):
    m = _metrics(traced, "tanh_quadrature")
    n, L = wl.TANH_TRAIN["n"], wl.TANH_TRAIN["depth"]
    n_test = round(wl.TEST_FRACTION * n)
    n_train = n - n_test
    # four bivariate expectations per layer: E[phi phi], E[phi' phi'] and
    # the two diagonal variances
    pairs = 4 * (L - 1) * (n_train * (n_train + 1) // 2 + n_test * n_train)
    assert m["regression.predict.calls"] == n_test
    assert m["kernels.dense_layer_arrays.calls"] == 1 + n_test
    assert m["gaussmath.expect2_pairs.calls"] == 4 * (L - 1) * (1 + n_test)
    assert m["gaussmath.expect2_pairs.pairs"] == pairs
    assert m["gaussmath.integrand_evals"] == (pairs * HERMITE_ORDER**2
                                              + m["gaussmath.expect1.calls"] * HERMITE_ORDER)
    assert m["phase.eoc_curve.calls"] == 1
    assert m["activations.relu_one_minus_f.calls"] == 0
    assert m["cli.write_csv.calls"] == 2  # phase grid and predictions


def test_depth_laws_counts(traced):
    m = _metrics(traced, "depth_laws")
    L_rates = 32 * 2 ** wl.RATES["j_max"]
    depths = wl.SPECTRUM["depths"]
    widths, seeds = wl.EMPIRICAL["widths"], wl.EMPIRICAL["seeds"]
    assert m["kernels.dense_layer_arrays.calls"] == 3 + len(depths) + 1
    assert m["kernels.dense_layer_arrays.pair_layers"] == (
        3 * wl.RATES["pairs"] * L_rates + SPECTRUM_NODES * sum(depths)
        + wl.EMPIRICAL["depth"])
    assert m["kernels.limiting_kernel.calls"] == 3
    assert m["asymptotics.fit_rate.calls"] == 6  # chosen and alternative model
    assert m["asymptotics.check_expansion.calls"] == 3
    assert m["asymptotics.check_expansion.steps"] == 3 * (wl.EXPANSION_DEPTH - 1)
    assert m["activations.relu_one_minus_f.calls"] >= 3 * (wl.EXPANSION_DEPTH - 1)
    assert m["spectral.zonal_profile.calls"] == len(depths)
    assert m["spectral.decompose.calls"] == len(depths)
    assert m["empirical.sample_net.calls"] == len(widths) * seeds
    assert m["empirical.empirical_ntk.calls"] == len(widths) * seeds
    assert m["gaussmath.expect2_pairs.calls"] == 0
    assert m["regression.build_gram.calls"] == 0
    assert m["cli.write_csv.calls"] == 5 and m["cli.write_json.calls"] == 3


#: share of an op's wall time its top-level layer spans must cover; the
#: phase op is ~25 ms, of which argument parsing and the grid loop are a
#: visible part
COVERAGE = {"phase": 0.5}


def test_top_level_spans_cover_each_op(traced):
    for name, (ops, res, _) in traced.items():
        coverage = res["trace"]["coverage"]
        assert sorted(coverage) == sorted(op["name"] for op in ops)
        for op, share in coverage.items():
            assert share >= COVERAGE.get(op, 0.95), (name, op, share)


def test_traced_outputs_pass_the_gate(traced):
    for name, (ops, res, _) in traced.items():
        reference = _reference(name)
        for op, got in zip(ops, res["ops"]):
            assert checks.check(op, got["rc"], got["value"], reference[op["name"]]) == []


def test_gate_rejects_bad_outputs(traced):
    ops, res, _ = traced["train_relu_deep"]
    op, got = ops[0], res["ops"][0]
    ref = _reference("train_relu_deep")["train"]
    assert checks.check(op, 3, got["value"], ref) == ["exit code 3"]
    with open(op["output"], encoding="utf-8") as fh:
        original = fh.read()

    def tamper(key, value):
        payload = json.loads(original)
        payload[key] = value
        with open(op["output"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    try:
        tamper("min_eig", json.loads(original)["min_eig"] * (1.0 + 1e-6))
        fails = checks.check(op, 0, got["value"], ref)
        assert len(fails) == 1 and "min_eig" in fails[0]
        tamper("train_acc", float("nan"))
        fails = checks.check(op, 0, got["value"], None)
        assert "1 non-finite output values" in fails
        assert any("train_acc" in f for f in fails)
    finally:
        with open(op["output"], "w", encoding="utf-8") as fh:
            fh.write(original)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(wl.WORKLOADS)


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "depth_laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_process_running_at_the_deadline_is_killed(tmp_path):
    ops = wl.build("depth_laws", 1, str(tmp_path))
    started = time.monotonic()
    with pytest.raises(StartError, match="time limit"):
        spawn(str(tmp_path), ops, False, "stuck", deadline=started + 0.5)
    assert time.monotonic() - started < 2.0
    with pytest.raises(ChildProcessError):
        os.wait4(-1, os.WNOHANG)  # the killed child was reaped
