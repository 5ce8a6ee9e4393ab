"""Import set: start-up loads no scipy, and no op loads a module late.

One fresh interpreter imports ``deepntk.cli`` and then runs one small op of
each kind in turn; another runs ``deepntk selftest``, which must load no
scipy module either (numpy is the only runtime dependency).  A third
installs the benchmark's span tracer and checks that its targets still
exist and bind the arguments that its work counts read.  Start-up must
not load ``scipy`` at all (the quadrature rules are numpy; ``scipy.linalg``
and ``scipy.special`` cost 0.3 s and about 20 MB), nor ``scipy.optimize``
in particular, and no op may load a
``numpy`` or ``scipy`` module that start-up did not: a lazy import in an
op (``numpy.random`` or ``numpy.ma``, about 10 ms each) moves its cost
into the first call of that op.
"""
import json
import os
import subprocess
import sys

import pytest

import deepntk

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(deepntk.__file__)))

_RESIDUAL = ["--sigma-b", "0.1", "--sigma-w", "1.0"]
_RATES = ["--j-max", "7", "--pairs", "2"]

OPS = {
    "kernel": ["kernel", "--phase", "eoc", "--depth", "4"],
    "rates_ffnn": ["rates", "--arch", "ffnn", "--phase", "eoc", *_RATES],
    "rates_resnet_dense": ["rates", "--arch", "resnet_dense", *_RESIDUAL, *_RATES],
    "rates_scaled_resnet_dense": ["rates", "--arch", "scaled_resnet_dense",
                                  *_RESIDUAL, *_RATES],
    "spectrum": ["spectrum", "--phase", "eoc", "--depths", "3,30", "--kmax", "8"],
    "phase_tanh": ["phase", "--activation", "tanh"],
    "train_relu": ["train", "--phase", "eoc", "--depth", "3", "--sphere-n", "12"],
    "train_tanh": ["train", "--activation", "tanh", "--phase", "eoc",
                   "--sigma-b", "0.2", "--depth", "3", "--sphere-n", "12"],
    "empirical": ["empirical", "--phase", "eoc", "--depth", "2",
                  "--widths", "8,16", "--seeds", "2"],
}

_PROBE = """
import json, os, sys, tempfile

import deepntk.cli


def library_modules():
    return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}


report = {"startup": sorted(library_modules()), "ops": {}}
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in json.loads(sys.argv[1]).items():
        before = library_modules()
        rc = deepntk.cli.main(argv + ["-o", os.path.join(tmp, name + ".out")])
        report["ops"][name] = {"rc": rc, "new": sorted(library_modules() - before)}
print(json.dumps(report))
"""


_SELFTEST_PROBE = """
import json, sys

import deepntk.cli

rc = deepntk.cli.main(["selftest"])
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules
                                            if m.split(".")[0] == "scipy")}))
"""


def _probe(*argv):
    """The last stdout line of ``python -c argv...`` as JSON."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *argv],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def report():
    return _probe(_PROBE, json.dumps(OPS))


def test_startup_does_not_load_scipy_optimize(report):
    assert "scipy.optimize" not in report["startup"]


def test_startup_loads_no_scipy_module(report):
    assert [m for m in report["startup"] if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_loads_no_new_scipy_module(report, op):
    # numpy modules count too: the probe tracks both libraries
    assert report["ops"][op] == {"rc": 0, "new": []}


def test_selftest_loads_no_scipy_module():
    assert _probe(_SELFTEST_PROBE) == {"rc": 0, "scipy": []}


_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")

_TRACER_PROBE = """
import importlib.util, inspect, json, sys

import deepntk
import deepntk.cli
import deepntk.empirical
from deepntk.activations import make_activation
from deepntk.asymptotics import check_expansion
from deepntk.phase import InitParams

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
params = {}
for module, name, work in tracer.TARGETS:
    if work is not None:
        fn = getattr(sys.modules["deepntk." + module], name)
        params[module + "." + name] = list(inspect.signature(fn).parameters)
# the call of the benchmark's expansion op
inspect.signature(check_expansion).bind(
    "ffnn", make_activation("relu"), InitParams(0.0, 2.0 ** 0.5), 100, gamma0=0.5)
print(json.dumps(params))
"""

#: the arguments that each work-count function of the benchmark's tracer
#: reads from its target's bound call
_TRACED_ARGUMENTS = {
    "gaussmath.expect2_pairs": ["q1", "q2", "c", "rule"],
    "gaussmath.expect2": ["rule"],
    "gaussmath.expect1": ["rule"],
    "kernels.dense_layer_arrays": ["qx0", "qxp0", "qcov0", "L"],
    "asymptotics.check_expansion": ["depth"],
    "cli.load_dataset": ["path"],
    "cli.write_csv": ["path"],
}


def test_benchmark_tracer_targets_bind():
    # the tracer looks its targets up by name and binds their calls to count
    # work, so a renamed function or argument fails only a traced run
    params = _probe(_TRACER_PROBE, _TRACER)
    assert sorted(params) == sorted(_TRACED_ARGUMENTS)
    for target, names in _TRACED_ARGUMENTS.items():
        assert set(names) <= set(params[target]), target
