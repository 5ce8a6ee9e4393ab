"""tools/layer_ab.py, the same-process A/B of the kernel engine, on this tree."""
import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layer_ab():
    spec = importlib.util.spec_from_file_location(
        "layer_ab", os.path.join(ROOT, "tools", "layer_ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_a_three_layer_case_of_this_tree():
    ab = _layer_ab()
    name = "deepntk_layer_ab_smoke"
    try:
        pkg = ab.load(os.path.join(ROOT, "src"), name)
        first = ab.first_layer(np.random.default_rng(0), "relu", 10, True)
        seconds = ab.time_call(pkg, pkg.make_activation("relu"),
                               pkg.InitParams(0.0, 2.0 ** 0.5), first, 3)
        assert 0.0 < seconds < 10.0
    finally:
        for module in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[module]

