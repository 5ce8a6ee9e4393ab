"""CLI: dataset ingestion, output contracts, exit codes."""
import argparse
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from deepntk.activations import make_activation
from deepntk import __version__, cli
from deepntk.cli import (MAX_DEPTH, ConfigError, build_parser, load_dataset,
                         main, synthetic_sphere, write_csv, write_json)
from deepntk.errors import InvalidDatasetError, NumericError
from deepntk.kernels import (Architecture, InputPair, dense_layer_arrays,
                             first_layer_cov, kind_law, normalize, ntk_trace)
from deepntk.phase import InitParams
from deepntk.spectral import decompose, jacobi_rule


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_basic_csv_one_hot(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,0,0\n0,1,1\n0.5,-1,0\n")
        ds = load_dataset(path)
        assert ds.n == 3
        assert ds.Z.shape == (3, 2)
        np.testing.assert_allclose(ds.Z[:, 1], [0, 1, 0])

    def test_zero_row_under_unit_sphere_named(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n0,0,0\n1,0,1\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_dataset(path, "unit_sphere")

    def test_malformed_row_has_line_number(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,0,0\n1,oops,1\n")
        with pytest.raises(ConfigError, match=":3"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_has_line_number(self, tmp_path, cell):
        path = write(tmp_path, "d.csv", f"a,b,label\n1,0,0\n1,{cell},1\n")
        with pytest.raises(ConfigError, match=":3: non-finite"):
            load_dataset(path)

    def test_malformed_row_after_comments_has_file_line(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "# comment\n\na,b,label\n1,0,0\n\n1,oops,1\n")
        with pytest.raises(ConfigError, match=r"d\.csv:6: malformed"):
            load_dataset(path)

    def test_zero_row_after_comments_has_file_line(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "# comment\n\na,b,label\n1,0,0\n\n0,0,1\n")
        with pytest.raises(ConfigError, match="row 6 has zero norm"):
            load_dataset(path, "unit_sphere")

    def test_colinear_pair_reported(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,0,0\n2,0,1\n0,1,0\n")
        with pytest.raises(InvalidDatasetError, match="rows 0 and 1"):
            load_dataset(path)

    def test_synthetic_sphere_unit_norm_deterministic(self):
        a = synthetic_sphere(3, 50, 7)
        b = synthetic_sphere(3, 50, 7)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


class TestOutputs:
    def test_rates_smoke_and_fit_json(self, tmp_path):
        out = str(tmp_path / "rates.csv")
        rc = main(["rates", "--arch", "ffnn", "--activation", "relu",
                   "--phase", "eoc", "-o", out])
        assert rc == 0
        body = [ln for ln in open(out).read().splitlines()
                if not ln.startswith("#")]
        assert body[0] == "L,residual,theory_residual"
        assert len(body) == 1 + 9  # header + 9 depth rows
        fit = json.load(open(str(tmp_path / "rates.fit.json")))
        assert "exponent" in fit["fit"]
        assert os.path.exists(out + ".schema.json")

    def test_byte_identical_bodies(self, tmp_path):
        # two runs of the same argv: every data file (all but the sidecars,
        # which carry the time stamp) has the same sha256
        commands = [
            ["kernel", "--arch", "ffnn", "--activation", "relu", "--phase", "eoc",
             "--depth", "6", "--sphere-d", "8", "--seed", "5", "-o", "k.csv"],
            ["rates", "--arch", "scaled_resnet_dense", "--sigma-b", "0.1",
             "--sigma-w", "1", "--j-max", "7", "--pairs", "2", "-o", "r.csv"],
            ["spectrum", "--phase", "eoc", "--depths", "3,30", "--kmax", "8",
             "-o", "s.csv"],
            ["phase", "--activation", "tanh", "--sigma-b-grid", "0,0.5",
             "--sigma-w-grid", "1,1.5", "-o", "p.csv"],
            ["train", "--phase", "eoc", "--depth", "3", "--sphere-n", "12",
             "--predictions", "t.csv", "-o", "t.json"],
        ]

        def digests():
            return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in sorted(os.listdir(tmp_path))
                    if not name.endswith(".schema.json")}

        runs = []
        for _ in range(2):
            for argv in commands:
                assert main([str(tmp_path / a) if a.endswith((".csv", ".json"))
                             else a for a in argv]) == 0
            runs.append(digests())
        assert sorted(runs[0]) == ["k.csv", "p.csv", "r.csv", "r.fit.json",
                                   "s.csv", "t.csv", "t.json"]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("block_rows", [2, 4096])
    def test_write_csv_bytes(self, tmp_path, monkeypatch, block_rows):
        # whole columns: %.17g for floats (nan, inf, -0 and a subnormal
        # included), str for ints and strings, in blocks of rows or not
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        out = str(tmp_path / "t.csv")
        write_csv(out, argparse.Namespace(seed=3, name="t", skipped=None), {
            "x": (np.array([np.nan, np.inf, -0.0, 5e-324, 0.1]), "floats"),
            "n": (np.arange(-1, 4), "ints"),
            "y": ([1.0, -np.inf, 2.5e-310, 1e300, 3.0], "float list"),
            "s": (["eoc", "a b", "", "divergent", "z"], "strings"),
        })
        assert open(out, "rb").read() == (
            f"# deepntk {__version__}\n# config: name=t seed=3\nx,n,y,s\n"
            "nan,-1,1,eoc\n"
            "inf,0,-inf,a b\n"
            "-0,1,2.5000000000000171e-310,\n"
            "4.9406564584124654e-324,2,1.0000000000000001e+300,divergent\n"
            "0.10000000000000001,3,3,z\n").encode()
        schema = json.load(open(out + ".schema.json"))
        assert schema["columns"] == [
            {"name": "x", "description": "floats"},
            {"name": "n", "description": "ints"},
            {"name": "y", "description": "float list"},
            {"name": "s", "description": "strings"}]
        assert schema["file"] == "t.csv"

    def test_write_csv_refuses_ragged_columns(self, tmp_path):
        out = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match="shorter than"):
            write_csv(out, argparse.Namespace(), {"a": ([1, 2], "a"), "b": ([1], "b")})
        assert not os.path.exists(out)

    def test_schema_sidecar_columns_match(self, tmp_path):
        out = str(tmp_path / "phase.csv")
        rc = main(["phase", "--activation", "relu",
                   "--sigma-b-grid", "0,1", "--sigma-w-grid", "0.5,1.0",
                   "-o", out])
        assert rc == 0
        schema = json.load(open(out + ".schema.json"))
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert [c["name"] for c in schema["columns"]] == body[0].split(",")
        assert "generated_at" in schema

    def test_spectrum_depth_trend(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        rc = main(["spectrum", "--arch", "ffnn", "--activation", "relu",
                   "--sigma-b", "0.3", "--sigma-w", "1.3416407864998738",
                   "--d", "3", "--depths", "3,300", "--kmax", "16", "-o", out])
        assert rc == 0
        rows = [ln.split(",") for ln in open(out).read().splitlines()
                if not ln.startswith("#")][1:]
        share = {(int(r[0]), int(r[1])): float(r[3]) for r in rows}
        assert share[(300, 0)] > share[(3, 0)]

    @pytest.mark.parametrize("arch,sigma_b,sigma_w,normalized", [
        ("ffnn", 0.3, 1.2, False),
        ("ffnn", 0.0, np.sqrt(2.0), True),
        ("resnet_dense", 0.1, 1.0, True),
        ("scaled_resnet_dense", 0.1, 1.0, True),
    ], ids=["ordered", "eoc", "resnet", "scaled"])
    def test_spectrum_normalizes_where_the_limit_is(self, tmp_path, arch, sigma_b,
                                                    sigma_w, normalized):
        # the raw kernel for ordered ffnn, K^L / alpha_L at eoc and for
        # residual kinds
        d, L, kmax = 3, 40, 6
        out = str(tmp_path / "s.csv")
        rc = main(["spectrum", "--arch", arch, "--activation", "relu",
                   "--sigma-b", repr(sigma_b), "--sigma-w", repr(float(sigma_w)),
                   "--d", str(d), "--depths", str(L), "--kmax", str(kmax), "-o", out])
        assert rc == 0
        rows = [ln.split(",") for ln in open(out).read().splitlines()
                if not ln.startswith("#")][1:]
        p, rule = InitParams(sigma_b, sigma_w), jacobi_rule(d)
        qdiag = first_layer_cov(p, 1.0, d)
        trace = dense_layer_arrays(arch, make_activation("relu"), p, qdiag, qdiag,
                                   first_layer_cov(p, rule.nodes, d), L)
        profile = (normalize(trace) if normalized else trace.ntk)[-1]
        np.testing.assert_allclose([float(r[2]) for r in rows],
                                   decompose(profile, d, kmax, rule).mu, rtol=1e-13)

    def test_train_json_payload(self, tmp_path):
        out = str(tmp_path / "train.json")
        rc = main(["train", "--activation", "relu", "--phase", "eoc",
                   "--depth", "3", "--sphere-n", "40", "--sphere-d", "8",
                   "--time", "infinity", "-o", out])
        assert rc == 0
        payload = json.load(open(out))
        assert payload["train_acc"] == 1.0
        assert payload["min_eig"] > 0

    @pytest.mark.parametrize("arch", [
        Architecture("ffnn"), Architecture("cnn", 4, 1),
        Architecture("resnet_dense"), Architecture("resnet_conv", 4, 1),
        Architecture("scaled_resnet_dense"), Architecture("scaled_resnet_conv", 4, 1),
    ], ids=lambda a: a.kind)
    def test_kernel_every_architecture(self, tmp_path, arch):
        # two channels, each constant over M = 4 positions: translation
        # invariant, so conv kinds reduce to a per-depth scalar trace
        x = np.repeat([0.7, -0.4], 4)
        xp = np.repeat([0.2, 0.9], 4)
        rows = [",".join(map(str, v.tolist())) + f",{lab}"
                for lab, v in enumerate((x, xp))]
        data = write(tmp_path, "pair.csv", ",".join(["f"] * 8) + ",label\n"
                     + "\n".join(rows) + "\n")
        out = str(tmp_path / "k.csv")
        rc = main(["kernel", "--arch", arch.kind, "--activation", "relu",
                   "--sigma-b", "0.2", "--sigma-w", "1.1", "--depth", "5",
                   "--input", data, "--channels", "2", "-o", out])
        assert rc == 0
        body = [ln.split(",") for ln in open(out).read().splitlines()
                if not ln.startswith("#")]
        got = [float(r[body[0].index("K_normalized")]) for r in body[1:]]
        pair = (InputPair(x.reshape(2, 4), xp.reshape(2, 4)) if arch.is_conv
                else InputPair(x, xp))
        relu, params = make_activation("relu"), InitParams(0.2, 1.1)
        trace = ntk_trace(arch, pair, relu, params, 5)
        # residual kinds are normalised; ffnn and cnn at sigma_w = 1.1 are
        # ordered, where K^l itself converges
        want = normalize(trace) if kind_law(arch, relu, params).normalized else trace.ntk
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_kernel_normalises_only_where_the_law_does(self, tmp_path):
        # ordered ReLU ffnn: K^L converges to 1.148, so K/L would go to 0
        out = str(tmp_path / "k.csv")
        rc = main(["kernel", "--activation", "relu", "--sigma-b", "0.3",
                   "--sigma-w", "1.2", "--depth", "1000", "-o", out])
        assert rc == 0
        body = [ln.split(",") for ln in open(out).read().splitlines()
                if not ln.startswith("#")]
        last = dict(zip(body[0], map(float, body[-1])))
        assert last["K_normalized"] == last["K"]
        assert last["K"] == pytest.approx(1.148, abs=1e-3)
        schema = json.load(open(out + ".schema.json"))
        text = {c["name"]: c["description"] for c in schema["columns"]}
        assert "exp law, ordered phase" in text["K_normalized"]

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = write(tmp_path, "cfg.txt", "depth = 4\nsphere-d = 8\n")
        out = str(tmp_path / "k.csv")
        rc = main(["--config", cfg, "kernel", "--arch", "ffnn",
                   "--activation", "relu", "--phase", "eoc", "-o", out])
        assert rc == 0
        rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 4  # config-file depth applied
        rc = main(["--config", cfg, "kernel", "--arch", "ffnn",
                   "--activation", "relu", "--phase", "eoc",
                   "--depth", "2", "-o", out])
        assert rc == 0
        rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 2  # explicit flag wins

    def test_config_file_values_do_not_outlive_their_call(self, tmp_path):
        # one parser serves every call of the process: a call without
        # --config gets the built-in defaults back
        cfg = write(tmp_path, "cfg.txt", "sphere-d = 8\nseed = 3\n")
        out = str(tmp_path / "k.csv")
        argv = ["kernel", "--phase", "eoc", "--depth", "2", "-o", out]
        for config, echo in ((["--config", cfg], "seed=3 sphere_d=8"),
                             ([], "seed=0 sphere_d=10")):
            assert main(config + argv) == 0
            assert open(out).read().splitlines()[1].endswith(echo)

    def test_config_file_with_equals_form(self, tmp_path):
        cfg = write(tmp_path, "cfg.txt", "depth = 4\n")
        out = str(tmp_path / "k.csv")
        rc = main([f"--config={cfg}", "kernel", "--arch", "ffnn",
                   "--activation", "relu", "--phase", "eoc", "-o", out])
        assert rc == 0
        rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 4

    def test_config_file_unknown_key_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "cfg.txt", "depht = 4\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "kernel", "--arch", "ffnn", "--activation",
                  "relu", "--phase", "eoc", "--depth", "3",
                  "-o", str(tmp_path / "k.csv")])
        assert exc.value.code == 2
        assert not os.path.exists(tmp_path / "k.csv")

    @pytest.mark.parametrize("sigma_w,depth", [("2", 600), ("1", 3000)],
                             ids=["chaotic", "ordered"])
    def test_relu_kernel_without_bias_has_no_nan(self, tmp_path, sigma_w, depth):
        # variances grow (chaotic) or shrink (ordered) like (sigma_w^2/2)^l
        out = str(tmp_path / "k.csv")
        rc = main(["kernel", "--activation", "relu", "--sigma-b", "0",
                   "--sigma-w", sigma_w, "--depth", str(depth), "-o", out])
        assert rc == 0
        body = [ln.split(",") for ln in open(out).read().splitlines()
                if not ln.startswith("#")]
        cols = body[0]
        values = np.array([[float(v) for v in row] for row in body[1:]])
        assert values.shape == (depth, len(cols))
        nan = np.isnan(values)
        assert nan[0, cols.index("qdot")]
        nan[0, cols.index("qdot")] = False
        assert not nan.any()


class TestKernelRows:
    @pytest.mark.parametrize("depth", [5, 400])
    def test_each_view_is_read_once(self, tmp_path, monkeypatch, depth):
        # each view of the trace builds its whole column, which the table
        # writer reads as it is: once, whatever the depth
        from deepntk.kernels import KernelTrace
        reads = {}
        for name in ("qx", "qxp", "qcov", "ntk", "corr", "ntk_log", "ntk_sign"):
            def counted(self, view=getattr(KernelTrace, name).fget, name=name):
                reads[name] = reads.get(name, 0) + 1
                return view(self)
            monkeypatch.setattr(KernelTrace, name, property(counted))
        out = str(tmp_path / "k.csv")
        assert main(["kernel", "--phase", "eoc", "--depth", str(depth),
                     "--sphere-d", "3", "-o", out]) == 0
        assert reads == {"qx": 1, "qxp": 1, "corr": 1, "ntk": 1,
                         "ntk_log": 1, "ntk_sign": 1}


class TestExitCodes:
    def test_missing_sigma_is_config_error(self, tmp_path):
        rc = main(["train", "--activation", "relu", "--depth", "3",
                   "-o", str(tmp_path / "x.json")])
        assert rc == 2

    def test_numeric_error_exit_code(self, tmp_path):
        # chaotic ReLU has no limiting kernel: rates must exit 3
        rc = main(["rates", "--arch", "ffnn", "--activation", "relu",
                   "--sigma-b", "0.0", "--sigma-w", "1.9",
                   "-o", str(tmp_path / "r.csv")])
        assert rc == 3

    def test_kernel_input_with_inf_is_config_error(self, tmp_path, capsys):
        data = write(tmp_path, "pair.csv", "a,b,label\n1,0,0\n0,inf,1\n")
        rc = main(["kernel", "--activation", "relu", "--phase", "eoc",
                   "--depth", "3", "--input", data, "-o", str(tmp_path / "k.csv")])
        assert rc == 2
        assert f"{data}:3: non-finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "k.csv")

    def test_train_data_with_nan_names_the_line(self, tmp_path, capsys):
        rows = "".join(f"{np.cos(a)},{np.sin(a)},{i % 2}\n"
                       for i, a in enumerate(np.linspace(0.1, 3.0, 8)))
        data = write(tmp_path, "d.csv", "a,b,label\n" + rows + "nan,1,0\n")
        rc = main(["train", "--activation", "relu", "--phase", "eoc",
                   "--depth", "3", "--data", data, "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert f"{data}:10: non-finite" in capsys.readouterr().err

    def test_vanishing_variance_is_config_error(self, tmp_path, capsys):
        # sigma_w^2 = 1e-400 underflows: every correlation is 0/0
        rc = main(["kernel", "--activation", "relu", "--sigma-b", "0",
                   "--sigma-w", "1e-200", "--depth", "5",
                   "-o", str(tmp_path / "k.csv")])
        assert rc == 2
        assert "correlation not finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "k.csv")

    def test_one_infinite_variance_in_the_gram_batch_is_config_error(
            self, tmp_path, capsys):
        # the last row's variance overflows to inf: its Gram pairs sit in one
        # batch with finite ones
        rows = "".join(f"{np.cos(a)},{np.sin(a)},{i % 2}\n"
                       for i, a in enumerate(np.linspace(0.1, 3.0, 8)))
        data = write(tmp_path, "d.csv", "a,b,label\n" + rows + "1e200,1,1\n")
        out = str(tmp_path / "t.json")
        with np.errstate(over="ignore"):
            rc = main(["train", "--activation", "relu", "--phase", "eoc",
                       "--depth", "3", "--data", data, "-o", out])
        assert rc == 2
        assert ("correlation not finite: the variances must be positive and "
                "finite") in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,field", [
        (["phase", "--activation", "relu", "--sigma-b-grid", "nan"], "sigma_b"),
        (["phase", "--activation", "tanh", "--sigma-w-grid", "1,inf"], "sigma_w"),
        (["kernel", "--sigma-b", "nan", "--sigma-w", "1", "--depth", "3"], "sigma_b"),
        (["kernel", "--sigma-b", "0.1", "--sigma-w", "inf", "--depth", "3"], "sigma_w"),
        (["kernel", "--activation", "tanh", "--phase", "eoc", "--sigma-b", "nan",
          "--depth", "3"], "sigma_b"),
        # finite, with a square past float max
        (["kernel", "--sigma-b", "1e155", "--sigma-w", "1", "--depth", "3"], "sigma_b"),
        (["kernel", "--arch", "resnet_dense", "--sigma-b", "0", "--sigma-w", "1e200",
          "--depth", "3"], "sigma_w"),
        (["phase", "--activation", "relu", "--sigma-b-grid", "1e160",
          "--sigma-w-grid", "1"], "sigma_b"),
    ], ids=["phase-nan-b", "phase-inf-w", "kernel-nan-b", "kernel-inf-w", "eoc-nan-b",
            "kernel-huge-b", "resnet-huge-w", "phase-huge-b"])
    def test_non_finite_sigma_is_config_error(self, tmp_path, capsys, argv, field):
        out = str(tmp_path / "o.csv")
        assert main(argv + ["-o", out]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_relu_variance_past_float_max_is_divergent(self, tmp_path):
        # sigma_b^2 = 1e308 is finite, q = sigma_b^2 / (1 - 1/2) is not
        out = str(tmp_path / "p.csv")
        assert main(["phase", "--activation", "relu", "--sigma-b-grid", "1e154",
                     "--sigma-w-grid", "1", "-o", out]) == 0
        rows = [line for line in open(out) if not line.startswith("#")]
        assert rows[1].strip() == "1e+154,1,inf,inf,divergent"

    @pytest.mark.parametrize("d", [2, 344, 100000])
    def test_spectrum_dimension_out_of_range_is_config_error(self, tmp_path, capsys, d):
        # Gamma(d / 2) of the sphere area overflows from d = 344
        out = str(tmp_path / "s.csv")
        rc = main(["spectrum", "--activation", "relu", "--phase", "eoc",
                   "--d", str(d), "--depths", "3", "--kmax", "4", "-o", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--d must be in [3, 343], got {d}" in err
        assert "Warning" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,message", [
        (["rates", "--activation", "relu", "--phase", "eoc", "--j-max", "40"],
         "config error: --j-max must be at most 20, got 40"),
        (["kernel", "--activation", "relu", "--phase", "eoc",
          "--depth", "1000000000000000"], "config error: Unable to allocate"),
    ], ids=["rates-13-PiB", "kernel-35-PiB"])
    def test_unallocatable_size_is_config_error(self, tmp_path, capsys, argv,
                                                message):
        # the kernel request exceeds 2^52 bytes, more than a 64-bit process
        # can map, so it fails at once whatever the overcommit policy.
        # rates keeps its grid layers alone (13 PiB for every layer of
        # depth 32 * 2^40), so its grid is refused by size before it runs
        out = str(tmp_path / "o.csv")
        assert main(argv + ["-o", out]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--sigma-b-grid", "--sigma-w-grid"])
    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-2"])
    def test_empty_phase_grid_is_config_error(self, tmp_path, capsys, flag, grid):
        out = str(tmp_path / "p.csv")
        assert main(["phase", "--activation", "relu", flag, grid, "-o", out]) == 2
        assert f"{flag} needs a count of at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_filter_half_width_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "k.csv")
        rc = main(["kernel", "--arch", "cnn", "--phase", "eoc", "--depth", "3",
                   "--filter-k", "-1", "-o", out])
        assert rc == 2
        assert "filter half-width k must be nonnegative" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_quadrature_order_is_not_an_option(self, tmp_path):
        # every Tanh expectation uses the one projection rule: there is no
        # order to choose, on the command line or in a config file
        out = str(tmp_path / "k.csv")
        argv = ["kernel", "--activation", "tanh", "--phase", "eoc", "--sigma-b", "0.2",
                "--depth", "3", "-o", out]
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--quadrature-order", "64"] + argv[1:])
        assert exc.value.code == 2
        cfg = write(tmp_path, "cfg.txt", "quadrature_order = 64\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg] + argv)
        assert exc.value.code == 2
        assert not os.path.exists(out)

    def test_vanishing_variance_warns_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["kernel", "--activation", "relu", "--sigma-b", "0",
                       "--sigma-w", "1e-200", "--depth", "5",
                       "-o", str(tmp_path / "k.csv")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["kernel", "--sigma-b", "1e154", "--sigma-w", "1", "--depth", "3"],
        ["train", "--activation", "relu", "--sigma-b", "0", "--sigma-w", "1e154",
         "--depth", "3", "--sphere-d", "3"],
    ], ids=["kernel-bias", "train-homogeneous"])
    def test_first_layer_root_past_float_max_is_refused_by_name(
            self, tmp_path, capsys, argv):
        # q1 near 1e308: finite variances whose product is not
        out = str(tmp_path / "o.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["-o", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "the first-layer variances q1(x,x) = " in err
        assert "multiply past the float maximum" in err
        assert not os.path.exists(out)

    def test_overflowing_gram_is_numeric_error(self, tmp_path, capsys):
        # K^500 at (0, 3) is about 4.5^499 q^1: the table's entries pass
        # float max, with no warning
        out = str(tmp_path / "t.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--activation", "relu", "--sigma-b", "0",
                       "--sigma-w", "3", "--depth", "500", "--sphere-n", "8",
                       "--sphere-d", "3", "-o", out])
        assert rc == 3
        assert "non-finite entries" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_overflowing_tanh_gram_is_numeric_error(self, tmp_path, capsys):
        # the chaotic Tanh diagonal (chi = 2.37) passes float max near
        # L = 821: the shared-variance run keeps it inf with no warning
        out = str(tmp_path / "t.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--activation", "tanh", "--sigma-b", "0.2",
                       "--sigma-w", "4", "--depth", "900", "--sphere-n", "4",
                       "--sphere-d", "3", "-o", out])
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-finite entries at depth 900: K^L passed the float maximum" in err
        assert "Warning" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("depth", [820, 821])
    def test_tanh_gram_at_the_float_maximum(self, tmp_path, capsys, depth):
        # at L = 820 the chaotic Tanh diagonal is 1.687e308, finite, and the
        # Gram holds it as it is; one layer more passes float max
        out = str(tmp_path / "t.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--activation", "tanh", "--sigma-b", "0.2",
                       "--sigma-w", "4", "--depth", str(depth), "--sphere-n", "8",
                       "--sphere-d", "3", "-o", out])
        err = capsys.readouterr().err
        if depth == 820:
            assert rc == 0, err
            with open(out) as fh:
                assert json.load(fh)["min_eig"] > 1.68e308
        else:
            assert rc == 3
            assert "K^L passed the float maximum" in err

    def test_overflowing_per_pair_tanh_gram_is_numeric_error(self, tmp_path, capsys):
        # unnormalised inputs give every pair its own variances: the
        # chaotic Tanh kernel passes float max there too with no warning
        rng = np.random.default_rng(0)
        data = write(tmp_path, "d.csv", "a,b,c,label\n" + "".join(
            ",".join(map(repr, x.tolist())) + f",{i % 2}\n"
            for i, x in enumerate(rng.standard_normal((8, 3)))))
        out = str(tmp_path / "t.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--activation", "tanh", "--sigma-b", "0.2",
                       "--sigma-w", "4", "--depth", "900", "--data", data, "-o", out])
        assert rc == 3
        err = capsys.readouterr().err
        assert "K^L passed the float maximum" in err
        assert "Warning" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,layer", [
        (["kernel", "--sigma-b", "0", "--sigma-w", "0.5", "--depth", "300"], 248),
        (["kernel", "--sigma-b", "0.1", "--sigma-w", "1e76", "--depth", "5"], 2),
        (["rates", "--sigma-b", "0", "--sigma-w", "0.5", "--j-max", "7"], 248),
        (["train", "--sigma-b", "0", "--sigma-w", "0.5", "--depth", "300"], 248),
    ], ids=["kernel_underflow", "kernel_overflow", "rates", "train"])
    def test_tanh_variance_out_of_the_renormalisation_range_is_numeric_error(
            self, tmp_path, capsys, argv, layer):
        # the Tanh maps do not scale with the variances, so a run whose
        # variance leaves [1e-150, 1e150] is refused, not renormalised
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--activation", "tanh", "-o", out])
        assert rc == 3
        assert (f"left [1e-150, 1e150] at layer {layer}: only the ReLU recursion"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,flag,depth", [
        (["spectrum", "--phase", "eoc", "--depths", "3,1000000000000"],
         "--depths", 10**12),
        (["train", "--phase", "eoc", "--depth", str(MAX_DEPTH + 1),
          "--sphere-n", "12"], "--depth", MAX_DEPTH + 1),
    ], ids=["spectrum", "train"])
    def test_depth_past_the_bound_is_config_error(self, tmp_path, capsys, argv,
                                                  flag, depth):
        # rates' deepest grid depth bounds every run that stores few layers
        assert MAX_DEPTH == 32 * 2**20
        rc = main(argv + ["-o", str(tmp_path / "out")])
        assert rc == 2
        assert (f"config error: {flag} must be at most {MAX_DEPTH}, got {depth}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_positions_is_not_an_option(self, tmp_path):
        # a conv pair's positions follow from its input and --channels
        out = str(tmp_path / "k.csv")
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--arch", "cnn", "--phase", "eoc", "--depth", "3",
                  "--positions", "10", "-o", out])
        assert exc.value.code == 2
        assert not os.path.exists(out)

    def test_zero_sphere_dimension_is_config_error(self, tmp_path, capsys):
        rc = main(["kernel", "--phase", "eoc", "--depth", "3", "--sphere-d", "0",
                   "-o", str(tmp_path / "k.csv")])
        assert rc == 2
        assert "--sphere-d must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "k.csv")

    @pytest.mark.parametrize("flags,message", [
        (["--pairs", "0"], "--pairs must be at least 1, got 0"),
        (["--pairs", "-2"], "--pairs must be at least 1, got -2"),
        (["--j-max", "3"], "--j-max must be at least 7, got 3"),
        (["--j-max", "21"], "--j-max must be at most 20, got 21"),
    ], ids=["pairs_0", "pairs_negative", "j_max_3", "j_max_21"])
    def test_rates_size_flags_are_config_errors(self, tmp_path, capsys,
                                                flags, message):
        rc = main(["rates", "--phase", "eoc", *flags, "-o", str(tmp_path / "r.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("argv", [
        ["train", "--phase", "eoc", "--depth", "0", "--sphere-n", "12"],
        ["train", "--phase", "eoc", "--depth", "-1", "--sphere-n", "12"],
        ["kernel", "--phase", "eoc", "--depth", "0"],
        ["spectrum", "--phase", "eoc", "--depths", "0"],
        ["spectrum", "--phase", "eoc", "--depths", "3,-2"],
    ], ids=["train_0", "train_negative", "kernel_0", "spectrum_0",
            "spectrum_negative"])
    def test_depth_below_one_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv + ["-o", str(out)])
        assert rc == 2
        assert "depth must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--phase", "eoc", "--kmax", "-1"],
         "k_max must be nonnegative, got -1"),
        (["kernel", "--arch", "cnn", "--channels", "0", "--phase", "eoc",
          "--depth", "3"], "--channels must be at least 1, got 0"),
    ], ids=["kmax_negative", "channels_0"])
    def test_negative_sizes_are_config_errors(self, tmp_path, capsys, argv,
                                              message):
        rc = main(argv + ["-o", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_assumption1_violation_is_config_error(self, tmp_path, capsys):
        # the synthetic sphere points are not translation invariant
        rc = main(["kernel", "--arch", "cnn", "--channels", "2", "--filter-k", "1",
                   "--phase", "eoc", "--depth", "3", "-o", str(tmp_path / "k.csv")])
        assert rc == 2
        assert "first-layer grid q1(x,x) varies" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "k.csv")

    def test_nan_training_time_is_config_error(self, tmp_path):
        rc = main(["train", "--phase", "eoc", "--depth", "3", "--sphere-n", "20",
                   "--time", "nan", "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert not os.path.exists(tmp_path / "t.json")

    def test_empty_test_split_is_config_error(self, tmp_path, capsys):
        rc = main(["train", "--phase", "eoc", "--depth", "3", "--sphere-n", "1",
                   "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert "the test split is empty" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t.json")

    @pytest.mark.parametrize("fraction", ["nan", "inf", "-inf"])
    def test_non_finite_test_fraction_is_config_error(self, tmp_path, capsys,
                                                       fraction):
        out = str(tmp_path / "t.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--phase", "eoc", "--depth", "3", "--sphere-n", "12",
                       f"--test-fraction={fraction}", "-o", out])
        assert rc == 2
        assert "--test-fraction must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,flag", [
        (["kernel", "--depth", "3"], "--seed"),
        (["rates"], "--seed"),
        (["train", "--depth", "3", "--sphere-n", "12"], "--seed"),
        (["train", "--depth", "3", "--sphere-n", "12"], "--split-seed"),
        (["empirical", "--widths", "8,16", "--seeds", "2"], "--seed"),
    ], ids=["kernel", "rates", "train", "train-split", "empirical"])
    def test_negative_seed_names_its_flag(self, tmp_path, capsys, argv, flag):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--phase", "eoc", flag, "-1", "-o", out])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer >= 0, got '-1'" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_depth_one_study_warns_nothing(self, tmp_path):
        # the depth-1 kernel does not depend on the weights: every
        # deviation from the mean-field kernel is exactly 0
        out = str(tmp_path / "e.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["empirical", "--phase", "eoc", "--depth", "1",
                       "--widths", "8,16", "--seeds", "2", "-o", out])
        assert rc == 0
        assert os.path.exists(out)

    def test_single_seed_study_is_config_error(self, tmp_path, capsys):
        rc = main(["empirical", "--phase", "eoc", "--seeds", "1", "--widths", "8,16",
                   "-o", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "at least 2 seeds" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "e.csv")

    def test_nan_in_json_output_is_numeric_error(self, tmp_path):
        args = build_parser().parse_args(["selftest"])
        with pytest.raises(NumericError):
            write_json(str(tmp_path / "x.json"), args, {"test_acc": float("nan")})
        assert not os.path.exists(tmp_path / "x.json")

    def test_non_finite_gram_is_numeric_error(self, tmp_path, capsys):
        # chaotic ReLU: raw kernel values pass float max before depth 1100
        rc = main(["train", "--activation", "relu", "--sigma-b", "0",
                   "--sigma-w", "2", "--depth", "1100", "--sphere-n", "20",
                   "-o", str(tmp_path / "t.json")])
        assert rc == 3
        assert "depth 1100" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        rc = main(["phase", "--activation", "relu", "--sigma-b-grid", "0,1",
                   "--sigma-w-grid", "0.5,1.0",
                   "-o", "/nonexistent-dir/deep/out.csv"])
        assert rc == 4
