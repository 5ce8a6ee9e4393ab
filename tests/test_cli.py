"""CLI: dataset ingestion, output contracts, exit codes."""
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from deepntk.activations import make_activation
from deepntk.cli import (ConfigError, build_parser, load_dataset, main,
                         synthetic_sphere, write_json)
from deepntk.errors import InvalidDatasetError, NumericError
from deepntk.kernels import (Architecture, InputPair, dense_layer_arrays,
                             first_layer_cov, normalize, ntk_trace)
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
        assert ds.out_dim == 2
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
        trace = ntk_trace(arch, pair, make_activation("relu"), InitParams(0.2, 1.1), 5)
        np.testing.assert_allclose(got, normalize(trace), rtol=1e-15)

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

    def test_vanishing_variance_warns_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["kernel", "--activation", "relu", "--sigma-b", "0",
                       "--sigma-w", "1e-200", "--depth", "5",
                       "-o", str(tmp_path / "k.csv")])
        assert rc == 2

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_quadrature_order_below_two_is_config_error(self, tmp_path, capsys, order):
        # order 0 is an error, not the default rule
        rc = main(["kernel", "--activation", "tanh", "--quadrature-order", order,
                   "--phase", "eoc", "--sigma-b", "0.2", "--depth", "3",
                   "-o", str(tmp_path / "k.csv")])
        assert rc == 2
        assert "--quadrature-order" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "k.csv")

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
    ], ids=["pairs_0", "pairs_negative", "j_max_3"])
    def test_rates_size_flags_are_config_errors(self, tmp_path, capsys,
                                                flags, message):
        rc = main(["rates", "--phase", "eoc", *flags, "-o", str(tmp_path / "r.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

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
