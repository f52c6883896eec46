import json
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy

from smoothcdf.cli import main


def _write_sample(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")


def test_estimate_edf_rows(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [1.0, 2.0, 3.0])
    code = main(["estimate", "--sample", str(sample), "--kind", "edf",
                 "--points", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    out = (tmp_path / "estimate.csv").read_text()
    assert "2,0.6666666666666666" in out
    assert (tmp_path / "estimate_manifest.json").exists()


def test_estimate_szasz_row(tmp_path):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [1.0])
    code = main(["estimate", "--sample", str(sample), "--kind", "szasz", "--m", "1",
                 "--points", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    out = (tmp_path / "estimate.csv").read_text()
    assert "2,0.8646647167633873" in out


def test_estimate_szasz_order_overflow_is_a_config_error(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [1.0, 1e19])
    code = main(["estimate", "--sample", str(sample), "--kind", "szasz", "--m", "1",
                 "--points", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "too large" in capsys.readouterr().err


def test_estimate_sample_file_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n", encoding="utf-8")
    assert main(["estimate", "--sample", str(empty), "--kind", "edf",
                 "--points", "1", "--out-dir", str(tmp_path)]) == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n", encoding="utf-8")
    assert main(["estimate", "--sample", str(bad), "--kind", "edf",
                 "--points", "1", "--out-dir", str(tmp_path)]) == 2
    assert ":2:" in capsys.readouterr().err  # failing line is reported


def test_estimate_comments_and_points_file(tmp_path):
    sample = tmp_path / "s.txt"
    sample.write_text("# header\n1.0  # inline\n\n2.0\n3.0\n", encoding="utf-8")
    pts = tmp_path / "p.txt"
    pts.write_text("0.5\n2.0\n", encoding="utf-8")
    code = main(["estimate", "--sample", str(sample), "--kind", "edf",
                 "--points-file", str(pts), "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "estimate.csv").read_text().strip().splitlines()
    assert lines[0] == "x,F_hat"
    assert lines[1] == "0.5,0"
    assert lines[2] == "2,0.6666666666666666"


def test_sweep_command_and_determinism(tmp_path, exp2):
    config = {
        "dist": {"kind": "exponential", "rate": 2},
        "estimator_family": "szasz",
        "param_grid": [5],
        "n": 15,
        "M": 25,
        "master_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out2),
                 "--workers", "3"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    summary = json.loads((out1 / "sweep_summary.json").read_text())
    assert summary["argmin_param"] == 5.0
    assert summary["argmin_mise"] > 0.0
    assert summary["argmin_on_grid_edge"] is True  # a one-value grid is all edge
    manifest = json.loads((out1 / "sweep_manifest.json").read_text())
    manifest2 = json.loads((out2 / "sweep_manifest.json").read_text())
    assert manifest["config_digest"] == manifest2["config_digest"]
    assert manifest["master_seed"] == 3


def test_sweep_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["sweep", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "dist": {"kind": "exponential", "rate": 2},
        "estimator_family": "spline",
        "param_grid": [1], "n": 5, "M": 2,
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(unknown), "--out-dir", str(tmp_path)]) == 2


def test_sweep_rejects_more_quadrature_nodes_than_its_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": {"kind": "exponential", "rate": 2}, "estimator_family": "szasz",
        "param_grid": [2], "n": 5, "M": 2, "quadrature_nodes": 100_000,
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "quadrature_nodes must be at most 2048" in capsys.readouterr().err


def test_sweep_rejects_grid_outside_the_family_domain(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": {"kind": "exponential", "rate": 2},
        "estimator_family": "hermite_half",
        "param_grid": [-1, 3], "n": 20, "M": 5,
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "order_max must be an integer >= 0" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_normality_command(tmp_path):
    config = {
        "dist": {"kind": "beta", "alpha": 3, "beta": 3},
        "estimator": {"kind": "edf"},
        "x": 0.4,
        "n": 100,
        "M": 200,
        "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["normality", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    values = (tmp_path / "normality_values.csv").read_text().strip().splitlines()
    assert values[0] == "value"
    assert len(values) == 201
    summary = json.loads((tmp_path / "normality_summary.json").read_text())
    assert summary["reference_mean"] == pytest.approx(0.31744, abs=1e-9)
    assert 0.0 <= summary["ks_distance"] <= 1.0


def test_normality_output_does_not_depend_on_workers(tmp_path):
    # 400 repetitions of n=100 are three chunks of rows on two workers
    config = {"dist": {"kind": "beta", "alpha": 3, "beta": 3},
              "estimator": {"kind": "szasz", "m": 50}, "x": 0.4, "n": 100, "M": 400,
              "master_seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["normality", "--config", str(cfg_path), "--out-dir", str(out),
                     "--workers", workers]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("normality_values.csv", "normality_summary.json")])
    assert outputs[0] == outputs[1]


def test_normality_rejects_empty_sizes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for n, reps in ((100, 0), (100, -1), (0, 200)):
        config = {"dist": {"kind": "beta", "alpha": 3, "beta": 3},
                  "estimator": {"kind": "edf"}, "x": 0.4, "n": n, "M": reps}
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["normality", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"smoothcdf: {'n' if n < 1 else 'M'} must be a positive integer\n"
    assert not (tmp_path / "normality_values.csv").exists()


def test_normality_rejects_a_non_integer_order(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    config = {"dist": {"kind": "beta", "alpha": 3, "beta": 3},
              "estimator": {"kind": "szasz", "m": 2.5}, "x": 0.4, "n": 50, "M": 20}
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["normality", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "smoothcdf: order m must be a positive integer\n"
    assert not (tmp_path / "normality_values.csv").exists()


def test_asymptotics_command(tmp_path):
    assert main(["asymptotics", "--dist", '{"kind":"exponential","rate":2}',
                 "--x", "1", "--n", "100", "--a", "1",
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "asymptotics.json").read_text())
    for key in ("sigma2", "bS", "VS", "m_opt_mse", "C1", "C2", "C3",
                "m_opt_mise", "c_star", "c_opt"):
        assert key in report
    assert report["m_opt_mse"] == pytest.approx(33.27, abs=0.01)
    assert report["C1"] == pytest.approx(4.0 / 35.0, rel=1e-9)


def test_asymptotics_degenerate_point_reports_null(tmp_path):
    # symmetric-density mode: f'(x) = 0 so no finite optimal pointwise order
    assert main(["asymptotics", "--dist", '{"kind":"beta","alpha":3,"beta":3}',
                 "--x", "0.5", "--n", "100", "--a", "1",
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "asymptotics.json").read_text())
    assert report["m_opt_mse"] is None
    assert report["m_opt_mise"] > 0.0


@pytest.mark.filterwarnings("error")  # an IntegrationWarning would be a second line
def test_asymptotics_at_a_zero_reports_finite_constants(tmp_path, capsys):
    # --a 0, the sweeps' own weight, used to exit 2 with "degenerate constants"
    assert main(["asymptotics", "--dist", _EXP2, "--x", "1", "--n", "50", "--a", "0",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "asymptotics.json").read_text())
    assert report["a"] == 0.0
    assert report["C2"] == pytest.approx(0.25, rel=1e-10)
    assert report["C3"] == pytest.approx(2.0 / 27.0, rel=1e-10)
    assert report["m_opt_mise"] == pytest.approx(15.2, abs=0.05)
    assert all(math.isfinite(report[key]) for key in ("C1", "C2", "C3", "c_star", "c_opt"))


@pytest.mark.filterwarnings("error")  # an IntegrationWarning would be a second line
def test_asymptotics_exits_2_naming_a_divergent_constant(tmp_path, capsys):
    # a Weibull shape of 0.6 makes C3 diverge; quad returned -0.0516 at a = 0,
    # which the command wrote out with the m_opt_mise it gives
    weibull = '{"kind":"weibull_mixture","components":[[1.0,0.6,1.0]]}'
    for a in ("0", "1"):
        out = tmp_path / a
        assert main(["asymptotics", "--dist", weibull, "--x", "1", "--n", "50", "--a", a,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("smoothcdf: C3 does not converge: ") and err.count("\n") == 1
        assert not (out / "asymptotics.json").exists()


def test_asymptotics_bad_spec(tmp_path):
    assert main(["asymptotics", "--dist", '{"kind":"zipf"}',
                 "--x", "1", "--n", "10", "--out-dir", str(tmp_path)]) == 2


_EXP2 = '{"kind":"exponential","rate":2}'
_SWEEP = {"dist": {"kind": "exponential", "rate": 2}, "estimator_family": "bernstein",
          "param_grid": [4, 9], "n": 20, "M": 5}
_NORMALITY = {"dist": {"kind": "beta", "alpha": 3, "beta": 3},
              "estimator": {"kind": "edf"}, "x": 0.4, "n": 30, "M": 20}


@pytest.mark.filterwarnings("error")  # an IntegrationWarning would be a second line
@pytest.mark.parametrize("argv", [
    ["asymptotics", "--dist", _EXP2, "--x", "1", "--n", "0"],
    ["asymptotics", "--dist", _EXP2, "--x", "1", "--n", "10", "--a", "-1"],
    ["asymptotics", "--dist", '{"kind":"exponential"}', "--x", "1", "--n", "10"],
    ["sweep", "--config", _SWEEP],
    ["asymptotics", "--dist", _EXP2, "--x", "nan", "--n", "10"],
    ["asymptotics", "--dist", _EXP2, "--x", "inf", "--n", "10"],
    ["asymptotics", "--dist", _EXP2, "--x", "1", "--n", "10", "--a", "nan"],
    ["asymptotics", "--dist", '{"kind":"exponential","rate":NaN}', "--x", "1", "--n", "10"],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "n": 2.5}],
    ["normality", "--config", {**_NORMALITY, "n": 30.7}],
    ["normality", "--config", {**_NORMALITY, "estimator": {"kind": "edf", "clip": True}}],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "master_seed": 1.7}],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "master_seed": -1}],
    ["normality", "--config", {**_NORMALITY, "master_seed": 1.7}],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz"}, "--workers", "0"],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz"}, "--workers", "-4"],
    ["normality", "--config", _NORMALITY, "--workers", "0"],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "n": "20"}],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "master_seed": "7"}],
    ["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "param_grid": "49"}],
    ["normality", "--config", {**_NORMALITY, "x": "0.4"}],
    ["normality", "--config", {**_NORMALITY, "x": [0.4, 0.5]}],
], ids=["n=0", "a<0", "no rate", "bernstein on the half line", "x=nan", "x=inf",
        "a=nan", "rate=nan", "sweep n=2.5", "normality n=30.7", "normality clip",
        "sweep seed=1.7", "sweep seed=-1", "normality seed=1.7", "sweep workers=0",
        "sweep workers=-4", "normality workers=0", "sweep n string", "sweep seed string",
        "sweep param_grid string", "normality x string", "normality x list"])
def test_invalid_input_exits_2_with_one_message(tmp_path, capsys, argv):
    # each of these ended in a traceback with exit code 1, or ran: NaN x and a
    # were written out, n = 2.5 or 30.7 ran at n = 2 or 30, the numbers
    # written as strings ran as numbers, and "param_grid": "49" swept the
    # grid (4, 9)
    cfg = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg), encoding="utf-8")
    argv = [str(cfg) if isinstance(arg, dict) else arg for arg in argv]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothcdf: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, data_files", [
    (["estimate", "--sample", "SAMPLE", "--kind", "szasz", "--m", "5", "--points", "1,2"],
     ["estimate.csv"]),
    (["sweep", "--config", _SWEEP | {"dist": {"kind": "beta", "alpha": 3, "beta": 3}},
      "--workers", "1"], ["sweep.csv", "sweep_summary.json"]),
    (["normality", "--config", _NORMALITY, "--workers", "1"],
     ["normality_values.csv", "normality_summary.json"]),
    (["asymptotics", "--dist", _EXP2, "--x", "1", "--n", "10"], ["asymptotics.json"]),
    (["theory-check", "--level", "fast"], ["theory_check.json"]),
], ids=["estimate", "sweep", "normality", "asymptotics", "theory-check"])
def test_each_command_writes_its_data_files_and_one_manifest_listing_them(
        tmp_path, capsys, argv, data_files):
    cfg, sample = tmp_path / "cfg.json", tmp_path / "s.txt"
    _write_sample(sample, [0.3, 0.6, 0.9])
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg), encoding="utf-8")
    argv = [str(cfg) if isinstance(arg, dict) else str(sample) if arg == "SAMPLE" else arg
            for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 0
    manifest_name = f"{argv[0].replace('-', '_')}_manifest.json"
    assert sorted(p.name for p in out.iterdir()) == sorted(data_files + [manifest_name])
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["command"] == argv[0]
    assert manifest["outputs"] == [str(out / name) for name in data_files]
    workers = ["workers"] if argv[0] in ("sweep", "normality") else []
    assert list(manifest) == ["command", "config_digest", "master_seed", "version", "python",
                              "numpy", "scipy", "cpu_count", *workers, "started_at",
                              "finished_at", "peak_rss_bytes", "outputs"]
    assert manifest["started_at"] <= manifest["finished_at"]
    assert manifest["python"] == platform.python_version()
    assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest.get("workers", 1) == 1
    assert manifest["peak_rss_bytes"] >= 1_000_000
    assert capsys.readouterr().out.endswith("\n")


@pytest.mark.parametrize("argv, key", [
    (["sweep", "--config", {**_SWEEP, "dist": {"kind": "exponential", "rate": 2, "scale": 1}}],
     "'scale'"),
    (["asymptotics", "--dist", '{"kind":"exponential","rate":2,"shape":1}', "--x", "1",
      "--n", "10"], "'shape'"),
    (["normality", "--config", {**_NORMALITY, "dist": {"kind": "beta", "alpha": 3}}],
     "beta spec is missing 'beta'"),
    (["sweep", "--config", {**_SWEEP, "estimator_family": "szasz", "seed": 4}], "'seed'"),
    (["sweep", "--config", {k: v for k, v in _SWEEP.items() if k != "dist"}],
     "missing 1 required positional argument: 'dist'"),
    (["sweep", "--config", {k: v for k, v in _SWEEP.items() if k != "n"}],
     "missing 1 required positional argument: 'n'"),
    (["normality", "--config", {**_NORMALITY, "repetitions": 20}], "'repetitions'"),
    (["normality", "--config", {**_NORMALITY, "workers": 2}], "'workers'"),
    (["normality", "--config", {k: v for k, v in _NORMALITY.items() if k != "x"}],
     "missing 1 required positional argument: 'x'"),
    (["normality", "--config", [_NORMALITY]], "must be an object"),
], ids=["dist spec unknown key", "asymptotics dist unknown key", "dist spec missing key",
        "sweep unknown key", "sweep missing dist", "sweep missing n", "normality unknown key",
        "normality workers key", "normality missing x", "config not an object"])
def test_config_key_errors_exit_2_naming_the_key(tmp_path, capsys, argv, key):
    # unknown keys were ignored, and a missing key was a KeyError re-wrapped
    # as "bad ... config: 'n'"
    cfg = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, (dict, list)):
            cfg.write_text(json.dumps(arg), encoding="utf-8")
    argv = [str(cfg) if isinstance(arg, (dict, list)) else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothcdf: ") and err.count("\n") == 1, err
    assert key in err
    assert not out.exists()


def test_theory_check_command(tmp_path, capsys):
    assert main(["theory-check", "--level", "fast", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "theory_check.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert any("weighted integral" in n for n in names)
    assert any("L_m" in n for n in names)
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_estimate_standardized_hermite_and_missing_param(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [0.2, 0.5, 1.1])
    code = main(["estimate", "--sample", str(sample), "--kind", "hermite_half",
                 "--N", "8", "--standardize", "--sigma", "0.5",
                 "--points", "0.5,1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "estimate.csv").read_text().strip().splitlines()) == 3
    # spec without the required order is a config error, not a traceback
    assert main(["estimate", "--sample", str(sample), "--kind", "szasz",
                 "--points", "1", "--out-dir", str(tmp_path)]) == 2
    assert "missing" in capsys.readouterr().err
    # a sigma that is not positive and finite is a config error too
    for sigma in ("nan", "inf", "-inf", "0"):
        assert main(["estimate", "--sample", str(sample), "--kind", "hermite_half",
                     "--N", "8", "--standardize", f"--sigma={sigma}",
                     "--points", "1", "--out-dir", str(tmp_path)]) == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err


def test_sweep_output_does_not_depend_on_workers(tmp_path):
    config = {
        "dist": {"kind": "exponential", "rate": 2},
        "estimator_family": "szasz",
        "param_grid": [4, 8],
        "n": 10,
        "M": 10,
        "master_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a"),
                 "--workers", "1"]) == 0
    # results do not depend on the worker count
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "c" / "sweep.csv").read_bytes()


def test_sweep_csv_header(tmp_path):
    config = {
        "dist": {"kind": "exponential", "rate": 2},
        "estimator_family": "edf",
        "param_grid": [0],
        "n": 10,
        "M": 5,
        "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,mise,se"
    assert len(lines) == 2


def test_estimate_requires_points(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [1.0])
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--sample", str(sample), "--kind", "edf",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_estimate_rejects_nan_points(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    _write_sample(sample, [1.0, 2.0])
    for point, message in (("nan", "must not be NaN"), ("inf", "must be finite"),
                           ("-inf", "must be finite")):
        for kind, extra in (("edf", []), ("szasz", ["--m", "5"]), ("kernel", ["--h", "0.1"]),
                            ("hermite_half", ["--N", "5"])):
            out = tmp_path / point / kind
            code = main(["estimate", "--sample", str(sample), "--kind", kind, *extra,
                         "--points", f"1,{point}", "--out-dir", str(out)])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (out / "estimate.csv").exists()


_LOAD_ON_USE = textwrap.dedent("""
    import json, sys
    import smoothcdf, smoothcdf.cli
    from smoothcdf.cli import main

    lazy = ("scipy.optimize", "scipy.integrate")
    with open("s.txt", "w") as f:
        f.write("0.2\\n0.5\\n0.9\\n1.4\\n")
    sweep = {"dist": {"kind": "exponential", "rate": 2}, "estimator_family": "szasz",
             "param_grid": [2, 4], "n": 10, "M": 5}
    normality = {"dist": {"kind": "beta", "alpha": 3, "beta": 3},
                 "estimator": {"kind": "szasz", "m": 20}, "x": 0.4, "n": 20, "M": 10}
    for name, config in (("sweep.json", sweep), ("normality.json", normality)):
        with open(name, "w") as f:
            json.dump(config, f)
    for argv in (["estimate", "--sample", "s.txt", "--kind", "szasz", "--m", "20",
                  "--points", "0.5,1", "--out-dir", "est"],
                 ["sweep", "--config", "sweep.json", "--workers", "1", "--out-dir", "sw"],
                 ["normality", "--config", "normality.json", "--workers", "1",
                  "--out-dir", "no"],
                 ["theory-check", "--level", "fast", "--out-dir", "tc"]):
        assert main(argv) == 0, argv
        loaded = [name for name in lazy if name in sys.modules]
        assert not loaded, (argv[0], loaded)
    x = [0.2, 0.5, 0.9]
    quantiles = [fit.quantile(0.5) for fit in (
        smoothcdf.szasz_fit([0.5, 1, 2], 3), smoothcdf.bernstein_fit(x, 5),
        smoothcdf.kernel_fit(x, 0.1), smoothcdf.hermite_half_fit(x, 4))]
    after_quantiles = [name for name in lazy if name in sys.modules]
    consts = smoothcdf.mise_constants(smoothcdf.make_exponential(2.0), 1.0)
    print(json.dumps({"quantile": quantiles[0], "C1": consts.C1, "C2": consts.C2,
                      "after_quantiles": after_quantiles,
                      "loaded": [name for name in lazy if name in sys.modules]}))
""")


def test_scipy_optimize_and_integrate_load_only_where_they_are_used(tmp_path):
    # a fresh interpreter: the sweeps, normality, estimate, theory-check and a
    # quantile of each smooth kind load neither; only mise_constants does, whose
    # scipy.integrate imports scipy.optimize
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _LOAD_ON_USE], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["after_quantiles"] == []
    assert report["loaded"] == ["scipy.optimize", "scipy.integrate"]
    assert report["quantile"] == pytest.approx(1.0272565616852263, abs=1e-9)
    assert report["C1"] == pytest.approx(4.0 / 35.0, rel=1e-10)
    assert report["C2"] == pytest.approx(2.0 / 5.0**1.5, rel=1e-9)
