import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rieszreg
from rieszreg.cli import main
from rieszreg.estimands import builtin_spec, format_spec, parse_spec


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def discrete_csv(tmp_path):
    path = tmp_path / "d.csv"
    assert run("simulate", "--dgp", "discrete", "--n", "600", "--seed", "4",
               "--out", str(path)) == 0
    return path


class TestSimulate:
    def test_writes_csv_and_schema(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run("simulate", "--dgp", "appendix", "--n", "1000", "--seed", "7",
                   "--out", str(out)) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "data.csv.schema.json").read_text())
        assert [c["name"] for c in sidecar["columns"]] == ["W", "A", "M", "Y"]
        header, first = out.read_text().splitlines()[:2]
        assert header == "W,A,M,Y"
        assert len(first.split(",")) == 4
        assert "n=1000" in capsys.readouterr().out

    def test_identical_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--dgp", "appendix", "--n", "200", "--seed", "9",
            "--out", str(a))
        run("simulate", "--dgp", "appendix", "--n", "200", "--seed", "9",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rows_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--dgp", "appendix", "--n", "0", "--seed", "1",
                "--out", str(tmp_path / "x.csv"))
        assert err.value.code == 2

    def test_dgp_params_override(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"propensity": [0.5, 0.5]}))
        out = tmp_path / "d.csv"
        assert run("simulate", "--dgp", "discrete", "--dgp-params", str(params),
                   "--n", "50000", "--seed", "2", "--out", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert abs(rows[:, 1].mean() - 0.5) < 0.01

    def test_outdir_env_redirects_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIESZREG_OUTDIR", str(tmp_path / "sandbox"))
        assert run("simulate", "--dgp", "discrete", "--n", "50", "--seed", "1",
                   "--out", "rel.csv") == 0
        assert (tmp_path / "sandbox" / "rel.csv").exists()


class TestEstimate:
    def test_builtin_on_simulated_data(self, discrete_csv, tmp_path, capsys):
        report_path = tmp_path / "rep.json"
        code = run("estimate", "--data", str(discrete_csv), "--spec", "ate",
                   "--folds", "2", "--min-rows-per-fold", "30", "--seed", "3",
                   "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert {"theta_hat", "plug_in", "std_error", "ci", "provenance"} <= set(payload)
        assert payload["provenance"]["config_sha256"]
        assert "estimate=" in capsys.readouterr().out

    def test_contrast_report_written(self, tmp_path):
        data = tmp_path / "a.csv"
        run("simulate", "--dgp", "appendix", "--n", "1500", "--seed", "6",
            "--out", str(data))
        out = tmp_path / "nde.json"
        code = run("estimate", "--data", str(data), "--spec", "nde", "--folds", "3",
                   "--min-rows-per-fold", "30", "--seed", "8", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["contrast"] is not None
        assert "difference" in payload["contrast"]

    def test_spec_document_path(self, discrete_csv, tmp_path):
        from rieszreg import builtin_spec

        doc = tmp_path / "spec.json"
        doc.write_text(format_spec(builtin_spec("ate")))
        out = tmp_path / "rep.json"
        assert run("estimate", "--data", str(discrete_csv), "--spec", str(doc),
                   "--folds", "2", "--min-rows-per-fold", "30", "--seed", "1",
                   "--out", str(out)) == 0
        assert parse_spec(doc.read_text()).name == "ate"

    def test_missing_mediator_is_schema_error(self, discrete_csv, tmp_path, capsys):
        code = run("estimate", "--data", str(discrete_csv), "--spec", "nde",
                   "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 3
        assert "'M'" in capsys.readouterr().err

    def test_unknown_spec_is_schema_error(self, discrete_csv, tmp_path):
        code = run("estimate", "--data", str(discrete_csv), "--spec", "nonsense",
                   "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 3

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = run("estimate", "--data", str(tmp_path / "absent.csv"),
                   "--spec", "ate", "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 5

    def test_mlp_method_runs(self, discrete_csv, tmp_path):
        code = run("estimate", "--data", str(discrete_csv), "--spec", "ate",
                   "--method", "mlp", "--mlp-epochs", "5", "--folds", "2",
                   "--min-rows-per-fold", "30", "--seed", "2",
                   "--out", str(tmp_path / "m.json"))
        assert code == 0


class TestVerify:
    def test_full_suite_passes(self, capsys):
        assert run("verify", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_subset_run(self, capsys):
        assert run("verify", "--seed", "0", "--check", "gradients") == 0
        assert capsys.readouterr().out.count("PASS") == 1

    def test_injected_sign_flip_fails_representation(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = run("verify", "--seed", "0", "--check", "representation",
                   "--inject-sign-flip", "--out", str(report))
        assert code == 1
        assert "FAIL representation" in capsys.readouterr().out
        assert json.loads(report.read_text())["all_passed"] is False


class TestBenchmark:
    def test_grid_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run("benchmark", "--dgp", "discrete", "--spec", "ate,mean_treated",
                   "--n", "400", "--replicates", "3", "--folds", "2",
                   "--min-rows-per-fold", "30", "--seed", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dgp,spec,method,n,replicates")
        assert len(lines) == 3
        assert (tmp_path / "table.csv.meta.json").exists()

    def test_single_replicate_coverage_degenerate(self, tmp_path):
        out = tmp_path / "one.csv"
        run("benchmark", "--dgp", "discrete", "--spec", "ate", "--n", "400",
            "--replicates", "1", "--folds", "2", "--min-rows-per-fold", "30",
            "--seed", "5", "--out", str(out))
        row = out.read_text().splitlines()[1].split(",")
        coverage = float(row[10])
        assert coverage in (0.0, 1.0)

    def test_parallel_equals_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["benchmark", "--dgp", "discrete", "--spec", "ate", "--n", "400",
                "--replicates", "4", "--folds", "2", "--min-rows-per-fold", "30",
                "--seed", "5"]
        run(*args, "--threads", "1", "--out", str(serial))
        run(*args, "--threads", "2", "--out", str(parallel))
        strip = lambda path: [line.rsplit(",", 1)[0]  # runtime column varies
                              for line in path.read_text().splitlines()]
        assert strip(serial) == strip(parallel)

    def test_mediator_estimand_skipped_on_discrete_dgp(self, tmp_path):
        out = tmp_path / "skip.csv"
        run("benchmark", "--dgp", "discrete", "--spec", "nde,ate", "--n", "400",
            "--replicates", "2", "--folds", "2", "--min-rows-per-fold", "30",
            "--seed", "5", "--out", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and ",ate," in lines[1]


class TestErrorCodes:
    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a training split that misses a treatment level is a numerical abort
        data = tmp_path / "tiny.csv"
        run("simulate", "--dgp", "discrete", "--n", "120", "--seed", "4",
            "--out", str(data))
        import numpy as np

        from rieszreg import Dataset

        loaded = Dataset.from_csv(data)
        cols = dict(loaded.columns)
        a = cols["A"].copy()
        a[:] = 1.0
        a[3] = 0.0
        cols["A"] = a
        Dataset(loaded.schema, cols).to_csv(data)
        code = run("estimate", "--data", str(data), "--spec", "ate", "--folds", "2",
                   "--min-rows-per-fold", "10", "--seed", "1",
                   "--out", str(tmp_path / "x.json"))
        assert code == 4
        assert "missing level" in capsys.readouterr().err

    def test_benchmark_meta_contains_truth_reports(self, tmp_path):
        out = tmp_path / "t.csv"
        run("benchmark", "--dgp", "discrete", "--spec", "ate", "--n", "400",
            "--replicates", "2", "--folds", "2", "--min-rows-per-fold", "30",
            "--seed", "5", "--out", str(out))
        meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
        assert meta["truth_reports"][0]["spec"] == "ate"
        assert meta["truth_reports"][0]["theta"] == pytest.approx(0.25)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code


def _write_csv(tmp_path, body):
    # schema sidecar from a real simulated file, rows replaced by ``body``
    path = tmp_path / "bad.csv"
    assert run("simulate", "--dgp", "discrete", "--n", "20", "--seed", "1",
               "--out", str(path)) == 0
    path.write_text("W,A,Y\n" + body)
    return path


def _params(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    return ["simulate", "--dgp", "discrete", "--dgp-params", str(path), "--n", "10",
            "--seed", "1", "--out", str(tmp_path / "x.csv")]


def _estimate(tmp_path, *flags, body="1,0,1\n0,1,0\n" * 40):
    return ["estimate", "--data", str(_write_csv(tmp_path, body)), "--spec", "ate",
            "--folds", "2", "--min-rows-per-fold", "10", "--seed", "1",
            "--out", str(tmp_path / "r.json"), *flags]


def _sidecar(tmp_path, text):
    argv = _estimate(tmp_path)
    (tmp_path / "bad.csv.schema.json").write_text(text)
    return argv


def _coef_spec(tmp_path, coef):
    # the ate document with the coefficient of its inner map's treated term set to ``coef``
    doc = json.loads(format_spec(builtin_spec("ate")))
    doc["stages"][0]["map"][0]["coef"] = coef
    path = tmp_path / "coef.json"
    path.write_text(json.dumps(doc))
    return _estimate(tmp_path, "--spec", str(path))


def _benchmark(tmp_path, *flags):
    return ["benchmark", "--spec", "ate", "--replicates", "1", "--seed", "1",
            "--out", str(tmp_path / "t.csv"), *flags]


BAD_INPUTS = [
    ("unknown dgp", lambda t: _benchmark(t, "--dgp", "nope"), {}, 2, "--dgp"),
    ("bad n list", lambda t: _benchmark(t, "--n", "abc"), {}, 2, "--n"),
    ("bad thread variable", lambda t: _benchmark(t), {"RIESZREG_THREADS": "abc"}, 2,
     "--threads"),
    ("unknown dgp param", lambda t: _params(t, '{"nope": 1}'), {}, 3, "nope"),
    ("malformed dgp params", lambda t: _params(t, '{"p_confounder": '), {}, 3,
     "dgp-params"),
    ("level above one", lambda t: _estimate(t, "--level", "1.5"), {}, 2, "--level"),
    ("negative clip", lambda t: _estimate(t, "--clip", "-1"), {}, 2, "--clip"),
    ("negative ridge", lambda t: _estimate(t, "--ridge", "-1"), {}, 2, "--ridge"),
    ("header only csv", lambda t: _estimate(t, body=""), {}, 3, "no data rows"),
    ("non-numeric cell", lambda t: _estimate(t, body="1,0,1\n0,x,0\n"), {}, 3,
     "line 3, column 'A'"),
    ("ragged row", lambda t: _estimate(t, body="1,0,1\n0,1\n"), {}, 3, "line 3 has 2 cells"),
    ("truncated sidecar", lambda t: _sidecar(t, '{"columns": ['), {}, 3, "bad.csv.schema.json"),
    ("sidecar without columns", lambda t: _sidecar(t, '{"cols": []}'), {}, 3,
     "bad.csv.schema.json"),
    ("sidecar not an object", lambda t: _sidecar(t, "[1,2]"), {}, 3, "bad.csv.schema.json"),
    ("sidecar column without role", lambda t: _sidecar(t, '{"columns": [{"name": "W"}]}'),
     {}, 3, "bad.csv.schema.json"),
    ("negative mlp lr", lambda t: _estimate(t, "--method", "mlp", "--mlp-lr", "-1"), {}, 2,
     "--mlp-lr"),
    ("nan mlp lr", lambda t: _estimate(t, "--method", "mlp", "--mlp-lr", "nan"), {}, 2,
     "--mlp-lr"),
    ("negative mlp epochs", lambda t: _estimate(t, "--method", "mlp", "--mlp-epochs", "-3"),
     {}, 2, "--mlp-epochs"),
    ("negative simulate seed", lambda t: ["simulate", "--dgp", "discrete", "--n", "10",
                                          "--seed", "-1", "--out", str(t / "x.csv")],
     {}, 2, "--seed"),
    ("negative estimate seed", lambda t: _estimate(t, "--seed", "-1"), {}, 2, "--seed"),
    ("negative verify seed", lambda t: ["verify", "--seed", "-1"], {}, 2, "--seed"),
    ("negative benchmark seed", lambda t: _benchmark(t, "--seed", "-1"), {}, 2, "--seed"),
    ("infinite coef", lambda t: _coef_spec(t, float("inf")), {}, 3, "coef"),
    ("overflowing coef", lambda t: _coef_spec(t, 1e308), {}, 4, "not finite"),
]


@pytest.mark.parametrize("argv,env,code,says", [c[1:] for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exit_codes(argv, env, code, says, tmp_path, monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    args = argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _exit_code(args) == code
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def _child_env() -> dict:
    src = str(Path(rieszreg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_scipy_stats_unloaded():
    # rieszreg needs only numpy, and the process-pool machinery loads only
    # when an estimate or a benchmark forks; scipy alone would double the import
    probe = ("import sys, rieszreg.cli, rieszreg.bench; print(rieszreg.__file__, *sorted("
             "m for m in sys.modules if m.partition('.')[0] in ('scipy', 'multiprocessing')"
             " or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [rieszreg.__file__]


NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def test_round_trip_without_scipy(tmp_path):
    data, report = str(tmp_path / "d.csv"), str(tmp_path / "r.json")
    commands = [["simulate", "--dgp", "appendix", "--n", "2000", "--seed", "3", "--out", data],
                ["estimate", "--data", data, "--spec", "nde", "--seed", "3", "--out", report],
                ["estimate", "--data", data, "--spec", "nde", "--method", "mlp",
                 "--mlp-epochs", "20", "--seed", "3", "--out", report]]
    cli = "import sys\nfrom rieszreg.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for argv in commands:
        outputs = []
        for prelude in (NO_SCIPY, ""):
            done = subprocess.run([sys.executable, "-c", prelude + cli, *argv],
                                  env=_child_env(), capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].startswith(("wrote", "nde:")), outputs
