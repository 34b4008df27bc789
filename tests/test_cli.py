import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszreg
from rieszreg import Column, Dataset
from rieszreg.cli import _build_parser, _settings_from, main
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
        assert run("benchmark", "--dgp", "discrete", "--spec", "nde,ate", "--n", "400",
                   "--replicates", "2", "--folds", "2", "--min-rows-per-fold", "30",
                   "--seed", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and ",ate," in lines[1]

    def test_grid_with_every_pair_skipped_is_refused(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert run("benchmark", "--dgp", "discrete", "--spec", "nde", "--n", "500",
                   "--replicates", "2", "--seed", "1", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "no benchmark task remains: nde on discrete skipped" in err
        assert "Traceback" not in err and not out.exists()


    # the truth oracle ran before anything bound the document, and ended in a KeyError
    @pytest.mark.parametrize("given,says", [(["A", "Z"], "dataset has no column 'Z'"),
                                            (["A", "Y"], "conditions on the outcome column 'Y'")],
                             ids=["unknown column", "outcome column"])
    def test_unbindable_document_is_refused_as_estimate_refuses_it(self, tmp_path, capsys,
                                                                   given, says):
        doc = json.loads(format_spec(builtin_spec("ate")))
        doc["stages"][0]["given"] = given
        spec = tmp_path / "doc.json"
        spec.write_text(json.dumps(doc))
        for argv in (_estimate(tmp_path, "--spec", str(spec)),
                     _benchmark(tmp_path, "--spec", str(spec), "--dgp", "discrete")):
            capsys.readouterr()
            assert _exit_code(argv) == 3
            err = capsys.readouterr().err
            assert says in err and "Traceback" not in err, err

    def _benchmark_with(self, tmp_path, monkeypatch, planted, threads: str) -> int:
        """The exit code of a 2-replicate benchmark on ``threads`` processes that
        writes no table, its data drawn by ``planted(seed)`` for replicate 1 and
        by ``simulate`` else; with two threads, replicate 1 runs in the child."""
        bench = sys.modules["rieszreg.bench"]
        draw, seed_1 = bench.simulate, bench.replicate_seed(5, 1)
        monkeypatch.setattr(bench, "simulate", lambda dgp, n, seed: planted(seed)
                            if seed == seed_1 else draw(dgp, n, seed))
        monkeypatch.setattr(sys.modules["rieszreg.data"], "fork_workers",
                            lambda parts: min(parts, 2))  # two usable cores on any host
        out = tmp_path / "t.csv"
        code = run("benchmark", "--dgp", "discrete", "--spec", "ate", "--n", "400",
                   "--replicates", "2", "--folds", "2", "--min-rows-per-fold", "30",
                   "--seed", "5", "--threads", threads, "--out", str(out))
        assert not out.exists()
        return code

    def test_a_dead_worker_ends_with_exit_5(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def dying(seed):
            if os.getpid() != parent:
                os._exit(9)
            raise AssertionError("replicate 1 ran in the parent")

        capsys.readouterr()
        assert self._benchmark_with(tmp_path, monkeypatch, dying, "2") == 5
        err = capsys.readouterr().err
        assert err == "error (io): forked child ended before sending item 1\n"

    def test_a_replicate_error_in_the_child_ends_as_serial(self, tmp_path, monkeypatch, capsys):
        def failing(seed):
            raise rieszreg.SingularGramError(f"planted on the seed {seed}")

        ends = []
        for threads in ("1", "2"):
            capsys.readouterr()
            code = self._benchmark_with(tmp_path, monkeypatch, failing, threads)
            ends.append((code, capsys.readouterr().err))
        assert ends[0] == ends[1]
        assert ends[0][0] == 4 and ends[0][1].startswith("error (numerical): planted on the seed")


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

    def test_benchmark_computes_each_truth_once(self, tmp_path, monkeypatch):
        simulate_module = sys.modules["rieszreg.simulate"]
        calls = []
        quadrature = simulate_module._truth_value
        monkeypatch.setattr(simulate_module, "_truth_value",
                            lambda *args: calls.append(args[2]) or quadrature(*args))
        out = tmp_path / "t.csv"
        run("benchmark", "--dgp", "appendix", "--spec", "nde", "--n", "300",
            "--replicates", "1", "--folds", "2", "--min-rows-per-fold", "30",
            "--seed", "5", "--out", str(out))
        assert calls == [64, 128]  # the value and its doubling check, once
        meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
        table = (tmp_path / "t.csv").read_text().splitlines()
        truth = float(table[1].split(",")[table[0].split(",").index("truth")])
        assert meta["truth_reports"][0]["theta"] == truth


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code


def _write_csv(tmp_path, body, rows=None):
    # schema sidecar from a real simulated file that records ``rows`` rows
    # (default: the lines of ``body``), rows replaced by ``body``
    path = tmp_path / "bad.csv"
    assert run("simulate", "--dgp", "discrete", "--n", "20", "--seed", "1",
               "--out", str(path)) == 0
    path.write_text("W,A,Y\n" + body)
    sidecar = tmp_path / "bad.csv.schema.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "n": body.count("\n") if rows is None else rows}))
    return path


def _params(tmp_path, text, dgp="discrete"):
    path = tmp_path / "p.json"
    path.write_text(text)
    return ["simulate", "--dgp", dgp, "--dgp-params", str(path), "--n", "10",
            "--seed", "1", "--out", str(tmp_path / "x.csv")]


def _estimate(tmp_path, *flags, body="1,0,1\n0,1,0\n" * 40, rows=None):
    return ["estimate", "--data", str(_write_csv(tmp_path, body, rows)), "--spec", "ate",
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


def _outer_over_treated(label, given, terms) -> dict:
    """E[Y | A, W] mapped by f(A=1), then an outer stage on ``given`` mapped
    by ``terms``, a list of (coef, assignments)."""
    return {"name": label, "stages": [
        {"regress": "Y", "given": ["A", "W"], "map": [{"coef": 1.0, "set": {"A": 1}}]},
        {"regress": "prev", "given": given,
         "map": [{"coef": coef, "set": assigned} for coef, assigned in terms]}]}


def _refused_document(doc, match, tmp_path, capsys) -> str:
    """The parser refuses ``doc`` matching ``match``, and an estimate on it
    exits 3; returns the CLI's stderr."""
    with pytest.raises(rieszreg.SpecValidationError, match=match):
        parse_spec(json.dumps(doc))
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_estimate(tmp_path, "--spec", str(path))) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


# outer maps that are not one coefficient-1 term, the only map the
# estimator's outer weight is right for
BAD_OUTER_STAGES = {
    "coef 2": ([], [(2.0, {})]),
    "two unit terms": ([], [(1.0, {}), (1.0, {})]),
    "subgroup coef 2": (["W"], [(2.0, {"W": 1})]),
    "subgroup difference": (["W"], [(1.0, {"W": 1}), (-1.0, {"W": 0})]),
}


@pytest.mark.parametrize("label", BAD_OUTER_STAGES)
def test_outer_map_other_than_one_unit_term_is_refused(label, tmp_path, capsys):
    doc = _outer_over_treated(label, *BAD_OUTER_STAGES[label])
    err = _refused_document(doc, "exactly one term with coefficient 1", tmp_path, capsys)
    assert "stage 2's map" in err and "contrast" in err


# a ``where`` that its stage's map does not restate: no fit restricts to a
# subgroup, so each estimated the unrestricted functional
UNRESTATED_WHERES = {
    "outer contradicts map": (1, ["W"], {"W": 0}),
    "inner not assigned": (0, [], {}),
}


@pytest.mark.parametrize("label", UNRESTATED_WHERES)
def test_where_the_map_does_not_restate_is_refused(label, tmp_path, capsys):
    index, given, assigned = UNRESTATED_WHERES[label]
    doc = _outer_over_treated(label, given, [(1.0, assigned)])
    doc["stages"][index]["where"] = {"W": 1}
    message = rf"stages\[{index}\]\.where\['W'\] = 1 is not assigned by every term"
    err = _refused_document(doc, message, tmp_path, capsys)
    assert f"stages[{index}].where['W']" in err


def _undecodable_csv(tmp_path, header=b"W,A,Y", cell=b"1"):
    argv = _estimate(tmp_path)
    (tmp_path / "bad.csv").write_bytes(header + b"\n1,0,1\n0," + cell + b",0\n")
    return argv


def _undecodable_spec(tmp_path):
    path = tmp_path / "ate.json"
    path.write_bytes(b"\xff" + format_spec(builtin_spec("ate")).encode())
    return _estimate(tmp_path, "--spec", str(path))


DEEP = "[" * 100_000 + "]" * 100_000  # nested past the interpreter's recursion limit


def _deep_spec(tmp_path):
    (tmp_path / "deep.json").write_text(DEEP)
    return _estimate(tmp_path, "--spec", str(tmp_path / "deep.json"))


def _one_row(tmp_path):
    # a one-row sample and an estimand it binds to, with no level for a fold to miss
    assert run("simulate", "--dgp", "appendix", "--n", "1", "--seed", "1",
               "--out", str(tmp_path / "a1.csv")) == 0
    (tmp_path / "doc.json").write_text(json.dumps({"name": "m_half", "stages": [
        {"regress": "Y", "given": ["M"], "map": [{"coef": 1.0, "set": {"M": 0.5}}]}]}))
    return ["estimate", "--data", str(tmp_path / "a1.csv"), "--spec", str(tmp_path / "doc.json"),
            "--folds", "1", "--min-rows-per-fold", "1", "--seed", "1",
            "--out", str(tmp_path / "r.json")]


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
    # each nested JSON ended in a RecursionError traceback, and one row in a NaN standard error
    ("deep dgp params", lambda t: _params(t, DEEP), {}, 3, "bad --dgp-params"),
    ("deep document", _deep_spec, {}, 3, "nests too deeply"),
    ("deep sidecar", lambda t: _sidecar(t, DEEP), {}, 3, "bad.csv.schema.json is malformed"),
    ("one-row estimate", _one_row, {}, 4, "at least 2 rows"),
    # each drew data, or ended in a traceback, before the DGPs checked their parameters
    ("appendix text param", lambda t: _params(t, '{"y_treat": "x"}', "appendix"), {}, 3,
     "y_treat must be finite and real"),
    ("appendix null param", lambda t: _params(t, '{"m_intercept": null}', "appendix"), {}, 3,
     "m_intercept must be finite and real"),
    ("appendix list param", lambda t: _params(t, '{"y_treat": [1, 2]}', "appendix"), {}, 3,
     "y_treat must be finite and real"),
    ("appendix bool param", lambda t: _params(t, '{"y_treat": true}', "appendix"), {}, 3,
     "y_treat must be finite and real"),
    ("appendix nan param", lambda t: _params(t, '{"y_treat": NaN}', "appendix"), {}, 3,
     "y_treat must be finite and real"),
    ("appendix inf param", lambda t: _params(t, '{"m_sd": Infinity}', "appendix"), {}, 3,
     "m_sd must be finite and real"),
    ("appendix -inf param", lambda t: _params(t, '{"y_conf": -Infinity}', "appendix"), {}, 3,
     "y_conf must be finite and real"),
    ("discrete text param", lambda t: _params(t, '{"p_confounder": "0.5"}'), {}, 3,
     "p_confounder must be finite and real"),
    ("discrete nan param", lambda t: _params(t, '{"propensity": [0.5, NaN]}'), {}, 3,
     "propensity must be finite and real"),
    ("discrete bool param",
     lambda t: _params(t, '{"outcome_mean_table": [[0.2, true], [0.5, 0.7]]}'), {}, 3,
     "outcome_mean_table must be finite and real"),
    ("discrete null param", lambda t: _params(t, '{"propensity": null}'), {}, 3,
     "propensity must be finite and real"),
    ("discrete ragged table", lambda t: _params(t, '{"outcome_mean_table": [[0.2], [0.5, 0.7]]}'),
     {}, 3, "outcome_mean_table must be finite and real, shaped as its default"),
    ("level above one", lambda t: _estimate(t, "--level", "1.5"), {}, 2, "--level"),
    ("negative clip", lambda t: _estimate(t, "--clip", "-1"), {}, 2, "--clip"),
    ("negative ridge", lambda t: _estimate(t, "--ridge", "-1"), {}, 2, "--ridge"),
    ("header only csv", lambda t: _estimate(t, body=""), {}, 3, "no data rows"),
    ("non-numeric cell", lambda t: _estimate(t, body="1,0,1\n0,x,0\n"), {}, 3,
     "line 3, column 'A'"),
    ("ragged row", lambda t: _estimate(t, body="1,0,1\n0,1\n"), {}, 3, "line 3 has 2 cells"),
    ("undecodable cell", lambda t: _undecodable_csv(t, cell=b"\xff\xfe"), {}, 3,
     "bad.csv is not UTF-8"),
    ("undecodable header", lambda t: _undecodable_csv(t, header=b"W,\xff\xfeA,Y"), {}, 3,
     "bad.csv is not UTF-8"),
    ("undecodable document", _undecodable_spec, {}, 3, "ate.json is not UTF-8"),
    ("comment-like cell", lambda t: _estimate(t, body="1,0,1\n#0,1,0\n" * 40), {}, 3,
     "line 3, column 'W': '#0' is not a number"),
    ("python-only number cell", lambda t: _estimate(t, body="1,0,1\n0,0_0,0\n" * 40), {}, 3,
     "line 3, column 'A': '0_0' is not a number"),
    ("truncated csv", lambda t: _estimate(t, rows=100), {}, 3,
     "bad.csv has 80 data rows, but its schema sidecar"),
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


def _tiny_estimate(folder: Path) -> list:
    """Valid estimate arguments on a tiny CSV, its sidecar and the ate document."""
    w, a, y = (np.tile(np.repeat([0.0, 1.0], 2 ** k), 40 // 2 ** k) for k in range(3))
    schema = (Column("W", "covariate", "binary"), Column("A", "treatment", "binary"),
              Column("Y", "outcome", "binary"))
    Dataset(schema, {"W": w, "A": a, "Y": y}).to_csv(folder / "d.csv")
    (folder / "ate.json").write_text(format_spec(builtin_spec("ate")))
    return ["estimate", "--data", str(folder / "d.csv"), "--spec", str(folder / "ate.json"),
            "--folds", "2", "--min-rows-per-fold", "10", "--seed", "1",
            "--out", str(folder / "r.json")]


@pytest.mark.parametrize("command", [["estimate", "--data", "d.csv"], ["benchmark"]],
                         ids=["estimate", "benchmark"])
def test_flag_defaults_are_the_settings_defaults(command):
    argv = [*command, "--spec", "ate", "--seed", "7", "--out", "o"]
    parse = _build_parser().parse_args
    assert _settings_from(parse(argv)) == rieszreg.EstimatorSettings()
    assert _settings_from(parse([*argv, "--method", "mlp"])) == rieszreg.EstimatorSettings(
        riesz_method="mlp", mlp=rieszreg.MlpConfig(seed=7))
    folds = inspect.signature(rieszreg.one_step_estimate).parameters["folds"].default
    assert parse(argv).folds == folds == 5


def test_tiny_estimate_inputs_are_valid(tmp_path):
    assert main(_tiny_estimate(tmp_path)) == 0


def _decodes(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


undecodable = st.binary(min_size=1, max_size=6).filter(lambda raw: not _decodes(raw))
# no float literal, Python's or numpy's, holds any of these characters
non_numbers = st.tuples(st.text(max_size=4), st.sampled_from("x?#/"),
                        st.text(max_size=4)).map("".join)
MALFORMED = ("header bytes", "cell bytes", "document bytes", "sidecar bytes",
             "non-number cell", "ragged row")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(how=st.sampled_from(MALFORMED), draw=st.data())
def test_malformed_input_ends_with_exit_3(how, draw):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        argv = _tiny_estimate(folder)
        name = {"document bytes": "ate.json", "sidecar bytes": "d.csv.schema.json"}
        path = folder / name.get(how, "d.csv")
        raw = path.read_bytes()
        if how in ("document bytes", "sidecar bytes"):
            at = draw.draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw.draw(undecodable) + raw[at:]
        else:
            lines = raw.split(b"\n")  # header, 40 rows, then the empty text after the last LF
            row = 0 if how == "header bytes" else draw.draw(st.integers(1, len(lines) - 2))
            cells = lines[row].split(b",")
            col = draw.draw(st.integers(0, len(cells) - 1))
            if how in ("header bytes", "cell bytes"):
                at = draw.draw(st.integers(0, len(cells[col])))
                cells[col] = cells[col][:at] + draw.draw(undecodable) + cells[col][at:]
            elif how == "non-number cell":
                cells[col] = draw.draw(non_numbers).encode()
            else:  # one cell dropped or one added
                cells = cells[:col] + cells[col + 1:] if draw.draw(st.booleans()) else cells + [b"0"]
            lines[row] = b",".join(cells)
            raw = b"\n".join(lines)
        path.write_bytes(raw)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 3


def _child_env() -> dict:
    src = str(Path(rieszreg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_scipy_stats_unloaded():
    # rieszreg needs only numpy and forks with os.fork alone; scipy alone
    # would double the import
    probe = ("import sys, rieszreg.cli, rieszreg.bench; print(rieszreg.__file__, *sorted("
             "m for m in sys.modules if m.partition('.')[0] in ('scipy', 'multiprocessing')"
             " or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [rieszreg.__file__]


FORKED_RUN = """
import contextlib, io, os, sys, tempfile
from rieszreg import AppendixDgp, EstimatorSettings, MlpConfig, builtin_spec, data
from rieszreg import one_step_estimate, simulate
from rieszreg.cli import main

data.fork_workers, data.CHUNK = (lambda parts: 2), 8
forks = []
os.register_at_fork(before=lambda: forks.append(1))
report = one_step_estimate(builtin_spec("nde"), simulate(AppendixDgp(), 300, 1),
                           EstimatorSettings(riesz_method="mlp", mlp=MlpConfig(epochs=5)), 3)
with tempfile.TemporaryDirectory() as folder:
    data.write_json(os.path.join(folder, "r.json"), report.to_dict())
    print(len(forks))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["benchmark", "--dgp", "discrete", "--spec", "ate", "--n", "200",
                     "--replicates", "2", "--folds", "2", "--min-rows-per-fold", "30",
                     "--seed", "5", "--threads", "2", "--out", os.path.join(folder, "t.csv")])
print(code, len(forks), *sorted(m for m in sys.modules if m.startswith("concurrent.futures")
                                or m.partition(".")[0] == "multiprocessing"))
"""


def test_forked_estimate_write_and_benchmark_load_no_process_pool():
    # the network folds, the writers and the replicates fork through one generator
    done = subprocess.run([sys.executable, "-c", FORKED_RUN], env=_child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # one fork for the folds and one for the write; then one for the replicates,
    # whose estimates map in process, and none for the meta file, which holds no
    # number list
    assert done.stdout.split() == ["2", "0", "3"]


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
