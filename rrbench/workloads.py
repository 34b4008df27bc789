"""The benchmark workloads: inputs, the timed operation, its checks.

Each workload is a closed loop with one client: the worker starts operation
i+1 only after operation i has returned. ``prepare`` builds an operation's
inputs outside the timed region, ``run`` is the timed operation, and
``check`` validates its outputs afterwards. Every seed derives from the
benchmark's ``--seed`` through ``rieszreg.bench.replicate_seed``, so the same
seed gives the same inputs. A traced run repeats input 0, so that its
per-operation counts repeat exactly from run to run.

Why these two (see NOTES.md for the layer map, and for the Monte Carlo
workload that was dropped because host drift left its median unsteady):

* ``cli_nde_200k`` -- the analyst's round trip through two fresh CLI
  processes. The only workload dominated by CSV write/read, the 16 MB JSON
  report, the import, and memory-bound sieve layers at n = 200k.
* ``mlp_nde_1k`` -- the only workload that trains networks: 20 Adam fits of
  500 epochs, with almost no CSV, JSON or sieve work.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent


class MlpNde:
    """One one_step_estimate of ``nde`` at n = 1000 with the default MLP
    Riesz learner: 2 arms x 5 folds x 2 fitted stages = 20 Adam fits."""

    in_process = True
    peak_rss_mib = None

    def __init__(self, rr, seed: int, tiny: bool, workdir: Path):
        self.rr = rr
        self.seed = seed
        self.n = 300 if tiny else 1000
        self.config = rr.MlpConfig(epochs=20) if tiny else rr.MlpConfig()

    def setup(self) -> None:
        rr = self.rr
        self.dgp = rr.AppendixDgp()
        self.spec = rr.builtin_spec("nde")
        self.settings = rr.EstimatorSettings(riesz_method="mlp", mlp=self.config)

    def prepare(self, i: int):
        seed = self.rr.bench.replicate_seed(self.seed, i)
        return seed, self.rr.simulate(self.dgp, self.n, seed)

    def run(self, inp, op):
        seed, data = inp
        return self.rr.one_step_estimate(self.spec, data, self.settings, folds=5, seed=seed)

    def check(self, inp, report, corrupt: bool, op) -> list[str]:
        view = report.to_dict()
        if corrupt:
            checks.corrupt_headline(view)
        return checks.check_report(view)


class CliNde:
    """``rieszreg simulate --dgp appendix --n 200000`` then ``rieszreg
    estimate --spec nde --folds 5``, each a fresh ``python -m rieszreg.cli``
    process as a user runs it. A traced operation runs the same commands
    through ``traced_cli.py``, which records spans inside the child."""

    in_process = False

    def __init__(self, rr, seed: int, tiny: bool, workdir: Path):
        self.rr = rr
        self.seed = seed
        self.n = 2000 if tiny else 200_000
        self.workdir = workdir
        self.peak_rss_mib = 0.0
        self.span_files = []   # (op, path) written by traced children
        self.file_sizes = []   # (op, metric, bytes)

    def setup(self) -> None:
        self.dgp = self.rr.AppendixDgp()

    def prepare(self, i: int):
        seed = self.rr.bench.replicate_seed(self.seed, i)
        csv = self.workdir / "data.csv"
        out = self.workdir / "report.json"
        for path in (csv, Path(f"{csv}.schema.json"), out):
            path.unlink(missing_ok=True)
        return seed, csv, out

    def _command(self, args, op, step: str):
        if op is None:
            return [sys.executable, "-m", "rieszreg.cli", *args]
        spans = self.workdir / f"spans-{op}-{step}.json"
        self.span_files.append((op, spans))
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]

    def _spawn(self, cmd, step: str):
        """Run one command to completion; returns (exit code, stdout, stderr)
        and raises the peak RSS seen so far to the child's."""
        out_path = self.workdir / f"{step}.stdout"
        err_path = self.workdir / f"{step}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = max(self.peak_rss_mib, usage.ru_maxrss / 1024.0)  # KiB on Linux
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def run(self, inp, op):
        seed, csv, out = inp
        sim = ["simulate", "--dgp", "appendix", "--n", str(self.n), "--seed", str(seed),
               "--out", csv.name]
        est = ["estimate", "--data", csv.name, "--spec", "nde", "--folds", "5",
               "--seed", str(seed), "--out", out.name]
        results = []
        for step, args in (("simulate", sim), ("estimate", est)):
            code, stdout, stderr = self._spawn(self._command(args, op, step), step)
            results.append((step, code, stdout, stderr))
            if code != 0:
                break
        return results

    def check(self, inp, results, corrupt: bool, op) -> list[str]:
        seed, csv, out = inp
        for step, code, _, stderr in results:
            if code != 0:
                return [f"{step} exited {code}: {stderr.strip()[-300:]}"]
        if op is not None:
            self.file_sizes.append((op, "data.csv_mb", csv.stat().st_size))
            self.file_sizes.append((op, "cli.report_mb", out.stat().st_size))
        with open(out, encoding="utf-8") as fh:
            view = json.load(fh)
        if corrupt:
            checks.corrupt_headline(view)
        problems = checks.check_report(view)
        printed = re.search(r"estimate=(\S+)", results[-1][2])
        shown = f"{checks.headline(view):.6g}"
        if printed is None or printed.group(1) != shown:
            problems.append(f"printed estimate {printed and printed.group(1)!r} != "
                            f"report headline {shown}")
        expected = self.rr.simulate(self.dgp, self.n, seed).sha256()
        if view["provenance"]["data_sha256"] != expected:
            problems.append("provenance.data_sha256 differs from the regenerated dataset: "
                            "the CSV round trip is lossy")
        return problems

    def collect_spans(self, tracer) -> None:
        """Merge the traced children's span files into ``tracer``."""
        for op, path in self.span_files:
            if not path.exists():  # the child died before writing; the op failed
                continue
            with open(path, encoding="utf-8") as fh:
                dump = json.load(fh)
            offset = len(tracer.spans)
            for _, name, parent, start, end in dump["spans"]:
                tracer.spans.append([op, name, parent + offset if parent >= 0 else -1,
                                     start, end])
            tracer.counts.extend((op, key, value) for _, key, value in dump["counts"])
        for op, key, value in self.file_sizes:
            tracer.counts.append((op, key, value))


WORKLOADS = {
    "cli_nde_200k": CliNde,
    "mlp_nde_1k": MlpNde,
}
