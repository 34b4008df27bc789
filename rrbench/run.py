"""rieszreg benchmark: one workload per call, one JSON result on the last line.

    python3 rrbench/run.py --workload mlp_nde_1k --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package under test is that checkout's
``src/rieszreg`` (it need not be installed). This script uses only the
standard library: it starts fresh worker processes (``worker.py``) with
``src`` first on PYTHONPATH and BLAS pinned to one thread, times their
set-up, and assembles the metrics that ``BENCHMARK.json`` names:

* ``--trace 0``: every end-to-end metric. ``op_s`` is the median operation
  time. ``setup_s`` is the median over
  SETUP_SAMPLES fresh processes (the measuring worker, then set-up-only
  probes started while it pauses at even steps through its timed budget) of
  the time from process start to the first operation being ready;
  ``peak_rss_mb`` is the measuring worker's peak RSS, or for the CLI
  workload the largest among the commands it ran.
* ``--trace 1``: every per-layer metric, from a run that traces each input
  after running it untraced.

Earlier stdout lines carry the environment block and per-run details.
``--tiny`` and ``--corrupt-headline`` exist for the self-tests in
``rrbench/tests``. See ``rrbench/NOTES.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"rrbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(CHECKOUT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


class Worker:
    """A worker process in its own session, killed with its children if it
    outlives ``deadline`` seconds."""

    def __init__(self, args, workdir: Path, deadline: float, probe: bool = False,
                 pauses: int = 0):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--checkout", str(CHECKOUT),
               "--workdir", str(workdir), "--pauses", str(pauses)]
        cmd += ["--probe"] * probe + ["--tiny"] * args.tiny
        cmd += ["--corrupt-headline"] * args.corrupt_headline
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.PIPE,
                                     env=worker_env(), cwd=CHECKOUT, text=True,
                                     start_new_session=True)
        self.timer = threading.Timer(deadline, self.kill)
        self.timer.start()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def ready(self) -> float:
        """Seconds from process start to its READY line."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError("worker ended before it was ready")
        return perf_counter() - self.start

    def resume(self):
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()

    def finish(self):
        """(remaining stdout, exit code, peak RSS in MiB) after the process ends."""
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        return out, self.proc.returncode, usage.ru_maxrss / 1024.0

    def close(self):
        self.timer.cancel()
        if self.proc.returncode is None:
            self.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def probe_setup(args, workdir: Path) -> float:
    probe = Worker(args, workdir, PROBE_TIMEOUT_S, probe=True)
    try:
        seconds = probe.ready()
        _, code, _ = probe.finish()
    finally:
        probe.close()
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return seconds


def run_workers(args, workdir: Path):
    """Set-up samples, the measuring worker's result and its peak RSS.

    The measuring worker is the first set-up sample. Untimed, it then pauses
    at even steps through its budget of timed work, and each pause runs one
    set-up probe, so that the samples spread over the run rather than one
    stretch of host speed. Traced runs report no ``setup_s`` and take none."""
    pauses = 0 if (args.tiny or args.trace) else SETUP_SAMPLES - 1
    # a run takes about --seconds of timed work plus set-up, checks and a
    # second or so per probe; at --seconds 30 this stops a hung run at 160 s
    worker = Worker(args, workdir, 2 * args.seconds + 100.0, pauses=pauses)
    try:
        setups = [worker.ready()]
        while (line := worker.proc.stdout.readline()).strip() == "PAUSE":
            setups.append(probe_setup(args, workdir))
            worker.resume()
        out, code, rss = worker.finish()
    finally:
        worker.close()
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return setups, json.loads((line + out).strip().splitlines()[-1]), rss


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """The checkout's commit from .git, without running git; None outside a repo."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test: tiny inputs and a single set-up sample")
    parser.add_argument("--corrupt-headline", action="store_true",
                        help="self-test: corrupt every report's headline before checking")
    args = parser.parse_args(argv)

    try:
        config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in config["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not (CHECKOUT / "src" / "rieszreg" / "__init__.py").is_file():
        return fail(f"no rieszreg package under {CHECKOUT / 'src'}; run from a checkout")

    # a terminated run still stops its workers (the finally blocks below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    load_start = os.getloadavg()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, result, rss = run_workers(args, workdir)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()

    if args.trace:
        measured = result["layers"]
        wanted = config["per_layer"]
    else:
        measured = {
            "op_s": statistics.median(result["op_seconds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mib"] or rss,
        }
        wanted = config["end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(measured):
        return fail(f"metrics measured {sorted(measured)} differ from BENCHMARK.json "
                    f"{sorted(names)}")

    environment = {
        "python": platform.python_version(),
        **result["environment"],
        "pinned_threads": {name: "1" for name in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups,
        "operations_timed": len(result["op_seconds"]),
        "op_seconds": result["op_seconds"],
        "problems": result["problems"],
    }}))
    for problem in result["problems"]:
        print(f"rrbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
