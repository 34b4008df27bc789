"""One benchmark worker process: set up, signal ready, run the closed loop.

Started by ``run.py`` with the checkout's ``src`` first on PYTHONPATH and
BLAS pinned to one thread. Protocol on stdout: the line ``READY`` once the
first timed operation could start (import plus input building; the parent
times set-up up to this line), then, unless ``--probe`` asked for set-up
only, ``--pauses`` lines ``PAUSE`` spread evenly over the timed budget (each
waits, untimed, for a line on stdin while the parent runs a set-up probe),
then one JSON line with the run's raw results.

Untraced runs time every operation. Traced runs (``--trace 1``) run each
input twice, untraced then traced, so that ``trace.overhead_frac`` compares
the same inputs; spans stay in memory until the loop has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS


def import_rieszreg(checkout: Path):
    """Import the package under test, refusing any copy outside the checkout."""
    src = (checkout / "src").resolve()
    try:
        import rieszreg
        import rieszreg.bench
    except ImportError as exc:
        raise SystemExit(f"rrbench: cannot import rieszreg from {src}: {exc}") from None
    origin = Path(rieszreg.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"rrbench: refusing to run: rieszreg resolves to {origin}, "
                         f"which is not inside the checkout under test ({src})")
    return rieszreg


def environment(rr) -> dict:
    """Library versions, BLAS build and threads, and the package under test."""
    import numpy as np
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_environment(np),
        "rieszreg_file": str(Path(rr.__file__).resolve()),
    }


def blas_environment(np) -> dict:
    """BLAS build name and the thread count each loaded OpenBLAS reports."""
    info = {"name": None, "version": None, "threads": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"][Path(path).name] = getter()
                break
    return info


def attempt(workload, inp, op, tracer, corrupt: bool):
    """Run one operation; returns (seconds, problems). ``op`` is the traced
    operation id, or None for an untraced operation."""
    patch = op is not None and workload.in_process
    if patch:
        tracer.op = op
        tracer.install()
    start = perf_counter()
    try:
        outcome, problems = workload.run(inp, op), None
    except Exception:
        outcome, problems = None, [traceback.format_exc(limit=-3)]
    seconds = perf_counter() - start
    if patch:
        tracer.uninstall()
    if problems is None:
        try:
            problems = workload.check(inp, outcome, corrupt, op)
        except Exception:
            problems = [traceback.format_exc(limit=-3)]
    return seconds, problems


def pause() -> None:
    """Wait, untimed, while the parent runs one set-up probe."""
    print("PAUSE", flush=True)
    sys.stdin.readline()


def measure(workload, seconds: float, trace: bool, tracer, corrupt: bool, pauses: int):
    """Closed loop over ``seconds`` of timed work: the next operation (or
    untraced/traced pair) starts only if, taking as long as the last one,
    it would end within the budget. The first always runs. Pause number k
    comes after k/(pauses+1) of the budget; any left over come at the end."""
    ops = []  # (pair, traced, seconds, problems)
    measured, last, pair, paused = 0.0, 0.0, 0, 0
    while pair == 0 or measured + last <= seconds:
        if paused < pauses and measured >= seconds * (paused + 1) / (pauses + 1):
            pause()
            paused += 1
        index = 0 if trace else pair
        last = 0.0
        for traced in ((False, True) if trace else (False,)):
            elapsed, problems = attempt(workload, workload.prepare(index),
                                        pair if traced else None, tracer, corrupt)
            if problems:  # name the input, so that a failure can be reproduced
                problems = [f"input {index}: {p}" for p in problems]
            last += elapsed
            ops.append((pair, traced, elapsed, problems))
        measured += last
        pair += 1
    for _ in range(paused, pauses):
        pause()
    return ops, pair


def layers(workload, tracer, ops, pairs: int) -> dict:
    """Per-layer metrics per traced operation. Every traced operation runs
    input 0, so counts repeat exactly between runs with the same seed."""
    if not workload.in_process:
        workload.collect_spans(tracer)
    values = tracing.layer_metrics(*tracing.aggregate(tracer.spans, tracer.counts, range(pairs)),
                                   n_ops=pairs)
    plain = [s for _, traced, s, _ in ops if not traced]
    traced = [s for _, traced, s, _ in ops if traced]
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true", help="set up, signal ready, exit")
    parser.add_argument("--pauses", type=int, default=0,
                        help="set-up probes the parent runs while this run pauses")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-headline", action="store_true")
    args = parser.parse_args(argv)

    rr = import_rieszreg(args.checkout)
    workload = WORKLOADS[args.workload](rr, args.seed, args.tiny, args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    workload.setup()
    print("READY", flush=True)
    if args.probe:
        return 0

    ops, pairs = measure(workload, args.seconds, bool(args.trace), tracer,
                         args.corrupt_headline, args.pauses)
    failures = [problems for *_, problems in ops if problems]
    result = {
        "attempted": len(ops),
        "failed": len(failures),
        "problems": [p for problems in failures[:3] for p in problems[:3]],
        "op_seconds": [s for _, traced, s, _ in ops if not traced],
        "peak_rss_mib": workload.peak_rss_mib,
        "layers": layers(workload, tracer, ops, pairs) if args.trace else None,
        "environment": environment(rr),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
