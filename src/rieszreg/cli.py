"""Command-line front end.

Subcommands: ``simulate`` (draw a dataset to CSV plus schema sidecar),
``estimate`` (one-step estimate to a JSON report), ``verify`` (run the
identity check suite), and ``benchmark`` (Monte Carlo grid to a CSV table).
Reports are JSON; row data is CSV. Every command is deterministic given its
flags and seed.

Exit codes: 0 success, 1 failed verification checks, 2 usage, 3 schema or
spec errors, 4 numerical errors, 5 I/O errors. The environment variables
RIESZREG_OUTDIR (prefix for relative output paths) and RIESZREG_THREADS
(default worker count for ``benchmark``) override the built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .basis import BASIS_POLICIES
from .bench import BenchTask, benchmark_csv, run_benchmark
from .data import Dataset, write_json
from .errors import RieszregError, SchemaError
from .estimands import BUILTIN_NAMES, builtin_spec, parse_spec
from .estimator import EstimatorSettings, one_step_estimate
from .mlp import MlpConfig
from .nuisance import OUTCOME_FAMILIES
from .riesz import METHODS
from .simulate import DGPS, simulate
from .verify import CHECKS, run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

_CATEGORY_CODES = {"schema": EXIT_SCHEMA, "numerical": EXIT_NUMERICAL, "io": EXIT_IO}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RieszregError as exc:
        print(f"error ({exc.category}): {exc}", file=sys.stderr)
        return _CATEGORY_CODES.get(exc.category, EXIT_NUMERICAL)
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszreg",
        description="Automatic debiased estimation for nested-regression estimands.")
    parser.add_argument("--version", action="version", version=f"rieszreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a dataset and write CSV + schema sidecar")
    sim.add_argument("--dgp", choices=sorted(DGPS), required=True)
    sim.add_argument("--dgp-params", help="JSON file overriding DGP parameters")
    sim.add_argument("--n", type=_positive_int, required=True)
    sim.add_argument("--seed", type=_nonnegative_int, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--schema-out", help="sidecar path (default: <out>.schema.json)")
    sim.set_defaults(handler=_cmd_simulate)

    est = sub.add_parser("estimate", help="cross-fit one-step estimate to a JSON report")
    est.add_argument("--data", required=True)
    est.add_argument("--schema", help="schema sidecar (default: <data>.schema.json)")
    est.add_argument("--spec", required=True,
                     help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or a document path")
    est.add_argument("--folds", type=_positive_int, default=5)
    est.add_argument("--seed", type=_nonnegative_int, required=True)
    est.add_argument("--out", required=True)
    _add_method_flags(est)
    est.set_defaults(handler=_cmd_estimate)

    ver = sub.add_parser("verify", help="run the identity check suite")
    ver.add_argument("--seed", type=_nonnegative_int, default=0)
    ver.add_argument("--check", action="append", choices=sorted(CHECKS),
                     help="run only the named check (repeatable)")
    ver.add_argument("--out", help="write the check report as JSON")
    ver.add_argument("--inject-sign-flip", action="store_true",
                     help="self-test hook: corrupt a fitted weight's sign so the "
                          "representation check must fail")
    ver.set_defaults(handler=_cmd_verify)

    ben = sub.add_parser("benchmark", help="Monte Carlo grid to a CSV table")
    ben.add_argument("--dgp", type=_dgp_list, default="discrete",
                     help="comma list of appendix,discrete")
    ben.add_argument("--spec", default="ate", help="comma list of built-in names")
    ben.add_argument("--n", type=_positive_int_list, default="1000",
                     help="comma list of sample sizes")
    ben.add_argument("--replicates", type=_positive_int, default=100)
    ben.add_argument("--folds", type=_positive_int, default=5)
    ben.add_argument("--seed", type=_nonnegative_int, required=True)
    # a string default goes through the type check, so a bad variable is a usage error
    ben.add_argument("--threads", type=_positive_int,
                     default=os.environ.get("RIESZREG_THREADS", "1"),
                     help="worker processes (default: RIESZREG_THREADS or 1)")
    ben.add_argument("--out", required=True)
    _add_method_flags(ben)
    ben.set_defaults(handler=_cmd_benchmark)
    return parser


def _add_method_flags(cmd) -> None:
    cmd.add_argument("--method", choices=METHODS, default="sieve")
    cmd.add_argument("--basis", choices=BASIS_POLICIES, default="default",
                     help="Riesz sieve basis policy")
    cmd.add_argument("--nuisance-basis", choices=BASIS_POLICIES, default="default")
    cmd.add_argument("--degree", type=_positive_int, default=2)
    cmd.add_argument("--ridge", type=_nonnegative_float, default=None,
                     help="ridge penalty (default: scale-aware; 0 = exact)")
    cmd.add_argument("--outcome-family", choices=OUTCOME_FAMILIES,
                     default=None, help="innermost-stage family (default: by outcome type)")
    cmd.add_argument("--clip", type=_positive_float, default=None,
                     help="clip fitted |weights| at this bound")
    cmd.add_argument("--min-rows-per-fold", type=_positive_int, default=50)
    cmd.add_argument("--level", type=_unit_interval, default=0.95)
    cmd.add_argument("--mlp-epochs", type=_nonnegative_int, default=500)
    cmd.add_argument("--mlp-width", type=_positive_int, default=4)
    cmd.add_argument("--mlp-layers", type=_positive_int, default=2)
    cmd.add_argument("--mlp-lr", type=_positive_float, default=1e-2)
    cmd.add_argument("--mlp-batch", type=_positive_int, default=None)


def _checked(convert, accept, wanted: str):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: 0 < v < np.inf, "a positive number")
_nonnegative_float = _checked(float, lambda v: 0 <= v < np.inf, "a non-negative number")
_unit_interval = _checked(float, lambda v: 0 < v < 1, "strictly between 0 and 1")
_positive_int_list = _checked(lambda text: [int(v) for v in text.split(",")],
                              lambda ns: min(ns) >= 1, "a comma list of positive integers")
_dgp_list = _checked(lambda text: [v.strip() for v in text.split(",")],
                     lambda names: set(names) <= set(DGPS),
                     f"a comma list of {', '.join(sorted(DGPS))}")


def _out_path(path: str) -> str:
    prefix = os.environ.get("RIESZREG_OUTDIR")
    if prefix and not os.path.isabs(path):
        os.makedirs(prefix, exist_ok=True)
        return os.path.join(prefix, path)
    return path


def _config_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "handler"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _make_dgp(name: str, params_path: str | None):
    overrides = {}
    try:
        if params_path:
            with open(params_path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        return DGPS[name](**overrides)
    except (TypeError, ValueError) as exc:  # malformed JSON is a ValueError too
        raise SchemaError(f"bad --dgp-params for the {name} DGP: {exc}") from None


def _resolve_spec(value: str):
    if value in BUILTIN_NAMES:
        return builtin_spec(value)
    if not os.path.exists(value):
        raise SchemaError(
            f"{value!r} is not a built-in estimand ({', '.join(BUILTIN_NAMES)}) "
            f"and no such document exists")
    try:
        with open(value, encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except UnicodeDecodeError as exc:
        raise SchemaError(f"estimand document {value} is not UTF-8 text ({exc})") from None


def _settings_from(args: argparse.Namespace) -> EstimatorSettings:
    mlp = None
    if args.method == "mlp":
        mlp = MlpConfig(hidden_layers=args.mlp_layers, width=args.mlp_width,
                        learning_rate=args.mlp_lr, epochs=args.mlp_epochs,
                        batch_size=args.mlp_batch, seed=args.seed)
    return EstimatorSettings(
        riesz_method=args.method, riesz_basis=args.basis,
        nuisance_basis=args.nuisance_basis, degree=args.degree, ridge=args.ridge,
        outcome_family=args.outcome_family, mlp=mlp, clip=args.clip,
        min_rows_per_fold=args.min_rows_per_fold, level=args.level)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    dgp = _make_dgp(args.dgp, args.dgp_params)
    data = simulate(dgp, args.n, args.seed)
    out = _out_path(args.out)
    data.to_csv(out, schema_path=_out_path(args.schema_out) if args.schema_out else None)
    means = ", ".join(f"{c.name}={np.mean(data.column(c.name)):.6g}" for c in data.schema)
    print(f"wrote {out}: n={data.n}, columns [{means}]")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    data = Dataset.from_csv(args.data, schema_path=args.schema)
    spec = _resolve_spec(args.spec)
    report = one_step_estimate(spec, data, _settings_from(args),
                               folds=args.folds, seed=args.seed)
    payload = report.to_dict()
    payload["provenance"]["config_sha256"] = _config_hash(args)
    out = _out_path(args.out)
    write_json(out, payload)
    ci = report.headline_ci
    print(f"{report.name}: estimate={report.headline:.6g} "
          f"se={report.contrast.std_error if report.contrast else report.std_error:.6g} "
          f"ci=[{ci.lo:.6g}, {ci.hi:.6g}] (level {ci.level}); report: {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(args.check, seed=args.seed, flip_sign=args.inject_sign_flip)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: residual={res.residual:.3e} tol={res.tol:.0e} "
              f"({res.detail})")
    if args.out:
        write_json(_out_path(args.out), {
            "seed": args.seed,
            "config_sha256": _config_hash(args),
            "checks": [r.to_dict() for r in results],
            "all_passed": all(r.passed for r in results),
        })
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_benchmark(args) -> int:
    settings = _settings_from(args)
    tasks = []
    for dgp_name in args.dgp:
        dgp = DGPS[dgp_name]()
        for spec_name in args.spec.split(","):
            spec = _resolve_spec(spec_name.strip())
            if not dgp.has_mediator and "M" in {v for st in spec.stages for v in st.given}:
                continue  # mediator estimands need a mediator DGP
            for n in args.n:
                tasks.append(BenchTask(dgp, spec, n, args.replicates,
                                       args.folds, args.seed, settings))
    table = run_benchmark(tasks, threads=args.threads)
    out = _out_path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(benchmark_csv(table))
    meta = {"config_sha256": _config_hash(args), "seed": args.seed,
            "threads": args.threads, "tasks": len(tasks),
            "truth_reports": [row["truth_report"] for row in table]}
    write_json(f"{out}.meta.json", meta)
    print(benchmark_csv(table), end="")
    print(f"wrote {out} ({len(table)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
