"""Command-line runner for the verification experiments.

Three commands: ``run`` executes one experiment, ``run-all`` executes a
suite one experiment after another, ``list`` prints the registry.  Every run
writes a canonical JSON report and a JSONL check log under the output
directory (flag, else the environment variable, else ./duallab-out);
the process exits 0 exactly when every executed check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .reporting import (
    OUTPUT_ENV_VAR,
    ExperimentConfig,
    ExperimentReport,
    default_output_dir,
    write_jsonl,
)
from .experiments import (
    EXPERIMENTS,
    SUITES,
    run_experiment,
    suite_configs,
)


def _run_one(config: ExperimentConfig, out_dir: Path, verbose: bool) -> ExperimentReport:
    """Run one experiment, write its report files and print its result."""
    report = run_experiment(config, out_dir=out_dir)
    name = report.config.experiment
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.body()
    payload["duration_s"] = round(report.duration_s, 3)
    path = out_dir / f"{name}.report.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    write_jsonl(out_dir / f"{name}.checks.jsonl", report.records())
    if verbose:
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"  [{mark}] {c.name}: measured={c.measured} predicted={c.predicted}")
    status = "PASS" if report.passed else "FAIL"
    print(f"{name}: {status} ({len(report.checks)} checks, {report.duration_s:.2f}s)")
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else default_output_dir()
    config = ExperimentConfig(
        experiment=args.experiment,
        N=args.n,
        p=args.p,
        q=args.q,
        seed=args.seed,
        samples=args.samples,
    )
    report = _run_one(config, out_dir, verbose=True)
    print(f"report: {out_dir / (args.experiment + '.report.json')}")
    return 0 if report.passed else 1


def _cmd_run_all(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else default_output_dir()
    summary = []
    for cfg in suite_configs(args.suite, seed=args.seed):
        # one experiment that raises is recorded as failed; the rest still run
        try:
            report = _run_one(cfg, out_dir, verbose=False)
        except Exception as exc:
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
            print(f"{cfg.experiment}: ERROR ({error})")
            summary.append(
                {"experiment": cfg.experiment, "passed": False, "checks": 0,
                 "failed": [], "error": error}
            )
            continue
        summary.append(
            {
                "experiment": cfg.experiment,
                "passed": report.passed,
                "checks": len(report.checks),
                "failed": [c.name for c in report.checks if not c.passed],
                "duration_s": round(report.duration_s, 3),
            }
        )
    all_passed = all(row["passed"] for row in summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(
        json.dumps(
            {"suite": args.suite, "seed": args.seed, "passed": all_passed,
             "experiments": summary},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    print(f"suite {args.suite}: {'PASS' if all_passed else 'FAIL'} ({summary_path})")
    return 0 if all_passed else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in EXPERIMENTS.values():
        defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
        print(f"{spec.name:20s} {spec.summary} [{defaults}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duallab",
        description="reproducible verification experiments",
        epilog=f"default output directory: flag --out, else ${OUTPUT_ENV_VAR}, "
        "else ./duallab-out",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=list(EXPERIMENTS))
    run.add_argument("--n", type=int, default=None, help="leg dimension")
    run.add_argument("--p", type=int, default=None, help="left leg count")
    run.add_argument("--q", type=int, default=None, help="right leg count")
    run.add_argument("--seed", type=int, default=20240)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--out", type=str, default=None)
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run a whole suite")
    run_all.add_argument("--suite", choices=list(SUITES), default="smoke")
    run_all.add_argument("--seed", type=int, default=20240)
    run_all.add_argument("--out", type=str, default=None)
    run_all.set_defaults(func=_cmd_run_all)

    lst = sub.add_parser("list", help="list the registered experiments")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
