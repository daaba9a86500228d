"""Command-line front end: ``python -m repro.pipeline`` / ``examples/reproduce_paper.py``.

Regenerates the paper's Tables 1-6 (plus the section 1.1 savings summary
and the modexp large-workload scenario) as versioned JSON + markdown
artifacts, optionally checking the JSON against a golden copy — the CI
smoke job runs ``--smoke --check tests/golden/sweep_smoke.json``.

Fault tolerance knobs (all execution-only — none can change the artifact
bytes, so all of them compose with ``--smoke`` and ``--check``):
``--store DIR`` arms the checkpoint journal, ``--resume`` replays valid
checkpoints from a previous (possibly interrupted) run, ``--max-retries``
/ ``--task-timeout`` bound per-task recovery, ``--no-fail-fast`` records
task failures in the run report instead of aborting, and ``--faults``
arms the chaos harness (:mod:`repro.pipeline.faults`) for the whole
execution ladder.  ``--strategy`` picks how the Monte-Carlo columns
execute (:data:`repro.sim.strategies.STRATEGIES`).  Every run writes
``run_report.json``/``.md`` next to the tables artifact with per-task
attempts, errors and journal counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from ..sim.strategies import STRATEGIES
from .artifacts import (
    diff_artifacts,
    load_artifact,
    run_report,
    sweep_artifact,
    write_artifact,
    write_run_report,
)
from .faults import FAULTS_ENV, FaultPlan, install as install_faults
from .jobs import ExecutionPolicy, SweepExecutionError
from .noise import noise_artifact, noise_sweep, write_noise_artifact
from .runner import SweepConfig, run_sweep

__all__ = ["main", "smoke_config"]


def smoke_config() -> SweepConfig:
    """The tiny, seconds-long configuration pinned by the golden file."""
    return SweepConfig(
        tables=("table1", "table6"),
        sizes=(4,),
        seed=7,
        mc_batch=128,
        mc_repeats=1,
        workers=0,
        modexp=((2, 3),),
    )


#: Flags the pinned smoke configuration overrides; combining them with
#: --smoke is rejected rather than silently ignored.
_SMOKE_CONFLICTS = (
    ("sizes", "--sizes"),
    ("tables", "--tables"),
    ("seed", "--seed"),
    ("mc_batch", "--mc-batch"),
    ("mc_repeats", "--mc-repeats"),
    ("workers", "--workers"),
    ("no_savings", "--no-savings"),
    ("modexp", "--modexp"),
)


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="reproduce_paper",
        description="Regenerate the paper's Tables 1-6 as JSON + markdown artifacts.",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32],
                        help="register widths n to sweep (default: 8 16 32)")
    parser.add_argument("--tables", nargs="+",
                        default=["table1", "table2", "table3", "table4", "table5", "table6"],
                        help="which paper tables to regenerate")
    parser.add_argument("--out", default="artifacts",
                        help="output directory for tables.json / tables.md")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed; per-task streams are derived from it")
    parser.add_argument("--mc-batch", type=int, default=1024,
                        help="Monte-Carlo lanes per repeat (default 1024)")
    parser.add_argument("--mc-repeats", type=int, default=1,
                        help="Monte-Carlo repeats (default 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(4, cpu); 0/1 = serial)")
    parser.add_argument("--no-savings", action="store_true",
                        help="skip the section 1.1 savings summary")
    parser.add_argument("--modexp", type=int, nargs=2, action="append",
                        metavar=("N_EXP", "N"), default=None,
                        help="add a modular-exponentiation workload (repeatable); "
                             "default: 2 4 and 4 8")
    parser.add_argument("--transform", default=None, metavar="PASS[,PASS...]",
                        help="apply a repro.transform pass chain to every table-row "
                             "circuit, e.g. --transform lower_toffoli,cancel_adjacent "
                             "(composes with --smoke; becomes part of each cache key)")
    parser.add_argument("--noise-rates", type=float, nargs="+", default=None,
                        metavar="RATE",
                        help="also sweep bit-flip rates through the noise-injection "
                             "analysis (repro.pipeline.noise) and write a separate "
                             "noise.json / noise.md artifact (composes with --smoke)")
    parser.add_argument("--noise-batch", type=int, default=None,
                        help="Monte-Carlo lanes per noise point "
                             "(default: the sweep's mc_batch)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny pinned smoke configuration instead")
    parser.add_argument("--check", metavar="GOLDEN",
                        help="diff the JSON artifact against a golden file; "
                             "exit 1 on mismatch")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="checkpoint journal directory: completed tasks are "
                             "persisted (atomic, checksummed) and skipped on a "
                             "rerun of the same config (composes with --smoke)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint journal; with no "
                             "--store, defaults to <out>/.journal")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="direct task failures tolerated per degradation "
                             "rung before the task is reported failed (default 2)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task wall-clock budget on the pool rungs; a "
                             "worker past it is killed and the task retried "
                             "(default: no limit)")
    parser.add_argument("--strategy", default="codegen", choices=STRATEGIES,
                        help="execution strategy for the Monte-Carlo columns "
                             "(default codegen; execution-only: artifact "
                             "bytes are unchanged; composes with --smoke "
                             "and --check)")
    parser.add_argument("--no-fail-fast", action="store_true",
                        help="record tasks that exhaust their retries in the "
                             "run report (exit 1) instead of aborting the sweep")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="arm the fault-injection harness: a JSON fault "
                             "plan, or @path to one (chaos testing; exported "
                             "to workers via REPRO_FAULTS)")
    args = parser.parse_args(argv)
    from ..resources.tables import TABLE_SPECS
    from ..transform import parse_transform_chain

    unknown_tables = [t for t in args.tables if t not in TABLE_SPECS]
    if unknown_tables:
        parser.error(
            f"unknown table(s): {', '.join(unknown_tables)}; "
            f"available: {', '.join(sorted(TABLE_SPECS))}"
        )
    try:
        args.transform_chain = parse_transform_chain(args.transform)
    except ValueError as exc:
        parser.error(str(exc))
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    args.fault_plan = None
    if args.faults is not None:
        try:
            args.fault_plan = FaultPlan.from_arg(args.faults)
        except (OSError, ValueError) as exc:
            parser.error(f"--faults: {exc}")
    if args.smoke:
        clashes = [
            flag for dest, flag in _SMOKE_CONFLICTS
            if getattr(args, dest) != parser.get_default(dest)
        ]
        if clashes:
            parser.error(
                f"--smoke pins its own sweep configuration; drop {', '.join(clashes)}"
            )
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    transforms = args.transform_chain
    if args.smoke:
        config = smoke_config()
        if transforms:
            config = replace(config, transforms=transforms)
    else:
        modexp = args.modexp if args.modexp is not None else [[2, 4], [4, 8]]
        config = SweepConfig(
            tables=tuple(args.tables),
            sizes=tuple(args.sizes),
            seed=args.seed,
            mc_batch=args.mc_batch,
            mc_repeats=args.mc_repeats,
            workers=args.workers,
            include_savings=not args.no_savings,
            modexp=tuple((ne, n) for ne, n in modexp),
            transforms=transforms,
        )

    store = args.store
    if args.resume and store is None:
        store = str(Path(args.out) / ".journal")
    policy = ExecutionPolicy(
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        fail_fast=not args.no_fail_fast,
        store=store,
        resume=True,
        strategy=args.strategy,
    )
    if args.fault_plan is not None:
        # Arm the whole ladder: the env var reaches pool workers, the
        # installed plan covers the serial / thread rungs in-process.
        os.environ[FAULTS_ENV] = args.fault_plan.to_json()
        install_faults(args.fault_plan)

    try:
        result = run_sweep(config, policy=policy)
    except SweepExecutionError as exc:
        print(f"SWEEP FAILED: {exc}", file=sys.stderr)
        for report in exc.failures:
            print(f"  {report.key}: {report.error} "
                  f"(attempts={report.attempts}, replay seed={report.seed})",
                  file=sys.stderr)
        return 1
    artifact = sweep_artifact(result)
    json_path, md_path = write_artifact(artifact, args.out)
    report_json, _ = write_run_report(run_report(result), args.out)
    print(f"wrote {json_path} and {md_path}")
    print(f"sweep: {len(config.tables)} tables x {len(config.sizes)} sizes, "
          f"seed {config.seed}, {result.elapsed:.2f}s "
          f"via {' -> '.join(result.execution_modes) or 'cache'}")
    print(f"cache: {json.dumps(result.cache_stats)}")
    if result.journal_stats is not None:
        print(f"journal: {json.dumps(result.journal_stats)}")
    print(f"run report: {report_json}")
    if result.failures:
        print(f"SWEEP INCOMPLETE: {len(result.failures)} task(s) failed "
              f"(see {report_json}):", file=sys.stderr)
        for failure in result.failures:
            print(f"  {failure['key']}: {failure['error']} "
                  f"(attempts={failure['attempts']}, replay seed={failure['seed']})",
                  file=sys.stderr)
        return 1

    if args.noise_rates:
        rates = args.noise_rates
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                print(f"--noise-rates values must lie in [0, 1], got {rate}",
                      file=sys.stderr)
                return 2
        noise_result = noise_sweep(
            rates,
            sizes=config.sizes,
            seed=config.seed,
            batch=args.noise_batch or config.mc_batch,
        )
        noise_json, noise_md = write_noise_artifact(
            noise_artifact(noise_result), args.out
        )
        print(f"wrote {noise_json} and {noise_md}")
        print(f"noise: {len(rates)} rates x {len(config.sizes)} sizes, "
              f"{noise_result.elapsed:.2f}s")

    if args.check:
        golden = load_artifact(args.check)
        diffs = diff_artifacts(artifact, golden)
        if diffs:
            print(f"ARTIFACT MISMATCH vs {args.check}:", file=sys.stderr)
            for line in diffs[:40]:
                print(f"  {line}", file=sys.stderr)
            if len(diffs) > 40:
                print(f"  ... and {len(diffs) - 40} more", file=sys.stderr)
            return 1
        print(f"artifact matches golden {args.check}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
