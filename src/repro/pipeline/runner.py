"""The sweep runner: paper tables × sizes over a worker pool, with MC columns.

A sweep is a list of independent tasks — one per (table, n) cell, plus one
per savings size and one per modexp workload — executed through the
fault-tolerant executor in :mod:`repro.pipeline.jobs`: individual task
submission over a process pool with per-task timeout, bounded retries
with deterministic backoff, ``BrokenProcessPool`` respawn, a
process → thread → serial degradation ladder, and (optionally) an
on-disk checkpoint journal that lets an interrupted sweep resume.  Each
task returns plain row dicts (ints / Fractions — picklable), so workers
never ship circuits across process boundaries; every worker process
keeps its own :class:`~repro.pipeline.cache.CircuitCache` and the serial
path reuses the caller's.  Workers run compiled by default: every
Monte-Carlo column pulls its circuit's fused program from the cache
(:meth:`~repro.pipeline.cache.CircuitCache.program`), so a circuit is
compiled once per worker however many columns, repetitions and tables
revisit it.  Per-task seeds are derived from the sweep seed and the task
key (:func:`~repro.pipeline.montecarlo.derive_seed`), so results are
identical whatever the worker count, scheduling order, retry history or
resume point — the property the chaos suite pins down to the byte.

On top of the exact expected-mode counts, every row variant that has a
Toffoli metric gets an empirical column pair — ``<metric>_mc`` (Monte-
Carlo mean over random measurement outcomes) and ``<metric>_mc_ci95``
(normal-approximation 95% half-width) — computed with the bit-plane
backend's per-lane tallies.  QFT-based rows (no basis-state semantics)
skip the empirical columns.

The modexp scenario wires :func:`repro.extensions.build_modexp` /
:func:`repro.extensions.modexp_cost` in as the large-workload benchmark:
closed-form formula vs. a fully built circuit vs. Monte-Carlo, per
(n_exp, n) pair.

This module lazily imports :mod:`repro.resources` inside functions —
``resources/tables.py`` imports the cache layer, so the pipeline package
must be importable without touching resources (see ``cache.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.classical import UnsupportedGateError
from .cache import CircuitCache, CircuitSpec
from .montecarlo import DEFAULT_GATES, derive_seed, mc_or_none

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "table_rows_with_mc",
    "modexp_row",
]

_ALL_TABLES = ("table1", "table2", "table3", "table4", "table5", "table6")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a reproduction run depends on (and nothing else).

    The config is picklable and fully determines the artifact: same
    config, same JSON bytes.  ``workers=0``/``1`` runs serially;
    ``workers=None`` auto-sizes to ``min(4, cpu)``.
    """

    tables: Tuple[str, ...] = _ALL_TABLES
    sizes: Tuple[int, ...] = (8, 16, 32)
    seed: int = 0
    mc_batch: int = 1024
    mc_repeats: int = 1
    mc_gates: Tuple[str, ...] = DEFAULT_GATES
    workers: Optional[int] = None
    include_savings: bool = True
    modexp: Tuple[Tuple[int, int], ...] = ()   # (n_exp, n) pairs
    #: repro.transform pass names applied to every table-row circuit (part
    #: of each circuit's cache key); savings/modexp tasks are untransformed.
    transforms: Tuple[str, ...] = ()

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return min(4, os.cpu_count() or 1)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class SweepResult:
    """All rows of one sweep, grouped by table -> n -> rows.

    Beyond the rows themselves, the result carries the execution story:
    ``task_reports`` (one structured record per task — status, attempts,
    elapsed, error, worker, replay seed), ``failures`` (the subset that
    exhausted its retries; only ever non-empty under
    ``fail_fast=False``), ``journal_stats`` (checkpoint hits/misses/
    corrupt counts when a store was active) and ``execution_modes`` (the
    degradation-ladder rungs actually used).  None of it enters the
    golden-diffed artifact — see :func:`~repro.pipeline.artifacts.run_report`.
    """

    config: SweepConfig
    tables: Dict[str, Dict[int, List[Dict[str, Any]]]]
    savings: Dict[int, Dict[str, float]]
    modexp: List[Dict[str, Any]]
    elapsed: float = 0.0
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    task_reports: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    journal_stats: Optional[Dict[str, int]] = None
    execution_modes: List[str] = field(default_factory=list)


def table_rows_with_mc(
    table: str,
    n: int,
    *,
    seed: int = 0,
    mc_batch: int = 1024,
    mc_repeats: int = 1,
    mc_gates: Tuple[str, ...] = DEFAULT_GATES,
    cache: Optional[CircuitCache] = None,
    transforms: Tuple[str, ...] = (),
    strategy: str = "codegen",
) -> List[Dict[str, Any]]:
    """One table at one width, with Monte-Carlo columns attached.

    For every row variant whose metric set includes a ``toffoli`` source,
    adds ``<metric>_mc`` / ``<metric>_mc_ci95`` columns estimated over
    ``mc_batch * mc_repeats`` random-outcome lanes.  ``transforms`` applies
    a pass chain to every row circuit (exact and Monte-Carlo columns both
    measure the transformed circuit); rows a transform makes unsimulable on
    the bit-plane backend simply skip their MC columns.

    ``strategy`` chooses how the Monte-Carlo columns *execute* (see
    :func:`~repro.pipeline.montecarlo.mc_expected_counts`).  It is
    execution-only: every strategy consumes identical outcome streams, so
    the rows are byte-identical whatever the choice.
    """
    from ..resources.tables import TABLE_SPECS, build_table_rows

    spec = TABLE_SPECS[table]
    p, a = spec.defaults(n)
    if cache is None:
        cache = CircuitCache()
    rows = build_table_rows(spec, n, p=p, a=a, cache=cache, transforms=transforms)
    for row_spec, row in zip(spec.rows, rows):
        for metric in row_spec.metrics:
            if metric.source != "toffoli":
                continue
            circuit_spec = row_spec.template.spec(
                n, p=p, a=a, mbu=(metric.variant == "mbu"), transforms=transforms
            )
            # Compile once per (spec, transforms), reused sweep-wide; the
            # compile also vets basis-state semantics for every strategy.
            try:
                program = cache.program(circuit_spec)
            except UnsupportedGateError:  # no basis-state semantics (QFT rows)
                continue
            estimate = mc_or_none(
                cache.build(circuit_spec),
                batch=mc_batch,
                repeats=mc_repeats,
                gates=mc_gates,
                seed=derive_seed(seed, table, n, row_spec.key, metric.variant),
                program=None if strategy == "interpretive" else program,
                strategy=strategy,
            )
            if estimate is None:  # pragma: no cover - compile already vetted
                continue
            row[f"{metric.name}_mc"] = estimate.mean
            row[f"{metric.name}_mc_ci95"] = round(estimate.ci95, 9)
    return rows


def modexp_row(
    n_exp: int,
    n: int,
    *,
    seed: int = 0,
    mc_batch: int = 256,
    mc_repeats: int = 1,
    mc_gates: Tuple[str, ...] = DEFAULT_GATES,
    cache: Optional[CircuitCache] = None,
    strategy: str = "codegen",
) -> Dict[str, Any]:
    """The large-workload scenario: Shor-style modular exponentiation.

    Compares :func:`~repro.extensions.mulmod.modexp_cost`'s closed-form
    expected-Toffoli estimate against a fully built circuit (with and
    without MBU) and a Monte-Carlo run of the MBU variant.
    """
    from ..extensions import modexp_cost

    if cache is None:
        cache = CircuitCache()
    p = (1 << n) - 1   # odd, so a=2 is invertible
    row: Dict[str, Any] = {"row": f"modexp (n_exp={n_exp}, n={n})", "n": n, "n_exp": n_exp, "p": p}
    for suffix, mbu in (("", False), ("_mbu", True)):
        spec = CircuitSpec.make(
            "modexp", n, n_exp=n_exp, p=p, a=2, family="cdkpm", mbu=mbu
        )
        built = cache.build(spec)
        formula = modexp_cost(n_exp, n, "cdkpm", mbu=mbu)
        row[f"toffoli{suffix}"] = cache.counts(spec).toffoli
        row[f"toffoli{suffix}_paper"] = formula["toffoli"]
        if suffix == "_mbu":
            try:  # compile once per spec; reused sweep-wide
                program = cache.program(spec)
            except UnsupportedGateError:
                program = None
            estimate = None if program is None else mc_or_none(
                built,
                batch=mc_batch,
                repeats=mc_repeats,
                gates=mc_gates,
                seed=derive_seed(seed, "modexp", n_exp, n),
                program=None if strategy == "interpretive" else program,
                strategy=strategy,
            )
            if estimate is not None:
                row["toffoli_mbu_mc"] = estimate.mean
                row["toffoli_mbu_mc_ci95"] = round(estimate.ci95, 9)
        row[f"qubits{suffix}"] = built.logical_qubits
    return row


# --------------------------------------------------------------------------- #
# task plumbing (module-level so the process pool can pickle it)

_WORKER_CACHE: Optional[CircuitCache] = None


def _worker_cache() -> CircuitCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = CircuitCache()
    return _WORKER_CACHE


def _run_task(
    task: Dict[str, Any],
    cache: Optional[CircuitCache] = None,
    strategy: str = "codegen",
):
    if cache is None:
        cache = _worker_cache()
    kind = task["kind"]
    if kind == "table":
        rows = table_rows_with_mc(
            task["table"], task["n"],
            seed=task["seed"], mc_batch=task["mc_batch"],
            mc_repeats=task["mc_repeats"], mc_gates=tuple(task["mc_gates"]),
            cache=cache, transforms=tuple(task.get("transforms", ())),
            strategy=strategy,
        )
        return ("table", (task["table"], task["n"]), rows)
    if kind == "savings":
        from ..resources.tables import mbu_savings

        return ("savings", task["n"], mbu_savings(task["n"], cache=cache))
    if kind == "modexp":
        row = modexp_row(
            task["n_exp"], task["n"],
            seed=task["seed"], mc_batch=task["mc_batch"],
            mc_repeats=task["mc_repeats"], mc_gates=tuple(task["mc_gates"]),
            cache=cache, strategy=strategy,
        )
        return ("modexp", (task["n_exp"], task["n"]), row)
    raise ValueError(f"unknown task kind {kind!r}")  # pragma: no cover


def _plan(config: SweepConfig) -> List[Dict[str, Any]]:
    mc = {
        "seed": config.seed,
        "mc_batch": config.mc_batch,
        "mc_repeats": config.mc_repeats,
        "mc_gates": tuple(config.mc_gates),
    }
    tasks: List[Dict[str, Any]] = []
    for table in config.tables:
        for n in config.sizes:
            tasks.append({
                "kind": "table", "table": table, "n": n,
                "transforms": tuple(config.transforms), **mc,
            })
    if config.include_savings:
        for n in config.sizes:
            tasks.append({"kind": "savings", "n": n})
    for n_exp, n in config.modexp:
        tasks.append({"kind": "modexp", "n_exp": n_exp, "n": n, **mc})
    return tasks


def run_sweep(
    config: SweepConfig,
    cache: Optional[CircuitCache] = None,
    policy: Optional[Any] = None,
) -> SweepResult:
    """Execute every task of ``config`` and assemble a :class:`SweepResult`.

    Execution goes through :func:`repro.pipeline.jobs.execute_tasks`:
    with more than one worker, tasks fan out over a process pool (each
    process memoizes its own circuits) with retries, timeouts, checkpoint
    journaling and the degradation ladder governed by ``policy`` (an
    :class:`~repro.pipeline.jobs.ExecutionPolicy`; defaults when
    omitted); serially, the caller's ``cache`` (or a fresh one) is shared
    across all tasks, which is where the cross-table reuse pays off.
    ``policy.strategy`` picks how the Monte-Carlo columns execute (see
    :func:`table_rows_with_mc`).  Output rows are identical either way —
    and identical across retries, pool respawns, resumed runs and
    strategies, because every task's streams are seeded by content, not
    by schedule.

    A raising task no longer aborts the sweep with nothing to show:
    under the default ``policy.fail_fast=True`` the sweep raises a
    structured :class:`~repro.pipeline.jobs.SweepExecutionError` naming
    every failed task key and its replay seed; with ``fail_fast=False``
    the failure is recorded in :attr:`SweepResult.failures` (and the run
    report) and the remaining tasks still complete.
    """
    from .jobs import ExecutionPolicy, execute_tasks

    start = time.perf_counter()
    tasks = _plan(config)
    if policy is None:
        policy = ExecutionPolicy()
    if cache is None:
        cache = CircuitCache()
    execution = execute_tasks(tasks, config, policy=policy, cache=cache)

    tables: Dict[str, Dict[int, List[Dict[str, Any]]]] = {}
    savings: Dict[int, Dict[str, float]] = {}
    modexp: List[Dict[str, Any]] = []
    for kind, key, payload in execution.outcomes:
        if kind == "table":
            table, n = key
            tables.setdefault(table, {})[n] = payload
        elif kind == "savings":
            savings[key] = payload
        else:
            modexp.append(payload)
    return SweepResult(
        config=config,
        tables=tables,
        savings=savings,
        modexp=modexp,
        elapsed=time.perf_counter() - start,
        cache_stats=execution.cache_stats,
        task_reports=[r.as_dict() for r in execution.reports],
        failures=[r.as_dict() for r in execution.failures],
        journal_stats=execution.journal_stats,
        execution_modes=execution.modes,
    )
