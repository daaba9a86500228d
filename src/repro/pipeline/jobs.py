"""Fault-tolerant sweep execution: checkpoint journal + retrying executor.

This module is the execution layer under :func:`repro.pipeline.runner.run_sweep`.
The sweep's *semantics* live entirely in the task list and the per-task
seeds (:func:`~repro.pipeline.montecarlo.derive_seed` keys every
Monte-Carlo stream by task content, never by scheduling), so everything
here — checkpointing, retries, timeouts, pool respawns, degradation —
can reshuffle, repeat or resume work freely without changing a single
output byte.  That contract is what the chaos suite
(``tests/test_faults.py``) asserts: a sweep completed through injected
worker kills, hangs and corrupted checkpoints is byte-identical to a
fault-free serial run.

Two pieces:

* :class:`CheckpointJournal` — a content-addressed on-disk store of
  completed task payloads, keyed by ``(SweepConfig fingerprint, task
  key)``.  Entries are written atomically (tmp file + ``os.replace``)
  with a SHA-256 payload checksum; the loader treats *anything* wrong —
  missing file, unparsable JSON, stale schema, foreign fingerprint, bad
  checksum — as a cache miss and lets the executor recompute.  A journal
  can therefore be corrupted, truncated or half-written (kill -9 mid
  sweep) and the worst case is lost work, never a crash or a wrong row.

* :func:`execute_tasks` — submits tasks individually (``wait`` on a
  bounded in-flight window, not ``pool.map``) with per-task timeout,
  bounded retries with exponential backoff + deterministic jitter,
  ``BrokenProcessPool`` recovery (terminate + respawn the pool, requeue
  in-flight tasks) and a graceful-degradation ladder process-pool →
  thread-pool → serial when pools keep dying.  Every task gets a
  structured :class:`TaskReport` (status, attempts, elapsed, error,
  worker pid, replay seed) surfaced through
  :class:`~repro.pipeline.runner.SweepResult` and the run-report
  artifact.

Retry accounting is two-level on purpose: the *cumulative* attempt index
(total invocations, never reset) feeds backoff jitter and the fault
harness — so ``attempts=(0,)`` faults fire exactly once per task — while
the *per-rung* direct-failure count enforces ``max_retries``.  Pool
breakage requeues collateral tasks without charging their retry budget
(the executor cannot know which task killed the worker), and each rung
of the ladder starts with a fresh budget; the break counter bounds the
loop instead, forcing degradation after ``pool_breaks_before_degrade``
respawns.

Timeouts are enforced only on the pool rungs: a process worker past its
deadline is terminated with the pool (then everything in flight is
requeued); a hung *thread* cannot be killed, so the thread pool is
abandoned and respawned around it.  The serial rung runs tasks inline
and cannot preempt them — chaos hang tests bound their faults with
``attempts=(0,)`` for exactly this reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from .montecarlo import derive_seed

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "ExecutionPolicy",
    "TaskReport",
    "SweepExecutionError",
    "JournalStats",
    "CheckpointJournal",
    "ExecutionOutcome",
    "config_fingerprint",
    "task_key",
    "outcome_key",
    "backoff_delay",
    "execute_tasks",
]

#: Bumped whenever the on-disk entry layout changes; stale entries are
#: cache misses, never parse errors.
JOURNAL_SCHEMA_VERSION = 1

#: The executor's polling tick: how often in-flight futures are waited on
#: before deadlines are rechecked.
_TICK_SECONDS = 0.05


# --------------------------------------------------------------------------- #
# identity: config fingerprints and task keys

def config_fingerprint(config: Any) -> str:
    """A stable hex fingerprint of a sweep config's *semantic* content.

    ``workers`` is excluded — per-task seeds make results worker-count
    independent (the same reason :data:`~repro.pipeline.artifacts.DEFAULT_IGNORE`
    skips it in golden diffs) — so a journal written by a serial run
    resumes a parallel one and vice versa.
    """
    payload = config.as_dict()
    payload.pop("workers", None)
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def task_key(task: Dict[str, Any]) -> str:
    """The stable, human-readable identity of one sweep task."""
    kind = task["kind"]
    if kind == "table":
        return f"table:{task['table']}:n{task['n']}"
    if kind == "savings":
        return f"savings:n{task['n']}"
    if kind == "modexp":
        return f"modexp:e{task['n_exp']}:n{task['n']}"
    raise ValueError(f"unknown task kind {kind!r}")  # pragma: no cover


def outcome_key(task: Dict[str, Any]) -> Tuple[str, Any]:
    """The ``(kind, key)`` pair ``runner._run_task`` would return for ``task``.

    Lets a journal hit rebuild the full outcome triple without storing
    redundant (and possibly divergent) copies of the task identity.
    """
    kind = task["kind"]
    if kind == "table":
        return kind, (task["table"], task["n"])
    if kind == "savings":
        return kind, task["n"]
    if kind == "modexp":
        return kind, (task["n_exp"], task["n"])
    raise ValueError(f"unknown task kind {kind!r}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# journal payload codec: exact JSON round-trip for task payloads

def _encode(value: Any) -> Any:
    """JSON-encode a task payload exactly (Fractions tagged, order kept)."""
    if isinstance(value, Fraction):
        return {"$frac": [value.numerator, value.denominator]}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)  # mirror artifacts._jsonify: symbolic types render as str


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$frac"}:
            num, den = value["$frac"]
            return Fraction(num, den)
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _payload_checksum(encoded: Any) -> str:
    blob = json.dumps(encoded, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------- #
# checkpoint journal

@dataclass
class JournalStats:
    """Counters of one journal's lifetime within a sweep."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stale: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "writes": self.writes,
        }


class CheckpointJournal:
    """Content-addressed on-disk store of completed sweep task payloads.

    Layout: ``root/<config fingerprint>/<task slug>.json``, one entry per
    task, where the slug is the readable task key sanitized plus a short
    hash (collision-proof however exotic the key).  Entries carry the
    schema version, the fingerprint, the task key, the encoded payload
    and a SHA-256 payload checksum; :meth:`load` returns ``None`` — a
    cache miss — for any entry that is missing, unparsable, stale or
    checksum-broken, so resuming over a damaged journal silently
    recomputes the damaged cells.

    Writes go through a tmp file in the same directory followed by
    ``os.replace``, so a crash mid-write leaves either the old entry or
    no entry — never a torn one (the tmp leftovers are ignored by the
    loader and swept by the next successful write of that key).
    """

    def __init__(self, root: Union[str, Path], config: Any) -> None:
        self.root = Path(root)
        self.fingerprint = config_fingerprint(config)
        self.dir = self.root / self.fingerprint
        self.stats = JournalStats()

    @staticmethod
    def _slug(key: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", key)
        digest = hashlib.sha256(key.encode()).hexdigest()[:8]
        return f"{safe}-{digest}"

    def path(self, key: str) -> Path:
        return self.dir / f"{self._slug(key)}.json"

    def load(self, key: str) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` on any miss.

        Damage is *counted* (``corrupt`` / ``stale``) but never raised:
        the executor's recovery path is always "recompute".
        """
        path = self.path(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except (OSError, ValueError):
            self.stats.corrupt += 1
            return None
        if entry.get("schema") != JOURNAL_SCHEMA_VERSION \
                or entry.get("fingerprint") != self.fingerprint \
                or entry.get("task") != key:
            self.stats.stale += 1
            return None
        payload = entry.get("payload")
        if entry.get("checksum") != _payload_checksum(payload):
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return _decode(payload)

    def store(self, key: str, payload: Any) -> Path:
        """Atomically persist ``payload`` under ``key`` (tmp + rename)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        encoded = _encode(payload)
        entry = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "task": key,
            "checksum": _payload_checksum(encoded),
            "payload": encoded,
        }
        path = self.path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, indent=1) + "\n")
        os.replace(tmp, path)
        self.stats.writes += 1
        self._maybe_corrupt(key, path)
        return path

    def _maybe_corrupt(self, key: str, path: Path) -> None:
        """The journal's fault point: garble the entry just written."""
        from .faults import active_injector, corrupt_file

        injector = active_injector()
        if injector is None:
            return
        spec = injector.decide("journal", key, attempt=0)
        if spec is not None:  # journal site only arms "corrupt"
            corrupt_file(path)

    def completed_keys(self) -> List[str]:
        """Task keys with a *valid* entry on disk (stats untouched)."""
        probe = CheckpointJournal.__new__(CheckpointJournal)
        probe.root, probe.fingerprint, probe.dir = self.root, self.fingerprint, self.dir
        probe.stats = JournalStats()
        keys = []
        for path in sorted(self.dir.glob("*.json")) if self.dir.exists() else []:
            try:
                entry = json.loads(path.read_text())
                key = entry.get("task")
            except (OSError, ValueError):
                continue
            if isinstance(key, str) and probe.load(key) is not None:
                keys.append(key)
        return keys


# --------------------------------------------------------------------------- #
# execution policy, reports, errors

@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything about *how* a sweep executes (and nothing about *what*).

    Deliberately separate from :class:`~repro.pipeline.runner.SweepConfig`:
    the config fully determines the artifact bytes, and no retry count,
    timeout or journal path may ever change them — so none of this enters
    the config fingerprint or the artifact.
    """

    #: Direct failures tolerated per task *per ladder rung* before the
    #: task is reported failed (attempts = 1 + max_retries).
    max_retries: int = 2
    #: Per-task wall-clock budget on the pool rungs; ``None`` = no limit.
    #: Unenforceable on the serial rung (tasks run inline).
    task_timeout: Optional[float] = None
    #: Exponential backoff: ``base * 2**(failures-1)`` capped at ``cap``,
    #: scaled by deterministic jitter in [0.5, 1.0).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Abort the sweep on the first task that exhausts its retries
    #: (raising :class:`SweepExecutionError`); ``False`` records the
    #: failure in the result/run report and keeps going.
    fail_fast: bool = True
    #: Checkpoint journal directory; ``None`` disables checkpointing.
    store: Optional[Union[str, Path]] = None
    #: With a store, skip tasks whose journal entry is valid.  ``False``
    #: still *writes* checkpoints but recomputes everything.
    resume: bool = True
    #: Pool breaks (BrokenProcessPool / timeouts) survived on one rung
    #: before degrading process -> thread -> serial.
    pool_breaks_before_degrade: int = 2
    #: Execution strategy for the Monte-Carlo columns, one of
    #: :data:`repro.sim.strategies.STRATEGIES`.  Execution-only: results
    #: are bit-identical whatever the choice.
    strategy: str = "codegen"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.pool_breaks_before_degrade < 0:
            raise ValueError("pool_breaks_before_degrade must be >= 0")
        from ..sim.strategies import validate_strategy

        validate_strategy(self.strategy)


@dataclass
class TaskReport:
    """The structured execution record of one sweep task."""

    key: str
    status: str = "pending"      # pending | ok | cached | failed
    attempts: int = 0            # cumulative invocations across all rungs
    failures: int = 0            # direct failures (exceptions + timeouts)
    requeues: int = 0            # collateral requeues from pool breaks
    elapsed: float = 0.0         # in-task seconds of the successful attempt
    error: Optional[str] = None  # last error message, kept even after success
    mode: Optional[str] = None   # rung that produced the final status
    worker: Optional[int] = None # pid of the worker that succeeded
    seed: Optional[int] = None   # the sweep seed: replay = (seed, key)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "failures": self.failures,
            "requeues": self.requeues,
            "elapsed": round(self.elapsed, 6),
            "error": self.error,
            "mode": self.mode,
            "worker": self.worker,
            "seed": self.seed,
        }


class SweepExecutionError(RuntimeError):
    """Raised under ``fail_fast`` when a task exhausts its retries.

    Carries the failed tasks' :class:`TaskReport` records so callers (and
    the CLI) can print replay seeds and task keys instead of a bare
    traceback.
    """

    def __init__(self, failures: List[TaskReport]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{r.key} (attempts={r.attempts}, error={r.error})" for r in self.failures
        )
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {detail}")


def backoff_delay(policy: ExecutionPolicy, seed: int, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter in [0.5, 1.0)x.

    The jitter draw hashes ``(seed, key, attempt)`` through
    :func:`derive_seed`, so retry timing — like everything else in a
    sweep — replays identically from the same inputs.
    """
    exponent = max(0, attempt - 1)
    base = min(policy.backoff_cap, policy.backoff_base * (2 ** exponent))
    jitter = derive_seed(seed, "backoff", key, attempt) / 2.0**63
    return base * (0.5 + 0.5 * jitter)


# --------------------------------------------------------------------------- #
# the task invocation shipped to workers

_CACHE_COUNTERS = (
    "hits", "misses", "evictions",
    "count_hits", "count_misses", "program_hits", "program_misses",
)


def _stats_snapshot(stats: Any) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in _CACHE_COUNTERS}


def _invoke(
    task: Dict[str, Any],
    attempt: int,
    serial_cache: Any = None,
    strategy: str = "codegen",
) -> Dict[str, Any]:
    """Run one task (fault point first) and carry its cache delta home.

    Module-level and dict-in/dict-out so the process pool can pickle it.
    In pool modes each worker uses its process-local
    ``runner._worker_cache()``; the serial rung threads the caller's
    cache through so cross-table reuse keeps paying off.  The stats
    delta is exact on the process rung (workers run one task at a time);
    on the thread rung concurrent tasks share one cache, so per-task
    attribution is approximate while the aggregate stays truthful.
    ``strategy`` is the policy's execution-only strategy, forwarded
    positionally so the process pool can pickle the submission.
    """
    from .faults import maybe_fire
    from .runner import _run_task, _worker_cache

    cache = serial_cache if serial_cache is not None else _worker_cache()
    before = _stats_snapshot(cache.stats)
    maybe_fire("task", task_key(task), attempt)
    start = time.perf_counter()
    kind, key, payload = _run_task(task, cache, strategy=strategy)
    after = _stats_snapshot(cache.stats)
    return {
        "kind": kind,
        "key": key,
        "payload": payload,
        "elapsed": time.perf_counter() - start,
        "worker": os.getpid(),
        "cache_delta": {name: after[name] - before[name] for name in _CACHE_COUNTERS},
    }


def _aggregate_cache(deltas: List[Dict[str, int]]) -> Dict[str, Any]:
    """Sum per-task cache deltas and derive the same ratios
    :meth:`~repro.pipeline.cache.CacheStats.as_dict` reports: an
    all-family aggregate ``hit_ratio`` plus the per-family breakdown.
    (The aggregate used to divide circuit hits/misses only, silently
    ignoring the count and program lookups that dominate a sweep.)
    """
    total: Dict[str, Any] = {name: 0 for name in _CACHE_COUNTERS}
    for delta in deltas:
        for name in _CACHE_COUNTERS:
            total[name] += delta.get(name, 0)

    def ratio(hits: int, misses: int) -> float:
        lookups = hits + misses
        return round(hits / lookups, 4) if lookups else 0.0

    total["hit_ratio"] = ratio(
        total["hits"] + total["count_hits"] + total["program_hits"],
        total["misses"] + total["count_misses"] + total["program_misses"],
    )
    total["circuit_hit_ratio"] = ratio(total["hits"], total["misses"])
    total["count_hit_ratio"] = ratio(total["count_hits"], total["count_misses"])
    total["program_hit_ratio"] = ratio(
        total["program_hits"], total["program_misses"]
    )
    return total


# --------------------------------------------------------------------------- #
# the executor

@dataclass
class ExecutionOutcome:
    """What :func:`execute_tasks` hands back to the sweep runner."""

    outcomes: List[Tuple[str, Any, Any]]   # (kind, key, payload), task order
    reports: List[TaskReport]              # task order, one per task
    cache_stats: Dict[str, Any]
    journal_stats: Optional[Dict[str, int]]
    modes: List[str]                       # ladder rungs actually used

    @property
    def failures(self) -> List[TaskReport]:
        return [r for r in self.reports if r.status == "failed"]


class _State:
    """Mutable bookkeeping shared by the ladder rungs."""

    def __init__(self, tasks, config, policy, journal, serial_cache):
        self.tasks = tasks
        self.keys = [task_key(t) for t in tasks]
        self.config = config
        self.policy = policy
        self.journal = journal
        self.serial_cache = serial_cache
        self.reports = [
            TaskReport(key=k, seed=config.seed) for k in self.keys
        ]
        self.results: Dict[int, Tuple[str, Any, Any]] = {}
        self.cache_deltas: List[Dict[str, int]] = []
        self.rung_failures: Dict[int, int] = {}
        self.ready_at: Dict[int, float] = {}
        self.queue: Deque[int] = deque()

    def record_success(self, index: int, mode: str, result: Dict[str, Any]) -> None:
        report = self.reports[index]
        report.status = "ok"
        report.mode = mode
        report.elapsed = result["elapsed"]
        report.worker = result["worker"]
        self.results[index] = (result["kind"], result["key"], result["payload"])
        self.cache_deltas.append(result["cache_delta"])
        if self.journal is not None:
            self.journal.store(self.keys[index], result["payload"])

    def record_failure(self, index: int, mode: str, error: str) -> bool:
        """Charge a direct failure; True when the task is terminally failed."""
        report = self.reports[index]
        report.error = error
        report.failures += 1
        self.rung_failures[index] = self.rung_failures.get(index, 0) + 1
        if self.rung_failures[index] > self.policy.max_retries:
            report.status = "failed"
            report.mode = mode
            return True
        self.ready_at[index] = time.monotonic() + backoff_delay(
            self.policy, self.config.seed, self.keys[index], report.attempts
        )
        self.queue.append(index)
        return False

    def maybe_fail_fast(self) -> None:
        failed = [r for r in self.reports if r.status == "failed"]
        if failed and self.policy.fail_fast:
            raise SweepExecutionError(failed)


def _terminate_pool(pool: Any, mode: str) -> None:
    """Tear a pool down hard: kill process workers, abandon thread workers."""
    if mode == "process":
        # Private but stable across CPython 3.8+; a hung or poisoned
        # worker cannot be stopped through any public API.
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pooled(state: _State, mode: str, workers: int) -> bool:
    """Drain the queue on a pool rung; False = give up and degrade.

    Tasks are submitted individually with at most ``workers`` in flight,
    so a submit timestamp is an honest start timestamp and deadlines mean
    what they say.  Completions are reaped with ``wait(...,
    FIRST_COMPLETED)``; deadline overruns and broken pools terminate and
    respawn the pool with everything in flight requeued (retry budgets
    untouched — the executor cannot attribute a pool death to a task).
    """
    policy = state.policy
    make_pool = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
    pool = make_pool(max_workers=workers)
    inflight: Dict[Future, Tuple[int, Optional[float]]] = {}
    breaks = 0

    def respawn_or_degrade() -> Optional[Any]:
        """Requeue everything in flight; a fresh pool, or None to degrade."""
        nonlocal breaks
        for doomed in list(inflight):
            index, _ = inflight.pop(doomed)
            doomed.cancel()
            state.reports[index].requeues += 1
            state.queue.append(index)
        breaks += 1
        _terminate_pool(pool, mode)
        if breaks > policy.pool_breaks_before_degrade:
            return None
        return make_pool(max_workers=workers)

    try:
        while state.queue or inflight:
            now = time.monotonic()
            # Top up the in-flight window with tasks whose backoff expired.
            submitted = True
            while submitted and state.queue and len(inflight) < workers:
                submitted = False
                for _ in range(len(state.queue)):
                    index = state.queue.popleft()
                    if state.ready_at.get(index, 0.0) > now:
                        state.queue.append(index)  # still backing off
                        continue
                    report = state.reports[index]
                    attempt = report.attempts
                    report.attempts += 1
                    try:
                        future = pool.submit(
                            _invoke, state.tasks[index], attempt, None,
                            policy.strategy,
                        )
                    except (BrokenExecutor, RuntimeError):
                        # Pool died between reap and submit: put the task
                        # back unharmed and handle it as a break below.
                        report.attempts -= 1
                        state.queue.appendleft(index)
                        fresh = respawn_or_degrade()
                        if fresh is None:
                            return False
                        pool = fresh
                        break
                    deadline = (
                        now + policy.task_timeout
                        if policy.task_timeout is not None else None
                    )
                    inflight[future] = (index, deadline)
                    submitted = True
                    break
            if not inflight:
                if not state.queue:
                    break
                pause = min(
                    state.ready_at.get(i, 0.0) for i in state.queue
                ) - time.monotonic()
                if pause > 0:
                    time.sleep(min(pause, 0.5))
                continue

            done, _ = wait(list(inflight), timeout=_TICK_SECONDS,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                index, _ = inflight.pop(future)
                try:
                    result = future.result(timeout=0)
                except BrokenExecutor:
                    # Collateral of a dying pool, not a task verdict.
                    state.reports[index].requeues += 1
                    state.queue.append(index)
                    broken = True
                except Exception as exc:
                    if state.record_failure(index, mode, f"{type(exc).__name__}: {exc}"):
                        state.maybe_fail_fast()
                else:
                    state.record_success(index, mode, result)
            if broken:
                fresh = respawn_or_degrade()
                if fresh is None:
                    return False
                pool = fresh
                continue

            # Deadline enforcement: a running future cannot be cancelled,
            # so an overrun means killing the whole pool and starting a
            # fresh one (hung threads are abandoned, not killed).
            now = time.monotonic()
            overdue = [
                (future, index) for future, (index, deadline) in inflight.items()
                if deadline is not None and now > deadline
            ]
            if overdue:
                for future, index in overdue:
                    inflight.pop(future)
                    future.cancel()
                    terminal = state.record_failure(
                        index, mode,
                        f"TimeoutError: exceeded task_timeout={policy.task_timeout}s",
                    )
                    if terminal:
                        state.maybe_fail_fast()
                fresh = respawn_or_degrade()
                if fresh is None:
                    return False
                pool = fresh
        return True
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _run_serial(state: _State) -> None:
    """The ladder's last rung: inline execution, backoff without deadlines."""
    policy = state.policy
    while state.queue:
        index = state.queue.popleft()
        pause = state.ready_at.get(index, 0.0) - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        report = state.reports[index]
        attempt = report.attempts
        report.attempts += 1
        try:
            result = _invoke(
                state.tasks[index], attempt, serial_cache=state.serial_cache,
                strategy=policy.strategy,
            )
        except Exception as exc:
            if state.record_failure(index, "serial", f"{type(exc).__name__}: {exc}"):
                state.maybe_fail_fast()
        else:
            state.record_success(index, "serial", result)


def execute_tasks(
    tasks: List[Dict[str, Any]],
    config: Any,
    policy: Optional[ExecutionPolicy] = None,
    cache: Any = None,
    journal: Optional[CheckpointJournal] = None,
) -> ExecutionOutcome:
    """Run every task fault-tolerantly and return outcomes + reports.

    Resolves the journal from ``policy.store`` when not supplied, replays
    valid checkpoints as ``cached`` tasks, then walks the degradation
    ladder until the queue drains.  ``cache`` is only consumed by the
    serial rung (pool rungs use per-worker caches); outcomes come back in
    task order with failed tasks absent, and ``cache_stats`` aggregates
    the per-task deltas every worker carried home — so the parallel path
    finally reports real numbers instead of an empty dict.
    """
    policy = policy or ExecutionPolicy()
    if journal is None and policy.store is not None:
        journal = CheckpointJournal(policy.store, config)

    state = _State(tasks, config, policy, journal, cache)

    for index, key in enumerate(state.keys):
        if journal is not None and policy.resume:
            payload = journal.load(key)
            if payload is not None:
                kind, okey = outcome_key(tasks[index])
                state.results[index] = (kind, okey, payload)
                state.reports[index].status = "cached"
                continue
        state.queue.append(index)

    workers = config.resolved_workers()
    if workers > 1 and len(state.queue) > 1:
        ladder = ["process", "thread", "serial"]
    else:
        ladder = ["serial"]

    modes: List[str] = []
    for mode in ladder:
        if not state.queue:
            break
        state.rung_failures.clear()  # fresh retry budget per rung
        modes.append(mode)
        if mode == "serial":
            _run_serial(state)
        elif _run_pooled(state, mode, workers):
            break

    state.maybe_fail_fast()
    outcomes = [state.results[i] for i in sorted(state.results)]
    return ExecutionOutcome(
        outcomes=outcomes,
        reports=state.reports,
        cache_stats=_aggregate_cache(state.cache_deltas),
        journal_stats=journal.stats.as_dict() if journal is not None else None,
        modes=modes,
    )
