"""Monte-Carlo estimation of *expected* MBU gate costs.

The paper's expected-cost formulas (every MBU correction fires with
probability 1/2) are validated empirically here: one bit-plane run with a
seeded :class:`~repro.sim.outcomes.RandomOutcomes` provider draws each
lane's measurement outcomes independently, so ``batch`` lanes are
``batch`` i.i.d. samples of the executed gate count.  The per-lane
counters added to :class:`~repro.sim.bitplane.BitplaneSimulator`
(``lane_counts=``) give the exact sample, hence a mean, a sample variance
and a normal-approximation confidence interval to put next to the
closed-form expectation.

Determinism: estimates depend only on ``(seed, batch, repeats)`` — never
on wall clock, worker scheduling or platform, and not on the execution
strategy either: the default compiled path (one fused program re-run
across all repetitions on one reset simulator; see
``docs/performance.md``) consumes the exact same per-repetition outcome
streams as the interpretive walk, so the estimates are bit-identical.
:func:`derive_seed` folds an arbitrary task key into an independent
63-bit seed with SHA-256, which is how the sweep runner gives every
(table, n, row, variant) cell its own reproducible stream.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.counts import TOFFOLI_GATES
from ..sim.bitplane import BitplaneSimulator, LaneTallyStats
from ..sim.classical import UnsupportedGateError
from ..sim.outcomes import RandomOutcomes

__all__ = [
    "MCEstimate",
    "derive_seed",
    "mc_expected_counts",
    "mc_or_none",
]

#: Default tracked gates: the paper's headline Toffoli metric.
DEFAULT_GATES: Tuple[str, ...] = tuple(sorted(TOFFOLI_GATES))


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from an arbitrary key (SHA-256, not ``hash``)."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class MCEstimate(LaneTallyStats):
    """A Monte-Carlo estimate of an expected per-run gate count.

    Extends :class:`~repro.sim.bitplane.LaneTallyStats` (which owns the
    mean/variance/stderr/``ci95``/``z_score`` machinery) with the
    estimate's provenance: which gates were counted and the sweep seed.
    ``samples`` is ``batch * repeats``.

    ``compile_seconds``/``run_seconds`` expose the compile/run split of the
    estimate's wall time: compilation happens (at most) once per circuit —
    zero when a pre-built program was supplied — while the run time covers
    every repetition executed against the one compiled program.
    """

    gates: Tuple[str, ...] = ()
    seed: int = 0
    compile_seconds: float = 0.0
    run_seconds: float = 0.0


def _circuit_of(target) -> Circuit:
    return target.circuit if hasattr(target, "circuit") else target


def mc_expected_counts(
    target,
    *,
    batch: int = 1024,
    repeats: int = 1,
    seed: int = 0,
    gates: Sequence[str] = DEFAULT_GATES,
    inputs: Optional[Mapping[str, Any]] = None,
    program: Any = None,
    strategy: str = "codegen",
    noise: Any = None,
) -> MCEstimate:
    """Estimate the expected executed count of ``gates`` over random outcomes.

    ``target`` is a :class:`~repro.arithmetic.builders.Built` or a bare
    :class:`~repro.circuits.circuit.Circuit`.  Registers default to the
    all-zero basis state (valid for every construction in the repo; the
    executed-cost distribution of the MBU circuits is input-independent —
    X-basis measurement outcomes are unbiased coins regardless of the
    data).  Raises :class:`~repro.sim.classical.UnsupportedGateError` for
    circuits outside basis-state semantics (e.g. QFT-based Draper rows);
    use :func:`mc_or_none` to skip those.

    ``strategy`` is one of :data:`repro.sim.strategies.STRATEGIES`.  The
    compiled strategies (``"codegen"``, the default, ``"vector"`` and
    ``"auto"``) compile the circuit *once* — or take a pre-built
    ``program`` (a :class:`~repro.transform.compile.FusedProgram` or
    :class:`~repro.transform.compile.CompiledProgram`, e.g. from
    :meth:`~repro.pipeline.cache.CircuitCache.program`) — and re-run it
    for every repetition on one simulator whose plane buffers are reset in
    place, instead of rebuilding execution state per repetition.
    ``"interpretive"`` walks the circuit with the execution engine every
    repetition and takes no ``program``.  The choice is execution-only:
    every strategy consumes identical outcome streams, so estimates are
    bit-identical whatever the strategy and depend only on
    ``(seed, batch, repeats)`` — the golden artifacts cannot move.

    ``noise`` (a :class:`repro.noise.NoiseConfig`) enables the bit-flip
    channel at the circuit's annotated noise points.  The channel stream
    rewinds to ``noise.seed`` at every repetition — repetitions share one
    flip pattern, only the measurement outcomes vary; use distinct
    ``noise.seed`` values across estimates when independent flips matter.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    from ..sim.strategies import validate_strategy

    validate_strategy(strategy, program=program)
    compiled = strategy != "interpretive"
    circuit = _circuit_of(target)
    compile_seconds = 0.0
    if compiled:
        from ..transform.compile import (
            CompiledProgram,
            compile_program,
            fuse_program,
        )

        if program is None:
            start = time.perf_counter()
            program = fuse_program(
                compile_program(circuit, tally=True), memoize=False
            )
            program.kernel(events=True)  # kernel generation is compile work
            compile_seconds = time.perf_counter() - start
        elif isinstance(program, CompiledProgram):
            start = time.perf_counter()
            program = fuse_program(program)
            compile_seconds = time.perf_counter() - start
    chunks = []
    start = time.perf_counter()
    sim = BitplaneSimulator(
        circuit,
        batch=batch,
        outcomes=RandomOutcomes(derive_seed(seed, "rep", 0)),
        tally=False,
        lane_counts=tuple(gates),
        noise=noise,
    )
    for r in range(repeats):
        if r:
            sim.reset(RandomOutcomes(derive_seed(seed, "rep", r)))
        for name, value in (inputs or {}).items():
            sim.set_register(name, value)
        if compiled:
            sim.run_compiled(program, strategy=strategy)
        else:
            sim.run()
        chunks.append(sim.lane_tally())
    run_seconds = time.perf_counter() - start
    totals = np.concatenate(chunks)
    return MCEstimate.from_counts(
        totals,
        gates=tuple(gates),
        seed=seed,
        compile_seconds=compile_seconds,
        run_seconds=run_seconds,
    )


def mc_or_none(target, **kwargs) -> Optional[MCEstimate]:
    """:func:`mc_expected_counts`, or ``None`` when the circuit has no
    basis-state semantics (QFT-based constructions)."""
    try:
        return mc_expected_counts(target, **kwargs)
    except UnsupportedGateError:
        return None
