"""Simulators for the circuit IR, all built on one execution core.

Entry point
-----------
:func:`simulate` dispatches to a named backend through a registry
(:func:`register_backend` adds new ones without touching call sites)::

    from repro.modular import build_modadd
    from repro.sim import simulate

    built = build_modadd(4, 13, family="cdkpm", mbu=True)
    simulate(built.circuit, {"x": 3, "y": 4}).registers["y"]    # 7
    simulate(built.circuit, {"x": 3, "y": [4, 5]},              # [7, 8]
             backend="bitplane", batch=2).registers["y"]

Backends
--------
``statevector`` (:class:`StatevectorSimulator`)
    Dense ground truth: every op executed literally, projective
    measurement, classical feed-forward.  Practical to ~20 qubits.
``classical`` (:class:`ClassicalSimulator`)
    One computational-basis input, one bit per qubit; exact for the
    reversible + measurement-based circuits of the paper at any width.
``bitplane`` (:class:`BitplaneSimulator`)
    ``batch`` basis-input lanes at once, one packed ``uint64`` bit-plane
    per qubit — exhaustive small-``n`` verification and large-scale
    Monte-Carlo estimation of expected MBU costs in a single pass.
``auto``
    The calibrated cost model (:mod:`repro.sim.dispatch.cost`) picks the
    cheapest capable strategy — classical, interpretive bitplane, or the
    generated codegen/vector kernels — for the given (ops, batch, tally).

All three are :class:`~repro.sim.engine.ExecutionBackend` implementations
driven by :class:`~repro.sim.engine.ExecutionEngine`, which owns the
op-stream recursion, the executed-gate tally and the measurement-outcome
provider; the resource counters in :mod:`repro.circuits.resources` ride
the same walker.
"""

from .api import SimulationResult, available_backends, register_backend, simulate
from .bitplane import BitplaneSimulator, LaneTallyStats, run_bitplane
from .classical import ClassicalSimulator, UnsupportedGateError, run_classical
from .engine import (
    EXECUTE,
    SKIP,
    BranchDecision,
    ExecutionBackend,
    ExecutionEngine,
)
from .outcomes import (
    ConstantOutcomes,
    ForcedOutcomes,
    ImpossibleOutcomeError,
    OutcomeProvider,
    RandomOutcomes,
)
from .statevector import StatevectorSimulator, run_statevector
from .strategies import (
    COMPILED_STRATEGIES,
    FUSED_KERNELS,
    LADDER,
    STRATEGIES,
    validate_strategy,
)

__all__ = [
    "simulate",
    "register_backend",
    "available_backends",
    "SimulationResult",
    "ExecutionEngine",
    "ExecutionBackend",
    "BranchDecision",
    "EXECUTE",
    "SKIP",
    "ClassicalSimulator",
    "StatevectorSimulator",
    "BitplaneSimulator",
    "LaneTallyStats",
    "UnsupportedGateError",
    "run_classical",
    "run_statevector",
    "run_bitplane",
    "OutcomeProvider",
    "RandomOutcomes",
    "ForcedOutcomes",
    "ConstantOutcomes",
    "ImpossibleOutcomeError",
    "COMPILED_STRATEGIES",
    "FUSED_KERNELS",
    "LADDER",
    "STRATEGIES",
    "validate_strategy",
]
