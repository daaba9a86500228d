"""The public simulation entry point: ``simulate(circuit, inputs, backend=...)``.

A small backend registry maps names to runner callables, so new execution
backends (a GPU bit-plane kernel, a stabilizer simulator, ...) plug in via
:func:`register_backend` without touching any call site::

    from repro.sim import simulate

    result = simulate(built.circuit, {"x": 3, "y": 4}, backend="classical")
    result.registers["y"]    # (3 + 4) % p

Built-in backends
-----------------
``classical``
    One basis-state input per call; ``registers`` maps names to ints.
``statevector``
    Dense ground truth; ``registers`` is populated only when the final
    state is a single basis state (otherwise ``None`` — inspect
    ``result.simulator`` for amplitudes).
``bitplane``
    ``batch`` basis-state lanes at once (``batch=`` keyword, default 64);
    ``registers`` maps names to per-lane lists and ``bits`` is a list of
    per-lane lists, one per classical bit.
``auto``
    Resolves to the cheapest feasible backend for the workload via the
    calibrated cost model in :mod:`repro.sim.dispatch.cost`;
    ``result.backend`` records the concrete pick as ``"auto:<name>"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..circuits.circuit import Circuit
from ..circuits.counts import GateCounts
from .bitplane import BitplaneSimulator, run_bitplane
from .classical import ClassicalSimulator
from .outcomes import OutcomeProvider, RandomOutcomes
from .statevector import StatevectorSimulator

__all__ = [
    "SimulationResult",
    "simulate",
    "register_backend",
    "available_backends",
]

#: A backend runner: (circuit, inputs, outcomes, **options) -> SimulationResult.
BackendRunner = Callable[..., "SimulationResult"]

_BACKENDS: Dict[str, BackendRunner] = {}


@dataclass
class SimulationResult:
    """Uniform result wrapper returned by :func:`simulate`.

    ``registers`` maps register names to values — ints for the single-input
    backends, per-lane lists for ``bitplane``, or ``None`` when the
    statevector did not collapse to a single basis state.  ``simulator`` is
    the underlying backend instance for backend-specific inspection.
    """

    backend: str
    registers: Optional[Dict[str, Any]]
    bits: Any
    tally: Optional[GateCounts]
    simulator: Any = field(repr=False, default=None)


def register_backend(name: str, runner: BackendRunner) -> BackendRunner:
    """Register (or replace) a named simulation backend."""
    _BACKENDS[name] = runner
    return runner


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def simulate(
    circuit: Circuit,
    inputs: Mapping[str, Any] | None = None,
    backend: str = "classical",
    outcomes: OutcomeProvider | None = None,
    seed: int | None = None,
    transforms: Any = None,
    **options: Any,
) -> SimulationResult:
    """Run ``circuit`` on basis inputs with the named backend.

    ``inputs`` maps register names to integer values (the ``bitplane``
    backend additionally accepts per-lane sequences).  Extra keyword
    options are forwarded to the backend runner (e.g. ``batch=4096`` for
    ``bitplane``, ``tally=False`` for any of the built-ins, or
    ``strategy="codegen"`` for ``bitplane``'s compiled execution path).

    ``transforms`` applies a :mod:`repro.transform` pass chain to the
    circuit before simulation — registered pass names (a list or a
    comma-separated string), pass instances, or a ``PassManager``-
    compatible mix, e.g. ``transforms=["lower_toffoli"]``.

    ``noise=`` accepts a :class:`repro.noise.NoiseConfig` (or any object
    with ``.rate`` and ``.seed``): every backend then applies a seeded
    Bernoulli bit-flip channel at the circuit's annotated noise points
    (see :func:`repro.noise.insert_noise_points`).  ``rate=0`` draws no
    entropy and is bit-identical to passing no noise at all.

    Seeding contract: ``seed=<int>`` is shorthand for
    ``outcomes=RandomOutcomes(seed)`` — same seed, same measurement
    outcomes, on every platform.  Passing both ``seed`` and ``outcomes``
    is an error.  With neither, the engine defaults to
    ``RandomOutcomes(0)``, so runs are deterministic by default (see
    :mod:`repro.sim.outcomes`).
    """
    if seed is not None:
        if outcomes is not None:
            raise ValueError("pass either seed= or outcomes=, not both")
        outcomes = RandomOutcomes(seed)
    if transforms:  # None or an empty chain are both "no transforms"
        if options.get("program") is not None:
            raise ValueError(
                "pass either transforms= or a pre-compiled program=, not both: "
                "the program was compiled from the untransformed circuit"
            )
        from ..transform import apply_transforms  # deferred: transform sits above sim

        circuit = apply_transforms(circuit, transforms)
    try:
        runner = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return runner(circuit, inputs, outcomes, **options)


# --------------------------------------------------------------------------- #
# built-in runners


def _check_registers(circuit: Circuit, inputs: Mapping[str, Any] | None) -> None:
    for name in inputs or {}:
        if name not in circuit.registers:
            raise ValueError(
                f"unknown register {name!r}; circuit has: "
                f"{', '.join(circuit.registers) or '(none)'}"
            )


def _run_classical(
    circuit: Circuit,
    inputs: Mapping[str, int] | None,
    outcomes: OutcomeProvider | None,
    tally: bool = True,
    noise: Any = None,
) -> SimulationResult:
    _check_registers(circuit, inputs)
    sim = ClassicalSimulator(circuit, outcomes=outcomes, tally=tally, noise=noise)
    for name, value in (inputs or {}).items():
        sim.set_register(circuit.registers[name], value)
    sim.run()
    registers = {name: sim.get_register(reg) for name, reg in circuit.registers.items()}
    return SimulationResult("classical", registers, list(sim.bits), sim.tally, sim)


def _run_statevector(
    circuit: Circuit,
    inputs: Mapping[str, int] | None,
    outcomes: OutcomeProvider | None,
    tally: bool = True,
    noise: Any = None,
) -> SimulationResult:
    _check_registers(circuit, inputs)
    sim = StatevectorSimulator(circuit, outcomes=outcomes, tally=tally, noise=noise)
    if inputs:
        sim.set_basis_state(inputs)
    sim.run()
    registers: Optional[Dict[str, int]] = None
    try:
        values = sim.register_values()
    except ValueError:  # residual amplitude outside the registers
        values = {}
    if len(values) == 1:
        (key, amp), = values.items()
        if abs(abs(amp) - 1.0) < 1e-6:  # a single basis state
            registers = dict(zip(circuit.registers, key))
    return SimulationResult("statevector", registers, list(sim.bits), sim.tally, sim)


def _run_bitplane(
    circuit: Circuit,
    inputs: Mapping[str, Any] | None,
    outcomes: OutcomeProvider | None,
    batch: int = 64,
    tally: bool = True,
    lane_counts: Any = None,
    program: Any = None,
    strategy: str | None = None,
    noise: Any = None,
) -> SimulationResult:
    """``strategy`` is one of :data:`repro.sim.strategies.STRATEGIES`.

    ``"interpretive"`` walks the circuit with the execution engine; the
    others run a compiled program (``program=``, or compiled on the fly)
    through :meth:`BitplaneSimulator.run_compiled`.  The default is
    ``"interpretive"``, or ``"codegen"`` when a ``program`` is supplied.
    """
    from .strategies import validate_strategy

    if strategy is None:
        strategy = "interpretive" if program is None else "codegen"
    validate_strategy(strategy, program=program)
    _check_registers(circuit, inputs)
    if strategy == "interpretive":
        sim = run_bitplane(
            circuit, inputs, batch=batch, outcomes=outcomes, tally=tally,
            lane_counts=lane_counts, noise=noise,
        )
    else:
        sim = BitplaneSimulator(
            circuit, batch=batch, outcomes=outcomes, tally=tally,
            lane_counts=lane_counts, noise=noise,
        )
        for name, values in (inputs or {}).items():
            sim.set_register(name, values)
        sim.run_compiled(program, strategy=strategy)
    registers = {name: sim.get_register(name) for name in circuit.registers}
    bits: List[List[int]] = [sim.get_bit(b) for b in range(circuit.num_bits)]
    return SimulationResult("bitplane", registers, bits, sim.tally, sim)


def _run_auto(
    circuit: Circuit,
    inputs: Mapping[str, Any] | None,
    outcomes: OutcomeProvider | None,
    batch: int = 64,
    tally: bool = True,
    lane_counts: Any = None,
    program: Any = None,
    noise: Any = None,
) -> SimulationResult:
    """Pick the cheapest capable execution strategy via the calibrated cost
    model (:mod:`repro.sim.dispatch.cost`) and run it.

    The returned result's ``backend`` records what actually ran, as
    ``"auto:<strategy>"``.  ``classical`` is only a candidate for
    ``batch=1`` scalar-input calls (its result shape differs); circuits the
    compiler rejects fall back to the interpretive walk.
    """
    from .classical import UnsupportedGateError
    from .dispatch.cost import default_model
    from .strategies import FUSED_KERNELS, LADDER
    from ..transform.compile import compile_program

    _check_registers(circuit, inputs)
    candidates = list(LADDER)
    if program is None:
        try:
            program = compile_program(
                circuit, tally=tally or bool(lane_counts)
            )
        except UnsupportedGateError:
            candidates = [c for c in candidates if c not in FUSED_KERNELS]
    if program is not None:
        ops = len(getattr(program, "scalar", program))
    else:
        from ..circuits.ops import iter_flat

        ops = sum(1 for _ in iter_flat(circuit.ops))
    scalar_inputs = all(isinstance(v, int) for v in (inputs or {}).values())
    if not scalar_inputs:
        candidates.remove("classical")
    choice = default_model().choose(
        ops=ops, batch=batch, tally=tally, lane_counts=bool(lane_counts),
        candidates=candidates,
    )
    if choice == "classical":
        result = _run_classical(circuit, inputs, outcomes, tally=tally, noise=noise)
    else:
        result = _run_bitplane(
            circuit, inputs, outcomes, batch=batch, tally=tally,
            lane_counts=lane_counts, noise=noise, strategy=choice,
            program=None if choice == "interpretive" else program,
        )
    result.backend = f"auto:{choice}"
    return result


register_backend("classical", _run_classical)
register_backend("statevector", _run_statevector)
register_backend("bitplane", _run_bitplane)
register_backend("auto", _run_auto)
