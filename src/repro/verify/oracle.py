"""The equivalence oracle: one circuit, every backend, every transform.

:func:`check_circuit` runs a circuit through the five *execution
strategies* of the backend ladder

======================  ====================================================
``classical``           one :class:`~repro.sim.classical.ClassicalSimulator`
                        run per lane (broadcast-input cross-check)
``interpretive``        :class:`~repro.sim.bitplane.BitplaneSimulator.run`
                        (the engine op-stream walk)
``codegen``             ``run_compiled()`` — the fused generated kernel
``vector``              ``run_compiled(strategy="vector")`` — the generated
                        straight-line numpy kernel
``auto``                ``run_compiled(strategy="auto")`` — the calibrated
                        cost model (:mod:`repro.sim.dispatch.cost`) resolves
                        a concrete kernel and that choice runs (the
                        dispatch-decision layer)
======================  ====================================================

and through every registered :mod:`repro.transform` pass (``invert`` as the
``invert∘invert`` round trip, ``insert_mbu``, ``lower_toffoli``,
``decompose_clifford_t``, ``cancel_adjacent``), comparing final register
states, classical bits, executed-gate tallies, exact per-lane tallies and
measurement-outcome-stream consumption under scripted
(:class:`~repro.sim.outcomes.ForcedOutcomes`,
:class:`~repro.sim.outcomes.ConstantOutcomes`) and seeded random providers.

The result is an :class:`OracleReport` whose ``matrix`` records a status
for every (strategy, transform) cell:

``agree``
    the strategy executed the (transformed) circuit and every comparison
    held;
``reject``
    the circuit has no basis-state semantics (e.g. the bare Hadamards of
    ``decompose_clifford_t`` output) and the strategy rejected it with
    :class:`~repro.sim.classical.UnsupportedGateError` — *consistent
    rejection is itself a differential property*: the compiled strategies
    validate eagerly at compile time, so a lane-level walk silently
    mis-executing an unsupported gate would surface here;
``lazy``
    a statically-unsupported circuit completed under a lazy runtime walk
    (the interpretive/classical backends only reject gates they reach —
    e.g. an ``h`` inside a never-taken branch);
``inapplicable``
    the transform does not accept the circuit by contract (``invert`` on a
    measurement-bearing circuit, remark 2.23);
``mismatch``
    the cell's comparisons ran and at least one failed (every such cell has
    matching entries in ``OracleReport.failures``).

Scripted-provider alignment rules (why each comparison is sound):

* varied per-lane inputs are compared across the bit-plane strategies
  only — they consume one shared script entry per measurement *event*;
* the ``classical`` cross-check runs with every lane holding the *same*
  input, where per-lane and vectorized event streams provably coincide;
* reference comparisons across measurement-*inserting* rewrites
  (``lower_toffoli``, ``insert_mbu``) use
  :class:`~repro.sim.outcomes.ConstantOutcomes` — insertion-invariant by
  construction — because inserting events shifts a positional script.

When ``check_circuit`` is called with ``noise_rate > 0`` (the ``noisy``
fuzzer flavor sets this from the case metadata), the matrix grows a
``noisy`` column: every strategy re-runs the circuit under the *identical*
seeded bit-flip channel (:class:`~repro.noise.NoiseConfig`) and
faulty-outcome stream (:class:`~repro.noise.NoisyOutcomes`) and must agree
bit-exactly, and a rate-0 wrapped run must be bit-identical to the bare
run — the determinism contract of :mod:`repro.noise`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.counts import GateCounts
from ..circuits.ops import MBUBlock, Measurement, iter_flat
from ..sim import (
    BitplaneSimulator,
    ClassicalSimulator,
    ConstantOutcomes,
    ForcedOutcomes,
    RandomOutcomes,
    StatevectorSimulator,
    UnsupportedGateError,
)
from ..sim.outcomes import OutcomeProvider
from ..sim.strategies import COMPILED_STRATEGIES
from ..transform import apply_transforms, compile_program, fuse_program
from .generate import GeneratedCase

__all__ = [
    "STRATEGIES",
    "TRANSFORMS",
    "BITPLANE_STRATEGIES",
    "NOISY",
    "Mismatch",
    "OracleReport",
    "check_circuit",
    "check_case",
]

#: Strategies that run on the vectorized bit-plane state (the names come
#: from :data:`repro.sim.strategies.STRATEGIES`).
BITPLANE_STRATEGIES = ("interpretive",) + COMPILED_STRATEGIES

#: The five execution strategies of the backend ladder.
STRATEGIES = ("classical",) + BITPLANE_STRATEGIES

#: The registered transform passes the oracle exercises.
TRANSFORMS = (
    "invert",
    "insert_mbu",
    "lower_toffoli",
    "decompose_clifford_t",
    "cancel_adjacent",
)

#: Matrix column for the untransformed differential run.
BASE = "none"

#: Matrix column for the noise-injection differential run (active when
#: ``check_circuit`` is called with ``noise_rate > 0``): the circuit is
#: salted with bit-flip channel points, run under a seeded channel config
#: *and* a seeded :class:`repro.noise.NoisyOutcomes` wrapper, and every
#: bit-plane strategy must agree bit-exactly; rate 0 must be bit-identical
#: to the noiseless run; the classical cell is a seeded determinism replay
#: (its scalar channel stream intentionally differs from the per-lane one).
NOISY = "noisy"

#: Default exact per-lane counters (tracked where the strategy supports it).
DEFAULT_LANE_COUNTS = ("x", "cx", "ccx")


@dataclass(frozen=True)
class Mismatch:
    """One verified disagreement (or unexpected error) the oracle found."""

    kind: str  # registers | bits | tally | lane_tally | consumed | support | structure | statevector | error
    transform: str  # a TRANSFORMS name or BASE
    strategy: Optional[str]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display only
        where = f"{self.transform}/{self.strategy or '*'}"
        return f"[{self.kind}] {where}: {self.detail}"


@dataclass
class OracleReport:
    """Everything one :func:`check_circuit` call established."""

    failures: List[Mismatch] = field(default_factory=list)
    #: (strategy, transform-or-``none``) -> agree | reject | lazy | inapplicable
    matrix: Dict[Tuple[str, str], str] = field(default_factory=dict)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"ok ({self.checks} comparisons, {len(self.matrix)} matrix cells)"
        lines = [f"{len(self.failures)} mismatch(es) in {self.checks} comparisons:"]
        lines += [f"  {m}" for m in self.failures[:12]]
        if len(self.failures) > 12:
            lines.append(f"  ... and {len(self.failures) - 12} more")
        return "\n".join(lines)

    def failure_signature(self) -> frozenset:
        """The (kind, transform) pairs that failed — the shrinker's notion
        of 'the same bug'."""
        return frozenset((m.kind, m.transform) for m in self.failures)


# --------------------------------------------------------------------------- #
# one strategy, one run


@dataclass
class _RunResult:
    """Observable outcome of one strategy executing one circuit."""

    strategy: str
    error: Optional[str] = None
    registers: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    bits: Tuple[Tuple[int, ...], ...] = ()
    tally: Optional[GateCounts] = None
    consumed: Optional[int] = None
    lane_tally: Optional[Tuple[int, ...]] = None


def _event_bound(circuit: Circuit) -> int:
    """Static upper bound on measurement events (script sizing)."""
    return sum(
        1 for op in iter_flat(circuit.ops) if isinstance(op, (Measurement, MBUBlock))
    )


def _make_script(circuit: Circuit, rng: random.Random) -> List[int]:
    return [rng.randint(0, 1) for _ in range(_event_bound(circuit) + 4)]


def _run_bitplane(
    strategy: str,
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    provider: OutcomeProvider,
    batch: int,
    lane_counts: Sequence[str],
    program=None,
    noise=None,
) -> _RunResult:
    sim = BitplaneSimulator(
        circuit, batch=batch, outcomes=provider, tally=True, lane_counts=lane_counts,
        noise=noise,
    )
    for name, values in inputs.items():
        sim.set_register(name, list(values))
    try:
        if strategy == "interpretive":
            sim.run()
        else:
            sim.run_compiled(program, strategy=strategy)
    except UnsupportedGateError as exc:
        return _RunResult(strategy, error=str(exc))
    return _RunResult(
        strategy,
        registers={name: tuple(sim.get_register(name)) for name in circuit.registers},
        bits=tuple(tuple(sim.get_bit(b)) for b in range(circuit.num_bits)),
        tally=sim.tally,
        consumed=getattr(provider, "consumed", None),
        lane_tally=tuple(sim.lane_tally().tolist()) if lane_counts else None,
    )


def _run_classical(
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    provider: OutcomeProvider,
    noise=None,
) -> _RunResult:
    sim = ClassicalSimulator(circuit, outcomes=provider, tally=True, noise=noise)
    for name, values in inputs.items():
        sim.set_register(circuit.registers[name], values[0])
    try:
        sim.run()
    except UnsupportedGateError as exc:
        return _RunResult("classical", error=str(exc))
    return _RunResult(
        "classical",
        registers={
            name: (sim.get_register(reg),) for name, reg in circuit.registers.items()
        },
        bits=tuple((b,) for b in sim.bits),
        tally=sim.tally,
        consumed=getattr(provider, "consumed", None),
    )


# --------------------------------------------------------------------------- #
# the checker


class _Checker:
    def __init__(
        self,
        circuit: Circuit,
        inputs: Dict[str, List[int]],
        *,
        seed: int,
        batch: int,
        transforms: Sequence[str],
        data_registers: Tuple[str, ...],
        unitary: bool,
        statevector_limit: int,
        lane_counts: Sequence[str],
        noise_rate: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        self.circuit = circuit
        self.inputs = inputs
        self.seed = seed
        self.batch = batch
        self.transforms = tuple(transforms)
        self.data_registers = data_registers
        self.unitary = unitary
        self.statevector_limit = statevector_limit
        self.lane_counts = tuple(lane_counts)
        self.noise_rate = float(noise_rate)
        self.noise_seed = int(noise_seed)
        self.report = OracleReport()
        # Memo of the untransformed circuit's interpretive runs under
        # ConstantOutcomes(v) — transform-independent, shared by every
        # measurement-inserting rewrite's reference comparison.
        self._const_base: Dict[int, _RunResult] = {}

    # -- small helpers -----------------------------------------------------

    def _fail(self, kind: str, transform: str, strategy: Optional[str], detail: str):
        self.report.failures.append(Mismatch(kind, transform, strategy, detail))

    def _cell(self, strategy: str, transform: str, status: str) -> None:
        self.report.matrix[(strategy, transform)] = status

    def _check(self, condition: bool, kind, transform, strategy, detail) -> bool:
        self.report.checks += 1
        if not condition:
            self._fail(kind, transform, strategy, detail)
        return condition

    def _rng(self, label: str) -> random.Random:
        return random.Random(f"repro.verify:{self.seed}:{label}")

    def _broadcast_inputs(self) -> Dict[str, List[int]]:
        return {name: [vals[0]] * self.batch for name, vals in self.inputs.items()}

    # -- the differential core --------------------------------------------

    def _compare_runs(self, ref: _RunResult, got: _RunResult, transform: str) -> None:
        s = got.strategy
        self._check(got.registers == ref.registers, "registers", transform, s,
                    f"register lanes diverge from {ref.strategy}")
        self._check(got.bits == ref.bits, "bits", transform, s,
                    f"classical bit lanes diverge from {ref.strategy}")
        self._check(got.tally == ref.tally, "tally", transform, s,
                    f"executed-gate tally diverges from {ref.strategy}")
        if got.consumed is not None and ref.consumed is not None:
            self._check(got.consumed == ref.consumed, "consumed", transform, s,
                        f"consumed {got.consumed} outcome entries, "
                        f"{ref.strategy} consumed {ref.consumed}")
        if got.lane_tally is not None and ref.lane_tally is not None:
            self._check(got.lane_tally == ref.lane_tally, "lane_tally", transform, s,
                        f"per-lane tallies diverge from {ref.strategy}")

    def _differential(
        self, circuit: Circuit, inputs: Dict[str, List[int]], transform: str
    ) -> Optional[_RunResult]:
        """Cross-strategy agreement on one circuit; returns the interpretive
        reference result, or ``None`` when the circuit has no basis-state
        semantics (consistent-rejection path)."""
        try:
            program = compile_program(circuit, tally=True)
        except UnsupportedGateError:
            self._reject_path(circuit, inputs, transform)
            return None
        fused = fuse_program(program, memoize=False)
        script = _make_script(circuit, self._rng(f"script:{transform}"))

        def forced() -> ForcedOutcomes:
            return ForcedOutcomes(script)

        # (a) varied lanes, shared script, all bit-plane strategies
        runs: Dict[str, _RunResult] = {}
        for strategy in BITPLANE_STRATEGIES:
            runs[strategy] = _run_bitplane(
                strategy, circuit, inputs, forced(), self.batch,
                self.lane_counts, program=fused,
            )
        ref = runs["interpretive"]
        supported = [s for s, r in runs.items() if r.error is None]
        if len(supported) not in (0, len(runs)):
            broken = {s: r.error for s, r in runs.items() if r.error is not None}
            self._fail("support", transform, None,
                       f"strategies disagree on supportedness: {broken}")
            return None
        if not supported:  # compile succeeded but execution rejected everywhere
            for strategy in BITPLANE_STRATEGIES:
                self._cell(strategy, transform, "reject")
            return None
        for strategy in BITPLANE_STRATEGIES:
            if strategy != "interpretive":
                self._compare_runs(ref, runs[strategy], transform)
            self._cell(strategy, transform, "agree")

        # (b) varied lanes, independent per-lane random outcomes
        rand_runs = {
            strategy: _run_bitplane(
                strategy, circuit, inputs, RandomOutcomes(self.seed), self.batch,
                self.lane_counts, program=fused,
            )
            for strategy in BITPLANE_STRATEGIES
        }
        rand_ref = rand_runs["interpretive"]
        for strategy in BITPLANE_STRATEGIES:
            if strategy != "interpretive":
                self._compare_runs(rand_ref, rand_runs[strategy], transform)

        # (c) broadcast input: per-lane classical replay is sound here
        broadcast = {name: [vals[0]] * self.batch for name, vals in inputs.items()}
        b_ref = _run_bitplane(
            "interpretive", circuit, broadcast, forced(), self.batch,
            self.lane_counts, program=None,
        )
        classical = _run_classical(circuit, broadcast, forced())
        if classical.error is not None:
            self._fail("support", transform, "classical",
                       f"classical rejected a compiled-supported circuit: "
                       f"{classical.error}")
        else:
            lane0 = _RunResult(
                "interpretive(lane0)",
                registers={n: (v[0],) for n, v in b_ref.registers.items()},
                bits=tuple((lanes[0],) for lanes in b_ref.bits),
                tally=b_ref.tally,
                consumed=b_ref.consumed,
            )
            self._compare_runs(lane0, classical, transform)
            self._cell("classical", transform, "agree")

        # (d) statevector ground truth on small circuits.  MBU blocks are
        # excluded: the statevector backend runs correction bodies
        # *literally*, while generated mixed-flavor bodies are arbitrary
        # garbage flips the basis-state backends treat axiomatically
        # (Lemma 4.1's |0> guarantee) — only builder-emitted bodies are
        # algebraically valid corrections.
        if circuit.num_qubits <= self.statevector_limit and not any(
            isinstance(op, MBUBlock) for op in iter_flat(circuit.ops)
        ):
            self._statevector_check(circuit, broadcast, transform)
        return ref

    def _reject_path(
        self, circuit: Circuit, inputs: Dict[str, List[int]], transform: str
    ) -> None:
        """Statically unsupported circuit: compiled strategies must reject;
        lazy walks may either reject or complete."""
        for strategy in COMPILED_STRATEGIES:
            result = _run_bitplane(
                strategy, circuit, inputs, ConstantOutcomes(0), self.batch,
                self.lane_counts,
            )
            self._check(result.error is not None, "support", transform, strategy,
                        "compiled strategy executed a circuit compile_program "
                        "rejects")
            self._cell(strategy, transform, "reject")
        lazy = _run_bitplane(
            "interpretive", circuit, inputs, ConstantOutcomes(0), self.batch,
            self.lane_counts,
        )
        self._cell("interpretive", transform,
                   "reject" if lazy.error is not None else "lazy")
        classical = _run_classical(circuit, self._broadcast_inputs(),
                                   ConstantOutcomes(0))
        self._cell("classical", transform,
                   "reject" if classical.error is not None else "lazy")

    def _statevector_check(
        self,
        circuit: Circuit,
        broadcast: Dict[str, List[int]],
        transform: str,
    ) -> None:
        """Dense ground truth vs the classical backend on one basis input.

        Both backends run under :class:`ConstantOutcomes` rather than a
        positional script: the statevector backend draws one outcome per
        measurement *including deterministic Z measurements* (where only
        one outcome is possible), so script positions do not line up with
        the basis-state backends — ConstantOutcomes is alignment-free.
        """
        for value in (0, 1):
            classical = _run_classical(circuit, broadcast, ConstantOutcomes(value))
            if classical.error is not None:
                return
            sv = StatevectorSimulator(circuit, outcomes=ConstantOutcomes(value))
            sv.set_basis_state({name: vals[0] for name, vals in broadcast.items()})
            sv.run()
            self._check(tuple((b,) for b in sv.bits) == classical.bits,
                        "statevector", transform, "classical",
                        "statevector classical bits diverge from classical backend")
            try:
                values = sv.register_values()
            except ValueError:
                values = {}
            if len(values) == 1:
                (key, _amp), = values.items()
                got = dict(zip(circuit.registers, key))
                want = {n: v[0] for n, v in classical.registers.items()}
                self._check(got == want, "statevector", transform, "classical",
                            f"statevector collapsed to {got}, classical got {want}")

    # -- the noise-injection column ----------------------------------------

    def _check_noisy(self) -> None:
        """The ``noisy`` matrix column (see :data:`NOISY`).

        Gated to *seeded* providers by construction: every stream below is
        a :class:`ForcedOutcomes` script, a seeded :class:`RandomOutcomes`,
        or a :class:`~repro.noise.NoisyOutcomes` wrapper around one — the
        comparisons are exact replays, never tolerance checks.
        """
        transform = NOISY
        from ..noise import NoiseConfig, NoisyOutcomes, insert_noise_points, noise_points

        circuit = self.circuit
        if not noise_points(circuit):
            circuit = insert_noise_points(circuit)
        rate = self.noise_rate
        noise = NoiseConfig(rate=rate, seed=self.noise_seed)
        flip_seed = self.noise_seed + 1
        try:
            program = compile_program(circuit, tally=True)
        except UnsupportedGateError:
            for strategy in STRATEGIES:
                self._cell(strategy, transform, "inapplicable")
            return
        fused = fuse_program(program, memoize=False)
        script = _make_script(circuit, self._rng("noisy-script"))

        # (a) rate 0 is bit-identical to no noise at all — channel config
        # and NoisyOutcomes wrapper both consume zero extra entropy.
        clean = _run_bitplane(
            "interpretive", circuit, self.inputs, ForcedOutcomes(script),
            self.batch, self.lane_counts,
        )
        zero = _run_bitplane(
            "interpretive", circuit, self.inputs,
            NoisyOutcomes(ForcedOutcomes(script), 0.0, seed=flip_seed),
            self.batch, self.lane_counts,
            noise=NoiseConfig(rate=0.0, seed=self.noise_seed),
        )
        if clean.error is None and zero.error is None:
            zero.strategy = "interpretive"
            self._check(
                (zero.registers, zero.bits, zero.consumed)
                == (clean.registers, clean.bits, clean.consumed),
                "registers", transform, "interpretive",
                "rate-0 noise is not bit-identical to no noise",
            )

        # (b) seeded noisy script: every bit-plane strategy agrees exactly
        def provider() -> NoisyOutcomes:
            return NoisyOutcomes(ForcedOutcomes(script), rate, seed=flip_seed)

        runs: Dict[str, _RunResult] = {}
        for strategy in BITPLANE_STRATEGIES:
            runs[strategy] = _run_bitplane(
                strategy, circuit, self.inputs, provider(), self.batch,
                self.lane_counts, program=fused, noise=noise,
            )
        ref = runs["interpretive"]
        supported = [s for s, r in runs.items() if r.error is None]
        if len(supported) not in (0, len(runs)):
            broken = {s: r.error for s, r in runs.items() if r.error is not None}
            self._fail("support", transform, None,
                       f"noisy strategies disagree on supportedness: {broken}")
            return
        if not supported:
            for strategy in STRATEGIES:
                self._cell(strategy, transform, "reject")
            return
        for strategy in BITPLANE_STRATEGIES:
            if strategy != "interpretive":
                self._compare_runs(ref, runs[strategy], transform)
            self._cell(strategy, transform, "agree")

        # (c) seeded random outcomes under the same channel
        rand_runs = {
            strategy: _run_bitplane(
                strategy, circuit, self.inputs,
                NoisyOutcomes(RandomOutcomes(self.seed), rate, seed=flip_seed),
                self.batch, self.lane_counts, program=fused, noise=noise,
            )
            for strategy in BITPLANE_STRATEGIES
        }
        rand_ref = rand_runs["interpretive"]
        for strategy in BITPLANE_STRATEGIES:
            if strategy != "interpretive":
                self._compare_runs(rand_ref, rand_runs[strategy], transform)

        # (d) classical: the scalar channel stream intentionally differs
        # from the per-lane one, so the cell is a seeded determinism replay.
        broadcast = self._broadcast_inputs()

        def classical_run() -> _RunResult:
            return _run_classical(
                circuit, broadcast,
                NoisyOutcomes(RandomOutcomes(self.seed), rate, seed=flip_seed),
                noise=noise,
            )

        first, second = classical_run(), classical_run()
        if (first.error is None) != (second.error is None):
            self._fail("support", transform, "classical",
                       "noisy classical replay disagrees on supportedness")
        elif first.error is not None:
            self._cell("classical", transform, "reject")
        else:
            self._compare_runs(first, second, transform)
            self._cell("classical", transform, "agree")

    # -- transform checks --------------------------------------------------

    def _constant_reference(
        self, transformed: Circuit, transform: str, extra_clean: Sequence[str]
    ) -> None:
        """Data registers must match the untransformed circuit under both
        insertion-invariant ConstantOutcomes streams; pass-allocated
        ancillas must come back clean."""
        for value in (0, 1):
            base = self._const_base.get(value)
            if base is None:
                base = self._const_base[value] = _run_bitplane(
                    "interpretive", self.circuit, self.inputs,
                    ConstantOutcomes(value), self.batch, (),
                )
            got = _run_bitplane(
                "interpretive", transformed, self.inputs,
                ConstantOutcomes(value), self.batch, (),
            )
            if base.error is not None or got.error is not None:
                continue  # support consistency is handled by _differential
            for name in self.data_registers:
                self._check(
                    got.registers.get(name) == base.registers.get(name),
                    "registers", transform, "interpretive",
                    f"data register {name!r} diverges from the untransformed "
                    f"circuit under ConstantOutcomes({value})",
                )
            for name in extra_clean:
                lanes = got.registers.get(name, ())
                self._check(
                    all(v == 0 for v in lanes), "registers", transform,
                    "interpretive",
                    f"pass-allocated register {name!r} not returned to |0>",
                )

    def _script_reference(self, transformed: Circuit, transform: str) -> None:
        """Event-structure-preserving rewrite: everything must match the
        untransformed circuit under one shared forced script."""
        script = _make_script(self.circuit, self._rng("ref-script"))
        base = _run_bitplane(
            "interpretive", self.circuit, self.inputs,
            ForcedOutcomes(script), self.batch, self.lane_counts,
        )
        got = _run_bitplane(
            "interpretive", transformed, self.inputs,
            ForcedOutcomes(script), self.batch, self.lane_counts,
        )
        if base.error is not None or got.error is not None:
            return
        self._check(got.registers == base.registers, "registers", transform,
                    "interpretive", "registers diverge from untransformed circuit")
        self._check(got.bits == base.bits, "bits", transform, "interpretive",
                    "bits diverge from untransformed circuit")
        self._check(got.consumed == base.consumed, "consumed", transform,
                    "interpretive", "outcome consumption changed")

    def _check_invert(self) -> None:
        transform = "invert"
        if not self.unitary:
            for strategy in STRATEGIES:
                self._cell(strategy, transform, "inapplicable")
            return
        inv = apply_transforms(self.circuit, ["invert"])
        double = apply_transforms(inv, ["invert"])
        self._check(double.structurally_equal(self.circuit), "structure",
                    transform, None, "invert∘invert is not the identity rewrite")
        # Round trip: feed the forward outputs through the inverse; every
        # strategy must recover the original inputs.
        forward = _run_bitplane(
            "interpretive", self.circuit, self.inputs, ConstantOutcomes(0),
            self.batch, (),
        )
        if forward.error is not None:
            return
        inv_inputs = {name: list(vals) for name, vals in forward.registers.items()}
        expected = {
            name: tuple(self.inputs.get(name, [0] * self.batch))
            for name in self.circuit.registers
        }
        for strategy in BITPLANE_STRATEGIES:
            back = _run_bitplane(
                strategy, inv, inv_inputs, ConstantOutcomes(0), self.batch,
                self.lane_counts,
            )
            ok = back.error is None and back.registers == expected
            self._check(ok, "registers", transform, strategy,
                        "invert round trip did not restore the inputs")
            self._cell(strategy, transform, "agree" if ok else "reject")
        classical = _run_classical(
            inv, {n: [v[0]] * self.batch for n, v in inv_inputs.items()},
            ConstantOutcomes(0),
        )
        ok = classical.error is None and all(
            classical.registers[name][0] == expected[name][0] for name in expected
        )
        self._check(ok, "registers", transform, "classical",
                    "classical invert round trip did not restore the inputs")
        self._cell("classical", transform, "agree" if ok else "reject")

    def _check_decompose(self) -> None:
        transform = "decompose_clifford_t"
        transformed = apply_transforms(self.circuit, [transform])
        ref = self._differential(transformed, self.inputs, transform)
        if ref is not None:
            # no Toffoli-class gates: the pass was a structural no-op
            self._script_reference(transformed, transform)
        if self.unitary and self.circuit.num_qubits <= self.statevector_limit:
            value = {name: vals[0] for name, vals in self.inputs.items()}
            sv0 = StatevectorSimulator(self.circuit)
            sv0.set_basis_state(value)
            sv0.run()
            sv1 = StatevectorSimulator(transformed)
            sv1.set_basis_state(value)
            sv1.run()
            ref_values = sv0.register_values()
            got_values = sv1.register_values()
            same_keys = set(ref_values) == set(got_values)
            self._check(same_keys, "statevector", transform, None,
                        "Clifford+T decomposition changed the final state")
            if same_keys:
                self.report.checks += 1
                for key, amp in ref_values.items():
                    if abs(abs(got_values[key]) - abs(amp)) > 1e-9:
                        self._fail("statevector", transform, None,
                                   "Clifford+T decomposition changed amplitudes")
                        break

    def _check_rewrite(self, transform: str) -> None:
        """cancel_adjacent / lower_toffoli / insert_mbu: apply, re-run the
        full differential matrix on the output, compare data registers
        against the untransformed reference."""
        transformed = apply_transforms(self.circuit, [transform])
        self._differential(transformed, self.inputs, transform)
        extra_clean = tuple(
            name for name in transformed.registers
            if name not in self.circuit.registers
        )
        if transform == "cancel_adjacent":
            self._script_reference(transformed, transform)
        else:
            self._constant_reference(transformed, transform, extra_clean)
        if transform == "insert_mbu" and not _has_markers(self.circuit):
            self._check(transformed.structurally_equal(self.circuit), "structure",
                        transform, None,
                        "insert_mbu rewrote a circuit with no uncompute markers")

    # -- entry point -------------------------------------------------------

    def run(self) -> OracleReport:
        ref = self._differential(self.circuit, self.inputs, BASE)
        if self.noise_rate > 0.0:
            self._check_noisy()
        for transform in self.transforms:
            if transform == "invert":
                self._check_invert()
            elif transform == "decompose_clifford_t":
                self._check_decompose()
            elif transform in ("cancel_adjacent", "lower_toffoli", "insert_mbu"):
                if ref is None:
                    for strategy in STRATEGIES:
                        self._cell(strategy, transform, "inapplicable")
                    continue
                self._check_rewrite(transform)
            else:
                raise ValueError(
                    f"oracle has no recipe for transform {transform!r}; "
                    f"known: {TRANSFORMS}"
                )
        # Downgrade any matrix cell whose comparisons recorded a failure:
        # the grid must never claim agreement for a cell that disagreed.
        for mismatch in self.report.failures:
            key = (mismatch.strategy, mismatch.transform)
            if mismatch.strategy is not None and key in self.report.matrix:
                self.report.matrix[key] = "mismatch"
        return self.report


def _has_markers(circuit: Circuit) -> bool:
    from ..circuits.markers import parse_uncompute_label
    from ..circuits.ops import Annotation

    return any(
        isinstance(op, Annotation) and parse_uncompute_label(op.label) is not None
        for op in iter_flat(circuit.ops)
    )


def _is_unitary(circuit: Circuit) -> bool:
    return not any(
        isinstance(op, (Measurement, MBUBlock)) for op in iter_flat(circuit.ops)
    )


# --------------------------------------------------------------------------- #
# public entry points


def check_circuit(
    circuit: Circuit,
    inputs: Mapping[str, Any] | None = None,
    *,
    seed: int = 0,
    batch: int | None = None,
    transforms: Sequence[str] = TRANSFORMS,
    data_registers: Sequence[str] | None = None,
    unitary: bool | None = None,
    statevector_limit: int = 10,
    lane_counts: Sequence[str] = DEFAULT_LANE_COUNTS,
    noise_rate: float = 0.0,
    noise_seed: int = 0,
) -> OracleReport:
    """Run the full oracle matrix on one circuit.

    ``inputs`` maps register names to an int (broadcast) or a per-lane
    sequence; ``batch`` defaults to the longest per-lane list (or 8).
    ``data_registers`` are the registers compared against the
    untransformed reference under semantics-preserving rewrites (default:
    all registers).  ``unitary`` (auto-detected by default) gates the
    ``invert`` recipe.  ``noise_rate > 0`` adds the :data:`NOISY` matrix
    column: the circuit (salted with noise points if it has none) reruns
    under the seeded bit-flip channel plus a seeded
    :class:`~repro.noise.NoisyOutcomes` stream, and every strategy must
    agree bit-exactly; ``noise_seed`` pins both streams.  See the module
    docstring for the matrix semantics.
    """
    inputs = dict(inputs or {})
    if batch is None:
        lengths = [len(v) for v in inputs.values() if not isinstance(v, int)]
        batch = max(lengths) if lengths else 8
    lane_inputs: Dict[str, List[int]] = {}
    for name, value in inputs.items():
        if isinstance(value, int):
            lane_inputs[name] = [value] * batch
        else:
            values = [int(v) for v in value]
            if len(values) != batch:
                raise ValueError(
                    f"register {name!r}: expected {batch} per-lane values, "
                    f"got {len(values)}"
                )
            lane_inputs[name] = values
    checker = _Checker(
        circuit,
        lane_inputs,
        seed=seed,
        batch=batch,
        transforms=transforms,
        data_registers=(
            tuple(data_registers) if data_registers is not None
            else tuple(circuit.registers)
        ),
        unitary=_is_unitary(circuit) if unitary is None else unitary,
        statevector_limit=statevector_limit,
        lane_counts=lane_counts,
        noise_rate=noise_rate,
        noise_seed=noise_seed,
    )
    return checker.run()


def check_case(case: GeneratedCase, **overrides: Any) -> OracleReport:
    """Run the oracle on a :class:`~repro.verify.generate.GeneratedCase`.

    Cases carrying ``noise_rate``/``noise_seed`` metadata (the ``noisy``
    fuzzer flavor) activate the :data:`NOISY` matrix column automatically.
    """
    kwargs: Dict[str, Any] = dict(
        seed=case.seed,
        batch=case.batch,
        data_registers=case.data_registers or None,
        unitary=case.unitary,
    )
    if "noise_rate" in case.meta:
        kwargs["noise_rate"] = case.meta["noise_rate"]
        kwargs["noise_seed"] = case.meta.get("noise_seed", 0)
    kwargs.update(overrides)
    return check_circuit(case.circuit, case.inputs, **kwargs)
