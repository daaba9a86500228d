"""Vectorized batch (bit-plane) simulation of reversible circuits.

The classical basis-state simulator handles one input per run; validating
the paper's *expected* MBU costs — every correction branch fires with
probability 1/2 — needs thousands of basis-input runs.  This backend
simulates ``batch`` independent basis-input *lanes* simultaneously by
storing one bit-plane per qubit: a ``numpy`` ``uint64`` array in which bit
``b`` of word ``b // 64`` is the qubit's value in lane ``b``.  Every
reversible gate then becomes a handful of whole-word bitwise operations:

=========  ==========================================================
``x``      ``plane[q] ^= m``
``cx``     ``plane[t] ^= plane[c] & m``
``ccx``    ``plane[t] ^= plane[c1] & plane[c2] & m``
``swap``   xor-swap of the two planes under ``m``
``cswap``  xor-swap under ``m & plane[c]``
=========  ==========================================================

where ``m`` is the *active-lane mask*: conditionals and MBU correction
branches do not fork control flow, they narrow ``m`` to the lanes whose
classical bit (or measurement outcome) selects the body.  Per-lane
measurement outcomes come from
:meth:`~repro.sim.outcomes.OutcomeProvider.sample_lanes`, so a
:class:`~repro.sim.outcomes.ForcedOutcomes` script is shared by every lane
(one script entry per measurement event) while
:class:`~repro.sim.outcomes.RandomOutcomes` draws lanes independently —
one run is a ``batch``-sample Monte-Carlo experiment.

Tally semantics: the engine weights each operation by the fraction of
lanes that execute it, so ``sim.tally`` is the *average per-lane* executed
gate count — directly comparable to the paper's expected-cost formulas.
Passing ``lane_counts=("ccx", "ccz")`` additionally keeps an exact
*per-lane* executed-gate counter for the named gates, turning one run into
``batch`` i.i.d. cost samples: :meth:`BitplaneSimulator.lane_tally_stats`
reports their mean (a :class:`~fractions.Fraction`, equal to the engine
tally), sample variance and standard error — the raw material for the
pipeline's Monte-Carlo confidence intervals.

Like the classical simulator, diagonal/phase gates are value-preserving
no-ops on basis states (per-lane phases are not tracked at all here — not
even a global one) and a bare Hadamard raises
:class:`~repro.sim.classical.UnsupportedGateError`; MBU correction bodies
follow the same garbage-qubit algebra as ``repro.sim.classical``.

Bit-plane words use an explicit little-endian ``uint64`` dtype so lane
``b`` always maps to bit ``b % 64`` of word ``b // 64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Sequence, Union

import numpy as np

from ..circuits.circuit import Circuit, Register
from ..circuits.counts import GateCounts
from ..circuits.ops import PHASE_ONLY_GATES, Conditional, Gate, MBUBlock, Measurement
from .classical import UnsupportedGateError, garbage_gate_skips
from .engine import BranchDecision, ExecutionBackend, ExecutionEngine
from .outcomes import OutcomeProvider, RandomOutcomes

__all__ = ["BitplaneSimulator", "run_bitplane", "LaneValues", "LaneTallyStats"]

_DTYPE = np.dtype("<u8")  # little-endian uint64: lane b = bit b%64 of word b//64

#: Per-lane register values accepted by ``set_register`` / returned lane lists.
LaneValues = Union[int, Sequence[int]]

# Gates that only kick phases on computational-basis states.
_PHASE_ONLY = PHASE_ONLY_GATES

if hasattr(np, "bitwise_count"):
    def _popcount(plane: np.ndarray) -> int:
        return int(np.bitwise_count(plane).sum())
else:  # pragma: no cover - numpy < 2.0
    def _popcount(plane: np.ndarray) -> int:
        return sum(int(w).bit_count() for w in plane)


def _pack_int(value: int, words: int) -> np.ndarray:
    """An arbitrary-precision bitmask as a (words,) plane (bit b = lane b)."""
    return np.frombuffer(value.to_bytes(words * 8, "little"), dtype=_DTYPE).copy()


@dataclass(frozen=True)
class LaneTallyStats:
    """Summary statistics of a per-lane executed-gate sample.

    ``mean`` is exact (a Fraction: total executed / lanes) and coincides
    with the engine tally for the same gates; ``variance`` is the unbiased
    sample variance across lanes, ``stderr`` its standard error of the
    mean, and ``ci95`` the half-width of a normal-approximation 95%
    confidence interval.
    """

    samples: int
    mean: Fraction
    variance: float
    stderr: float

    @classmethod
    def from_counts(cls, totals: np.ndarray, **extra) -> "LaneTallyStats":
        """Summarize a 1-D array of per-run executed counts (subclasses
        forward their extra fields through ``**extra``)."""
        samples = int(len(totals))
        if samples < 1:
            raise ValueError("need at least one sample")
        mean = Fraction(int(totals.sum()), samples)
        variance = float(totals.var(ddof=1)) if samples > 1 else 0.0
        return cls(samples, mean, variance, math.sqrt(variance / samples), **extra)

    @property
    def ci95(self) -> float:
        return 1.96 * self.stderr

    def z_score(self, expected) -> float:
        """Standardized deviation of ``mean`` from a hypothesized value."""
        if self.stderr == 0.0:
            return 0.0 if Fraction(expected) == self.mean else math.inf
        return float(self.mean - Fraction(expected)) / self.stderr

    def agrees_with(self, expected, sigmas: float = 5.0) -> bool:
        return abs(self.z_score(expected)) <= sigmas


class BitplaneSimulator(ExecutionBackend):
    """Simulate ``batch`` computational-basis inputs in one vectorized pass."""

    def __init__(
        self,
        circuit: Circuit,
        batch: int = 64,
        outcomes: OutcomeProvider | None = None,
        tally: bool = True,
        lane_counts: Sequence[str] | None = None,
        noise: Any = None,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be at least 1")
        # Bit-flip channel at annotated noise points (see repro.noise).
        # ``noise`` is duck-typed — anything with .rate/.seed works — so the
        # sim layer never imports the noise package.  ``rate=0.0`` builds no
        # channel stream at all: bit-identical to no noise.
        self._noise_rate = 0.0
        self._noise_stream: OutcomeProvider | None = None
        if noise is not None:
            rate = float(noise.rate)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"noise rate must lie in [0, 1], got {rate}")
            if rate > 0.0:
                self._noise_rate = rate
                self._noise_stream = RandomOutcomes(int(noise.seed))
        self.circuit = circuit
        self.batch = batch
        self.words = (batch + 63) // 64
        self._planes_np = np.zeros((circuit.num_qubits, self.words), dtype=_DTYPE)
        self._bit_planes_np = np.zeros((circuit.num_bits, self.words), dtype=_DTYPE)
        # Fused compiled runs leave their state as resident bigints (one per
        # plane) and only materialize the numpy planes when somebody reads
        # them — see the `planes` / `bit_planes` properties.  `_dirty_*`
        # tracks which rows the kernels have changed since the last sync.
        self._plane_ints: List[int] | None = None
        self._bit_ints: List[int] | None = None
        self._dirty_planes: set = set()
        self._dirty_bits: set = set()
        self._valid = _pack_int((1 << batch) - 1, self.words)
        self._mask: List[np.ndarray] = [self._valid]
        self._active: List[int] = [batch]
        self._garbage: List[int] = []  # MBU garbage-qubit stack (innermost last)
        # Per-lane executed-gate counters for the named gates (exact tally
        # variance across lanes; mirrors the engine tally's semantics, i.e.
        # gates on MBU garbage qubits count even when their state update is
        # skipped — they are executed, their effect is just irrelevant).
        self._lane_track: Dict[str, np.ndarray] = {
            name: np.zeros(batch, dtype=np.int64) for name in (lane_counts or ())
        }
        self.engine = ExecutionEngine(self, outcomes=outcomes, tally=tally)

    # -- plane state: numpy canonical, bigint-resident after fused runs -------

    @property
    def planes(self) -> np.ndarray:
        """The ``(num_qubits, words)`` qubit plane matrix.

        Reading this property synchronizes any bigint-resident state a fused
        compiled run left behind (and conservatively invalidates it, since
        the caller may mutate the returned array).  Pipelines that only need
        tallies or lane counters between fused runs therefore never pay for
        numpy materialization at all.
        """
        self._sync_planes()
        return self._planes_np

    @property
    def bit_planes(self) -> np.ndarray:
        """The ``(num_bits, words)`` classical-bit plane matrix (same
        synchronization contract as :attr:`planes`)."""
        self._sync_bits()
        return self._bit_planes_np

    def _materialize_rows(self, array: np.ndarray, ints: List[int], rows) -> None:
        """Repack the given bigint ``rows`` into ``array`` in place (one
        zero-copy byte view; all-zero values skip the int conversion)."""
        if array.size == 0:  # memoryview cannot cast zero-sized views
            return
        stride = self.words * 8
        zeros = bytes(stride)
        mv = memoryview(array).cast("B")
        for i in rows:
            value = ints[i]
            mv[i * stride : (i + 1) * stride] = (
                value.to_bytes(stride, "little") if value else zeros
            )
        mv.release()

    def _rows_to_ints(self, array: np.ndarray) -> List[int]:
        """Unpack every row of ``array`` into a bigint (all-zero rows skip
        the byte conversion)."""
        if array.size == 0:  # memoryview cannot cast zero-sized views
            return [0] * array.shape[0]
        stride = self.words * 8
        from_bytes = int.from_bytes
        mv = memoryview(array).cast("B")
        live = array.any(axis=1).tolist()
        ints = [
            from_bytes(mv[i * stride : (i + 1) * stride], "little") if live[i] else 0
            for i in range(array.shape[0])
        ]
        mv.release()
        return ints

    def _sync_planes(self) -> None:
        if self._plane_ints is not None:
            self._materialize_rows(self._planes_np, self._plane_ints, self._dirty_planes)
            self._plane_ints = None
            self._dirty_planes.clear()

    def _sync_bits(self) -> None:
        if self._bit_ints is not None:
            self._materialize_rows(self._bit_planes_np, self._bit_ints, self._dirty_bits)
            self._bit_ints = None
            self._dirty_bits.clear()

    # -- lane preparation / readout -------------------------------------------

    def _lane_list(self, values: LaneValues, width: int) -> List[int]:
        if isinstance(values, (int, np.integer)):
            values = [int(values)] * self.batch
        values = [int(v) for v in values]
        if len(values) != self.batch:
            raise ValueError(
                f"expected {self.batch} per-lane values, got {len(values)}"
            )
        limit = 1 << width
        for v in values:
            if v < 0 or v >= limit:
                raise ValueError(f"value {v} does not fit in {width} qubits")
        return values

    def set_register(self, register: Register | Sequence[int] | str, values: LaneValues) -> None:
        """Load a register: one ``int`` broadcast to all lanes, or a
        ``batch``-long sequence of per-lane values."""
        if isinstance(register, str):
            register = self.circuit.registers[register]
        qubits = register.qubits if isinstance(register, Register) else tuple(register)
        n = len(qubits)
        if n == 0:
            return
        vals = self._lane_list(values, n)
        nbytes = (n + 7) // 8
        raw = b"".join(v.to_bytes(nbytes, "little") for v in vals)
        value_bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(self.batch, nbytes),
            axis=1, bitorder="little",
        )[:, :n]
        lane_bytes = np.packbits(value_bits.T, axis=1, bitorder="little")
        padded = np.zeros((n, self.words * 8), dtype=np.uint8)
        padded[:, : lane_bytes.shape[1]] = lane_bytes
        planes = padded.view(_DTYPE)
        for i, q in enumerate(qubits):
            self.planes[q] = planes[i]

    def get_register(self, register: Register | Sequence[int] | str) -> List[int]:
        """Per-lane integer values of a register (length ``batch``)."""
        if isinstance(register, str):
            register = self.circuit.registers[register]
        qubits = register.qubits if isinstance(register, Register) else tuple(register)
        n = len(qubits)
        if n == 0:
            return [0] * self.batch
        rows = self.planes[list(qubits)]
        lane_bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        per_lane = np.packbits(lane_bits[:, : self.batch].T, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in per_lane]

    def get_bit(self, bit: int) -> List[int]:
        """Per-lane values of one classical bit (length ``batch``)."""
        plane = np.ascontiguousarray(self.bit_planes[bit])
        bits = np.unpackbits(plane.view(np.uint8), bitorder="little")
        return bits[: self.batch].tolist()

    def lane_values(self, lane: int) -> Dict[str, int]:
        """All register values of one lane, ``{register: value}``."""
        if not 0 <= lane < self.batch:
            raise IndexError(f"lane {lane} out of range for batch {self.batch}")
        out: Dict[str, int] = {}
        for name, reg in self.circuit.registers.items():
            value = 0
            for i, q in enumerate(reg.qubits):
                value |= (int(self.planes[q][lane >> 6] >> np.uint64(lane & 63)) & 1) << i
            out[name] = value
        return out

    def lane_bits(self, lane: int) -> List[int]:
        """All classical-bit values of one lane."""
        if not 0 <= lane < self.batch:
            raise IndexError(f"lane {lane} out of range for batch {self.batch}")
        word, shift = lane >> 6, np.uint64(lane & 63)
        return [int(self.bit_planes[b][word] >> shift) & 1 for b in range(self.circuit.num_bits)]

    # -- per-lane tallies -----------------------------------------------------

    def _mask_lanes(self, mask: np.ndarray) -> np.ndarray:
        """The mask as a (batch,) 0/1 array (lane b = bit b)."""
        bits = np.unpackbits(np.ascontiguousarray(mask).view(np.uint8), bitorder="little")
        return bits[: self.batch]

    def lane_tally(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Exact per-lane executed count, summed over the tracked ``names``
        (default: every gate passed as ``lane_counts``)."""
        if not self._lane_track:
            raise ValueError("no lane_counts were requested at construction")
        keys = list(self._lane_track) if names is None else list(names)
        out = np.zeros(self.batch, dtype=np.int64)
        for name in keys:
            out += self._lane_track[name]
        return out

    def lane_tally_stats(self, names: Sequence[str] | None = None) -> LaneTallyStats:
        """Mean / sample-variance / standard-error of the per-lane tally."""
        return LaneTallyStats.from_counts(self.lane_tally(names))

    # -- execution ------------------------------------------------------------

    def run(self) -> "BitplaneSimulator":
        self.engine.execute(self.circuit.ops)
        return self

    def reset(self, outcomes: OutcomeProvider | None = None) -> "BitplaneSimulator":
        """Return the simulator to its pristine state without reallocating.

        Zeroes the plane buffers and per-lane counters in place, empties
        the mask/garbage stacks, starts a fresh tally, and swaps in a new
        outcome provider (or rewinds the existing one via its ``reset``).
        The bit-flip channel stream is rewound.  This is how
        :func:`repro.pipeline.montecarlo.mc_expected_counts` reuses one
        simulator (and one compiled program) across repetitions.
        """
        self._planes_np[:] = 0
        self._bit_planes_np[:] = 0
        self._plane_ints = None
        self._bit_ints = None
        self._dirty_planes.clear()
        self._dirty_bits.clear()
        self._mask = [self._valid]
        self._active = [self.batch]
        self._garbage = []
        for counter in self._lane_track.values():
            counter[:] = 0
        if outcomes is not None:
            self.engine.outcomes = outcomes
        else:
            self.engine.outcomes.reset()
        if self._noise_stream is not None:
            self._noise_stream.reset()
        if self.engine.tally is not None:
            self.engine.tally = GateCounts()
        return self

    def run_compiled(
        self, program=None, *, strategy: str = "codegen"
    ) -> "BitplaneSimulator":
        """Execute a compiled bit-plane program through a generated kernel.

        ``program`` may be a :class:`~repro.transform.compile.CompiledProgram`,
        a :class:`~repro.transform.compile.FusedProgram`, or ``None`` (the
        circuit is compiled on the fly; tally metadata included iff the
        engine tally or ``lane_counts`` tracking needs it).

        ``strategy`` picks the kernel of :mod:`repro.sim.kernels`:
        ``"codegen"`` (default) runs the generated straight-line bigint
        kernel, ``"vector"`` the generated straight-line numpy kernel over
        the packed plane matrix, and ``"auto"`` asks the calibrated cost
        model (:mod:`repro.sim.dispatch.cost`) to pick between them for
        this (program, batch).  Executed-gate tallies come from per-scope
        entry events, and exact per-lane ``lane_counts`` tracking is
        supported.

        Results (states, bits, measurement-outcome stream, tally and lane
        tallies) are identical to :meth:`run` on every strategy — see
        ``tests/test_fused_vm.py``.
        """
        from ..transform.compile import (  # deferred: transform layers above sim
            CompiledProgram,
            compile_program,
            fuse_program,
        )

        from .strategies import COMPILED_STRATEGIES, FUSED_KERNELS, validate_strategy

        validate_strategy(strategy, COMPILED_STRATEGIES)
        tallying = self.engine.tally is not None
        tracking = bool(self._lane_track)
        needs_meta = tallying or tracking
        fresh_compile = program is None
        if fresh_compile:
            program = compile_program(self.circuit, tally=needs_meta)
        if (program.num_qubits, program.num_bits) != (
            self.circuit.num_qubits,
            self.circuit.num_bits,
        ):
            raise ValueError(
                f"program layout ({program.num_qubits} qubits, {program.num_bits} "
                f"bits) does not match circuit "
                f"({self.circuit.num_qubits}, {self.circuit.num_bits})"
            )
        if needs_meta and not program.has_tally:
            raise ValueError(
                "engine tally (or lane_counts tracking) is enabled but the "
                "program was compiled with tally=False; recompile with "
                "compile_program(circuit, tally=True) or construct the "
                "simulator with tally=False"
            )
        if isinstance(program, CompiledProgram):
            # Memoize only caller-held programs: a program compiled on the
            # fly above dies with this call, so pinning it in the fusion
            # memo would only waste memory.
            program = fuse_program(program, memoize=not fresh_compile)
        if strategy == "auto":
            from .dispatch.cost import default_model

            strategy = default_model().choose(
                ops=len(program.scalar.instructions),
                batch=self.batch,
                tally=tallying,
                lane_counts=tracking,
                candidates=FUSED_KERNELS,
            )
        return self._run_fused(program, strategy, tallying, tracking)

    def _run_fused(
        self, program, strategy: str, tallying: bool, tracking: bool
    ) -> "BitplaneSimulator":
        """Execute a :class:`~repro.transform.compile.FusedProgram` and fold
        its per-scope-entry events into the tally / lane counters."""
        from .kernels import run_fused_vector  # local: avoids import at startup

        collect = tallying or tracking
        if strategy == "vector":
            events = run_fused_vector(self, program, collect)
        else:
            # Marshal the numpy planes into resident bigints (zero-copy
            # memoryview slicing; all-zero rows — fresh ancillas, all-zero
            # inputs — skip the byte conversion entirely), run the kernel,
            # and *leave* the state as bigints: the numpy planes are only
            # rebuilt when someone reads them (see the `planes` property),
            # so chained fused runs and tally-only pipelines never pay the
            # marshal-out at all.
            kernel = program.kernel(events=collect)
            planes = self._plane_ints
            if planes is None:
                planes = self._rows_to_ints(self._planes_np)
            bits = self._bit_ints
            if bits is None:
                bits = self._rows_to_ints(self._bit_planes_np)
            events: List[tuple] = []
            kernel(
                planes, bits, (1 << self.batch) - 1, self.batch,
                self.engine.sample_lanes, events,
                self._noise_lanes if self._noise_stream is not None else None,
            )
            self._plane_ints = planes
            self._bit_ints = bits
            self._dirty_planes.update(kernel.__written_planes__)
            self._dirty_bits.update(kernel.__written_bits__)

        if collect:
            scopes = program.scopes
            if tallying:
                totals: Dict[str, int] = {}
                for sid, mask in events:
                    active = mask.bit_count()
                    if active:
                        for name, count in scopes[sid].counts.items():
                            totals[name] = totals.get(name, 0) + count * active
                tally = self.engine.tally
                for name, total in totals.items():
                    tally.add(name, Fraction(total, self.batch))
            if tracking:
                for sid, mask in events:
                    counts = scopes[sid].counts
                    tracked = [
                        (name, count)
                        for name, count in counts.items()
                        if name in self._lane_track and count
                    ]
                    if tracked and mask:
                        lanes = self._mask_lanes(
                            _pack_int(mask, self.words)
                        ).astype(np.int64)
                        for name, count in tracked:
                            self._lane_track[name] += count * lanes
        return self

    def _sample_plane(self, p_one: float) -> np.ndarray:
        return _pack_int(self.engine.sample_lanes(p_one, self.batch), self.words)

    def _noise_lanes(self, lanes: int) -> int:
        """One Bernoulli(rate) flip mask from the channel stream (bit b =
        lane b flips).  Only called when the channel is enabled."""
        return self._noise_stream.sample_lanes(self._noise_rate, lanes)

    # -- ExecutionBackend handlers --------------------------------------------

    def annotation(self, ann) -> None:
        # Bit-flip channel: XOR a fresh Bernoulli(rate) mask into the
        # annotated qubit's plane, restricted to the active lanes.  Matches
        # the compiled paths' OP_NOISE exactly: one full-batch draw per
        # dynamically-reached point, skipped when no lane is active (the
        # engine never walks a zero-lane branch body).
        if ann.kind == "noise" and self._noise_stream is not None:
            flips = _pack_int(self._noise_lanes(self.batch), self.words)
            self.planes[int(ann.label)] ^= flips & self._mask[-1]

    def apply_gate(self, gate: Gate) -> None:
        name, q = gate.name, gate.qubits
        if self._lane_track:
            counter = self._lane_track.get(name)
            if counter is not None:
                counter += self._mask_lanes(self._mask[-1])
        if self._garbage and garbage_gate_skips(gate, self._garbage):
            return
        mask = self._mask[-1]
        planes = self.planes
        if name == "x" or name == "y":  # y = x up to (untracked) phase
            planes[q[0]] ^= mask
        elif name == "cx":
            planes[q[1]] ^= planes[q[0]] & mask
        elif name == "ccx":
            planes[q[2]] ^= planes[q[0]] & planes[q[1]] & mask
        elif name == "swap":
            delta = (planes[q[0]] ^ planes[q[1]]) & mask
            planes[q[0]] ^= delta
            planes[q[1]] ^= delta
        elif name == "cswap":
            delta = (planes[q[1]] ^ planes[q[2]]) & mask & planes[q[0]]
            planes[q[1]] ^= delta
            planes[q[2]] ^= delta
        elif name in _PHASE_ONLY:
            return  # value-preserving on basis states; phases untracked
        elif name == "h":
            raise UnsupportedGateError(
                "bare Hadamard has no basis-state semantics; use an X-basis "
                "Measurement or an MBUBlock"
            )
        else:  # pragma: no cover
            raise UnsupportedGateError(f"gate {name!r} unsupported in bit-plane mode")

    def apply_measurement(self, meas: Measurement) -> None:
        if meas.qubit in self._garbage:
            raise UnsupportedGateError("measurement of garbage qubit inside MBU body")
        mask = self._mask[-1]
        if meas.basis == "z":
            outcome = self.planes[meas.qubit].copy()
        else:  # X basis: per-lane unbiased coin, post-state |m> in each lane
            outcome = self._sample_plane(0.5)
            self.planes[meas.qubit] = (self.planes[meas.qubit] & ~mask) | (outcome & mask)
        self.bit_planes[meas.bit] = (self.bit_planes[meas.bit] & ~mask) | (outcome & mask)

    def _narrow(self, sub_mask: np.ndarray) -> BranchDecision:
        active = _popcount(sub_mask)
        if active == 0:
            return BranchDecision(False, token=False)
        parent_active = self._active[-1]
        self._mask.append(sub_mask)
        self._active.append(active)
        return BranchDecision(True, Fraction(active, parent_active), token=True)

    def enter_conditional(self, cond: Conditional) -> BranchDecision:
        mask = self._mask[-1]
        bit_plane = self.bit_planes[cond.bit]
        sub = (mask & bit_plane) if cond.value else (mask & ~bit_plane)
        return self._narrow(sub)

    def exit_conditional(self, cond: Conditional, decision: BranchDecision) -> None:
        self._mask.pop()
        self._active.pop()

    def enter_mbu(self, block: MBUBlock) -> BranchDecision:
        if block.qubit in self._garbage:
            raise UnsupportedGateError("nested MBU on an active garbage qubit")
        mask = self._mask[-1]
        outcome = self._sample_plane(0.5)
        self.bit_planes[block.bit] = (self.bit_planes[block.bit] & ~mask) | (outcome & mask)
        self._garbage.append(block.qubit)
        return self._narrow(mask & outcome)

    def exit_mbu(self, block: MBUBlock, decision: BranchDecision) -> None:
        if decision.token:
            self._mask.pop()
            self._active.pop()
        self._garbage.pop()
        # Both branches leave the garbage qubit in |0> (Lemma 4.1).
        self.planes[block.qubit] &= ~self._mask[-1]


def run_bitplane(
    circuit: Circuit,
    inputs: Mapping[str, LaneValues] | None = None,
    batch: int = 64,
    outcomes: OutcomeProvider | None = None,
    tally: bool = True,
    lane_counts: Sequence[str] | None = None,
    noise: Any = None,
) -> BitplaneSimulator:
    """Run ``batch`` basis-input lanes at once; returns the simulator.

    ``inputs`` maps register names to either one ``int`` (broadcast to all
    lanes) or a ``batch``-long sequence of per-lane values.  ``noise``
    enables the bit-flip channel at annotated noise points (anything with
    ``.rate``/``.seed``, e.g. :class:`repro.noise.NoiseConfig`).
    """
    sim = BitplaneSimulator(
        circuit, batch=batch, outcomes=outcomes, tally=tally,
        lane_counts=lane_counts, noise=noise,
    )
    for name, values in (inputs or {}).items():
        sim.set_register(name, values)
    sim.run()
    return sim
