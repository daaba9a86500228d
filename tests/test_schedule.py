"""The run-lengthening scheduler: legality, determinism, equivalence.

``schedule_program`` may only commute conflict-free gates inside a
schedulable segment — it must never cross a measurement, scope boundary
or noise point, never reorder two gates where one writes a plane the
other touches, and must carry each instruction's tally annotation with
it.  On top of legality, scheduling must be observationally invisible:
every fused kernel strategy produces bit-identical state, tallies, lane
tallies and measurement-outcome consumption with and without it.
"""

import random
from collections import Counter

import pytest

from repro.circuits import Circuit
from repro.modular import build_modadd
from repro.sim import (
    BitplaneSimulator,
    ConstantOutcomes,
    ForcedOutcomes,
    RandomOutcomes,
)
from repro.transform import compile_program, fuse_program, schedule_program
from repro.transform.compile import _RUN_READS, _RUN_WRITES
from repro.verify.generate import random_case, random_mixed_circuit, seed_sequence

KERNELS = (None, "vector", "auto")  # None = codegen; "auto" = cost-model pick


def _touch(instr):
    op = instr[0]
    reads = frozenset(instr[i] for i in _RUN_READS[op])
    writes = frozenset(instr[i] for i in _RUN_WRITES[op])
    return reads | writes, writes


def _conflicts(a, b):
    touch_a, writes_a = _touch(a)
    touch_b, writes_b = _touch(b)
    return bool(writes_a & touch_b) or bool(writes_b & touch_a)


def _segments(program):
    """(start, end) spans of maximal schedulable-gate runs in the stream."""
    instrs = program.instructions
    i, n = 0, len(instrs)
    while i < n:
        if instrs[i][0] not in _RUN_READS:
            i += 1
            continue
        j = i
        while j < n and instrs[j][0] in _RUN_READS:
            j += 1
        yield i, j
        i = j


def _assert_valid_reorder(prog, sched):
    assert len(sched.instructions) == len(prog.instructions)
    # Barriers (measurements, scope markers, noise points) keep their
    # exact stream positions — pre-resolved jump targets stay valid.
    for i, instr in enumerate(prog.instructions):
        if instr[0] not in _RUN_READS:
            assert sched.instructions[i] == instr, i
    for i, j in _segments(prog):
        # Per-segment (instruction, tally) multiset preserved: gates only
        # move within their segment and carry their tally annotation.
        before = Counter(zip(prog.instructions[i:j], prog.tallies[i:j]))
        after = Counter(zip(sched.instructions[i:j], sched.tallies[i:j]))
        assert before == after, (i, j)
        # Conflicting pairs keep their relative order.
        _assert_conflict_order(prog.instructions[i:j], sched.instructions[i:j])


def _assert_conflict_order(original, scheduled):
    """Every conflicting pair must appear in the same relative order.

    Duplicated instructions are handled by matching occurrence indices:
    the k-th occurrence of an instruction in the schedule corresponds to
    the k-th occurrence in the original (conflict-free duplicates may
    swap freely, but identical instructions are interchangeable anyway).
    """
    occurrence = {}
    orig_pos = {}
    for pos, instr in enumerate(original):
        k = occurrence.get(instr, 0)
        occurrence[instr] = k + 1
        orig_pos[(instr, k)] = pos
    occurrence.clear()
    placed = []
    for instr in scheduled:
        k = occurrence.get(instr, 0)
        occurrence[instr] = k + 1
        placed.append((instr, orig_pos[(instr, k)]))
    for a in range(len(placed)):
        for b in range(a + 1, len(placed)):
            if _conflicts(placed[a][0], placed[b][0]):
                assert placed[a][1] < placed[b][1], (placed[a], placed[b])


@pytest.mark.parametrize("seed", seed_sequence(8))
def test_schedule_is_valid_topological_reorder(seed):
    rng = random.Random(seed)
    prog = compile_program(random_mixed_circuit(rng), tally=True)
    _assert_valid_reorder(prog, schedule_program(prog))


def test_schedule_is_valid_on_modadd():
    built = build_modadd(4, 13, "cdkpm", mbu=True)
    prog = compile_program(built.circuit, tally=True)
    sched = schedule_program(prog)
    _assert_valid_reorder(prog, sched)
    assert sched.num_qubits == prog.num_qubits
    assert sched.num_bits == prog.num_bits
    assert sched.has_tally == prog.has_tally


def test_schedule_lengthens_interleaved_runs():
    """The motivating case: two independent gate streams interleaved
    opcode-by-opcode fuse into eight length-1 runs, but schedule to two
    length-4 runs the vector kernel can execute array-at-a-time."""
    circ = Circuit()
    q = circ.add_register("q", 12)
    for i in range(4):
        circ.x(q[i])
        circ.cx(q[4 + 2 * i], q[5 + 2 * i])
    prog = compile_program(circ)
    assert fuse_program(prog).run_length_histogram() == {1: 8}
    assert fuse_program(prog, schedule=True).run_length_histogram() == {4: 2}


def test_schedule_never_shrinks_total_gates():
    built = build_modadd(4, 13, "cdkpm", mbu=True)
    prog = compile_program(built.circuit)
    schedulable = sum(1 for ins in prog.instructions if ins[0] in _RUN_READS)
    for fused in (fuse_program(prog), fuse_program(prog, schedule=True)):
        hist = fused.run_length_histogram()
        assert sum(length * count for length, count in hist.items()) == schedulable


def test_schedule_identity_on_tiny_segments():
    circ = Circuit()
    q = circ.add_register("q", 2)
    circ.x(q[0])
    circ.cx(q[0], q[1])
    circ.measure(q[1])
    prog = compile_program(circ)
    assert schedule_program(prog).instructions == prog.instructions


def _run_pair(circ, inputs, batch, kernels, *, lane_counts=None, tally=True,
              outcomes_factory=None):
    sims = []
    for schedule in (False, True):
        outcomes = outcomes_factory() if outcomes_factory else RandomOutcomes(11)
        sim = BitplaneSimulator(
            circ, batch=batch, outcomes=outcomes, tally=tally,
            lane_counts=lane_counts,
        )
        for name, values in inputs.items():
            sim.set_register(name, values)
        sim.run_compiled(kernels=kernels, schedule=schedule)
        sims.append((sim, outcomes))
    return sims


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("seed", seed_sequence(4))
def test_scheduled_matches_unscheduled_on_generated_cases(seed, kernels):
    case = random_case(seed)
    (plain, _), (sched, _) = _run_pair(
        case.circuit, case.inputs, case.batch, kernels,
    )
    assert (sched.planes == plain.planes).all()
    assert (sched.bit_planes == plain.bit_planes).all()
    assert sched.tally == plain.tally
    for name in case.circuit.registers:
        assert sched.get_register(name) == plain.get_register(name)


@pytest.mark.parametrize("kernels", KERNELS)
def test_scheduled_lane_tallies_match(kernels):
    rng = random.Random(42)
    circ = random_mixed_circuit(rng)
    (plain, _), (sched, _) = _run_pair(
        circ, {}, 64, kernels, lane_counts=("ccx", "ccz", "x"), tally=False,
    )
    assert (sched.lane_tally() == plain.lane_tally()).all()
    assert (sched.planes == plain.planes).all()


@pytest.mark.parametrize("kernels", KERNELS)
def test_scheduled_consumes_same_outcome_stream(kernels):
    """Barriers keep their positions, so the measurement-event order — and
    hence scripted-provider consumption — is schedule-invariant."""
    rng = random.Random(17)
    circ = random_mixed_circuit(rng)
    probe = BitplaneSimulator(circ, batch=64, outcomes=ConstantOutcomes(0))
    probe.run()
    script = [i % 2 for i in range(int(probe.tally["measure"]) * 4 + 8)]
    (plain, out_plain), (sched, out_sched) = _run_pair(
        circ, {}, 64, kernels,
        outcomes_factory=lambda: ForcedOutcomes(list(script)),
    )
    assert out_sched.consumed == out_plain.consumed
    assert (sched.planes == plain.planes).all()
    assert (sched.bit_planes == plain.bit_planes).all()
