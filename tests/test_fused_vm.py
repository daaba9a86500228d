"""The fused bit-plane VM: equivalence, fusion-stage and reuse properties.

Both compiled execution strategies must be observationally identical to
the interpretive ``ExecutionEngine`` walk on every circuit the basis-state
semantics admit — same register planes, same classical bits, same
executed-gate tally, same per-lane lane tallies, same measurement-outcome
stream consumption:

* the fused generated-kernel VM (``run_compiled()``, the default);
* the fused generated numpy VM (``run_compiled(strategy="vector")``).

Circuits are randomized over gates, phase gates, Z/X measurements,
(nested) conditionals and MBU blocks with garbage-targeting correction
bodies — the full vocabulary of the paper's Lemma 4.1 constructions,
generated by the shared :func:`repro.verify.generate.random_mixed_circuit`.
"""

import pickle
import random

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.ops import Conditional, Gate, MBUBlock, Measurement
from repro.modular import build_modadd
from repro.pipeline.cache import CircuitCache, CircuitSpec
from repro.pipeline.montecarlo import mc_expected_counts
from repro.sim import BitplaneSimulator, ConstantOutcomes, ForcedOutcomes, RandomOutcomes
from repro.sim.kernels import generate_source
from repro.transform import (
    CancelAdjacentPass,
    CompiledProgram,
    FusedProgram,
    compile_program,
    fuse_program,
)
from repro.verify.generate import random_mixed_circuit, seed_sequence


BATCH = 96


def _run_all_ways(circ, outcomes_factory, lane_counts=None, tally=True):
    """Run interpretive + the compiled strategies; return the sims."""
    results = {}
    for key, runner in [
        ("interpretive", lambda s: s.run()),
        ("codegen", lambda s: s.run_compiled()),
        ("vector", lambda s: s.run_compiled(strategy="vector")),
    ]:
        sim = BitplaneSimulator(
            circ, batch=BATCH, outcomes=outcomes_factory(), tally=tally,
            lane_counts=lane_counts,
        )
        reg = circ.registers["d"]
        inputs = [(i * 37 + 11) % (1 << len(reg)) for i in range(BATCH)]
        sim.set_register("d", inputs)
        runner(sim)
        results[key] = sim
    return results


@pytest.mark.parametrize("seed", seed_sequence(12))
def test_fused_matches_interpretive_on_mixed_circuits(seed):
    rng = random.Random(seed)
    circ = random_mixed_circuit(rng)
    sims = _run_all_ways(circ, lambda: RandomOutcomes(seed * 7 + 1))
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.planes == ref.planes).all(), key
        assert (sim.bit_planes == ref.bit_planes).all(), key
        assert sim.tally == ref.tally, key


@pytest.mark.parametrize("seed", seed_sequence(8))
def test_fused_lane_tallies_match(seed):
    rng = random.Random(100 + seed)
    circ = random_mixed_circuit(rng)
    sims = _run_all_ways(
        circ, lambda: RandomOutcomes(seed), lane_counts=("ccx", "ccz", "x"),
        tally=False,
    )
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.lane_tally() == ref.lane_tally()).all(), key
        assert (sim.planes == ref.planes).all(), key


@pytest.mark.parametrize("value", [0, 1])
def test_fused_under_constant_outcomes(value):
    """Scripted providers broadcast one outcome per measurement event; the
    event order (and hence consumption) must match the interpretive walk."""
    rng = random.Random(5)
    circ = random_mixed_circuit(rng)
    sims = _run_all_ways(circ, lambda: ConstantOutcomes(value))
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.planes == ref.planes).all(), (key, value)
        assert (sim.bit_planes == ref.bit_planes).all(), (key, value)
        assert sim.tally == ref.tally, (key, value)


def test_fused_consumes_same_forced_script():
    rng = random.Random(9)
    circ = random_mixed_circuit(rng)
    probe = BitplaneSimulator(circ, batch=BATCH, outcomes=ConstantOutcomes(0))
    probe.run()
    n_meas = int(probe.tally["measure"] * 1)  # ConstantOutcomes(0): all branches skip
    script = [i % 2 for i in range(n_meas * 2)]  # ample entries

    consumed = {}
    for key, runner in [
        ("interpretive", lambda s: s.run()),
        ("codegen", lambda s: s.run_compiled()),
        ("vector", lambda s: s.run_compiled(strategy="vector")),
    ]:
        outcomes = ForcedOutcomes(script)
        sim = BitplaneSimulator(circ, batch=BATCH, outcomes=outcomes)
        runner(sim)
        consumed[key] = outcomes.consumed
        if key != "interpretive":
            assert (sim.planes == consumed["ref_planes"]).all(), key
        else:
            consumed["ref_planes"] = sim.planes
    assert consumed["interpretive"] == consumed["codegen"] == consumed["vector"]


def test_fused_on_modadd_against_known_sums():
    p = 29
    built = build_modadd(5, p, "gidney", mbu=True)
    xs = [pow(3, i + 1, p) for i in range(BATCH)]
    ys = [pow(5, i + 1, p) for i in range(BATCH)]
    for strategy in ("codegen", "vector"):
        sim = BitplaneSimulator(built.circuit, batch=BATCH, outcomes=RandomOutcomes(3))
        sim.set_register("x", xs)
        sim.set_register("y", ys)
        sim.run_compiled(strategy=strategy)
        assert sim.get_register("y") == [(x + y) % p for x, y in zip(xs, ys)]


# --------------------------------------------------------------------------- #
# the fusion stage


class TestFusionStage:
    def test_independent_gates_fuse_into_one_run(self):
        circ = Circuit()
        q = circ.add_register("q", 8)
        for i in range(0, 8, 2):
            circ.cx(q[i], q[i + 1])
        fused = fuse_program(compile_program(circ))
        stats = fused.fusion_stats()
        assert stats["runs"] == 1
        assert stats["fused_instructions"] == 4
        assert stats["longest_run"] == 4

    def test_read_after_write_splits_the_run(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.cx(q[0], q[1])
        circ.cx(q[1], q[2])  # reads the plane written by the previous cx
        fused = fuse_program(compile_program(circ))
        stats = fused.fusion_stats()
        assert stats["runs"] == 0  # both became scalar singletons
        assert stats["scalar_instructions"] == 2

    def test_duplicate_write_target_splits_the_run(self):
        circ = Circuit()
        q = circ.add_register("q", 4)
        circ.cx(q[0], q[3])
        circ.cx(q[1], q[3])  # writes the same plane: must not share a run
        fused = fuse_program(compile_program(circ))
        assert fused.fusion_stats()["runs"] == 0

    def test_opcode_change_splits_the_run(self):
        circ = Circuit()
        q = circ.add_register("q", 6)
        circ.cx(q[0], q[1])
        circ.x(q[2])
        circ.cx(q[3], q[4])
        fused = fuse_program(compile_program(circ))
        assert fused.fusion_stats()["runs"] == 0
        assert fused.fusion_stats()["scalar_instructions"] == 3

    def test_scope_counts_match_program_tallies(self):
        circ = random_mixed_circuit(random.Random(3))
        program = compile_program(circ, tally=True)
        fused = fuse_program(program)
        flat = {}
        for names in program.tallies:
            for name in names:
                flat[name] = flat.get(name, 0) + 1
        agg = {}
        for scope in fused.scopes:
            for name, count in scope.counts.items():
                agg[name] = agg.get(name, 0) + count
        assert agg == flat

    def test_operands_are_packed_index_arrays(self):
        circ = Circuit()
        q = circ.add_register("q", 6)
        for i in range(3):
            circ.cx(q[i], q[i + 3])
        fused = fuse_program(compile_program(circ))
        (kind, run), = fused.root.items
        assert kind == "run"
        assert isinstance(run.operands, np.ndarray)
        assert run.operands.dtype == np.intp
        assert run.operands.shape == (3, 2)


# --------------------------------------------------------------------------- #
# compile-time peephole cancellation


class TestPeepholeCancellation:
    def test_adjacent_pair_dropped_from_stream_but_tallied(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cx(q[0], q[1])
        circ.cx(q[0], q[1])
        cancelled = compile_program(circ, tally=True)
        kept = compile_program(circ, tally=True, cancel=False)
        assert len(cancelled) < len(kept)
        names = [n for names in cancelled.tallies for n in names]
        assert names.count("cx") == 2  # both executions still accounted

    def test_chained_cancellation(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.cx(q[0], q[1])
        circ.ccx(q[0], q[1], q[2])
        circ.ccx(q[0], q[1], q[2])
        circ.cx(q[0], q[1])
        program = compile_program(circ, tally=False)
        assert program.counts_static().get("OP_CX") is None
        assert program.counts_static().get("OP_CCX") is None

    def test_symmetric_swap_pair_cancels(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.swap(q[0], q[1])
        circ.swap(q[1], q[0])
        program = compile_program(circ, tally=False)
        assert program.counts_static().get("OP_SWAP") is None

    def test_measurement_is_a_barrier(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cx(q[0], q[1])
        circ.measure(q[0])
        circ.cx(q[0], q[1])
        program = compile_program(circ, tally=False)
        assert program.counts_static()["OP_CX"] == 2

    def test_cancellation_reduces_instruction_count_on_padded_circuit(self):
        built = build_modadd(4, 13, "cdkpm", mbu=True)
        padded = built.circuit.copy_empty()
        q = built.circuit.registers["x"]
        padded.extend(built.circuit.ops)
        padded.swap(q[0], q[1])
        padded.swap(q[1], q[0])
        with_cancel = compile_program(padded, tally=True)
        without = compile_program(padded, tally=True, cancel=False)
        assert len(with_cancel) < len(without)
        # and results agree with the interpretive walk
        ref = BitplaneSimulator(padded, batch=16, outcomes=RandomOutcomes(1))
        ref.run()
        out = BitplaneSimulator(padded, batch=16, outcomes=RandomOutcomes(1))
        out.run_compiled(with_cancel)
        assert (ref.planes == out.planes).all()
        assert ref.tally == out.tally


class TestCancelAdjacentPassFixpoint:
    def test_symmetric_swap_cancels_in_one_invocation(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.swap(q[0], q[1])
        circ.swap(q[1], q[0])
        circ.cswap(q[2], q[0], q[1])
        circ.cswap(q[2], q[1], q[0])
        out = CancelAdjacentPass().run(circ)
        assert len(out.ops) == 0

    def test_nested_pairs_reach_fixpoint_in_one_invocation(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.cx(q[0], q[1])
        circ.ccx(q[0], q[1], q[2])
        circ.t(q[2])
        circ.tdg(q[2])
        circ.ccx(q[0], q[1], q[2])
        circ.cx(q[0], q[1])
        out = CancelAdjacentPass().run(circ)
        assert len(out.ops) == 0


# --------------------------------------------------------------------------- #
# __slots__ / pickling (process-pool sweep path)


class TestSlotsAndPickle:
    @pytest.mark.parametrize("op", [
        Gate("ccx", (0, 1, 2)),
        Measurement(1, 0, "x"),
        Conditional(0, (Gate("x", (1,)),)),
        MBUBlock(2, 0, (Gate("h", (2,)), Gate("x", (2,)))),
    ])
    def test_ir_types_have_slots_and_pickle(self, op):
        assert not hasattr(op, "__dict__")
        assert pickle.loads(pickle.dumps(op)) == op

    def test_compiled_program_pickles(self):
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        program = compile_program(built.circuit)
        clone = pickle.loads(pickle.dumps(program))
        assert isinstance(clone, CompiledProgram)
        assert clone.instructions == program.instructions
        assert clone.tallies == program.tallies

    def test_fused_program_pickles_and_reruns(self):
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        fused = fuse_program(built.circuit)
        fused.kernel(events=True)  # populate the (non-picklable) kernel cache
        clone = pickle.loads(pickle.dumps(fused))
        assert isinstance(clone, FusedProgram)
        assert clone._kernels == {}  # kernels are rebuilt, not shipped
        assert clone.fusion_stats() == fused.fusion_stats()
        ref = BitplaneSimulator(built.circuit, batch=32, outcomes=RandomOutcomes(2))
        ref.run_compiled(fused)
        out = BitplaneSimulator(built.circuit, batch=32, outcomes=RandomOutcomes(2))
        out.run_compiled(clone)
        assert (ref.planes == out.planes).all()
        assert ref.tally == out.tally


# --------------------------------------------------------------------------- #
# reuse: reset(), mc_expected_counts, CircuitCache.program


class TestReuse:
    def test_reset_reproduces_fresh_runs(self):
        built = build_modadd(4, 13, "cdkpm", mbu=True)
        fused = fuse_program(built.circuit)
        sim = BitplaneSimulator(
            built.circuit, batch=64, outcomes=RandomOutcomes(0),
            tally=False, lane_counts=("ccx",),
        )
        chained = []
        for rep in range(3):
            sim.reset(RandomOutcomes(rep))
            sim.set_register("x", 5)
            sim.set_register("y", 9)
            sim.run_compiled(fused)
            chained.append((sim.get_register("y"), sim.lane_tally().copy()))
        for rep, (regs, lanes) in enumerate(chained):
            fresh = BitplaneSimulator(
                built.circuit, batch=64, outcomes=RandomOutcomes(rep),
                tally=False, lane_counts=("ccx",),
            )
            fresh.set_register("x", 5)
            fresh.set_register("y", 9)
            fresh.run_compiled(fused)
            assert regs == fresh.get_register("y") == [(5 + 9) % 13] * 64
            assert (lanes == fresh.lane_tally()).all()

    def test_mc_compiled_equals_interpretive(self):
        built = build_modadd(4, 13, "gidney", mbu=True)
        kwargs = dict(batch=128, repeats=3, seed=42, gates=("ccx", "ccz"))
        compiled = mc_expected_counts(built, strategy="codegen", **kwargs)
        interp = mc_expected_counts(built, strategy="interpretive", **kwargs)
        assert compiled.mean == interp.mean
        assert compiled.variance == interp.variance
        assert compiled.stderr == interp.stderr
        assert compiled.samples == interp.samples == 128 * 3

    def test_mc_timing_metadata(self):
        built = build_modadd(4, 13, "cdkpm", mbu=True)
        est = mc_expected_counts(built, batch=32, repeats=2, seed=1)
        assert est.compile_seconds > 0.0
        assert est.run_seconds > 0.0
        fused = fuse_program(built.circuit)
        fused.kernel(events=True)
        reused = mc_expected_counts(built, batch=32, repeats=2, seed=1, program=fused)
        assert reused.compile_seconds == 0.0
        assert reused.mean == est.mean

    def test_cache_program_is_memoized(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("modadd", 4, p=13, family="cdkpm", mbu=True)
        first = cache.program(spec)
        second = cache.program(spec)
        assert first is second
        assert cache.stats.program_misses == 1
        assert cache.stats.program_hits == 1
        assert isinstance(first, FusedProgram)

    def test_cache_program_memoizes_unsupported_specs(self):
        from repro.sim import UnsupportedGateError

        cache = CircuitCache()
        spec = CircuitSpec.make("modadd_draper", 4, p=13, mbu=False)  # QFT row
        for _ in range(2):
            with pytest.raises(UnsupportedGateError):
                cache.program(spec)
        assert cache.stats.program_misses == 1  # failure compiled only once
        assert cache.stats.program_hits == 1

    def test_fuse_memo_reuses_caller_held_programs_only(self):
        from repro.transform.compile import _FUSED_MEMO

        built = build_modadd(3, 5, "cdkpm", mbu=True)
        held = compile_program(built.circuit)
        assert fuse_program(held) is fuse_program(held)
        size = len(_FUSED_MEMO)
        # on-the-fly paths must not pin throwaway programs in the memo
        mc_expected_counts(built, batch=16)
        BitplaneSimulator(built.circuit, batch=8).run_compiled()
        fuse_program(built.circuit)
        assert len(_FUSED_MEMO) == size


# --------------------------------------------------------------------------- #
# generated-kernel codegen details


class TestKernelCodegen:
    def test_full_mask_cx_has_no_mask_and(self):
        circ = Circuit()
        q = circ.add_register("q", 4)
        circ.cx(q[0], q[1])
        source = generate_source(fuse_program(compile_program(circ)), events=False)
        assert "p1 ^= p0\n" in source

    def test_top_level_swap_becomes_a_renaming(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.swap(q[0], q[1])
        source = generate_source(fuse_program(compile_program(circ)), events=False)
        assert "_d" not in source  # no runtime swap code at full mask
        assert "P[0] = p1" in source and "P[1] = p0" in source

    def test_masked_swap_inside_branch_emits_delta_ops(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        bit = circ.measure(q[0])
        with circ.capture() as body:
            circ.swap(q[0], q[1])
        circ.cond(bit, body)
        source = generate_source(fuse_program(compile_program(circ)), events=False)
        assert "_d = (p0 ^ p1) & _m1" in source

    def test_events_variant_emits_scope_events(self):
        built = build_modadd(3, 5, "gidney", mbu=True)
        fused = fuse_program(built.circuit)
        with_events = generate_source(fused, events=True)
        without = generate_source(fused, events=False)
        assert "_ev.append((0, _m0))" in with_events
        assert "_ev.append" not in without

    def test_kernel_metadata_tracks_written_planes(self):
        circ = Circuit()
        q = circ.add_register("q", 4)
        circ.cx(q[0], q[1])  # reads 0, writes 1; planes 2-3 untouched
        fused = fuse_program(compile_program(circ))
        kernel = fused.kernel(events=False)
        assert kernel.__used_planes__ == (0, 1)
        assert kernel.__written_planes__ == (1,)


class TestRunCompiledAPI:
    def test_unknown_kernel_strategy_rejected(self):
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        sim = BitplaneSimulator(built.circuit, batch=8)
        with pytest.raises(ValueError, match="strategy"):
            sim.run_compiled(strategy="gpu")

    def test_simulate_strategy_option(self):
        from repro.sim import simulate

        built = build_modadd(4, 13, "cdkpm", mbu=True)
        ref = simulate(built.circuit, {"x": 3, "y": 7}, backend="bitplane", seed=5)
        for strategy in ("codegen", "vector"):
            out = simulate(
                built.circuit, {"x": 3, "y": 7}, backend="bitplane", seed=5,
                strategy=strategy,
            )
            assert out.registers == ref.registers
            assert out.tally == ref.tally
