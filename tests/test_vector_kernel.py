"""The generated numpy vector kernel: equivalence, scratch reuse, errors.

``strategy="vector"`` compiles a :class:`FusedProgram` into one
straight-line Python function over the simulator's packed ``(rows,
words)`` uint64 plane matrices — no per-instruction dispatch, in-place
ufuncs into preallocated scratch, depth-0 full-mask elision, swaps as row
renaming.  It must be observationally identical to the bigint codegen VM
on everything the basis-state semantics admit, reuse its scratch buffers
across ``reset()`` (the Monte-Carlo repetition pattern), and share the
single strategy-name validation with every other entry point.
"""

import random

import pytest

from repro.modular import build_modadd
from repro.noise import NoiseConfig, insert_noise_points
from repro.sim import (
    BitplaneSimulator,
    ConstantOutcomes,
    COMPILED_STRATEGIES,
    ForcedOutcomes,
    RandomOutcomes,
    STRATEGIES,
    simulate,
    validate_strategy,
)
from repro.sim.kernels import build_vector_kernel, generate_vector_source
from repro.transform import compile_program, fuse_program
from repro.verify.generate import random_mixed_circuit, seed_sequence

BATCH = 96
FUSED = ("codegen", "vector")


def _run_all(circ, outcomes_factory, lane_counts=None, tally=True):
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


@pytest.mark.parametrize("seed", seed_sequence(10))
def test_vector_matches_interpretive_on_mixed_circuits(seed):
    rng = random.Random(seed)
    circ = random_mixed_circuit(rng)
    sims = _run_all(circ, lambda: RandomOutcomes(seed * 7 + 1))
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.planes == ref.planes).all(), key
        assert (sim.bit_planes == ref.bit_planes).all(), key
        assert sim.tally == ref.tally, key


@pytest.mark.parametrize("value", [0, 1])
def test_vector_under_constant_outcomes(value):
    rng = random.Random(23)
    circ = random_mixed_circuit(rng)
    sims = _run_all(circ, lambda: ConstantOutcomes(value))
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.planes == ref.planes).all(), (key, value)
        assert (sim.bit_planes == ref.bit_planes).all(), (key, value)


def test_vector_consumes_same_forced_script():
    rng = random.Random(31)
    circ = random_mixed_circuit(rng)
    probe = BitplaneSimulator(circ, batch=BATCH, outcomes=ConstantOutcomes(0))
    probe.run()
    script = [i % 2 for i in range(int(probe.tally["measure"]) * 4 + 8)]

    consumed, planes = {}, {}
    for key, runner in [
        ("codegen", lambda s: s.run_compiled()),
        ("vector", lambda s: s.run_compiled(strategy="vector")),
    ]:
        outcomes = ForcedOutcomes(list(script))
        sim = BitplaneSimulator(circ, batch=BATCH, outcomes=outcomes)
        runner(sim)
        consumed[key] = outcomes.consumed
        planes[key] = sim.planes
    assert consumed["vector"] == consumed["codegen"]
    assert (planes["vector"] == planes["codegen"]).all()


@pytest.mark.parametrize("seed", seed_sequence(4))
def test_vector_lane_tallies_match(seed):
    rng = random.Random(200 + seed)
    circ = random_mixed_circuit(rng)
    sims = _run_all(
        circ, lambda: RandomOutcomes(seed), lane_counts=("ccx", "ccz", "x"),
        tally=False,
    )
    ref = sims.pop("interpretive")
    for key, sim in sims.items():
        assert (sim.lane_tally() == ref.lane_tally()).all(), key


@pytest.mark.parametrize("strategy", COMPILED_STRATEGIES)
def test_vector_on_modadd_against_known_sums(strategy):
    p = 29
    built = build_modadd(5, p, "gidney", mbu=True)
    xs = [pow(3, i + 1, p) for i in range(BATCH)]
    ys = [pow(5, i + 1, p) for i in range(BATCH)]
    sim = BitplaneSimulator(built.circuit, batch=BATCH, outcomes=RandomOutcomes(3))
    sim.set_register("x", xs)
    sim.set_register("y", ys)
    sim.run_compiled(strategy=strategy)
    assert sim.get_register("y") == [(x + y) % p for x, y in zip(xs, ys)]


# --------------------------------------------------------------------------- #
# noise determinism across the fused kernels


def _noise_snapshot(circuit, inputs, strategy, *, batch=32):
    noise = NoiseConfig(rate=0.2, seed=77)
    sim = BitplaneSimulator(circuit, batch=batch, outcomes=RandomOutcomes(4), noise=noise)
    for name, values in inputs.items():
        sim.set_register(name, values)
    if strategy == "interpretive":
        sim.run()
    else:
        sim.run_compiled(strategy=strategy)
    regs = {name: tuple(sim.get_register(name)) for name in circuit.registers}
    bits = tuple(tuple(sim.get_bit(b)) for b in range(circuit.num_bits))
    return regs, bits


def test_noise_bit_identical_across_kernels():
    """A fixed (rate, seed) noise channel draws the same per-lane flips no
    matter which fused kernel executes — the whole point of the seeded
    channel stream."""
    circuit = insert_noise_points(build_modadd(4, 13, "cdkpm", mbu=True).circuit)
    inputs = {"x": [i % 13 for i in range(32)], "y": [(i * 5) % 13 for i in range(32)]}

    reference = _noise_snapshot(circuit, inputs, "interpretive")
    for strategy in FUSED:
        assert _noise_snapshot(circuit, inputs, strategy) == reference, strategy


# --------------------------------------------------------------------------- #
# scratch reuse across reset() — the MC repetition pattern


def test_vector_scratch_survives_reset():
    built = build_modadd(4, 13, "cdkpm", mbu=True)
    sim = BitplaneSimulator(built.circuit, batch=256, outcomes=RandomOutcomes(1))
    sim.run_compiled(strategy="vector")
    first = sim._vector_scratch
    assert first is not None
    sim.reset(RandomOutcomes(2))
    sim.run_compiled(strategy="vector")
    second = sim._vector_scratch
    for a, b in zip(first, second):
        assert a is b  # same preallocated buffers, no churn per rep


# --------------------------------------------------------------------------- #
# generated source + kernel metadata


def test_vector_source_is_straight_line():
    built = build_modadd(4, 13, "cdkpm", mbu=True)
    fused = fuse_program(compile_program(built.circuit))
    source = generate_vector_source(fused, events=False)
    assert "def _vector_kernel(" in source
    assert "for " not in source  # straight-line: no interpreter loops
    assert "while " not in source


def test_vector_kernel_metadata():
    built = build_modadd(4, 13, "cdkpm", mbu=True)
    fused = fuse_program(compile_program(built.circuit))
    kernel = build_vector_kernel(fused, events=False)
    assert kernel.__scratch_rows__ >= 1
    assert kernel.__max_run__ >= 1
    assert kernel.__used_planes__ and kernel.__written_planes__


# --------------------------------------------------------------------------- #
# one validation, every entry point


def test_strategy_validation_is_shared_and_lists_every_choice():
    expected = ", ".join(repr(k) for k in STRATEGIES)
    circ = build_modadd(3, 5, "cdkpm", mbu=True).circuit

    with pytest.raises(ValueError) as direct:
        validate_strategy("bogus")
    assert expected in str(direct.value)
    assert "'vector'" in str(direct.value)

    with pytest.raises(ValueError) as via_api:
        simulate(circ, {"x": 1, "y": 2}, backend="bitplane", batch=4,
                 strategy="bogus")
    assert str(via_api.value) == str(direct.value)

    with pytest.raises(ValueError) as compiled:
        validate_strategy("bogus", COMPILED_STRATEGIES)
    sim = BitplaneSimulator(circ, batch=4, outcomes=RandomOutcomes(0))
    with pytest.raises(ValueError) as via_sim:
        sim.run_compiled(strategy="bogus")
    assert str(via_sim.value) == str(compiled.value)
    assert "'interpretive'" not in str(via_sim.value)
