"""Cross-backend property tests: bitplane lanes vs looped classical runs vs
statevector, on MBU modular-adder circuits under a shared ForcedOutcomes
script — plus identical executed-gate tallies across all three backends,
and lane independence: splitting a batch into windows run separately
reproduces the full-width run lane for lane on every bitplane strategy.

Per-lane inputs come from the shared
:func:`repro.verify.generate.random_lane_inputs` helper (domain-bounded to
[0, p) so the hand-built MBU uncomputations stay algebraically valid)."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modular import build_modadd
from repro.sim import (
    BitplaneSimulator,
    ClassicalSimulator,
    ConstantOutcomes,
    ForcedOutcomes,
    run_statevector,
)
from repro.verify.generate import (
    GeneratorConfig,
    random_case,
    random_lane_inputs,
    seed_sequence,
)

# (n, p) small enough for the statevector limit across all three families.
_CASES = [(2, 3), (3, 5), (3, 7)]
_FAMILIES = ["vbe", "cdkpm", "gidney"]

# Generous script: no circuit here consumes anywhere near this many coins.
_SCRIPT = st.lists(st.integers(min_value=0, max_value=1), min_size=96, max_size=96)


@given(
    case=st.sampled_from(_CASES),
    family=st.sampled_from(_FAMILIES),
    script=_SCRIPT,
    input_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_bitplane_lanes_match_looped_classical(case, family, script, input_seed):
    """Every bit-plane lane must equal an independent classical run on that
    lane's input with the same forced script (lanes share the script: the
    provider broadcasts one entry per measurement event)."""
    n, p = case
    built = build_modadd(n, p, family, mbu=True)
    inputs = random_lane_inputs(
        random.Random(input_seed), built.circuit, 8,
        exclude=built.ancilla_names, limits={"x": p, "y": p},
    )
    xs, ys = inputs["x"], inputs["y"]

    bp = BitplaneSimulator(built.circuit, batch=8, outcomes=ForcedOutcomes(script))
    bp.set_register("x", xs)
    bp.set_register("y", ys)
    bp.run()
    lanes_y = bp.get_register("y")

    for lane in range(8):
        cl = ClassicalSimulator(built.circuit, outcomes=ForcedOutcomes(script))
        cl.set_register(built.circuit.registers["x"], xs[lane])
        cl.set_register(built.circuit.registers["y"], ys[lane])
        cl.run()
        assert lanes_y[lane] == cl.get_register("y") == (xs[lane] + ys[lane]) % p
        assert bp.lane_bits(lane) == cl.bits
        # lanes shared the script, so both consumed the same number of coins
        assert bp.outcomes.consumed == cl.outcomes.consumed


@given(
    case=st.sampled_from(_CASES),
    family=st.sampled_from(_FAMILIES),
    script=_SCRIPT,
    x=st.integers(min_value=0, max_value=63),
    y=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=12, deadline=None)
def test_three_backends_agree_with_identical_tallies(case, family, script, x, y):
    """classical, statevector and bitplane: same registers, same bits, and
    identical GateCounts tallies under one shared ForcedOutcomes script."""
    n, p = case
    built = build_modadd(n, p, family, mbu=True)
    if built.circuit.num_qubits > 20:
        pytest.skip("too wide for the dense statevector cross-check")
    x, y = x % p, y % p

    cl = ClassicalSimulator(built.circuit, outcomes=ForcedOutcomes(script))
    cl.set_register(built.circuit.registers["x"], x)
    cl.set_register(built.circuit.registers["y"], y)
    cl.run()

    sv = run_statevector(built.circuit, {"x": x, "y": y}, outcomes=ForcedOutcomes(script))

    bp = BitplaneSimulator(built.circuit, batch=4, outcomes=ForcedOutcomes(script))
    bp.set_register("x", x)
    bp.set_register("y", y)
    bp.run()

    expected = (x + y) % p
    assert cl.get_register("y") == expected
    assert bp.get_register("y") == [expected] * 4
    values = sv.register_values(["x", "y"])
    assert list(values) == [(x, expected)]

    assert cl.bits == sv.bits == bp.lane_bits(0)
    assert cl.outcomes.consumed == sv.outcomes.consumed == bp.outcomes.consumed
    # identical per-lane executed-gate tallies across all three backends
    assert cl.tally == sv.tally == bp.tally


# --------------------------------------------------------------------------- #
# lane independence: any split of the batch into windows is the same run

_WINDOW_RUNNERS = {
    "interpretive": lambda sim: sim.run(),
    "codegen": lambda sim: sim.run_compiled(),
    "vector": lambda sim: sim.run_compiled(strategy="vector"),
    "auto": lambda sim: sim.run_compiled(strategy="auto"),
}
_WINDOW_GATES = ("x", "cx", "ccx")
_WINDOW_BATCH = 70  # two uint64 words, so windows cut across a word boundary


def _windows(batch, count):
    edges = [batch * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _window_run(case, strategy, lo, hi, outcome):
    """Run lanes ``[lo, hi)`` of ``case`` alone, as a batch of their own.

    ``ConstantOutcomes`` answers every draw the same way for every lane, so
    a window sees exactly the outcomes its lanes see inside the full batch;
    per-lane differences come only from the data (Z-measurement-controlled
    branches over per-lane inputs)."""
    sim = BitplaneSimulator(
        case.circuit, batch=hi - lo, outcomes=ConstantOutcomes(outcome),
        lane_counts=_WINDOW_GATES,
    )
    for name, values in case.inputs.items():
        sim.set_register(name, values[lo:hi])
    _WINDOW_RUNNERS[strategy](sim)
    registers = {name: sim.get_register(name) for name in case.circuit.registers}
    bits = [sim.get_bit(b) for b in range(case.circuit.num_bits)]
    return registers, bits, sim.lane_tally(), sim.tally


def _window_cases():
    config = GeneratorConfig(batch=_WINDOW_BATCH)
    return [random_case(seed, config) for seed in seed_sequence(3)]


@pytest.mark.parametrize("windows", [1, 2, 3, 7])
@pytest.mark.parametrize("strategy", sorted(_WINDOW_RUNNERS))
def test_lane_windows_match_full_batch(strategy, windows):
    """Lanes never interact: running each window of the batch separately
    reproduces the full-width run lane for lane — registers, measurement
    bits and per-lane executed-gate counts."""
    for case in _window_cases():
        for outcome in (0, 1):
            full = _window_run(case, strategy, 0, _WINDOW_BATCH, outcome)
            parts = [
                _window_run(case, strategy, lo, hi, outcome)
                for lo, hi in _windows(_WINDOW_BATCH, windows)
            ]
            for name in case.circuit.registers:
                assert [v for part in parts for v in part[0][name]] == full[0][name]
            for b in range(case.circuit.num_bits):
                assert [v for part in parts for v in part[1][b]] == full[1][b]
            assert (np.concatenate([part[2] for part in parts]) == full[2]).all()


@pytest.mark.parametrize("strategy", sorted(_WINDOW_RUNNERS))
def test_window_tallies_merge_exactly(strategy):
    """The engine tally is the per-lane average: weighting each window's
    tally by its lane count recovers the full-batch tally as an exact
    Fraction, even when data-dependent branches make windows differ."""
    for case in _window_cases():
        full = _window_run(case, strategy, 0, _WINDOW_BATCH, 1)[3]
        merged = {}
        for lo, hi in _windows(_WINDOW_BATCH, 3):
            part = _window_run(case, strategy, lo, hi, 1)[3]
            for name, value in part.counts.items():
                weight = Fraction(hi - lo, _WINDOW_BATCH)
                merged[name] = merged.get(name, Fraction(0)) + value * weight
        assert {k: v for k, v in merged.items() if v} == \
            {k: v for k, v in full.counts.items() if v}
