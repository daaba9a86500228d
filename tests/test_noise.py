"""The noise-injection subsystem: channels, faulty outcomes, statistics.

Three layers under test (see ``docs/noise.md``):

* :mod:`repro.noise` — :class:`NoisyOutcomes` (seeded flips XOR'd into any
  provider's sampled outcomes) and the per-lane bit-flip channel at
  annotated noise points;
* the execution strategies — rate 0 must be bit-identical to no noise on
  every backend, and a fixed (seed, rate) must produce bit-identical
  results across all strategies;
* :mod:`repro.pipeline.noise` — Monte-Carlo success/postselection rates
  whose acceptance tests use the shared false-positive-budgeted helpers
  in ``tests/stat_helpers.py`` (never ad-hoc tolerances).
"""

import pytest

from repro.circuits import Circuit
from repro.circuits.ops import Annotation, Gate
from repro.modular import build_modadd
from repro.noise import NoiseConfig, NoisyOutcomes, insert_noise_points, noise_points
from repro.pipeline import derive_seed
from repro.sim import (
    BitplaneSimulator,
    ForcedOutcomes,
    RandomOutcomes,
    run_bitplane,
)
from tests.stat_helpers import assert_binomial_rate

STRATEGIES = ("interpretive", "codegen", "vector", "auto")
PARTIAL_WORD_BATCHES = (1, 65)


def _mbu_circuit(n=4, p=13):
    return insert_noise_points(build_modadd(n, p, "cdkpm", mbu=True).circuit)


def _snapshot(sim, circuit):
    regs = {name: tuple(sim.get_register(name)) for name in circuit.registers}
    bits = tuple(tuple(sim.get_bit(b)) for b in range(circuit.num_bits))
    return regs, bits


def _run_strategy(strategy, circuit, inputs, provider, batch, noise=None):
    sim = BitplaneSimulator(circuit, batch=batch, outcomes=provider, noise=noise)
    for name, values in inputs.items():
        sim.set_register(name, values)
    if strategy == "interpretive":
        sim.run()
    else:
        sim.run_compiled(strategy=strategy)
    return _snapshot(sim, circuit)


class TestNoisyOutcomes:
    """The faulty-measurement wrapper around any outcome provider."""

    def test_rate_zero_is_transparent_and_consumes_no_entropy(self):
        script = [1, 0, 1, 1, 0, 0, 1, 0]
        wrapped = NoisyOutcomes(ForcedOutcomes(script), 0.0, seed=9)
        bare = ForcedOutcomes(script)
        for _ in range(5):
            assert wrapped.sample(0.5) == bare.sample(0.5)
        assert wrapped.sample_lanes(0.5, 8) == bare.sample_lanes(0.5, 8)

    def test_same_seed_same_flips(self):
        a = NoisyOutcomes(RandomOutcomes(3), 0.3, seed=7)
        b = NoisyOutcomes(RandomOutcomes(3), 0.3, seed=7)
        draws_a = [a.sample_lanes(0.5, 64) for _ in range(20)]
        draws_b = [b.sample_lanes(0.5, 64) for _ in range(20)]
        assert draws_a == draws_b

    def test_flips_actually_flip(self):
        noisy = NoisyOutcomes(RandomOutcomes(3), 0.5, seed=7)
        clean = RandomOutcomes(3)
        assert [noisy.sample_lanes(0.5, 64) for _ in range(10)] != \
               [clean.sample_lanes(0.5, 64) for _ in range(10)]

    def test_rate_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoisyOutcomes(RandomOutcomes(0), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseConfig(rate=-0.1)

    def test_reset_rewinds_both_streams(self):
        noisy = NoisyOutcomes(ForcedOutcomes([1, 0, 1, 0]), 0.4, seed=5)
        first = [noisy.sample_lanes(0.5, 16) for _ in range(4)]
        noisy.reset()
        assert [noisy.sample_lanes(0.5, 16) for _ in range(4)] == first

    def test_mbu_coin_flips_change_bits_not_registers(self):
        """Flipping an MBU coin lands the other correction branch: the
        measurement record differs but the corrected registers do not —
        exactly Lemma 4.1's promise."""
        circuit = build_modadd(4, 13, "cdkpm", mbu=True).circuit
        inputs = {"x": 5, "y": 9}
        base = run_bitplane(circuit, inputs, batch=64,
                            outcomes=RandomOutcomes(2))
        noisy = run_bitplane(
            circuit, inputs, batch=64,
            outcomes=NoisyOutcomes(RandomOutcomes(2), 0.5, seed=8),
        )
        base_regs, base_bits = _snapshot(base, circuit)
        noisy_regs, noisy_bits = _snapshot(noisy, circuit)
        assert noisy_bits != base_bits
        assert noisy_regs == base_regs


class TestRateZeroIdentity:
    """The semantics-preserving contract: a rate-0 channel is a no-op on
    every execution strategy."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategies(self, strategy):
        circuit = _mbu_circuit()
        inputs = {"x": 5, "y": 9}
        clean = _run_strategy(strategy, circuit, inputs,
                              RandomOutcomes(4), 32)
        zero = _run_strategy(strategy, circuit, inputs, RandomOutcomes(4), 32,
                             noise=NoiseConfig(rate=0.0, seed=123))
        assert zero == clean

    @pytest.mark.parametrize("batch", PARTIAL_WORD_BATCHES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_partial_word_batches(self, strategy, batch):
        # a single lane and a batch ending one lane into its second word:
        # the lane-mask tail must keep the rate-0 channel a no-op
        circuit = _mbu_circuit()
        inputs = {"x": [i % 13 for i in range(batch)], "y": 9}
        clean = _run_strategy(strategy, circuit, inputs,
                              RandomOutcomes(4), batch)
        zero = _run_strategy(strategy, circuit, inputs, RandomOutcomes(4),
                             batch, noise=NoiseConfig(rate=0.0, seed=123))
        assert zero == clean


class TestSeededNoiseDeterminism:
    """Fixed (seed, rate): bit-identical results across every strategy."""

    def test_across_strategies(self):
        circuit = _mbu_circuit()
        inputs = {"x": 5, "y": 9}
        noise = NoiseConfig(rate=0.2, seed=77)
        results = {
            strategy: _run_strategy(strategy, circuit, inputs,
                                    RandomOutcomes(4), 32, noise=noise)
            for strategy in STRATEGIES
        }
        reference = results["interpretive"]
        for strategy, result in results.items():
            assert result == reference, strategy
        # and the channel did something at this rate
        clean = _run_strategy("interpretive", circuit, inputs,
                              RandomOutcomes(4), 32)
        assert reference != clean

    @pytest.mark.parametrize("batch", PARTIAL_WORD_BATCHES + (130,))
    def test_across_strategies_at_batch(self, batch):
        circuit = _mbu_circuit()
        inputs = {"x": [i % 13 for i in range(batch)],
                  "y": [(i * 5) % 13 for i in range(batch)]}
        noise = NoiseConfig(rate=0.2, seed=77)
        reference = _run_strategy("interpretive", circuit, inputs,
                                  RandomOutcomes(4), batch, noise=noise)
        for strategy in STRATEGIES[1:]:
            assert _run_strategy(strategy, circuit, inputs, RandomOutcomes(4),
                                 batch, noise=noise) == reference, strategy

    @pytest.mark.parametrize("strategy", STRATEGIES[1:])
    def test_nested_noise_points(self, strategy):
        """A noise point inside a measurement-controlled branch draws only
        when some lane takes the branch; every strategy must agree on when,
        or the channel stream desynchronizes."""
        circ = Circuit("nested-noise")
        d = circ.add_register("d", 3)
        bit = circ.measure(d[0])
        circ.cond(bit, [Gate("x", (d[1],)), Annotation("noise", str(d[1]))])
        circ.append(Gate("cx", (d[1], d[2])))
        circ.append(Annotation("noise", str(d[2])))
        inputs = {"d": [i % 8 for i in range(40)]}
        noise = NoiseConfig(rate=0.3, seed=11)
        reference = _run_strategy("interpretive", circ, inputs,
                                  RandomOutcomes(2), 40, noise=noise)
        assert reference != _run_strategy("interpretive", circ, inputs,
                                          RandomOutcomes(2), 40)
        assert _run_strategy(strategy, circ, inputs, RandomOutcomes(2), 40,
                             noise=noise) == reference


class TestChannelGuards:
    def test_insert_noise_points_is_idempotent_target(self):
        circuit = build_modadd(3, 7, "cdkpm", mbu=True).circuit
        assert not noise_points(circuit)
        salted = insert_noise_points(circuit)
        points = noise_points(salted)
        assert points  # one per top-level measurement/MBU block
        assert len(points) == len(noise_points(insert_noise_points(circuit)))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_outcome_exhaustion_propagates(self, strategy):
        # an exhausted scripted provider is a loud error on every strategy,
        # never a silently reused or defaulted outcome
        circuit = _mbu_circuit()
        with pytest.raises(IndexError, match="exhausted"):
            _run_strategy(strategy, circuit, {"x": 5, "y": 9},
                          ForcedOutcomes([]), 32,
                          noise=NoiseConfig(rate=0.2, seed=5))


@pytest.mark.statistical
class TestStatisticalAcceptance:
    """Monte-Carlo rates vs analytic values, with an explicit
    false-positive budget (tests/stat_helpers.py)."""

    def test_single_fault_point_success_matches_one_minus_rate(self):
        """One noise point, 4096 lanes: success rate is exactly
        Bernoulli(1 - rate) per lane."""
        from repro.pipeline.noise import estimate_success

        circ = Circuit("single-fault")
        d = circ.add_register("d", 2)
        circ.x(d[0])
        circ.measure(d[0])
        salted = insert_noise_points(circ)
        assert len(noise_points(salted)) == 1
        rate = 0.1
        est = estimate_success(salted, rate, batch=4096,
                               seed=derive_seed("test-noise", 1))
        successes = int(est.success.mean * est.lanes)
        assert_binomial_rate(successes, est.lanes, 1.0 - rate,
                             context="single fault point")
        assert est.analytic == pytest.approx(1.0 - rate)

    def test_mbu_success_matches_analytic_power(self):
        from repro.pipeline.noise import estimate_success

        circuit = _mbu_circuit(3, 7)
        points = len(noise_points(circuit))
        rate = 0.05
        est = estimate_success(circuit, rate, batch=4096,
                               seed=derive_seed("test-noise", 2),
                               inputs={"x": 3, "y": 5})
        successes = int(est.success.mean * est.lanes)
        assert_binomial_rate(successes, est.lanes, (1.0 - rate) ** points,
                             context="mbu modadd")

    def test_postselection_catches_flagged_faults(self):
        from repro.pipeline.noise import estimate_success

        circuit = _mbu_circuit(3, 7)
        est = estimate_success(circuit, 0.1, batch=2048,
                               seed=derive_seed("test-noise", 3),
                               inputs={"x": 3, "y": 5})
        assert est.postselect.mean <= est.success.mean or \
            est.conditional_success is not None
        if est.conditional_success is not None:
            # flagged qubits carry every fault here: kept lanes all succeed
            assert float(est.conditional_success.mean) == 1.0


class TestPipelineNoiseSweep:
    def test_sweep_is_deterministic_and_artifact_stable(self):
        from repro.pipeline import noise_artifact, noise_sweep

        a = noise_sweep([0.0, 0.1], sizes=(3,), seed=5, batch=64)
        b = noise_sweep([0.0, 0.1], sizes=(3,), seed=5, batch=64)
        assert a.rows == b.rows
        art_a, art_b = noise_artifact(a), noise_artifact(b)
        assert art_a["rows"] == art_b["rows"]
        assert art_a["schema"] == 1

    def test_rate_zero_rows_pin_at_one(self):
        from repro.pipeline import noise_sweep

        result = noise_sweep([0.0], sizes=(3,), seed=5, batch=64)
        for row in result.rows:
            assert row["success_rate"] == 1.0
            assert row["postselect_rate"] == 1.0

    def test_coherent_rows_have_no_fault_points(self):
        from repro.pipeline import noise_sweep

        result = noise_sweep([0.25], sizes=(3,), seed=5, batch=64)
        by_variant = {row["row"]: row for row in result.rows}
        assert by_variant["coherent"]["noise_points"] == 0
        assert by_variant["coherent"]["success_rate"] == 1.0
        assert by_variant["mbu"]["noise_points"] > 0


class TestNoisyOracleColumn:
    def test_noisy_column_agrees_on_mbu_circuit(self):
        from repro.verify.oracle import NOISY, check_circuit

        circuit = build_modadd(3, 7, "cdkpm", mbu=True).circuit
        report = check_circuit(circuit, {"x": 3, "y": 5}, seed=2, batch=8,
                               transforms=(), noise_rate=0.25, noise_seed=6)
        assert report.ok, report.summary()
        noisy = {k: v for k, v in report.matrix.items() if k[1] == NOISY}
        assert noisy and set(noisy.values()) == {"agree"}

    def test_noisy_flavor_reproducer_carries_rate_and_seed(self):
        from repro.verify.generate import GeneratorConfig, random_case

        case = random_case(99, GeneratorConfig(flavor="noisy", ops=8, batch=8))
        assert noise_points(case.circuit)
        assert 0.0 < case.meta["noise_rate"] <= 0.25
        assert isinstance(case.meta["noise_seed"], int)
        # check_case must activate the noisy column from the meta alone
        from repro.verify.oracle import NOISY, check_case

        report = check_case(case, transforms=())
        assert any(k[1] == NOISY for k in report.matrix), report.matrix
