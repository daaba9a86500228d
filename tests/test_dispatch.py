"""Strategy dispatch: the calibrated cost model behind ``"auto"``.

These tests pin the ``simulate()``/``run_compiled`` validation surface,
the cost model's capability filtering, calibration loading and fitting,
the surface the frozen end-to-end benchmark (``perfbench/``) still
uses, the loud rejection of the removed strategies (``arrays``, lane
sharding, the scalar VM, the scheduler) and of the knobs the single
``strategy=`` argument replaced, and the strategy independence of
Monte-Carlo estimates.
"""

import json

import pytest

from repro.modular import build_modadd
from repro.noise import NoiseConfig, insert_noise_points
from repro.pipeline import (
    CircuitCache,
    CircuitSpec,
    ExecutionPolicy,
    mc_expected_counts,
)
from repro.pipeline.cli import main as sweep_main
from repro.sim import (
    BitplaneSimulator,
    RandomOutcomes,
    available_backends,
    simulate,
)
from repro.sim.dispatch import program_is_flat
from repro.sim.dispatch.cost import (
    DEFAULT_CALIBRATION,
    CostModel,
    choose_backend,
    default_model,
    fit_calibration,
    load_calibration,
)
from repro.sim.strategies import (
    COMPILED_STRATEGIES,
    FUSED_KERNELS,
    LADDER,
    STRATEGIES,
)
from repro.transform import apply_transforms, compile_program, fuse_program

LANE_GATES = ("x", "cx", "ccx")


@pytest.fixture(scope="module")
def built():
    return build_modadd(4, 13, "cdkpm", mbu=True)


@pytest.fixture(scope="module")
def program(built):
    return fuse_program(compile_program(built.circuit, tally=True))


def _inputs(batch, p=13):
    return {
        "x": [pow(3, i + 1, p) for i in range(batch)],
        "y": [pow(5, i + 1, p) for i in range(batch)],
    }


def _single_run(built, inputs, batch, outcomes):
    sim = BitplaneSimulator(
        built.circuit, batch=batch, outcomes=outcomes, tally=True,
        lane_counts=LANE_GATES,
    )
    for name, values in inputs.items():
        sim.set_register(name, values)
    sim.run_compiled()
    return sim


class TestFrozenBenchmarkCompat:
    """``perfbench/`` cannot change, so the names it imports stay put."""

    def test_dispatch_package_imports(self):
        import repro.sim.dispatch

        assert callable(repro.sim.dispatch.program_is_flat)

    def test_flatness_of_builder_circuits(self, program):
        assert program_is_flat(program)

    def test_nested_measurement_sites_are_not_flat(self, built):
        lowered = apply_transforms(built.circuit, ["lower_toffoli"])
        assert not program_is_flat(compile_program(lowered, tally=True))

    def test_unknown_candidate_is_infeasible(self):
        # The benchmark's probe offers a strategy that is no longer on the
        # ladder: it must lose to codegen rather than raise.
        choice = choose_backend(
            ops=1786, batch=65536, tally=False, lane_counts=True,
            candidates=("codegen", "sharded"),
        )
        assert choice == "codegen"

    def test_only_unknown_candidates_raise(self):
        with pytest.raises(ValueError, match="no feasible backend"):
            default_model().choose(ops=10, batch=64,
                                   candidates=("sharded", "arrays"))

    def test_cache_program_takes_a_third_positional_argument(self):
        # perfbench/spans.py overrides CircuitCache.program(spec, tally,
        # schedule) and forwards all three arguments positionally.
        cache = CircuitCache()
        spec = CircuitSpec.make("modadd", 3, p=5, family="cdkpm", mbu=True)
        program = cache.program(spec, True, False)
        assert program is cache.program(spec)
        assert len(program.scalar.instructions) > 0
        assert isinstance(program.kernel(events=True).__fused_source__, str)
        with pytest.raises(ValueError, match="scheduler"):
            cache.program(spec, True, True)

    def test_sweep_mc_calls_carry_program_batch_repeats(self, monkeypatch):
        # The traced sweep wraps runner.mc_or_none and reads these keywords.
        from repro.pipeline import runner

        seen = []
        original = runner.mc_or_none

        def spy(built, **k):
            seen.append(k)
            return original(built, **k)

        monkeypatch.setattr(runner, "mc_or_none", spy)
        runner.table_rows_with_mc("table1", 3, mc_batch=16, mc_repeats=2)
        runner.modexp_row(2, 3, mc_batch=16)
        assert len(seen) > 1
        for k in seen:
            assert len(k["program"].scalar.instructions) > 0
            assert k["batch"] == 16
            assert k.get("repeats", 1) in (1, 2)


class TestSimulateWiring:
    """The ``simulate()``/``run_compiled`` validation surface (S1)."""

    def test_backend_names_include_auto(self):
        assert {"classical", "statevector", "bitplane", "auto"} <= set(
            available_backends()
        )

    def test_unknown_backend_lists_choices(self, built):
        with pytest.raises(ValueError, match="available:.*bitplane"):
            simulate(built.circuit, {"x": 1, "y": 2}, backend="quantum")

    def test_unknown_strategy_lists_choices(self, built):
        sim = BitplaneSimulator(built.circuit, batch=8)
        with pytest.raises(ValueError, match="'codegen', 'vector', 'auto'"):
            sim.run_compiled(strategy="simd")

    def test_run_compiled_rejects_interpretive(self, built):
        sim = BitplaneSimulator(built.circuit, batch=8)
        with pytest.raises(ValueError, match="unknown execution strategy"):
            sim.run_compiled(strategy="interpretive")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_simulate_strategies_agree(self, built, strategy):
        ref = simulate(built.circuit, _inputs(8), backend="bitplane", batch=8,
                       seed=4)
        got = simulate(built.circuit, _inputs(8), backend="bitplane", batch=8,
                       seed=4, strategy=strategy)
        assert (got.registers, got.bits, got.tally) == (
            ref.registers, ref.bits, ref.tally
        )

    def test_program_defaults_to_codegen(self, built, program, monkeypatch):
        ran = []
        original = BitplaneSimulator.run_compiled

        def spy(sim, prog=None, **kwargs):
            ran.append((prog, kwargs))
            return original(sim, prog, **kwargs)

        monkeypatch.setattr(BitplaneSimulator, "run_compiled", spy)
        simulate(built.circuit, _inputs(8), backend="bitplane", batch=8,
                 program=program)
        assert ran == [(program, {"strategy": "codegen"})]

    def test_auto_backend_records_resolved_strategy(self, built):
        result = simulate(
            built.circuit, _inputs(8), backend="auto", batch=8, seed=4,
        )
        assert result.backend.startswith("auto:")
        plain = simulate(
            built.circuit, _inputs(8), backend="bitplane", batch=8,
            strategy="codegen", seed=4,
        )
        assert result.registers == plain.registers
        assert result.bits == plain.bits

    def test_auto_kernels_run_compiled(self, built):
        sim = BitplaneSimulator(built.circuit, batch=8, outcomes=RandomOutcomes(4))
        for name, values in _inputs(8).items():
            sim.set_register(name, values)
        sim.run_compiled(strategy="auto")
        ref = _single_run(built, _inputs(8), 8, RandomOutcomes(4))
        assert sim.get_register("y") == ref.get_register("y")


class TestCostModel:
    def test_classical_only_for_single_lane(self):
        # tiny single-lane program: classical is eligible (and wins on
        # startup cost); any multi-lane batch filters it out entirely
        model = CostModel(dict(DEFAULT_CALIBRATION))
        choice = model.choose(ops=10, batch=1,
                              candidates=("classical", "codegen"))
        assert choice == "classical"
        choice = model.choose(ops=10, batch=64,
                              candidates=("classical", "codegen"))
        assert choice == "codegen"

    def test_classical_excluded_when_lane_counts_tracked(self):
        model = CostModel(dict(DEFAULT_CALIBRATION))
        choice = model.choose(ops=10, batch=1, lane_counts=True,
                              candidates=("classical", "codegen"))
        assert choice == "codegen"

    def test_no_feasible_candidate_raises(self):
        with pytest.raises(ValueError, match="no feasible backend"):
            default_model().choose(ops=10, batch=64,
                                   candidates=("classical",))

    def test_unknown_backend_estimate_raises(self):
        with pytest.raises(ValueError, match="no calibration"):
            default_model().estimate("quantum", ops=1, batch=1)

    def test_env_override_wins(self, tmp_path, monkeypatch):
        table = json.loads(json.dumps(DEFAULT_CALIBRATION))
        table["source"] = "override"
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(table))
        monkeypatch.setenv("REPRO_DISPATCH_CALIBRATION", str(path))
        assert load_calibration()["source"] == "override"
        assert default_model(refresh=True).table["source"] == "override"
        monkeypatch.delenv("REPRO_DISPATCH_CALIBRATION")
        default_model(refresh=True)  # restore the ambient table

    def test_explicit_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calibration(str(tmp_path / "nope.json"))

    def test_fit_calibration_recovers_synthetic_coefficients(self):
        def secs(ops, batch):
            return 1e-4 + 2e-7 * ops + 3e-9 * ops * ((batch + 63) // 64)

        samples = [
            {"backend": "codegen", "ops": ops, "batch": batch,
             "tally": True, "seconds": secs(ops, batch)}
            for ops in (100, 1000, 5000) for batch in (64, 4096, 65536)
        ]
        table = fit_calibration(samples, source="test")
        fitted = table["backends"]["codegen"]["on"]
        assert fitted["c_ops"] == pytest.approx(2e-7, rel=0.05)
        assert fitted["c_ops_words"] == pytest.approx(3e-9, rel=0.05)
        # untouched backends keep the defaults
        assert table["backends"]["vector"] == DEFAULT_CALIBRATION["backends"]["vector"]

    @pytest.mark.parametrize("tally", [False, True])
    def test_default_table_crosses_from_codegen_to_vector(self, tally):
        # the bigint kernel wins short planes, the numpy kernel long ones
        model = CostModel(dict(DEFAULT_CALIBRATION))
        pick = lambda batch: model.choose(
            ops=2000, batch=batch, tally=tally, candidates=FUSED_KERNELS,
        )
        assert pick(64) == "codegen"
        assert pick(1 << 20) == "vector"

    def test_checked_in_table_covers_exactly_the_ladder(self):
        assert set(load_calibration()["backends"]) == set(LADDER)
        assert set(DEFAULT_CALIBRATION["backends"]) == set(LADDER)

    @pytest.mark.parametrize("backend", LADDER)
    def test_checked_in_estimates_grow_with_work(self, backend):
        # a negative fitted coefficient would rank a rung cheaper for more work
        model = CostModel(load_calibration())
        for tally in (False, True):
            for ops, batch in [(10, 1), (100, 64), (1000, 4096)]:
                base = model.estimate(backend, ops=ops, batch=batch, tally=tally)
                assert base >= 0.0
                assert model.estimate(
                    backend, ops=2 * ops, batch=batch, tally=tally,
                ) >= base
                assert model.estimate(
                    backend, ops=ops, batch=4 * batch, tally=tally,
                ) >= base


class TestRemovedStrategies:
    """Lane sharding, the ``arrays`` interpreter, the scalar VM and the
    scheduler are gone, and ``strategy=`` replaced the ``compiled``/
    ``fused``/``kernels``/``schedule`` knobs: the old names fail loudly
    rather than being silently ignored (``simulate`` forwards unknown
    options to its runner)."""

    @pytest.mark.parametrize("removed", ["scalar", "arrays"])
    @pytest.mark.parametrize("entry", ["run_compiled", "simulate", "mc", "policy"])
    def test_removed_strategy_names_rejected(self, built, entry, removed):
        with pytest.raises(ValueError, match="unknown execution strategy") as info:
            if entry == "run_compiled":
                BitplaneSimulator(built.circuit, batch=8).run_compiled(
                    strategy=removed
                )
            elif entry == "simulate":
                simulate(built.circuit, _inputs(8), backend="bitplane",
                         batch=8, strategy=removed)
            elif entry == "mc":
                mc_expected_counts(built, batch=8, strategy=removed)
            else:
                ExecutionPolicy(strategy=removed)
        assert "'codegen', 'vector', 'auto'" in str(info.value)

    @pytest.mark.parametrize("knob", [
        {"compiled": True}, {"fused": False}, {"kernels": "vector"},
        {"schedule": True},
    ], ids=["compiled", "fused", "kernels", "schedule"])
    @pytest.mark.parametrize("entry", ["run_compiled", "simulate", "mc", "policy"])
    def test_replaced_knobs_rejected(self, built, entry, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            if entry == "run_compiled":
                BitplaneSimulator(built.circuit, batch=8).run_compiled(**knob)
            elif entry == "simulate":
                simulate(built.circuit, _inputs(8), backend="bitplane",
                         batch=8, **knob)
            elif entry == "mc":
                mc_expected_counts(built, batch=8, **knob)
            else:
                ExecutionPolicy(**knob)

    @pytest.mark.parametrize("flag", [["--kernels", "vector"], ["--schedule"]],
                             ids=["kernels", "schedule"])
    def test_replaced_cli_flags_rejected(self, flag, tmp_path):
        with pytest.raises(SystemExit) as info:
            sweep_main(["--smoke", "--out", str(tmp_path), *flag])
        assert info.value.code == 2

    @pytest.mark.parametrize("entry", ["simulate", "mc"])
    def test_program_with_interpretive_rejected(self, built, program, entry):
        # A compiled program cannot run on the interpretive walk; it used
        # to be dropped silently (compiled=False with program=).
        with pytest.raises(ValueError, match="compiled strategy"):
            if entry == "simulate":
                simulate(built.circuit, _inputs(8), backend="bitplane",
                         batch=8, program=program, strategy="interpretive")
            else:
                mc_expected_counts(built, batch=8, program=program,
                                   strategy="interpretive")

    @pytest.mark.parametrize("call", [
        lambda b: mc_expected_counts(b, batch=8, execution="sharded"),
        lambda b: mc_expected_counts(b, batch=8, shards=2),
        lambda b: mc_expected_counts(b, batch=8, executor="thread"),
        lambda b: simulate(b.circuit, _inputs(8), backend="bitplane", batch=8,
                           strategy="codegen", executor="thread"),
        lambda b: simulate(b.circuit, _inputs(8), backend="auto", batch=8,
                           shards=2),
        lambda b: default_model().choose(ops=10, batch=64, cores=4),
    ], ids=["mc-execution", "mc-shards", "mc-executor", "simulate-executor",
            "auto-shards", "choose-cores"])
    def test_sharding_knobs_rejected(self, built, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(built)


class TestMonteCarloKernels:
    """``mc_expected_counts(strategy=...)`` is execution-only: every
    compiled strategy reproduces the interpretive estimate exactly, with
    and without the noise channel."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("strategy", COMPILED_STRATEGIES)
    def test_kernels_match_interpretive(self, strategy, noisy):
        circuit = insert_noise_points(build_modadd(4, 13, "gidney", mbu=True).circuit)
        kwargs = dict(
            batch=96, repeats=2, seed=42, gates=("ccx", "ccz", "x"),
            inputs=_inputs(96),
            noise=NoiseConfig(rate=0.2, seed=7) if noisy else None,
        )
        reference = mc_expected_counts(circuit, strategy="interpretive", **kwargs)
        estimate = mc_expected_counts(circuit, strategy=strategy, **kwargs)
        assert estimate.mean == reference.mean
        assert estimate.variance == reference.variance
        assert estimate.samples == reference.samples == 96 * 2
