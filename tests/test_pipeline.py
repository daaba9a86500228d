"""Pipeline-layer tests: specs, cache, sweep runner, artifacts, golden."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.modular import build_modadd
from repro.pipeline import (
    CircuitCache,
    CircuitSpec,
    SweepConfig,
    build_spec,
    diff_artifacts,
    load_artifact,
    run_sweep,
    sweep_artifact,
    table_rows_with_mc,
    write_artifact,
)
from repro.pipeline.cli import main as cli_main, smoke_config
from repro.resources import table1, table4, table6
from repro.resources.tables import TABLE_SPECS, build_table_rows
from repro.sim.strategies import STRATEGIES

GOLDEN = Path(__file__).parent / "golden" / "sweep_smoke.json"
TRANSFORM_GOLDEN = Path(__file__).parent / "golden" / "sweep_smoke_transform.json"


class TestCircuitSpec:
    def test_make_normalizes_param_order(self):
        a = CircuitSpec.make("modadd", 4, p=13, family="cdkpm", mbu=True)
        b = CircuitSpec.make("modadd", 4, mbu=True, family="cdkpm", p=13)
        assert a == b and hash(a) == hash(b)

    def test_build_spec_matches_direct_construction(self):
        spec = CircuitSpec.make("modadd", 5, p=29, family="cdkpm", mbu=True)
        via_spec = build_spec(spec)
        direct = build_modadd(5, 29, "cdkpm", mbu=True)
        assert via_spec.counts("expected") == direct.counts("expected")
        assert via_spec.logical_qubits == direct.logical_qubits

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown builder kind"):
            CircuitSpec.make("frobnicate", 4)
        with pytest.raises(ValueError, match="unknown builder kind"):
            build_spec(CircuitSpec("frobnicate", 4))

    def test_key_is_readable(self):
        spec = CircuitSpec.make("adder", 8, family="gidney")
        assert spec.key == "adder[n=8,family=gidney]"


class TestCircuitCache:
    def test_hit_returns_same_object(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("adder", 4, family="cdkpm")
        first = cache.build(spec)
        second = cache.build(spec)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_counts_memoized(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("adder", 4, family="cdkpm")
        c1 = cache.counts(spec)
        c2 = cache.counts(spec)
        assert c1 is c2
        assert cache.stats.count_hits == 1

    def test_lru_eviction(self):
        cache = CircuitCache(maxsize=1)
        s1 = CircuitSpec.make("adder", 4, family="cdkpm")
        s2 = CircuitSpec.make("adder", 5, family="cdkpm")
        cache.build(s1)
        cache.build(s2)
        assert len(cache) == 1 and s1 not in cache and s2 in cache
        assert cache.stats.evictions == 1

    def test_clear_resets_stats(self):
        cache = CircuitCache()
        cache.build(CircuitSpec.make("adder", 4, family="vbe"))
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_program_memo_dropped_on_eviction(self):
        """Evicting a circuit must drop its memoized program too — a later
        request recompiles instead of returning a program pinned forever."""
        cache = CircuitCache(maxsize=1)
        s1 = CircuitSpec.make("modadd", 3, p=5, family="cdkpm", mbu=True)
        s2 = CircuitSpec.make("adder", 4, family="cdkpm")
        first = cache.program(s1)
        cache.build(s2)  # evicts s1 (and its program)
        assert s1 not in cache and cache.stats.evictions == 1
        second = cache.program(s1)
        assert second is not first
        assert cache.stats.program_misses == 2
        assert cache.stats.program_hits == 0

    def test_failure_memo_dropped_on_eviction(self):
        """Memoized compile *failures* follow the same eviction rule."""
        from repro.sim import UnsupportedGateError

        cache = CircuitCache(maxsize=1)
        qft = CircuitSpec.make("modadd_draper", 4, p=13, mbu=False)
        with pytest.raises(UnsupportedGateError):
            cache.program(qft)
        cache.build(CircuitSpec.make("adder", 4, family="cdkpm"))  # evict
        with pytest.raises(UnsupportedGateError):
            cache.program(qft)
        assert cache.stats.program_misses == 2  # failure re-memoized, not replayed

    def test_program_failure_replays_fresh_exceptions(self):
        """Memoized failures raise a *fresh* exception instance per hit."""
        from repro.sim import UnsupportedGateError

        cache = CircuitCache()
        qft = CircuitSpec.make("modadd_draper", 4, p=13, mbu=False)
        caught = []
        for _ in range(2):
            with pytest.raises(UnsupportedGateError) as exc:
                cache.program(qft)
            caught.append(exc.value)
        assert caught[0] is not caught[1]
        assert caught[0].args == caught[1].args
        assert cache.stats.program_misses == 1 and cache.stats.program_hits == 1

    def test_program_tally_variants_cached_independently(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("modadd", 3, p=5, family="cdkpm", mbu=True)
        with_tally = cache.program(spec, tally=True)
        without = cache.program(spec, tally=False)
        assert with_tally is not without
        assert cache.program(spec, tally=True) is with_tally
        assert cache.program(spec, tally=False) is without
        assert cache.stats.program_misses == 2 and cache.stats.program_hits == 2


class TestDeclarativeTables:
    """The spec-driven builder reproduces the classic table functions."""

    @pytest.mark.parametrize("name,classic", [
        ("table1", table1), ("table4", table4), ("table6", table6),
    ])
    def test_build_table_rows_matches_classic(self, name, classic):
        assert build_table_rows(name, 5) == classic(5)

    def test_cached_equals_uncached(self):
        cache = CircuitCache()
        assert build_table_rows("table1", 4, cache=cache) == build_table_rows("table1", 4)
        assert cache.stats.misses > 0

    def test_every_table_declared(self):
        assert sorted(TABLE_SPECS) == [f"table{i}" for i in range(1, 7)]

    def test_row_specs_expand_to_concrete_circuits(self):
        for spec in TABLE_SPECS.values():
            p, a = spec.defaults(4)
            for row in spec.rows:
                for circuit_spec in row.specs(4, p=p, a=a).values():
                    assert build_spec(circuit_spec).circuit.num_qubits > 0


class TestSweepRunner:
    def test_mc_columns_attached_where_supported(self):
        rows = table_rows_with_mc("table1", 4, seed=11, mc_batch=64)
        by_label = {r["row"]: r for r in rows}
        assert "toffoli_mbu_mc" in by_label["CDKPM"]
        assert "toffoli_mbu_mc_ci95" in by_label["CDKPM"]
        assert "toffoli_mbu_mc" not in by_label["Draper"]  # QFT: no basis-state MC

    def test_mc_mean_is_close_to_expected(self):
        rows = table_rows_with_mc("table1", 4, seed=11, mc_batch=512)
        row = next(r for r in rows if r["row"] == "CDKPM")
        assert abs(float(row["toffoli_mbu_mc"] - row["toffoli_mbu"])) <= 3 * max(
            row["toffoli_mbu_mc_ci95"], 1e-9
        )

    def test_serial_sweep_structure(self):
        config = SweepConfig(
            tables=("table6",), sizes=(4, 5), seed=2, mc_batch=32,
            workers=0, include_savings=True, modexp=((2, 3),),
        )
        result = run_sweep(config)
        assert sorted(result.tables["table6"]) == [4, 5]
        assert sorted(result.savings) == [4, 5]
        assert len(result.modexp) == 1
        assert result.modexp[0]["toffoli_mbu"] < result.modexp[0]["toffoli"]
        assert result.cache_stats["misses"] > 0

    def test_modexp_formula_matches_built_circuit(self):
        config = SweepConfig(tables=(), sizes=(), workers=0,
                             include_savings=False, modexp=((2, 3),), mc_batch=32)
        row = run_sweep(config).modexp[0]
        # modexp_cost is documented exact for the Toffoli count
        assert row["toffoli"] == row["toffoli_paper"]
        assert row["toffoli_mbu"] == row["toffoli_mbu_paper"]

    def test_parallel_matches_serial(self):
        base = dict(tables=("table6",), sizes=(4,), seed=5, mc_batch=32,
                    include_savings=False)
        serial = run_sweep(SweepConfig(workers=0, **base))
        parallel = run_sweep(SweepConfig(workers=2, **base))
        assert serial.tables == parallel.tables


class TestArtifacts:
    def test_jsonified_artifact_round_trips(self, tmp_path):
        config = SweepConfig(tables=("table6",), sizes=(4,), workers=0,
                             include_savings=False, mc_batch=32)
        artifact = sweep_artifact(run_sweep(config))
        json_path, md_path = write_artifact(artifact, tmp_path)
        assert load_artifact(json_path) == artifact
        text = md_path.read_text()
        assert "Table 6" in text and "paper:" in text

    def test_fractions_serialized_exactly(self):
        config = SweepConfig(tables=("table1",), sizes=(4,), workers=0,
                             include_savings=False, mc_batch=32)
        artifact = sweep_artifact(run_sweep(config))
        rows = artifact["tables"]["table1"]["sizes"]["4"]
        gidney = next(r for r in rows if r["row"] == "Gidney")
        # 3.5n+1-style halves survive as exact "num/den" strings
        assert isinstance(gidney["toffoli_mbu"], (int, str))
        if isinstance(gidney["toffoli_mbu"], str):
            num, den = gidney["toffoli_mbu"].split("/")
            assert Fraction(int(num), int(den)) == Fraction(15)

    def test_diff_detects_changes(self):
        a = {"x": 1, "rows": [{"v": 2}]}
        b = {"x": 1, "rows": [{"v": 3}]}
        assert diff_artifacts(a, a) == []
        diffs = diff_artifacts(a, b)
        assert len(diffs) == 1 and "rows[0].v" in diffs[0]

    def test_diff_ignores_package_version(self):
        assert diff_artifacts({"package_version": "1"}, {"package_version": "2"}) == []

    def test_diff_ignores_worker_count(self):
        """A golden generated serially must accept a parallel rerun."""
        a = {"config": {"workers": 0, "seed": 7}}
        b = {"config": {"workers": 8, "seed": 7}}
        assert diff_artifacts(a, b) == []


class TestGolden:
    """The checked-in smoke artifact pins the whole pipeline's output."""

    def test_smoke_sweep_matches_golden(self):
        artifact = sweep_artifact(run_sweep(smoke_config()))
        golden = load_artifact(GOLDEN)
        diffs = diff_artifacts(artifact, golden)
        assert not diffs, "\n".join(diffs[:20])

    def test_cli_check_flow(self, tmp_path, capsys):
        rc = cli_main(["--smoke", "--out", str(tmp_path), "--check", str(GOLDEN)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matches golden" in out
        written = json.loads((tmp_path / "tables.json").read_text())
        assert written["schema"] == 1

    def test_cli_check_fails_on_mismatch(self, tmp_path, capsys):
        tampered = load_artifact(GOLDEN)
        tampered["config"]["seed"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tampered))
        rc = cli_main(["--smoke", "--out", str(tmp_path), "--check", str(bad)])
        assert rc == 1

    def test_smoke_rejects_conflicting_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--smoke", "--seed", "42"])
        assert exc.value.code == 2
        assert "--smoke pins" in capsys.readouterr().err


class TestTransformFlag:
    """The --transform chain, wired through SweepConfig and CircuitSpec."""

    def test_transform_smoke_matches_golden(self, tmp_path):
        rc = cli_main([
            "--smoke", "--transform", "lower_toffoli",
            "--out", str(tmp_path), "--check", str(TRANSFORM_GOLDEN),
        ])
        assert rc == 0

    def test_transform_changes_measured_counts(self):
        from dataclasses import replace

        base = run_sweep(smoke_config())
        lowered = run_sweep(replace(smoke_config(), transforms=("lower_toffoli",)))
        row = base.tables["table6"][4][1]       # Gidney comparator row
        row_low = lowered.tables["table6"][4][1]
        assert row["row"] == row_low["row"] == "GIDNEY"
        # lowering adds one CNOT per Toffoli but keeps the Toffoli count
        assert row_low["toffoli"] == row["toffoli"]
        assert row_low["cnot"] == row["cnot"] + row["toffoli"]
        # the config records the chain, so artifacts are self-describing
        assert sweep_artifact(lowered)["config"]["transforms"] == ["lower_toffoli"]

    def test_transformed_specs_do_not_alias_in_cache(self):
        cache = CircuitCache()
        plain = CircuitSpec.make("comparator", 3, family="gidney")
        lowered = CircuitSpec.make(
            "comparator", 3, family="gidney", transforms=("lower_toffoli",)
        )
        a = cache.build(plain)
        b = cache.build(lowered)
        assert a is not b
        assert b.circuit.num_qubits == a.circuit.num_qubits + 1
        assert cache.build(lowered) is b  # memoized under the chained key

    def test_unknown_transform_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--smoke", "--transform", "bogus"])
        assert exc.value.code == 2
        assert "unknown transform pass" in capsys.readouterr().err


class TestCLIErrors:
    """Bad configuration must fail at parse time with a usage error (exit
    code 2), never as a mid-sweep traceback."""

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--tables", "table9", "--sizes", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown table(s): table9" in err
        assert "table1" in err  # the error lists what *is* available

    def test_mixed_known_and_unknown_tables_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--tables", "table1", "bogus", "nope", "--sizes", "2"])
        assert exc.value.code == 2
        assert "bogus, nope" in capsys.readouterr().err

    def test_unknown_transform_without_smoke_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--transform", "lower_toffoli,bogus"])
        assert exc.value.code == 2
        assert "unknown transform pass" in capsys.readouterr().err


class TestProgramCache:
    """`program()` keys by (spec, tally) and its entries die with their
    circuit's."""

    def test_program_memoized_per_spec(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("modadd", 3, p=5, family="cdkpm", mbu=True)
        plain = cache.program(spec)
        assert cache.program(spec) is plain
        assert cache.stats.program_misses == 1 and cache.stats.program_hits == 1

    def test_eviction_drops_program(self):
        cache = CircuitCache(maxsize=1)
        spec = CircuitSpec.make("modadd", 3, p=5, family="cdkpm", mbu=True)
        cache.program(spec)
        cache.build(CircuitSpec.make("adder", 4, family="cdkpm"))  # evict
        assert cache.stats.evictions == 1
        cache.program(spec)
        assert cache.stats.program_misses == 2  # recompiled, not replayed


class TestPerFamilyHitRatios:
    """`hit_ratio` aggregates all cache families; per-family ratios are
    reported alongside (the pre-fix bug reported only circuit builds, so
    a counts-heavy run looked cold no matter how hot it was)."""

    def test_aggregate_ratio_includes_counts_and_programs(self):
        cache = CircuitCache()
        spec = CircuitSpec.make("adder", 4, family="cdkpm")
        for _ in range(2):
            cache.counts(spec)  # miss+build-miss then hit
        # families: circuit 1 miss, counts 1 miss 1 hit
        assert cache.stats.hit_ratio == pytest.approx(1 / 3)
        assert cache.stats.circuit_hit_ratio == 0.0
        assert cache.stats.count_hit_ratio == 0.5
        assert cache.stats.program_hit_ratio == 0.0

    def test_as_dict_reports_every_ratio(self):
        cache = CircuitCache()
        cache.counts(CircuitSpec.make("adder", 4, family="cdkpm"))
        stats = cache.stats.as_dict()
        for key in ("hit_ratio", "circuit_hit_ratio", "count_hit_ratio",
                    "program_hit_ratio"):
            assert key in stats and 0.0 <= stats[key] <= 1.0

    def test_sweep_reports_per_family_ratios(self):
        result = run_sweep(smoke_config())
        stats = result.cache_stats
        assert {"hit_ratio", "circuit_hit_ratio", "count_hit_ratio",
                "program_hit_ratio"} <= set(stats)
        served = (stats["hits"] + stats["count_hits"] + stats["program_hits"])
        total = served + (stats["misses"] + stats["count_misses"]
                          + stats["program_misses"])
        assert stats["hit_ratio"] == pytest.approx(served / total, abs=1e-4)


class TestExecutionOnlyKnobs:
    """`strategy` is execution policy: it may change *how* the sweep runs,
    never a byte of what it produces."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_sweep_matches_golden(self, strategy):
        from repro.pipeline.jobs import ExecutionPolicy

        policy = ExecutionPolicy(strategy=strategy)
        result = run_sweep(smoke_config(), policy=policy)
        golden = load_artifact(GOLDEN)
        assert diff_artifacts(sweep_artifact(result), golden) == []

    def test_cli_strategy_flag_matches_golden(self, tmp_path, capsys):
        code = cli_main(["--smoke", "--strategy", "vector",
                         "--out", str(tmp_path), "--check", str(GOLDEN)])
        assert code == 0
        assert "matches golden" in capsys.readouterr().out

    def test_bad_strategy_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--smoke", "--strategy", "bogus"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_policy_validates_strategy(self):
        from repro.pipeline.jobs import ExecutionPolicy

        with pytest.raises(ValueError, match="unknown execution strategy"):
            ExecutionPolicy(strategy="bogus")
