"""The fuzz loop and its CLI: budgets, coverage, failure artifacts."""

import pytest

from repro.transform.base import PASSES
from repro.verify.cli import main as verify_main
from repro.verify.fuzz import COLUMNS, MATRIX_CELLS, run_fuzz
from repro.verify.generate import FLAVORS
from repro.verify.oracle import STRATEGIES


class TestRunFuzz:
    def test_deterministic_iteration_mode(self):
        a = run_fuzz(iterations=4, seed=9)
        b = run_fuzz(iterations=4, seed=9)
        assert a.ok and b.ok
        assert a.iterations == b.iterations == 4
        assert a.matrix == b.matrix
        assert a.checks == b.checks

    def test_full_matrix_coverage_within_one_flavor_rotation(self):
        # the five-rung matrix: the strategy ladder plus the cost-model pick
        assert STRATEGIES == (
            "classical", "interpretive", "codegen", "vector", "auto",
        )
        assert len(MATRIX_CELLS) == 5 * len(COLUMNS)
        stats = run_fuzz(iterations=len(FLAVORS), seed=0)
        assert stats.ok
        assert set(stats.covered_cells()) == set(MATRIX_CELLS)
        # header + one row per strategy + footer
        assert len(stats.matrix_lines()) == len(STRATEGIES) + 2

    def test_budget_mode_terminates(self):
        stats = run_fuzz(budget=0.5, seed=1)
        assert stats.ok
        assert stats.iterations >= 1
        assert stats.elapsed < 30

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="flavor"):
            run_fuzz(iterations=1, flavors=("quantum",))

    def test_per_flavor_rotation(self):
        stats = run_fuzz(iterations=2 * len(FLAVORS), seed=3)
        assert set(stats.per_flavor) == set(FLAVORS)
        assert all(count == 2 for count in stats.per_flavor.values())


class TestFailurePath:
    @pytest.fixture
    def broken_registry(self, monkeypatch):
        from test_verify_shrink import _BrokenLowerToffoli

        monkeypatch.setitem(PASSES, "lower_toffoli", _BrokenLowerToffoli)

    def test_fuzz_finds_shrinks_and_writes_reproducer(
        self, broken_registry, tmp_path
    ):
        stats = run_fuzz(
            iterations=8, seed=0, out_dir=str(tmp_path), flavors=("unitary",),
        )
        assert not stats.ok
        failure = stats.failures[0]
        assert failure.flavor == "unitary"
        assert failure.shrunk_ops <= 10
        assert failure.shrunk_ops <= failure.initial_ops
        assert failure.reproducer_path is not None
        source = open(failure.reproducer_path).read()
        assert source == failure.test_source
        compile(source, failure.reproducer_path, "exec")  # valid python
        assert "check_circuit" in source

    def test_stop_on_failure_stops_early(self, broken_registry):
        stats = run_fuzz(iterations=50, seed=0, flavors=("unitary",))
        assert not stats.ok
        assert stats.iterations < 50

    def test_keep_going_collects_more(self, broken_registry):
        stats = run_fuzz(
            iterations=6, seed=0, flavors=("unitary",),
            stop_on_failure=False, shrink=False,
        )
        assert len(stats.failures) >= 2

    def test_noisy_failure_reproducer_carries_noise_kwargs(
        self, broken_registry, tmp_path
    ):
        """A failure found on a noisy-flavor case must shrink under the
        same (rate, seed) and render a reproducer that replays them."""
        stats = run_fuzz(
            iterations=12, seed=0, flavors=("noisy",), out_dir=str(tmp_path),
        )
        assert not stats.ok
        source = stats.failures[0].test_source
        assert "noise_rate=" in source
        assert "noise_seed=" in source
        compile(source, "<reproducer>", "exec")


class TestCLI:
    def test_exit_zero_on_clean_tree(self, capsys):
        assert verify_main(["--iterations", str(len(FLAVORS)), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"coverage: {len(MATRIX_CELLS)}/{len(MATRIX_CELLS)}" in out

    def test_require_full_matrix_fails_when_uncovered(self, capsys):
        # one mixed-flavor case cannot cover the invert column
        code = verify_main([
            "--iterations", "1", "--flavors", "mixed",
            "--require-full-matrix", "--quiet",
        ])
        assert code == 1
        assert "uncovered" in capsys.readouterr().out

    def test_cli_failure_exit_code_and_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        from test_verify_shrink import _BrokenLowerToffoli

        monkeypatch.setitem(PASSES, "lower_toffoli", _BrokenLowerToffoli)
        code = verify_main([
            "--iterations", "8", "--flavors", "unitary",
            "--out", str(tmp_path), "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILURE" in out
        assert list(tmp_path.glob("reproducer_*.py"))

    def test_bad_flavor_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            verify_main(["--flavors", "bogus"])
        assert exc.value.code == 2
