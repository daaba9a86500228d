"""The equivalence oracle: matrix coverage, agreement, rejection semantics."""

import pytest

from repro.circuits import Circuit
from repro.verify.generate import FLAVORS, GeneratorConfig, random_case, seed_sequence
from repro.verify.oracle import (
    BASE,
    STRATEGIES,
    TRANSFORMS,
    check_case,
    check_circuit,
)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("seed", seed_sequence(3))
def test_oracle_agrees_on_generated_cases(flavor, seed):
    """The current tree must be self-consistent: every strategy and every
    transform recipe agrees on every generated flavor."""
    case = random_case(seed, GeneratorConfig(flavor=flavor, ops=20, batch=16))
    report = check_case(case)
    assert report.ok, report.summary()
    assert report.checks > 50


def test_matrix_covers_all_strategy_transform_cells():
    """Aggregated over the four flavors, the oracle matrix must cover all
    5 strategies x 5 registered transforms with a real differential check
    (agree or consistent-reject) — the ISSUE acceptance criterion."""
    covered = {}
    for i, flavor in enumerate(FLAVORS):
        case = random_case(100 + i, GeneratorConfig(flavor=flavor, ops=20, batch=16))
        report = check_case(case)
        assert report.ok, report.summary()
        for cell, status in report.matrix.items():
            covered.setdefault(cell, set()).add(status)
    for strategy in STRATEGIES:
        for transform in TRANSFORMS:
            statuses = covered.get((strategy, transform), set())
            assert statuses & {"agree", "reject"}, (
                f"cell ({strategy}, {transform}) never exercised: {statuses}"
            )
        # the untransformed differential run is a matrix column of its own
        assert "agree" in covered.get((strategy, BASE), set())


def test_consistent_rejection_of_bare_hadamard():
    """A circuit with no basis-state semantics must be rejected by every
    compiled strategy — and that consistency is a passing check, not a
    failure."""
    circ = Circuit("h")
    q = circ.add_register("q", 2)
    circ.h(q[0])
    circ.cx(q[0], q[1])
    report = check_circuit(circ, {"q": 1}, transforms=())
    assert report.ok, report.summary()
    for strategy in ("codegen", "vector", "auto"):
        assert report.matrix[(strategy, BASE)] == "reject"
    assert report.matrix[("interpretive", BASE)] == "reject"
    assert report.matrix[("classical", BASE)] == "reject"


def test_lazy_walks_may_skip_statically_unsupported_branches():
    """An ``h`` inside a never-taken conditional: the compiled strategies
    reject eagerly at compile time, the interpretive/classical walks
    complete — recorded as ``lazy``, not flagged as a mismatch."""
    circ = Circuit("lazy-h")
    q = circ.add_register("q", 2)
    bit = circ.measure(q[0])  # q starts |0>: bit is always 0
    with circ.capture() as body:
        circ.h(q[1])
    circ.cond(bit, body, value=1)  # never taken
    report = check_circuit(circ, {"q": 0}, transforms=())
    assert report.ok, report.summary()
    for strategy in ("codegen", "vector", "auto"):
        assert report.matrix[(strategy, BASE)] == "reject"
    assert report.matrix[("interpretive", BASE)] == "lazy"
    assert report.matrix[("classical", BASE)] == "lazy"


def test_invert_cells_inapplicable_for_measurement_circuits():
    circ = Circuit("m")
    q = circ.add_register("q", 3)
    circ.cx(q[0], q[1])
    circ.measure(q[2])
    report = check_circuit(circ, {"q": 5})
    assert report.ok, report.summary()
    for strategy in STRATEGIES:
        assert report.matrix[(strategy, "invert")] == "inapplicable"


def test_unknown_transform_rejected():
    circ = Circuit("t")
    q = circ.add_register("q", 3)
    circ.x(q[0])
    with pytest.raises(ValueError, match="no recipe"):
        check_circuit(circ, {"q": 0}, transforms=("bogus",))


def test_lane_input_length_mismatch_rejected():
    circ = Circuit("t")
    circ.add_register("q", 3)
    with pytest.raises(ValueError, match="per-lane"):
        check_circuit(circ, {"q": [1, 2, 3]}, batch=8)


def test_broadcast_int_inputs_accepted():
    from repro.modular import build_modadd

    built = build_modadd(3, 5, "gidney", mbu=True)
    report = check_circuit(
        built.circuit, {"x": 2, "y": 3}, batch=8,
        data_registers=("x", "y"),
    )
    assert report.ok, report.summary()


def test_report_summary_mentions_counts():
    case = random_case(0, GeneratorConfig(flavor="unitary", ops=10, batch=8))
    report = check_case(case)
    assert "comparisons" in report.summary()
    assert report.failure_signature() == frozenset()
