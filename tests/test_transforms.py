"""Unit + acceptance tests for the repro.transform pass layer.

Covers the Pass/PassManager framework, each concrete pass, the
Lemma-4.1-as-rewrite equivalence (``insert_mbu`` applied to the builders'
reference emission reproduces the hand-built MBU circuits for every
Table 1-6 row), exact T-counts vs ``resources/formulas.py``, and the
compiled bit-plane program lowering.
"""

from fractions import Fraction

import pytest

from repro.arithmetic import build_adder, build_comparator, build_controlled_adder
from repro.circuits import (
    Circuit,
    Conditional,
    Gate,
    MBUBlock,
    Measurement,
    count_gates,
    reference_emission,
)
from repro.modular import build_modadd
from repro.pipeline.cache import CircuitSpec, build_spec
from repro.resources import (
    EXACT_TABLE2,
    EXACT_TABLE3,
    T_PER_TOFFOLI,
    predicted_t_count,
    t_count,
)
from repro.resources.tables import TABLE_SPECS
from repro.sim import (
    BitplaneSimulator,
    ForcedOutcomes,
    RandomOutcomes,
    StatevectorSimulator,
    simulate,
)
from repro.transform import (
    PASSES,
    CancelAdjacentPass,
    PassManager,
    apply_transforms,
    available_passes,
    compile_program,
    parse_transform_chain,
    resolve_pass,
)


class TestFramework:
    def test_all_five_passes_registered(self):
        assert set(available_passes()) >= {
            "invert",
            "insert_mbu",
            "lower_toffoli",
            "decompose_clifford_t",
            "cancel_adjacent",
        }

    def test_resolve_by_name_class_and_instance(self):
        by_name = resolve_pass("cancel_adjacent")
        by_class = resolve_pass(CancelAdjacentPass)
        instance = CancelAdjacentPass()
        assert by_name.name == by_class.name == "cancel_adjacent"
        assert resolve_pass(instance) is instance

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown transform pass"):
            resolve_pass("nope")
        with pytest.raises(ValueError, match="unknown transform pass"):
            parse_transform_chain("lower_toffoli,nope")

    def test_parse_transform_chain_forms(self):
        assert parse_transform_chain(None) == ()
        assert parse_transform_chain("") == ()
        assert parse_transform_chain("invert, cancel_adjacent") == (
            "invert",
            "cancel_adjacent",
        )
        assert parse_transform_chain(["invert"]) == ("invert",)

    def test_manager_runs_in_order_and_input_untouched(self):
        circ = Circuit("c")
        q = circ.add_register("q", 2)
        circ.t(q[0])
        circ.tdg(q[0])
        circ.ccx(q[0], q[1], circ.add_qubit("t"))
        before = list(circ.ops)
        manager = PassManager("cancel_adjacent,lower_toffoli")
        out = manager.run(circ)
        assert circ.ops == before  # pure: input untouched
        assert manager.names == ("cancel_adjacent", "lower_toffoli")
        names = [op.name for op in out.ops if isinstance(op, Gate)]
        assert "t" not in names and "tdg" not in names  # cancelled first
        assert any(isinstance(op, Measurement) for op in out.ops)  # then lowered

    def test_apply_transforms_empty_chain_is_identity(self):
        circ = Circuit("c")
        circ.add_qubit("q")
        assert apply_transforms(circ, ()) is circ
        assert apply_transforms(circ, None) is circ


class TestInvert:
    def test_invert_adder_is_subtractor(self):
        built = build_adder(4, "cdkpm")
        inv = apply_transforms(built.circuit, ["invert"])
        for x, y in [(3, 10), (7, 0), (15, 15)]:
            fwd = simulate(built.circuit, {"x": x, "y": y}).registers["y"]
            back = simulate(inv, {"x": x, "y": fwd}).registers["y"]
            assert back == y

    def test_invert_recurses_into_conditionals(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        bit = circ.new_bit()
        with circ.capture() as body:
            circ.s(q[0])
            circ.cx(q[0], q[1])
        circ.cond(bit, body)
        inv = apply_transforms(circ, ["invert"])
        (cond,) = inv.ops
        assert isinstance(cond, Conditional)
        assert [op.name for op in cond.body] == ["cx", "sdg"]

    def test_invert_rejects_measurement_based_circuits(self):
        built = build_adder(3, "gidney")
        with pytest.raises(ValueError, match="remark 2.23"):
            apply_transforms(built.circuit, ["invert"])


class TestCancelAdjacent:
    def test_cancels_pairs_and_chains(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.cx(q[0], q[1])
        circ.t(q[2])
        circ.tdg(q[2])
        circ.cx(q[0], q[1])  # exposed after the t/tdg pair cancels
        out = apply_transforms(circ, ["cancel_adjacent"])
        assert out.ops == []

    def test_parametric_pairs_cancel(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cphase(q[0], q[1], 0.75)
        circ.cphase(q[0], q[1], -0.75)
        out = apply_transforms(circ, ["cancel_adjacent"])
        assert out.ops == []

    def test_measurement_is_a_barrier(self):
        circ = Circuit()
        q = circ.add_qubit("q")
        circ.x(q)
        circ.measure(q)
        circ.x(q)
        out = apply_transforms(circ, ["cancel_adjacent"])
        assert len(out.ops) == 3

    def test_non_inverse_neighbours_survive(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cx(q[0], q[1])
        circ.cx(q[1], q[0])
        out = apply_transforms(circ, ["cancel_adjacent"])
        assert len(out.ops) == 2

    def test_recurses_into_mbu_bodies(self):
        circ = Circuit()
        g = circ.add_qubit("g")
        with circ.capture() as body:
            circ.h(g)
            circ.x(g)
            circ.x(g)
            circ.h(g)
        circ.mbu(g, body)
        out = apply_transforms(circ, ["cancel_adjacent"])
        (block,) = out.ops
        assert isinstance(block, MBUBlock)
        assert block.body == ()


class TestInsertMBU:
    """Lemma 4.1 as a rewrite: insert_mbu(reference) == hand-built MBU."""

    def test_gidney_adder_rewrite_is_exact(self):
        hand = build_adder(4, "gidney")
        with reference_emission():
            ref = build_adder(4, "gidney")
        assert not any(isinstance(op, Measurement) for op in ref.circuit.ops)
        rewritten = apply_transforms(ref.circuit, ["insert_mbu"])
        assert rewritten.structurally_equal(hand.circuit)
        assert rewritten.bit_labels == hand.circuit.bit_labels

    def test_modadd_mbu_rewrite_is_exact(self):
        for family in ("cdkpm", "gidney"):
            hand = build_modadd(4, 13, family, mbu=True)
            with reference_emission():
                ref = build_modadd(4, 13, family, mbu=True)
            rewritten = apply_transforms(ref.circuit, ["insert_mbu"])
            assert rewritten.structurally_equal(hand.circuit), family
            assert count_gates(rewritten) == count_gates(hand.circuit)

    @pytest.mark.parametrize("table", sorted(TABLE_SPECS))
    def test_every_table_row_rewrite_matches_hand_built(self, table):
        """Acceptance: for every Table 1-6 row (all variants), insert_mbu on
        the reference emission reproduces the hand-built expected-mode
        counts (and the hand-built op stream)."""
        spec = TABLE_SPECS[table]
        n = 4
        p, a = spec.defaults(n)
        for row in spec.rows:
            for variant, circuit_spec in row.specs(n, p=p, a=a).items():
                hand = build_spec(circuit_spec)
                with reference_emission():
                    ref = build_spec(circuit_spec)
                rewritten = apply_transforms(ref.circuit, ["insert_mbu"])
                assert count_gates(rewritten, "expected") == hand.counts("expected"), (
                    f"{table}/{row.key}/{variant}"
                )
                assert rewritten.structurally_equal(hand.circuit), (
                    f"{table}/{row.key}/{variant}"
                )

    def test_no_markers_is_identity(self):
        built = build_adder(3, "cdkpm")
        out = apply_transforms(built.circuit, ["insert_mbu"])
        assert out.structurally_equal(built.circuit)

    def test_malformed_and_region_rejected(self):
        from repro.circuits import uncompute_label

        circ = Circuit()
        q = circ.add_register("q", 3)
        label = uncompute_label("uncompute-and", q[2])
        circ.begin(label)
        circ.cx(q[0], q[2])  # not a ccx: malformed
        circ.end(label)
        with pytest.raises(ValueError, match="malformed"):
            apply_transforms(circ, ["insert_mbu"])

    def test_unterminated_region_rejected(self):
        from repro.circuits import uncompute_label

        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.begin(uncompute_label("uncompute-and", q[2]))
        circ.ccx(q[0], q[1], q[2])
        with pytest.raises(ValueError, match="unterminated"):
            apply_transforms(circ, ["insert_mbu"])


class TestLowerToffoli:
    def test_counts(self):
        built = build_adder(3, "cdkpm")
        before = count_gates(built.circuit, "expected")
        out = apply_transforms(built.circuit, ["lower_toffoli"])
        after = count_gates(out, "expected")
        ccx = before["ccx"]
        assert after["ccx"] == ccx  # one AND-compute per lowered Toffoli
        assert after["cx"] == before["cx"] + ccx
        assert after["measure"] == before["measure"] + ccx
        assert after["cz"] == before["cz"] + Fraction(ccx, 2)  # expected mode

    def test_adds_one_shared_ancilla(self):
        built = build_adder(3, "cdkpm")
        out = apply_transforms(built.circuit, ["lower_toffoli"])
        assert out.num_qubits == built.circuit.num_qubits + 1

    def test_no_toffoli_no_ancilla(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cx(q[0], q[1])
        out = apply_transforms(circ, ["lower_toffoli"])
        assert out.num_qubits == 2
        assert out.structurally_equal(circ)

    def test_statevector_equivalence_on_superpositions(self):
        """The AND+uncompute lowering is exact as a channel, so it must hold
        on non-basis inputs too (up to global phase per branch)."""
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.h(q[0])
        circ.h(q[1])
        circ.ccx(q[0], q[1], q[2])
        circ.cx(q[2], q[0])
        lowered = apply_transforms(circ, ["lower_toffoli"])
        for outcome in (0, 1):
            sv0 = StatevectorSimulator(circ)
            sv0.run()
            sv1 = StatevectorSimulator(lowered, outcomes=ForcedOutcomes([outcome]))
            sv1.run()
            ref = sv0.register_values()
            got = sv1.register_values()
            # compare amplitudes on the original register (ancilla is |0>)
            assert {k[0] for k in got} == {k[0] for k in ref}
            for key, amp in ref.items():
                matches = [a for k, a in got.items() if k[0] == key[0]]
                assert len(matches) == 1
                assert abs(abs(matches[0]) - abs(amp)) < 1e-9


class TestDecomposeCliffordT:
    def test_ccx_network_is_exact_on_statevector(self):
        import itertools

        import numpy as np

        for value in range(8):
            circ = Circuit()
            q = circ.add_register("q", 3)
            circ.ccx(q[0], q[1], q[2])
            dec = apply_transforms(circ, ["decompose_clifford_t"])
            sv = StatevectorSimulator(dec)
            sv.set_basis_state({"q": value})
            sv.run()
            (key, amp), = sv.register_values().items()
            expected = value ^ (0b100 if (value & 0b011) == 0b011 else 0)
            assert key == (expected,)
            assert abs(amp - 1.0) < 1e-9

    def test_ccz_and_cswap_decompose(self):
        circ = Circuit()
        q = circ.add_register("q", 3)
        circ.ccz(q[0], q[1], q[2])
        circ.cswap(q[0], q[1], q[2])
        dec = apply_transforms(circ, ["decompose_clifford_t"])
        names = {op.name for op in dec.ops}
        assert names <= {"h", "t", "tdg", "cx"}
        # cswap semantics survive: |1,0,1> -> |1,1,0>
        sv = StatevectorSimulator(dec)
        sv.set_basis_state({"q": 0b101})
        sv.run()
        (key, amp), = sv.register_values().items()
        assert key == (0b011,)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_gidney_adder_t_count_matches_formulas(self, n):
        """Acceptance: T-counts equal resources/formulas.py × 7 exactly."""
        built = build_adder(n, "gidney")
        measured = t_count(built)
        toffoli_formula = EXACT_TABLE2["gidney"]["toffoli"].evaluate(n=n)
        assert measured == T_PER_TOFFOLI * toffoli_formula == 7 * n
        assert measured == predicted_t_count(built)

    @pytest.mark.parametrize("n", [2, 4])
    def test_gidney_controlled_adder_t_count_matches_formulas(self, n):
        built = build_controlled_adder(n, "gidney", method="native")
        toffoli_formula = EXACT_TABLE3["gidney"]["toffoli"].evaluate(n=n)
        assert t_count(built) == T_PER_TOFFOLI * toffoli_formula
        assert t_count(built) == predicted_t_count(built)

    def test_t_count_weights_mbu_bodies(self):
        """A Toffoli inside an MBU correction branch costs 3.5 T expected."""
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        assert t_count(built, "expected") == predicted_t_count(built, "expected")
        assert t_count(built, "worst") == predicted_t_count(built, "worst")
        assert t_count(built, "worst") > t_count(built, "expected")


class TestCompiledPrograms:
    def _lanes(self, p, batch):
        xs = [pow(3, i + 1, p) for i in range(batch)]
        ys = [pow(5, i + 1, p) for i in range(batch)]
        return xs, ys

    @pytest.mark.parametrize("family", ["cdkpm", "gidney", "vbe"])
    @pytest.mark.parametrize("tally", [True, False])
    def test_compiled_matches_interpretive(self, family, tally):
        p = 29
        built = build_modadd(5, p, family, mbu=True)
        batch = 192
        xs, ys = self._lanes(p, batch)
        interp = BitplaneSimulator(
            built.circuit, batch=batch, outcomes=RandomOutcomes(11), tally=tally
        )
        interp.set_register("x", xs)
        interp.set_register("y", ys)
        interp.run()
        comp = BitplaneSimulator(
            built.circuit, batch=batch, outcomes=RandomOutcomes(11), tally=tally
        )
        comp.set_register("x", xs)
        comp.set_register("y", ys)
        comp.run_compiled()
        assert comp.get_register("y") == interp.get_register("y")
        assert (comp.planes == interp.planes).all()
        assert (comp.bit_planes == interp.bit_planes).all()
        if tally:
            assert comp.tally == interp.tally

    def test_compiled_via_simulate(self):
        built = build_modadd(4, 13, "gidney", mbu=True)
        ref = simulate(built.circuit, {"x": 5, "y": 9}, backend="bitplane", seed=3)
        out = simulate(
            built.circuit, {"x": 5, "y": 9}, backend="bitplane", seed=3,
            strategy="codegen",
        )
        assert out.registers == ref.registers
        assert out.bits == ref.bits
        assert out.tally == ref.tally

    def test_precompiled_program_reuse(self):
        built = build_modadd(4, 13, "cdkpm", mbu=True)
        program = compile_program(built.circuit, tally=False)
        out = simulate(
            built.circuit,
            {"x": 3, "y": 7},
            backend="bitplane",
            seed=1,
            program=program,
            tally=False,
        )
        assert all(v == 10 for v in out.registers["y"])

    def test_phase_gates_dropped_but_tallied(self):
        circ = Circuit()
        q = circ.add_register("q", 2)
        circ.cx(q[0], q[1])
        circ.cz(q[0], q[1])
        circ.t(q[0])
        program = compile_program(circ, tally=True)
        census = program.counts_static()
        assert census.get("OP_CX") == 1
        assert "OP_CZ" not in census  # no such opcode: phase gates drop
        recorded = [name for names in program.tallies for name in names]
        assert sorted(recorded) == ["cx", "cz", "t"]

    def test_compile_rejects_bare_hadamard(self):
        from repro.sim import UnsupportedGateError

        circ = Circuit()
        circ.h(circ.add_qubit("q"))
        with pytest.raises(UnsupportedGateError):
            compile_program(circ)

    def test_layout_mismatch_rejected(self):
        circ_a = Circuit()
        circ_a.add_register("q", 2)
        circ_b = Circuit()
        circ_b.add_register("q", 3)
        program = compile_program(circ_a)
        sim = BitplaneSimulator(circ_b, batch=8)
        with pytest.raises(ValueError, match="layout"):
            sim.run_compiled(program)

    def test_tally_metadata_mismatch_rejected(self):
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        program = compile_program(built.circuit, tally=False)
        sim = BitplaneSimulator(built.circuit, batch=8, tally=True)
        with pytest.raises(ValueError, match="tally=False"):
            sim.run_compiled(program)

    def test_transforms_and_program_cannot_combine(self):
        built = build_modadd(3, 5, "cdkpm", mbu=True)
        program = compile_program(built.circuit, tally=False)
        with pytest.raises(ValueError, match="not both"):
            simulate(
                built.circuit, {"x": 1, "y": 2}, backend="bitplane",
                transforms=["cancel_adjacent"], program=program, tally=False,
            )

    def test_zero_active_branch_is_jumped(self):
        """A conditional whose bit is never set must leave state untouched
        (and its body instructions unexecuted)."""
        circ = Circuit()
        q = circ.add_register("q", 2)
        bit = circ.new_bit()
        with circ.capture() as body:
            circ.x(q[0])
            circ.x(q[1])
        circ.cond(bit, body)
        sim = BitplaneSimulator(circ, batch=16)
        sim.run_compiled()
        assert sim.get_register("q") == [0] * 16
        tally = sim.tally
        assert tally["x"] == 0


class TestSpecTransforms:
    def test_transform_chain_is_part_of_the_cache_key(self):
        plain = CircuitSpec.make("adder", 4, family="gidney")
        lowered = CircuitSpec.make(
            "adder", 4, family="gidney", transforms=("lower_toffoli",)
        )
        assert plain != lowered
        assert hash(plain) != hash(lowered)
        assert "lower_toffoli" in lowered.key and "lower_toffoli" not in plain.key

    def test_build_spec_applies_transforms(self):
        spec = CircuitSpec.make("adder", 3, family="cdkpm", transforms=("lower_toffoli",))
        built = build_spec(spec)
        plain = build_spec(CircuitSpec.make("adder", 3, family="cdkpm"))
        assert built.circuit.num_qubits == plain.circuit.num_qubits + 1
        assert built.meta["transforms"] == ("lower_toffoli",)
        # the pass-allocated ancilla register counts as an ancilla
        assert built.ancilla_count == plain.ancilla_count + 1

    def test_unknown_transform_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown transform pass"):
            CircuitSpec.make("adder", 3, family="cdkpm", transforms=("nope",))
