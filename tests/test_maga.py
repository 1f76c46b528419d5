"""Memory-factoring machines: classification, the disagreement table,
pigeonhole refutations, the sharp reference machine, the recognizer
adapter, and the qubit-scaling formulas."""

import dataclasses
import itertools
import math

import pytest

from pmlang import automata as au
from pmlang import grammar as gr
from pmlang import maga
from pmlang import semantics as sem
from pmlang import square as sq
from pmlang import verify


def test_twenty_four_classes():
    triples = maga.all_class_triples()
    assert len(triples) == 24
    assert len(set(triples)) == 24
    for t in triples:
        assignment = t.full_assignment()
        prod = 1
        for obs in t.context.members:
            prod *= assignment[obs]
        assert prod == t.context.sign


def test_every_class_handed_out_is_one_of_the_interned_triples():
    """Classes compare by identity, so classify() and class_of() may
    return only the objects of all_class_triples()."""
    triples = maga.all_class_triples()
    for rep, t in zip(maga.representatives(), triples):
        assert maga.classify(rep) is t
    seen = set()
    for s in sem.reachable_states():
        t = maga.class_of(s)
        assert t is None or t in triples  # by identity
        assert maga.class_of(sem.DeterminationState(s.values)) is t
        seen.add(t)
    assert seen - {None} == set(triples)
    t = triples[0]
    assert maga.ClassTriple(t.context, t.first_value, t.second_value) != t


def test_classify_examples():
    t = maga.classify("A B")
    assert t.context.name == "row0" and (t.first_value, t.second_value) == (1, 1)
    t = maga.classify("C gamma")
    assert t.context.name == "col2" and (t.first_value, t.second_value) == (1, -1)


def test_classify_rejects_non_context_strings():
    with pytest.raises(ValueError):
        maga.classify("A")
    with pytest.raises(ValueError):
        maga.classify("")
    with pytest.raises(ValueError):
        maga.classify("A ~A")


def test_classify_is_total_and_onto_up_to_length_three():
    seen = set()
    for n in range(1, 4):
        for combo in itertools.product(sq.ALPHABET, repeat=n):
            state = sem.final_state(combo)
            if state is None or sem.determined_context(state) is None:
                continue
            seen.add(maga.classify(combo))
    assert seen == set(maga.all_class_triples())


def test_representatives():
    reps = maga.representatives()
    triples = maga.all_class_triples()
    assert len(reps) == 24
    assert len(set(reps)) == 24
    for rep, triple in zip(reps, triples):
        assert len(rep) == 2
        assert sem.is_consistent(rep)
        assert maga.classify(rep) == triple
    assert sq.format_string(reps[0]) == "A B"


def test_disagreement_claim():
    report = maga.verify_disagreement_claim()
    assert report.complete
    assert report.pair_count == 276
    by_pair = {(w.left, w.right): w.observable for w in report.witnesses}
    triples = maga.all_class_triples()
    # same context, different first value: the first member witnesses
    same_ctx = by_pair[(triples[0], triples[2])]
    assert same_ctx.name == "A"
    # different contexts: the witness is determined by one side only
    cross = by_pair[(triples[0], triples[4])]
    left, right = maga.representatives()[0], maga.representatives()[4]
    lv = sem.final_state(left).value_of(cross)
    rv = sem.final_state(right).value_of(cross)
    assert (lv is None) != (rv is None) or lv != rv


def test_reference_machine_is_certified():
    verdict = maga.lower_bound_check(maga.reference_maga_plus())
    assert verdict.certified
    assert verdict.distinct_memory_states == 24
    assert verdict.counterexample is None


def test_merged_machines_are_refuted():
    verdict = maga.lower_bound_check(maga.merged_reference_maga(0, 5))
    assert not verdict.certified
    assert verdict.distinct_memory_states == 23
    witness = verdict.counterexample
    assert witness is not None
    assert witness.left_required != witness.right_required
    assert maga.classify(witness.left_string) == witness.left
    assert maga.classify(witness.right_string) == witness.right


def test_every_pairwise_merge_is_refuted():
    for i, j in itertools.combinations(range(24), 2):
        verdict = maga.lower_bound_check(maga.merged_reference_maga(i, j))
        assert not verdict.certified, (i, j)
        assert verdict.counterexample is not None


def test_any_injection_of_the_classifier_is_certified():
    """Relabelling the 24 classes injectively cannot lose states."""
    triples = maga.all_class_triples()
    relabel = {t: f"cell-{i}" for i, t in enumerate(triples)}
    machine = maga.MagaSpec(
        memory_states=tuple(relabel.values()),
        m0=lambda w, s: (relabel[maga.classify(w)], s),
        m1=lambda q, s: maga.RANDOM_OUTCOME,
    )
    verdict = maga.lower_bound_check(machine)
    assert verdict.certified
    assert verdict.distinct_memory_states == 24


def test_memory_factoring_contract_is_enforced():
    machine = maga.reference_maga_plus()
    machine.m0 = lambda w, s: (maga.classify(w), sq.OBSERVABLES[0])
    with pytest.raises(maga.MemoryFactoringError):
        machine.output(maga.representatives()[3], sq.OBSERVABLE_BY_NAME["b"])


def test_reference_machine_examples():
    machine = maga.reference_maga_plus()
    w = sq.parse_string("A B")
    assert machine.output(w, sq.OBSERVABLE_BY_NAME["C"]) == 1
    assert machine.output(w, sq.OBSERVABLE_BY_NAME["a"]) == maga.RANDOM_OUTCOME


def test_reference_machine_matches_oracle_up_to_length_three():
    machine = maga.reference_maga_plus()
    for n in range(1, 4):
        for combo in itertools.product(sq.ALPHABET, repeat=n):
            state = sem.final_state(combo)
            if state is None or sem.determined_context(state) is None:
                continue
            for obs in sq.OBSERVABLES:
                assert machine.output(combo, obs) == maga.expected_output(
                    combo, obs
                )


def minimal_dfa():
    return au.minimize(au.determinize(gr.to_nfa()))


def test_adapter_from_minimal_dfa():
    recognizer = maga.mara_from_dfa(minimal_dfa())
    assert len(recognizer.memory_states) == 43
    machine = maga.mara_to_maga(recognizer)
    assert len(machine.memory_states) == 43**2
    for n in range(3):
        for combo in itertools.product(sq.ALPHABET, repeat=n):
            if not sem.is_consistent(combo):
                continue
            for obs in sq.OBSERVABLES:
                assert machine.output(combo, obs) == maga.expected_output(
                    combo, obs
                )


def test_adapter_all_length_line_catches_a_redirected_transition(monkeypatch):
    """Send the start state's edge on A to where ~A leads.  A sweep over
    the empty string alone still passes; the check over every reachable
    (DFA state, oracle state) pair fails, so it is not vacuous."""
    dfa = verify.minimal_dfa()
    row = list(dfa.delta[dfa.start])
    row[sq.signed("A", 1).index] = row[sq.signed("A", -1).index]
    delta = dfa.delta[: dfa.start] + (tuple(row),) + dfa.delta[dfa.start + 1 :]
    broken = dataclasses.replace(dfa, delta=delta)
    monkeypatch.setattr(verify, "minimal_dfa", lambda: broken)
    suite = verify.suite_adapter(verify.VerifyConfig(exhaustive_len=0))
    bounded, all_length = suite.checks[2:]
    assert bounded.passed and bounded.detail == "1 strings x 9 observables, 0 wrong"
    assert not all_length.passed
    assert "pairs x 9 observables, 0 wrong" not in all_length.detail


def test_adapter_rejected_both_extensions_is_an_error():
    broken = maga.MaraSpec(
        memory_states=("q",),
        m0=lambda w, t: "q",
        m1=lambda q, t: False,
    )
    machine = maga.mara_to_maga(broken)
    with pytest.raises(maga.RecognizerContractError):
        machine.output((), sq.OBSERVABLE_BY_NAME["A"])


def test_scaling_report_values():
    assert maga.scaling_report(1).lower_bound == 6
    assert maga.scaling_report(2).lower_bound == 60
    assert maga.scaling_report(3).lower_bound == 1080
    r1 = maga.scaling_report(1)
    assert r1.density == pytest.approx(math.log2(6), abs=1e-12)
    assert r1.density_floor == 2.0
    assert r1.context_size == 2 and r1.contexts == 3


def test_scaling_invariants_up_to_64_qubits():
    previous_gap = None
    for n in range(1, 65):
        r = maga.scaling_report(n)
        assert r.lower_bound >= r.simplified_bound
        assert r.density >= r.density_floor
        assert r.density > 1.0
        assert r.violates_holevo
        if previous_gap is not None:
            assert r.density_gap <= previous_gap + 1e-12
        previous_gap = r.density_gap
    assert previous_gap > 0


def test_running_product_matches_each_report():
    assert list(maga.scaling_reports(80)) == [
        maga.scaling_report(n) for n in range(1, 81)
    ]


def test_bounds_suite_details_and_a_rising_gap(monkeypatch):
    details = [c.detail for c in verify.suite_bounds(verify.VerifyConfig()).checks]
    assert details[2:4] == [
        "density(1) = 2.5850",
        "gap(1) = 0.5850, gap(64) = 1.96e-02",
    ]
    # lowering one floor makes the gap rise once: only that line fails
    reports = list(maga.scaling_reports(5))
    r = reports[3]
    reports[3] = dataclasses.replace(r, density_floor=r.density_floor - 0.5)
    monkeypatch.setattr(maga, "scaling_reports", lambda n: iter(reports[:n]))
    monkeypatch.setattr(verify, "QUBITS_MAX", 5)
    result = verify.suite_bounds(verify.VerifyConfig())
    assert [c.passed for c in result.checks] == [True, True, True, False, True]


def test_gap_line_catches_an_inflated_bound(monkeypatch):
    """The gap line reads the bounds as integers, so a context count and
    bound twice too large at one n fail it, though the report's float
    density, and so its gap, is unchanged."""
    reports = list(maga.scaling_reports(verify.QUBITS_MAX))
    r = reports[9]
    reports[9] = dataclasses.replace(
        r, contexts=2 * r.contexts, lower_bound=2 * r.lower_bound
    )
    monkeypatch.setattr(maga, "scaling_reports", lambda n: iter(reports[:n]))
    result = verify.suite_bounds(verify.VerifyConfig())
    assert [c.passed for c in result.checks] == [True, True, True, False, True]


def test_scaling_rejects_nonpositive_qubits():
    with pytest.raises(ValueError):
        maga.scaling_report(0)


def test_square_bound_and_two_qubit_bound_are_both_reported():
    """The direct pigeonhole bound for the square is 24; the scaled
    formula at two qubits gives 60 because it counts 15 contexts, not
    the square's 6.  Both are exposed, neither is altered."""
    assert maga.SQUARE_LOWER_BOUND == 24
    assert maga.scaling_report(2).lower_bound == 60
