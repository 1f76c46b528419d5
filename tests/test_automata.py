"""Determinization, minimization against an independent equivalence-class
oracle, exact counting against brute force, and the bit curve."""

import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import pytest

from pmlang import automata as au
from pmlang import grammar as gr
from pmlang import semantics as sem
from pmlang import square as sq
from pmlang import verify

from nfa_walk import walked


def language_dfa():
    return au.determinize(gr.to_nfa())


def minimal_dfa():
    return au.minimize(language_dfa())


def test_determinize_trivial_universal_nfa():
    state = "only"
    nfa = au.Nfa(
        states=frozenset([state]),
        transitions=frozenset((state, sym, state) for sym in sq.ALPHABET),
        start=state,
        accepting=frozenset([state]),
    )
    dfa = au.determinize(nfa)
    assert dfa.num_states == 1
    assert dfa.dead is None
    assert dfa.accepts(sq.parse_string("A ~A gamma"))


def reference_determinize(nfa):
    """The subset construction over frozensets by ``WalkedNfa.step``, in
    the same discovery order: its delta, accepting ids and dead id."""
    nfa = walked(nfa)
    rows = {}

    def successors(subset):
        rows[subset] = [nfa.step(subset, sym) for sym in sq.ALPHABET]
        return rows[subset]

    order = sem.reachable(successors, frozenset([nfa.start]))
    ids = {subset: i for i, subset in enumerate(order)}
    delta = tuple(tuple(ids[s] for s in rows[subset]) for subset in order)
    accepting = frozenset(i for i, s in enumerate(order) if s & nfa.accepting)
    return delta, accepting, ids.get(frozenset())


def hand_made_nfa():
    """An accepting start, a state that nothing reaches, and symbols with
    no transition, so the empty subset is reached."""
    A, B, c = sq.parse_string("A B c")
    transitions = [
        ("s", A, "a"), ("s", B, "a"), ("s", B, "b"), ("a", A, "s"),
        ("b", c, "b"), ("b", c, "a"), ("u", A, "s"), ("u", c, "u"),
    ]
    return au.Nfa(
        states=frozenset("sabu"),
        transitions=frozenset(transitions),
        start="s",
        accepting=frozenset("sbu"),
    )


@pytest.mark.parametrize("make", [gr.to_nfa, hand_made_nfa])
def test_determinize_matches_the_frozenset_subset_construction(make):
    nfa = make()
    dfa = au.determinize(nfa)
    assert (dfa.delta, dfa.accepting, dfa.dead) == reference_determinize(nfa)
    if make is gr.to_nfa:
        assert (dfa.num_states, dfa.dead) == (164, 19)
    else:  # {s}, {a}, the empty set, {a, b}; "u" is in no subset
        assert (dfa.num_states, dfa.accepting, dfa.dead) == (4, frozenset({0, 3}), 2)


def test_determinize_preserves_the_language():
    dfa = language_dfa()
    assert dfa.accepts(sq.parse_string("A B c ~gamma"))
    assert not dfa.accepts(sq.parse_string("A B c gamma"))
    nfa = walked(gr.to_nfa())

    def successors(node):
        nset, q = node
        return [
            (nfa.step(nset, sym), dfa.delta[q][sym.index]) for sym in sq.ALPHABET
        ]

    start = (frozenset([nfa.start]), dfa.start)
    for layer in sem.layers(successors, start, 4):
        for nset, q in layer:
            assert bool(nset & nfa.accepting) == (q in dfa.accepting)


def test_minimize_is_idempotent():
    m = minimal_dfa()
    again = au.minimize(m)
    assert again.num_states == m.num_states
    assert again.live_state_count == m.live_state_count


def test_minimize_preserves_the_language():
    m = minimal_dfa()

    def successors(node):
        q, state = node
        out = []
        for sym in sq.ALPHABET:
            child = sem.step(state, sym) if state is not None else None
            out.append((m.delta[q][sym.index], child))
        return out

    for layer in sem.layers(successors, (m.start, sem.EMPTY_STATE), 4):
        for q, state in layer:
            assert (q in m.accepting) == (state is not None)


def test_minimize_prunes_merges_and_renumbers_a_hand_built_dfa():
    # 0 start; 1 dead sink; 2 and 3 equivalent accepting states;
    # 4 unreachable.  Symbol 0 leads to 2 and symbol 1 to 3.
    others = (1,) * 16
    dfa = au.Dfa(
        ((2, 3, *others), (1,) * 18, (1,) * 18, (1,) * 18, (0,) * 18),
        start=0,
        accepting=frozenset({2, 3, 4}),
    )
    m = au.minimize(dfa)
    assert m.delta == ((1, 1, *(2,) * 16), (2,) * 18, (2,) * 18)
    assert m.start == 0
    assert m.accepting == frozenset({1})
    assert m.dead == 2


def test_minimize_an_all_accepting_dfa_to_one_state():
    dfa = au.Dfa(
        tuple(((q + 1) % 3,) * 18 for q in range(3)),
        start=0,
        accepting=frozenset(range(3)),
    )
    m = au.minimize(dfa)
    assert m.delta == ((0,) * 18,)
    assert m.accepting == frozenset({0})
    assert m.dead is None


def independent_equivalence_class_count(depth: int) -> int:
    """Count state-equivalence classes of the operational transition
    graph, distinguishing states by the strings of length <= depth they
    accept.  Works on the oracle's own reachable states plus a reject
    sink; never touches the automata code."""
    states = list(sem.reachable_states()) + [None]

    def successor(state, sym):
        if state is None:
            return None
        return sem.step(state, sym)

    signature = {s: (s is not None) for s in states}
    for _ in range(depth):
        keys = {}
        fresh = {}
        for s in states:
            key = (
                signature[s],
                tuple(signature[successor(s, sym)] for sym in sq.ALPHABET),
            )
            if key not in keys:
                keys[key] = len(keys)
            fresh[s] = keys[key]
        signature = fresh
    return len(set(signature.values()))


def test_minimal_size_matches_the_independent_oracle():
    """Expected classes: the empty state, 18 signed singletons, 24
    context assignments, and the reject sink, none of which merge."""
    oracle = independent_equivalence_class_count(depth=5)
    assert oracle == 44
    m = minimal_dfa()
    assert m.num_states == oracle
    assert m.dead is not None
    assert m.live_state_count == 43
    assert len(m.accepting) == 43


def test_count_words_frozen_values():
    report = au.count_words(minimal_dfa(), 6)
    assert report.counts == (1, 18, 306, 4914, 76626, 1175634, 17870706)
    assert report.cumulative[:5] == (1, 19, 325, 5239, 81865)


def test_count_words_matches_brute_force():
    report = au.count_words(minimal_dfa(), 3)
    for n in range(4):
        brute = sum(
            1
            for combo in itertools.product(sq.ALPHABET, repeat=n)
            if sem.is_consistent(combo)
        )
        assert report.counts[n] == brute


def test_counts_are_exact_integers():
    report = au.count_words(minimal_dfa(), 120)
    assert all(isinstance(c, int) for c in report.counts)
    assert report.counts[120] > 10**120  # far beyond any fixed-width integer


def test_growth_rate_settles_at_fifteen():
    report = au.count_words(minimal_dfa(), 200)
    assert report.dominant_rate_estimate == 15.0
    c = report.counts
    tail = [c[n + 1] / c[n] for n in range(150, 200)]
    assert max(tail) - min(tail) < 1e-9


def test_bit_curve():
    report = au.count_words(minimal_dfa(), 200)
    bits = au.hv_bits(report)
    assert bits[0] == 0
    assert all(b <= c for b, c in zip(bits, bits[1:]))
    window = [c - b for b, c in zip(bits, bits[1:])][50:200]
    assert set(window) <= {3, 4}
    rate_bits = math.log2(report.dominant_rate_estimate)
    assert all(abs(d - rate_bits) <= 1 for d in window)
    assert 0 < bits[200] / 200 <= math.log2(18)


def test_count_words_matches_the_dp_at_every_length():
    """The numbers behind the ``counting`` suite's every-length line, up
    to the suite's last length, and a report cut at each side of the 3
    seed terms and of the suite's 47 reference terms."""
    m = minimal_dfa()
    dp = tuple(au._dp_counts(m, verify.COUNT_MAX))
    assert au.count_words(m, verify.COUNT_MAX).counts == dp
    for n in (0, 1, 2, 3, 45, 46, 47, 86, 87, 88, 89, 300):
        assert au.count_words(m, n).counts == dp[: n + 1]


_COUNT_WORDS = au.count_words


def _count_500_off(dfa, n_max, ceiling=None):
    report = _COUNT_WORDS(dfa, n_max, ceiling)
    counts = list(report.counts)
    counts[500] += 1
    return dataclasses.replace(report, counts=tuple(counts))


def _refine_stopping_after_one_round(dfa, signature):
    """``_refine`` whose first round always finds the partition stable,
    so it returns the accepting/rejecting split it started from."""
    reach = sem.reachable(dfa.delta.__getitem__, dfa.start)
    return {q: q in dfa.accepting for q in reach}


@pytest.mark.parametrize(
    "name, broken, details",
    [
        # a count past the 47 DP terms is checked by the recurrence alone
        (
            "count_words",
            _count_500_off,
            ["recurrence [24, -135, 0], agree on 47 >= 44 + 3 terms, 3 mismatches"],
        ),
        # past its L seed terms the report's counts come from the
        # recurrence, so the brute-force line sees a wrong one from
        # length L on: here c_2 = 24 * 18 - 135 * 1 = 297
        (
            "_recurrence",
            lambda dfa: (24, -135),
            [
                "dfa [1, 18, 297, 4698, 72657] vs brute [1, 18, 306, 4914, 76626]",
                "recurrence [24, -135], agree on 46 >= 44 + 2 terms, 44 mismatches",
            ],
        ),
        # one block of 43 accepting states: its representative has 15
        # live successors
        (
            "_refine",
            _refine_stopping_after_one_round,
            [
                "dfa [1, 15, 225, 3375, 50625] vs brute [1, 18, 306, 4914, 76626]",
                "recurrence [15], agree on 45 >= 44 + 1 terms, 44 mismatches",
            ],
        ),
    ],
)
def test_counting_recurrence_line_fails_under_a_mutation(
    monkeypatch, name, broken, details
):
    """The every-length line fails, last, and the suite does not raise."""
    verify.minimal_dfa()  # minimised before ``_refine`` is broken
    monkeypatch.setattr(au, name, broken)
    result = verify.suite_counting(verify.VerifyConfig())
    failed = [c for c in result.checks if not c.passed]
    assert failed[-1].name.endswith("reproduces the DP at every length")
    assert [c.detail for c in failed] == details


def test_derived_recurrence_is_pinned():
    # c_0 = 1 breaks c_n = 24 c_{n-1} - 135 c_{n-2} at n = 2, hence order 3
    assert au.count_words(minimal_dfa(), 0).recurrence == (24, -135, 0)


def _successor_multisets_coarser_than_moore():
    """States 1 and 2 both lead to 3 on one symbol and to 4 on another,
    in the opposite order, and 3 and 4 are not equivalent: Moore keeps 1
    and 2 apart, the counting quotient merges them."""
    dead = 5
    rest = (dead,) * 16
    delta = (
        (1, 2, *rest),
        (3, 4, *rest),
        (4, 3, *rest),
        (3,) * 18,
        (4, *(dead,) * 17),
        (dead,) * 18,
    )
    return au.Dfa(delta, 0, frozenset(range(5)), dead)


def _oracle_table(dead):
    return au.Dfa(sem.DELTA, 0, frozenset(range(sem.CLASH)), dead)


def test_counting_blocks_are_coarser_than_moore_blocks():
    dfa = _successor_multisets_coarser_than_moore()
    moore = au._refine(dfa, tuple)
    counting = au._refine(dfa, lambda succ: tuple(sorted(succ)))
    assert moore[1] != moore[2] and counting[1] == counting[2]
    assert len(set(counting.values())) == len(set(moore.values())) - 1
    assert au.minimize(dfa).num_states == 6


@pytest.mark.parametrize(
    "make, recurrence",
    [
        (lambda: verify._pipeline()[0], (24, -135, 0)),
        (lambda: _oracle_table(sem.CLASH), (24, -135, 0)),
        # the sink stays in the quotient: its block adds the factor x - 18
        (lambda: _oracle_table(None), (42, -567, 2430, 0)),
        # x^2 (x - 1) (x - 18)
        (_successor_multisets_coarser_than_moore, (19, -18, 0, 0)),
    ],
    ids=["subset", "table", "table-without-dead", "multisets"],
)
def test_count_words_matches_the_dp_on_other_dfas(make, recurrence):
    dfa = make()
    report = au.count_words(dfa, 300)
    assert report.recurrence == recurrence
    assert report.counts == tuple(au._dp_counts(dfa, 300))


def test_counts_match_the_closed_form_at_length_1000():
    n = 1000
    report = au.count_words(minimal_dfa(), n)
    assert report.counts[n] == (24 * 15**n - 10 * 9**n) // 15


def _as_str(report):
    return [(str(c), str(s)) for c, s in zip(report.counts, report.cumulative)]


def test_decimal_rows_are_str_of_the_counts_up_to_the_digit_limit():
    # the longest count that `count` prints; str() of its integers needs
    # the limit lifted
    report = au.count_words(minimal_dfa(), 3655)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert list(au.decimal_rows(report)) == _as_str(report)
    finally:
        sys.set_int_max_str_digits(limit)


def test_counts_stop_at_the_first_total_that_reaches_the_ceiling():
    m = minimal_dfa()
    # running totals 1, 19, 325, 5239: the first three are DP seed terms
    for ceiling, last in ((1, 0), (19, 1), (20, 2), (326, 3)):
        stopped = au.count_words(m, 5, ceiling=ceiling)
        assert stopped == au.count_words(m, last)
    full = au.count_words(m, 400)
    first = next(n for n, total in enumerate(full.cumulative) if total >= 10**200)
    stopped = au.count_words(m, 400, ceiling=10**200)
    assert stopped == au.count_words(m, first)
    assert au.count_words(m, 400, ceiling=full.cumulative[-1] + 1) == full


def test_decimal_rows_shorter_than_the_recurrence():
    m = minimal_dfa()
    for n in range(4):
        report = au.count_words(m, n)
        assert list(au.decimal_rows(report)) == _as_str(report)


def test_dominant_rate_estimate_is_the_correctly_rounded_last_ratio():
    m = minimal_dfa()
    for n in (1, 2, 88, 200):
        report = au.count_words(m, n)
        c = report.counts
        assert report.dominant_rate_estimate == float(Fraction(c[n], c[n - 1]))
    assert au.count_words(m, 0).dominant_rate_estimate is None
    assert au.count_words(m, 5, ceiling=1).dominant_rate_estimate is None
    # words of even length: no ratio to a count of 0
    even = au.Dfa(((1,) * 18, (0,) * 18), 0, frozenset({0}))
    assert au.count_words(even, 2).counts == (1, 0, 324)
    assert au.count_words(even, 2).dominant_rate_estimate is None


def test_count_words_rejects_negative_length():
    with pytest.raises(ValueError):
        au.count_words(minimal_dfa(), -1)


def test_minimal_dfa_matches_oracle_on_random_strings():
    import random

    rng = random.Random(90125)
    m = minimal_dfa()
    for _ in range(5000):
        w = tuple(
            rng.choice(sq.ALPHABET) for _ in range(rng.randint(0, 12))
        )
        assert m.accepts(w) == sem.is_consistent(w)


def test_dot_output():
    m = minimal_dfa()
    dot = au.to_dot(m, {q: f"s{q}" for q in m.states})
    assert dot.startswith("digraph dfa {")
    assert "doublecircle" in dot
    assert dot.count("->") >= m.num_states  # edges present
    assert 'label="s0"' in dot


def test_shortest_words_reach_every_state():
    m = minimal_dfa()
    words = au.shortest_words(m)
    assert set(words) == set(m.states)
    for state, word in words.items():
        assert m.run(word) == state
