"""The operational oracle: the four-step worked sequence, the shape of
determination states, and the closure properties of consistency."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlang import semantics as sem
from pmlang import square as sq
from pmlang import verify

A = sq.OBSERVABLE_BY_NAME["A"]
B = sq.OBSERVABLE_BY_NAME["B"]
C = sq.OBSERVABLE_BY_NAME["C"]
GAMMA = sq.OBSERVABLE_BY_NAME["gamma"]


def states_of(text):
    return [st.describe() for st in sem.trace(text).states]


def test_initial_state_is_empty():
    state = sem.EMPTY_STATE
    assert state.is_empty
    assert state.value_of(A) is None


def test_every_single_measurement_is_consistent():
    for sym in sq.ALPHABET:
        assert sem.is_consistent((sym,))


def test_four_step_sequence():
    assert states_of("A B c") == [
        "A=+1",
        "A=+1 B=+1 C=+1",
        "C=+1 c=+1 gamma=-1",
    ]
    clash = sem.trace("A B c gamma")
    assert clash.failed_at == 3
    assert not clash.consistent
    assert sem.is_consistent("A B c ~gamma")
    assert sem.is_consistent("")


def test_context_completion_after_two_row_measurements():
    state = sem.final_state("A B")
    assert state.determined == {A: 1, B: 1, C: 1}


def test_incompatible_measurement_erases():
    state = sem.final_state("A b")
    assert state.describe() == "b=+1"


def test_predicted_values():
    after_ab = sem.final_state("A B")
    assert after_ab.value_of(C) == 1
    assert sem.final_state("A").value_of(B) is None
    assert sem.final_state("A B c").value_of(A) is None


def test_determined_context():
    assert sem.determined_context(sem.EMPTY_STATE) is None
    ctx, values = sem.determined_context(sem.final_state("A B"))
    assert ctx.name == "row0" and values == (1, 1, 1)
    ctx, values = sem.determined_context(sem.final_state("A B c"))
    assert ctx.name == "col2" and values == (1, 1, -1)


def test_agree():
    assert sem.agree("A", "A", A)
    assert not sem.agree("A B", "A ~B", C)
    assert sem.agree("A", "b", GAMMA)  # both undetermined
    with pytest.raises(ValueError):
        sem.agree("A ~A", "A", A)


def test_step_is_a_verdict_not_an_exception():
    assert sem.step(sem.final_state("A"), sq.signed("A", -1)) is None


def test_reachable_state_census():
    """Empty state, 18 signed singletons, 24 context assignments."""
    states = sem.reachable_states()
    assert len(states) == 43
    sizes = [len(s.determined) for s in states]
    assert sizes.count(0) == 1
    assert sizes.count(1) == 18
    assert sizes.count(3) == 24
    assert all(sem.state_is_well_formed(s) for s in states)


def rule_fold(symbols):
    """The final state by ``step`` alone, or None after a clash."""
    state = sem.EMPTY_STATE
    for sym in symbols:
        state = sem.step(state, sym)
        if state is None:
            return None
    return state


def test_table_is_the_step_rule():
    """Ids are BFS positions from the empty state under ``step``, and
    each table entry is ``step``'s successor, or the sink on a clash."""
    def rule_successors(state):
        return [r for s in sq.ALPHABET if (r := sem.step(state, s)) is not None]

    states = sem.reachable_states()
    assert sem.reachable(rule_successors, sem.EMPTY_STATE) == states
    assert len(states) == sem.CLASH == 43
    assert len(sem.DELTA) == 44
    assert sem.DELTA[sem.CLASH] == (sem.CLASH,) * 18
    for q, state in enumerate(states):
        for sym in sq.ALPHABET:
            successor = sem.step(state, sym)
            expected = sem.CLASH if successor is None else states.index(successor)
            assert sem.DELTA[q][sym.index] == expected


def test_folds_agree_with_step_on_random_strings():
    rng = random.Random(20240817)
    consistent = 0
    for _ in range(2000):
        w = tuple(rng.choice(sq.ALPHABET) for _ in range(rng.randint(0, 16)))
        expected = rule_fold(w)
        consistent += expected is not None
        assert sem.final_state(w) is expected
        assert sem.is_consistent(w) == (expected is not None)
        traced = sem.trace(w)
        assert traced.final is expected
        assert traced.failed_at == (None if expected else len(traced.states))
    assert 200 < consistent < 1800  # both verdicts are exercised


def test_equal_symbols_and_states_hash_equal():
    for sym in sq.ALPHABET:
        obs = sq.Observable(sym.obs.name, sym.obs.row, sym.obs.col)
        twin = sq.SignedSymbol(obs, sym.value)
        assert twin is not sym
        assert twin == sym and hash(twin) == hash(sym)
        assert sem.step(sem.EMPTY_STATE, twin) == sem.step(sem.EMPTY_STATE, sym)
    assert sq.SignedSymbol(A, 1) != sq.SignedSymbol(A, -1)
    for state in sem.reachable_states():
        twin = sem.DeterminationState(state.values)
        assert twin is not state
        assert twin == state and hash(twin) == hash(state)
        assert all(sem.step(twin, sym) is sem.step(state, sym) for sym in sq.ALPHABET)


def test_rank_sampler_matches_a_lexicographic_listing():
    """The spot checks' sampler rebuilds strings from their rank; it
    must pick what one draw per kept string picks from a brute-force
    listing in lexicographic order, a prefix before its extensions."""
    listing = sorted(
        (
            w
            for n in range(4)
            for w in itertools.product(sq.ALPHABET, repeat=n)
            if sem.is_consistent(w)
        ),
        key=lambda w: [s.index for s in w],
    )
    assert Counter(map(len, listing)) == {0: 1, 1: 18, 2: 306, 3: 4914}
    for keep in (lambda s: True, lambda s: sem.determined_context(s) is not None):
        kept = [w for w in listing if keep(sem.final_state(w))]
        for seed in (1, 2, 3):
            draws = random.Random(seed)
            expected = [w for w in kept if draws.random() < 0.002]
            rng = random.Random(seed)
            assert list(verify._sample_strings(3, keep, rng)) == expected
            assert expected and rng.random() == draws.random()


def test_exhaustive_walk_depth_three():
    """Well-formedness and context persistence over all consistent
    strings of length up to three."""
    states = sem.reachable_states()

    def successors(node):
        q, _ = node
        has_context = sem.determined_context(states[q]) is not None
        return [(r, has_context) for r in sem.live(q)]

    for layer in sem.layers(successors, (0, False), 3):
        for q, had_context in layer:
            assert sem.state_is_well_formed(states[q])
            if had_context:
                assert sem.determined_context(states[q]) is not None


def test_well_formed_exactly_on_the_reachable_states():
    """Of all 3^9 value assignments, the invariant admits exactly the 43
    reachable states: a wrong sign, a partial context or a fourth value
    is refused."""
    admitted = {
        values
        for values in itertools.product((0, 1, -1), repeat=9)
        if sem.state_is_well_formed(sem.DeterminationState(values))
    }
    assert admitted == {s.values for s in sem.reachable_states()}


# -- property-based checks ------------------------------------------------

tokens = st.sampled_from(sq.ALPHABET)


@st.composite
def consistent_strings(draw, max_len=10):
    """Random consistent strings built by walking consistent continuations."""
    length = draw(st.integers(0, max_len))
    out = []
    state = sem.EMPTY_STATE
    for _ in range(length):
        options = [s for s in sq.ALPHABET if sem.step(state, s) is not None]
        sym = draw(st.sampled_from(options))
        out.append(sym)
        state = sem.step(state, sym)
    return tuple(out)


@given(st.lists(tokens, max_size=10))
@settings(max_examples=300)
def test_prefix_closure(symbols):
    """Every prefix of the maximal consistent prefix is consistent."""
    state = sem.EMPTY_STATE
    good = 0
    for sym in symbols:
        nxt = sem.step(state, sym)
        if nxt is None:
            break
        state = nxt
        good += 1
    prefix = tuple(symbols[:good])
    for k in range(good + 1):
        assert sem.is_consistent(prefix[:k])


@given(consistent_strings())
@settings(max_examples=300)
def test_repetition_of_last_token(w):
    if w:
        assert sem.is_consistent(w + (w[-1],))


@given(consistent_strings())
@settings(max_examples=300)
def test_states_stay_well_formed(w):
    state = sem.final_state(w)
    assert state is not None
    assert sem.state_is_well_formed(state)


@given(consistent_strings(), consistent_strings())
@settings(max_examples=200)
def test_agree_is_symmetric(u, v):
    for obs in sq.OBSERVABLES:
        assert sem.agree(u, v, obs) == sem.agree(v, u, obs)
