"""The operational oracle: the four-step worked sequence, the shape of
determination states, and the closure properties of consistency."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
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


def test_table_is_an_equitable_partition_by_determined_count():
    """Grouped by how many observables they determine (0, 1 or 3), every
    state of a group has the same number of successors in each group and
    the same number of clashes."""
    groups = [sum(map(bool, s.values)) for s in sem.reachable_states()]
    assert len(sem.DELTA) == 43 + 1
    assert Counter(groups) == {0: 1, 1: 18, 3: 24}
    expected = {0: {1: 18}, 1: {1: 9, 3: 8, "clash": 1}, 3: {3: 15, "clash": 3}}
    for q, row in enumerate(sem.DELTA[: sem.CLASH]):
        into = Counter("clash" if r == sem.CLASH else groups[r] for r in row)
        assert into == expected[groups[q]], q
    digest = hashlib.sha256(repr(sem.DELTA).encode()).hexdigest()
    assert digest.startswith("d21d69baa6ada101")


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


def test_transition_cover_takes_each_live_edge_once():
    """The spot checks' strings are a transition cover of the oracle:
    one string per consistent edge q -s-> r, a shortest string to q
    followed by s.  504 of the 684 end in a context-determining state."""
    depth = {}
    for k, layer in enumerate(sem.layers(sem.live, 0, 6)):
        for q in layer:
            depth.setdefault(q, k)
    assert len(depth) == sem.CLASH
    ids = {state: q for q, state in enumerate(sem.reachable_states())}
    cover = verify._transition_cover()
    edges = Counter()
    for w in cover:
        q = ids[sem.final_state(w[:-1])]
        assert len(w) - 1 == depth[q]
        edges[q, w[-1].index] += 1
    live = {
        (q, k)
        for q, row in enumerate(sem.DELTA[: sem.CLASH])
        for k, r in enumerate(row)
        if r != sem.CLASH
    }
    assert len(cover) == 684
    assert set(edges) == live and set(edges.values()) == {1}
    determining = [w for w in cover if sem.determined_context(sem.final_state(w))]
    assert len(determining) == 504


def test_all_length_invariant_line_catches_a_repeat_that_clashes(monkeypatch):
    """In a copy of the table, repeating A after A clashes.  The line over
    every edge of the table fails, and so does the random repetition
    line, while prefix closure still holds."""
    a = sq.signed("A", 1).index
    delta = [list(row) for row in sem.DELTA]
    delta[delta[0][a]][a] = sem.CLASH
    monkeypatch.setattr(sem, "DELTA", tuple(map(tuple, delta)))
    cfg = verify.VerifyConfig(invariant_len=2, random_strings=2000)
    prefix, repeat, table = verify.suite_invariants(cfg).checks[-3:]
    assert prefix.passed and not repeat.passed
    assert not table.passed
    assert table.detail == "683 edges, 9 violations"


def test_random_folds_work_in_fixed_blocks():
    """The random folds hold one block of strings at a time, so their
    memory does not grow with the number of strings; one draw of
    50,000 x 12 symbols alone would take 4.8 MB."""
    into_clash = [[r == sem.CLASH for r in row] for row in sem.DELTA]
    # load numpy before tracing, so that only the folds are measured
    one = verify.VerifyConfig(random_strings=1)
    verify._random_folds(one, 1, sem.DELTA, into_clash)
    cfg = verify.VerifyConfig(random_strings=50_000)
    tracemalloc.start()
    try:
        verify._random_folds(cfg, 1, sem.DELTA, into_clash)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_random_folds_equal_a_symbol_by_symbol_fold(monkeypatch):
    """The bulk folds draw the same strings as one length per string and
    then one symbol column per step, and count the same flagged strings."""
    delta = sem.DELTA
    sevens = [
        [(q + s + r) % 7 == 0 for s, r in enumerate(row)] for q, row in enumerate(delta)
    ]
    checks = [[[r == sem.CLASH for r in row] for row in delta], sevens]
    symbols = len(sq.ALPHABET)
    for strings, max_len, seed in [(5000, 30, 1), (4097, 9, 2), (3, 17, 3), (7, 0, 4)]:
        rng = np.random.default_rng(seed)
        expected = [0, 0]
        for done in range(0, strings, verify._FOLD_BLOCK):
            size = min(verify._FOLD_BLOCK, strings - done)
            lengths = rng.integers(0, max_len, size, endpoint=True).tolist()
            columns = [rng.integers(0, symbols, size).tolist() for _ in range(max_len)]
            for i, length in enumerate(lengths):
                q, hit = 0, [False, False]
                for t in range(length):
                    s = columns[t][i]
                    hit = [h or check[q][s] for h, check in zip(hit, checks)]
                    q = delta[q][s]
                expected = [e + h for e, h in zip(expected, hit)]
        monkeypatch.setattr(verify, "RANDOM_MAX_LEN", max_len)
        cfg = verify.VerifyConfig(random_strings=strings)
        assert verify._random_folds(cfg, seed, delta, *checks) == expected
        assert strings < 10 or 0 < expected[1] < strings


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
