"""The grammar: schema instantiation counts against an independent
combinatorial enumeration, witness derivations, derivation shape
properties, and agreement with the operational oracle."""

import dataclasses
import hashlib
import io
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlang import automata as au
from pmlang import cli
from pmlang import grammar as gr
from pmlang import semantics as sem
from pmlang import square as sq
from pmlang import verify

from nfa_walk import walked


def test_schema_counts_match_independent_enumeration():
    """Re-derive every schema count from raw grid coordinates only."""
    cells = [(r, c) for r in range(3) for c in range(3)]
    symbols = [(cell, v) for cell in cells for v in (1, -1)]

    def share(p, q):
        return p[0] == q[0] or p[1] == q[1]

    def third_cell(p, q):
        line = (
            [(p[0], k) for k in range(3)]
            if p[0] == q[0]
            else [(k, p[1]) for k in range(3)]
        )
        return next(cell for cell in line if cell != p and cell != q)

    pairs = [
        (x, y)
        for x in symbols
        for y in symbols
        if x[0] != y[0] and share(x[0], y[0])
    ]
    expected = {
        "empty-word": 1,
        "first-symbol": len(symbols),
        "single-stop": len(symbols),
        "single-repeat": len(symbols),
        "single-switch": sum(
            1
            for x in symbols
            for z in symbols
            if x[0] != z[0] and not share(x[0], z[0])
        ),
        "single-extend": len(pairs),
        "pair-stop": len(pairs),
        "pair-repeat": len(pairs),
        "pair-swap": len(pairs),
        "pair-third": len(pairs),
        "pair-branch-last": sum(
            1
            for x, y in pairs
            for z in symbols
            if z[0] != y[0]
            and share(z[0], y[0])
            and z[0] != x[0]
            and not share(z[0], x[0])
        ),
        "pair-branch-third": sum(
            1
            for x, y in pairs
            for u in symbols
            for t in [third_cell(x[0], y[0])]
            if u[0] != t
            and share(u[0], t)
            and not share(u[0], x[0])
            and not share(u[0], y[0])
            and u[0] != x[0]
            and u[0] != y[0]
        ),
        "pair-branch-prior": sum(
            1
            for x, y in pairs
            for w in symbols
            if w[0] != x[0]
            and share(w[0], x[0])
            and w[0] != y[0]
            and not share(w[0], y[0])
        ),
    }
    g = gr.build_grammar()
    assert Counter(rule.schema for rule in g.rules) == expected
    assert len(g.rules) == sum(expected.values()) == 2647
    assert len(g.symbols) == 1 + 18 + len(pairs) == 163


def test_start_rules():
    g = gr.build_grammar()
    starts = [r for r in g.rules if r.lhs is gr.START]
    assert len(starts) == 19  # one per signed symbol plus the empty word
    assert sum(1 for r in starts if r.rhs is None and r.emitted is None) == 1
    singles = {r.rhs for r in starts if r.rhs is not None}
    assert singles == {gr.single(x) for x in sq.ALPHABET}


def test_every_symbol_of_the_grammar_is_the_interned_one():
    """Symbols compare by identity, so the grammar may hold only the
    objects that START, single() and pair() return."""
    g = gr.build_grammar()

    def interned(sym):
        if sym.is_start:
            return gr.START
        if sym.is_single:
            return gr.single(sym.promised)
        return gr.pair(sym.prior, sym.promised)

    for sym in g.symbols:
        assert sym is interned(sym)
    for rule in g.rules:
        assert rule.lhs is interned(rule.lhs)
        assert rule.rhs is None or rule.rhs is interned(rule.rhs)
    x = sq.signed("A", 1)
    assert gr.GeneratingSymbol(None, x) != gr.single(x)  # a twin is another symbol


def test_contains_the_reference_rule_instance():
    g = gr.build_grammar()
    lhs = gr.pair(sq.signed("C", 1), sq.signed("c", 1))
    rhs = gr.pair(sq.signed("c", 1), sq.signed("gamma", -1))
    assert any(
        r.lhs == lhs and r.emitted == sq.signed("c", 1) and r.rhs == rhs
        for r in g.rules
    )


def test_reference_derivation():
    witness = gr.derive_membership("A B c ~gamma")
    assert witness is not None
    assert len(witness.steps) == 5
    assert list(witness.forms()) == [
        "[A]",
        "A [A B]",
        "A B [C c]",
        "A B c [c ~gamma]",
        "A B c ~gamma",
    ]
    assert sq.format_string(witness.string) == "A B c ~gamma"


def test_clashing_string_has_no_derivation():
    assert gr.derive_membership("A B c gamma") is None
    assert gr.derive_membership("A ~A") is None


def test_empty_derivation():
    witness = gr.derive_membership("")
    assert len(witness.steps) == 1
    assert witness.steps[0].schema == "empty-word"
    assert list(witness.forms()) == ["lambda"]


def test_single_token_derivations():
    for sym in sq.ALPHABET:
        witness = gr.derive_membership((sym,))
        assert witness is not None and len(witness.steps) == 2


def test_nfa_shape():
    nfa = walked(gr.to_nfa())
    g = gr.build_grammar()
    assert len(nfa.states) == len(g.symbols) + 1
    assert nfa.accepts(sq.parse_string("A"))
    assert nfa.accepts(sq.parse_string("A B c ~gamma"))
    assert not nfa.accepts(sq.parse_string("A B c gamma"))
    assert nfa.accepts(())


def test_only_the_empty_word_rule_accepts_the_empty_string():
    g = gr.build_grammar()
    pruned = gr.Grammar(
        g.symbols, tuple(r for r in g.rules if r.schema != "empty-word")
    )
    nfa = walked(gr.to_nfa(pruned))
    assert walked(gr.to_nfa()).accepts(())
    assert not nfa.accepts(())
    assert nfa.accepts(sq.parse_string("A B c ~gamma"))


def test_grammar_matches_oracle_up_to_length_three():
    nfa = walked(gr.to_nfa())
    for n in range(4):
        for combo in itertools.product(sq.ALPHABET, repeat=n):
            assert nfa.accepts(combo) == sem.is_consistent(combo), combo


def test_branch_through_prior_symbol_is_required():
    """Without the schema that opens a new context through the earlier
    recorded symbol, consistent strings like "A B a" become underivable:
    from the [A B] family one can branch through B or through the
    completed third value C, but not back through A."""
    g = gr.build_grammar()
    pruned = gr.Grammar(
        g.symbols,
        tuple(r for r in g.rules if r.schema != "pair-branch-prior"),
    )
    nfa = walked(gr.to_nfa(pruned))
    w = sq.parse_string("A B a")
    assert sem.is_consistent(w)
    assert not nfa.accepts(w)
    assert gr.derive_membership(w, pruned) is None
    assert gr.derive_membership(w) is not None


def test_each_grammar_searches_its_own_rules():
    """The rule tables belong to each Grammar: a derivation in the full
    grammar first leaves a pruned one's answer unchanged."""
    g = gr.build_grammar()
    pruned = gr.Grammar(
        g.symbols,
        tuple(r for r in g.rules if r.schema != "pair-branch-prior"),
    )
    w = sq.parse_string("A B a")
    assert gr.derive_membership(w) is not None
    assert gr.derive_membership(w, pruned) is None
    assert gr.derive_membership(w) is not None


def test_pair_symbols_mark_exactly_the_context_determining_promises():
    """A reachable generating symbol is a pair exactly when consuming
    its promised symbol leaves a full context determined."""
    nfa = walked(gr.to_nfa())
    for n in range(3):
        for combo in itertools.product(sq.ALPHABET, repeat=n):
            reached = nfa.run(combo)
            for symbol in reached:
                if not isinstance(symbol, gr.GeneratingSymbol) or symbol.is_start:
                    continue
                extended = sem.final_state(combo + (symbol.promised,))
                assert extended is not None
                has_context = sem.determined_context(extended) is not None
                assert symbol.is_pair == has_context


tokens = st.sampled_from(sq.ALPHABET)


@st.composite
def consistent_strings(draw, max_len=8):
    length = draw(st.integers(0, max_len))
    out = []
    state = sem.EMPTY_STATE
    for _ in range(length):
        options = [s for s in sq.ALPHABET if sem.step(state, s) is not None]
        sym = draw(st.sampled_from(options))
        out.append(sym)
        state = sem.step(state, sym)
    return tuple(out)


@given(consistent_strings())
@settings(max_examples=200)
def test_derivations_are_monotone_and_keep_pairs(w):
    """The first rule leaves the start symbol without emitting; each
    later one leaves the symbol the one before led to and emits the
    next token; the last leads nowhere; and once a rule leads to a
    pair, every later one does until the last."""
    witness = gr.derive_membership(w)
    assert witness is not None and witness.string == w
    steps = witness.steps
    assert len(steps) == len(w) + 1
    assert steps[0].lhs is gr.START and steps[0].emitted is None
    for k in range(1, len(steps)):
        assert steps[k].lhs is steps[k - 1].rhs
        assert steps[k].emitted is w[k - 1]
    assert steps[-1].rhs is None
    seen_pair = False
    for rule in steps:
        if rule.rhs is None:
            continue
        if seen_pair:
            assert rule.rhs.is_pair
        seen_pair = seen_pair or rule.rhs.is_pair


@given(st.lists(tokens, max_size=8))
@settings(max_examples=300)
def test_membership_matches_oracle_on_random_strings(symbols):
    w = tuple(symbols)
    assert (gr.derive_membership(w) is not None) == sem.is_consistent(w)


def test_random_grammar_line_folds_the_subset_table(monkeypatch):
    """Drop the accepting mark of the subset state after A.  The
    bounded, pair and random lines all read the product of the subset
    table with the oracle's, so all three fail."""
    dfa, minimal = verify._pipeline()
    lost = dfa.delta[dfa.start][sq.signed("A", 1).index]
    assert lost in dfa.accepting
    broken = dataclasses.replace(dfa, accepting=dfa.accepting - {lost})
    monkeypatch.setattr(verify, "_pipeline", lambda: (broken, minimal))
    cfg = verify.VerifyConfig(exhaustive_len=2, random_strings=2000)
    lines = verify.suite_grammar(cfg).checks[:3]
    assert not any(line.passed for line in lines)


def test_grammar_lines_catch_a_pruned_schema(monkeypatch):
    """Without the pair-branch-prior rules the grammar derives fewer
    strings than are consistent; its rebuilt pipeline fails every
    derivability line."""
    g = gr.build_grammar()
    rules = tuple(r for r in g.rules if r.schema != "pair-branch-prior")
    assert len(rules) < len(g.rules)
    dfa = au.determinize(gr.to_nfa(dataclasses.replace(g, rules=rules)))
    monkeypatch.setattr(verify, "_pipeline", lambda: (dfa, au.minimize(dfa)))
    cfg = verify.VerifyConfig(exhaustive_len=3, random_strings=2000)
    bounded, pairs, random_line = verify.suite_grammar(cfg).checks[:3]
    assert (bounded.passed, bounded.detail) == (False, "6175 strings, 576 mismatches")
    assert (pairs.passed, pairs.detail) == (False, "188 pairs, 24 mismatches")
    assert not random_line.passed


def seeded_consistent_string(rng, n):
    """A consistent string of n tokens, each drawn uniformly from the
    symbols the oracle accepts next."""
    out, state = [], sem.EMPTY_STATE
    for _ in range(n):
        sym = rng.choice([s for s in sq.ALPHABET if sem.step(state, s) is not None])
        out.append(sym)
        state = sem.step(state, sym)
    return tuple(out)


def step_form(witness, k):
    """The sentential form after step k, joined token by token: the
    first k tokens, then the label of the rule's right-hand symbol."""
    tokens = [s.token for s in witness.string[:k]]
    rhs = witness.steps[k].rhs
    if rhs is not None:
        tokens.append(rhs.label)
    return " ".join(tokens) if tokens else "lambda"


def test_forms_cut_from_one_string_equal_the_token_joins():
    """For a seeded consistent string of every length 1..256, the forms
    equal the per-step joins, and the derive tables of all 256 are
    those printed before the forms were cut from one string."""
    rng = random.Random(20240817)
    digest = hashlib.sha256()
    for n in range(1, 257):
        w = seeded_consistent_string(rng, n)
        witness = gr.derive_membership(w)
        assert list(witness.forms()) == [
            step_form(witness, k) for k in range(len(witness.steps))
        ]
        out = io.StringIO()
        assert cli.run(["derive", sq.format_string(w)], out=out) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == (
        "2f18e279a88cf74aaa84a1bd1bbf0886977b6c0a81c5c85096c0a81aca904789"
    )


def test_seeded_consistent_strings_derive_as_a_chain_of_rules():
    """The query workload's sampled class, at every length 1..300: the
    witness leaves START silently, each later rule leaves the symbol the
    one before led to and emits the next token, and the last leads
    nowhere."""
    rng = random.Random(1)
    for n in range(1, 301):
        w = seeded_consistent_string(rng, n)
        steps = gr.derive_membership(w).steps
        assert steps[0].lhs is gr.START and steps[0].emitted is None
        assert all(rule.lhs is before.rhs for before, rule in zip(steps, steps[1:]))
        assert tuple(rule.emitted for rule in steps[1:]) == w
        assert steps[-1].rhs is None


def test_a_flipped_repeat_has_no_derivation_at_every_length():
    """The query workload's flipped class, at every length 1..300: a
    seeded consistent string with its last measurement repeated with
    the opposite outcome."""
    rng = random.Random(2)
    for n in range(1, 301):
        w = seeded_consistent_string(rng, n)
        assert gr.derive_membership(w + (sq.ALPHABET[w[-1].index ^ 1],)) is None


def test_a_random_string_has_no_derivation_from_its_first_clash_on():
    """The query workload's random class: uniform strings of 1..256
    tokens.  When ``semantics.trace`` puts the first clash at token k,
    the first k tokens derive, and neither the first k + 1 nor the
    whole string does."""
    rng = random.Random(3)
    clashes = 0
    for _ in range(500):
        w = tuple(rng.choice(sq.ALPHABET) for _ in range(rng.randint(1, 256)))
        k = sem.trace(w).failed_at
        if k is None:
            assert gr.derive_membership(w) is not None
            continue
        clashes += 1
        assert gr.derive_membership(w[:k]) is not None
        assert gr.derive_membership(w[: k + 1]) is None
        assert gr.derive_membership(w) is None
    assert clashes > 400


def test_derivations_counted_over_the_lookahead_table_are_the_word_counts():
    """A layer DP over the look-ahead table alone: a node is a symbol id
    and the token it must emit next, or (-1, END) once the string is
    complete, weighted by the derivations that reach it.  The complete
    derivations of each length 0..5 number exactly the words."""
    g = gr.build_grammar()

    def cells(q, t):
        """The right-hand id and look-ahead of each filled cell (q, t, u)."""
        for key, (rhs, _) in g.cells[q].items():
            if key // gr.WIDTH == t:
                yield rhs, key % gr.WIDTH

    layer = Counter(cells(len(g.symbols), gr.END))
    counts = []
    for _ in range(6):
        counts.append(layer[-1, gr.END])
        after = Counter()
        for (q, t), weight in layer.items():
            if q >= 0:
                for node in cells(q, t):
                    after[node] += weight
        layer = after
    assert counts == list(au.count_words(verify.minimal_dfa(), 5).counts)
    assert counts == [1, 18, 306, 4914, 76626, 1175634]


def with_twin(schema):
    """The grammar plus a copy of its first ``schema`` rule under another
    schema name, so two rules fill one look-ahead cell."""
    g = gr.build_grammar()
    rule = next(r for r in g.rules if r.schema == schema)
    return gr.Grammar(g.symbols, (*g.rules, dataclasses.replace(rule, schema="twin")))


def test_a_second_rule_in_one_cell_is_named_not_chosen():
    g = with_twin("pair-repeat")
    assert list(g.conflicts.values()) == [
        "[A B] on B before B: [A B] -> B [A B] (pair-repeat), "
        "[A B] -> B [A B] (twin)"
    ]
    with pytest.raises(ValueError, match=r"look-ahead cell, \[A B\] on B before B"):
        gr.derive_membership("A B B", g)
    # a pass that reads no shared cell still gives the one derivation
    assert gr.derive_membership("A B c", g) == gr.derive_membership("A B c")

    g = with_twin("first-symbol")
    with pytest.raises(ValueError, match=r"\[S\] before A: \[S\] -> \[A\]"):
        gr.derive_membership("A", g)


@pytest.mark.parametrize("schema, failed", [("pair-repeat", 1), ("first-symbol", 3)])
def test_a_second_rule_in_one_cell_fails_the_unambiguity_line(
    monkeypatch, schema, failed
):
    """The report fails the line and exits 1, with no traceback.  The
    twin of a first-symbol rule shares the cell [S] before A, which the
    pass reads on both reference strings, so their lines fail too."""
    verify._pipeline()  # built from the true grammar, as the cache keeps it
    twinned = with_twin(schema)
    monkeypatch.setattr(gr, "build_grammar", lambda: twinned)
    out = io.StringIO()
    argv = "verify --suite grammar --seed 3 --exhaustive-len 2 --random-strings 100"
    assert cli.run(argv.split(), out=out) == 1
    lines = out.getvalue().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == failed
    assert fails[0].startswith("FAIL no look-ahead cell")
    (cell,) = twinned.conflicts.values()
    assert fails[0].endswith(f"(2647 cells, 1 with two rules; {cell})")
    assert lines[-1] == f"[summary] {7 - failed}/7 checks passed"
