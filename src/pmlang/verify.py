"""Cross-module verification suites.

Each suite pits one implementation route against an independent one
(grammar against the operational rules, counting against brute-force
enumeration, predictor machines against the oracle, sampled quantum
runs against the language) and reports one line per check.  The CLI
``verify`` command and the acceptance tests both run these functions.
The seed and the depths that the benchmark lowers (the exhaustive,
invariant and maga depths, and the numbers of random strings and of
sampled runs) live in :class:`VerifyConfig`, one command-line flag
each; every other setting is a module constant at its acceptance value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Hashable, Iterable

from . import automata, grammar, maga, semantics
from .square import (
    ALPHABET,
    CONTEXTS,
    OBSERVABLES,
    SignedSymbol,
    all_fillings,
    negative_context_count,
)


# The sweeps cost time linear in depth: the ceiling is the documented
# usage limit, far below lengths whose counts pass int-to-str's limit.
MAX_DEPTH = 6

# the longest random string, the last length counted, the most
# qubits in the bounds suite, and the length of each sampled run and the
# number of fresh-state trials per observable in the quantum suite
RANDOM_MAX_LEN = 12
COUNT_MAX = 1000
QUBITS_MAX = 64
QUANTUM_RUN_LEN = 12
QUANTUM_TRIALS = 1000


@dataclass
class VerifyConfig:
    """The seed and the tunable depths; the defaults are the acceptance
    settings."""

    seed: int = 20240817
    exhaustive_len: int = 4
    random_strings: int = 100_000
    invariant_len: int = 5
    maga_len: int = 5
    quantum_runs: int = 10_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("exhaustive_len", "invariant_len", "maga_len"):
            if getattr(self, name) > MAX_DEPTH:
                raise ValueError(f"{name} must be at most {MAX_DEPTH}")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


@lru_cache(maxsize=None)
def _pipeline() -> tuple[automata.Dfa, automata.Dfa]:
    """The subset construction of the grammar's NFA, and its minimisation."""
    dfa = automata.determinize(grammar.to_nfa())
    return dfa, automata.minimize(dfa)


def minimal_dfa() -> automata.Dfa:
    return _pipeline()[1]


def _sweep(
    successors: Callable[[Hashable], Iterable[Hashable]],
    start: Hashable,
    depth: int,
    *props: Callable[[Hashable], int],
) -> list[int]:
    """Weighted sums over ``semantics.layers``: the number of strings of
    length 0..depth, then for each property the sum of its values over
    those strings' end nodes, so for a 0/1 property how many strings end
    at a node that has it."""
    totals = [0] * (1 + len(props))
    for layer in semantics.layers(successors, start, depth):
        for node, count in layer.items():
            totals[0] += count
            for i, prop in enumerate(props, 1):
                totals[i] += count * prop(node)
    return totals


def _product(
    dfa: automata.Dfa,
) -> tuple[tuple[tuple[int, int], ...], list[list[int]]]:
    """The (DFA state, oracle id) pairs reachable from ``(dfa.start, 0)``
    on all 18 symbols, in ``semantics.reachable`` order, and for each
    pair the positions of its successors in that order.  A string is
    consistent exactly when its pair's oracle id is not the sink CLASH."""

    def successors(node):
        d, q = node
        return zip(dfa.delta[d], semantics.DELTA[q])

    pairs = semantics.reachable(successors, (dfa.start, 0))
    index = {pair: i for i, pair in enumerate(pairs)}
    return pairs, [[index[p] for p in successors(pair)] for pair in pairs]


# strings per block of the random folds
_FOLD_BLOCK = 4096


def _fold(delta, blocks, count, *checks) -> list[int]:
    """Fold blocks of strings, one row of symbols per step, through the
    integer table ``delta`` from state 0.  Per check, a 0/1 table of the
    same shape, sum ``count(hits, axis=1)`` over the blocks, where a row
    of ``hits`` holds how many of each string's edges one check flags."""
    import numpy as np  # only the folds and the quantum suite need numpy

    # a last "stay" column, unflagged, pads a string past its end; a
    # state is kept as the offset of its row in the flattened tables
    stay = len(ALPHABET)
    table = (stay + 1) * np.array([[*row, q] for q, row in enumerate(delta)]).ravel()
    flags = np.array([[[*r, 0] for r in c] for c in checks]).reshape(len(checks), -1)
    totals = np.zeros(len(checks), dtype=int)
    for columns in blocks:
        q = np.zeros(columns.shape[1], dtype=table.dtype)
        hits = np.zeros((len(checks), len(q)), dtype=int)
        for s in columns:
            s = q + s
            hits += flags.take(s, axis=1)
            table.take(s, out=q)
        totals += count(hits, axis=1)
    return totals.tolist()


def _random_folds(cfg: VerifyConfig, seed: int, delta, *checks) -> list[int]:
    """Per check, how many of ``cfg.random_strings`` seeded random strings,
    each of a uniform random length 0..RANDOM_MAX_LEN, take an edge it
    flags; the strings go _FOLD_BLOCK at a time, so memory stays bounded."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def blocks():
        for done in range(0, cfg.random_strings, _FOLD_BLOCK):
            size = min(_FOLD_BLOCK, cfg.random_strings - done)
            lengths = rng.integers(0, RANDOM_MAX_LEN, size, endpoint=True)
            columns = rng.integers(0, len(ALPHABET), (RANDOM_MAX_LEN, size))
            columns[np.arange(RANDOM_MAX_LEN)[:, None] >= lengths] = len(ALPHABET)
            yield columns

    return _fold(delta, blocks(), np.count_nonzero, *checks)


# ---------------------------------------------------------------- parity


def suite_parity(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("parity")
    odd = 0
    perfect = 0
    for filling in all_fillings():
        count = negative_context_count(filling)
        if count % 2:
            odd += 1
        if all(
            math.prod(filling.values[o.index] for o in ctx.members) == ctx.sign
            for ctx in CONTEXTS
        ):
            perfect += 1
    result.add(
        "negative-context count is even for all 512 fillings",
        odd == 0,
        f"odd counts: {odd}",
    )
    result.add(
        "no filling satisfies all six context constraints",
        perfect == 0,
        f"satisfying fillings: {perfect}",
    )
    return result


# ---------------------------------------------------------------- grammar


def suite_grammar(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("grammar")
    # The subset table beside the oracle's; a pair is mismatched when
    # one accepts and the other does not.
    dfa = _pipeline()[0]
    pairs, rows = _product(dfa)
    mismatch = [(d in dfa.accepting) != (q != semantics.CLASH) for d, q in pairs]
    strings, mismatches = _sweep(
        rows.__getitem__, 0, cfg.exhaustive_len, mismatch.__getitem__
    )
    result.add(
        f"derivability matches consistency on all strings up to length "
        f"{cfg.exhaustive_len}",
        mismatches == 0,
        f"{strings} strings, {mismatches} mismatches",
    )
    bad_pairs = sum(mismatch)
    result.add(
        "derivability matches consistency on every reachable (NFA subset, "
        "oracle state) pair, so on strings of every length",
        bad_pairs == 0,
        f"{len(pairs)} pairs, {bad_pairs} mismatches",
    )

    # a string counts once if a nonempty prefix ends at a mismatched pair
    flags = [[mismatch[r] for r in row] for row in rows]
    (bad,) = _random_folds(cfg, cfg.seed, rows, flags)
    result.add(
        f"derivability matches consistency on {cfg.random_strings} random "
        f"strings up to length {RANDOM_MAX_LEN}",
        bad == 0,
        f"{bad} mismatches",
    )

    # derive_membership reads one rule per cell; with the pair line,
    # every consistent string has exactly one derivation
    g = grammar.build_grammar()
    cells = sum(map(len, g.cells)) + len(g.conflicts)
    detail = [f"{cells} cells, {len(g.conflicts)} with two rules", *g.conflicts.values()]
    result.add(
        "no look-ahead cell (symbol, token, next token or end), the start "
        "symbol's silent rules included, holds two rules, so every string "
        "has at most one derivation",
        not g.conflicts,
        "; ".join(detail),
    )

    try:
        witness = grammar.derive_membership("A B c ~gamma")
        clash_rejected = grammar.derive_membership("A B c gamma") is None
    except ValueError:  # the pass read a cell that holds two rules
        witness, clash_rejected = None, False
    result.add(
        "the four-token reference string has a five-step derivation",
        witness is not None and len(witness.steps) == 5,
        "no derivation" if witness is None else f"{len(witness.steps)} steps",
    )
    result.add("the clashing variant has no derivation", clash_rejected)
    good = semantics.trace("A B c ~gamma")
    clash = semantics.trace("A B c gamma")
    result.add(
        "reference traces evolve through the documented states and the "
        "clash lands on token 4",
        good.consistent
        and [s.describe() for s in good.states]
        == [
            "A=+1",
            "A=+1 B=+1 C=+1",
            "C=+1 c=+1 gamma=-1",
            "C=+1 c=+1 gamma=-1",
        ]
        and clash.failed_at == 3,
        f"clash index {clash.failed_at}",
    )
    return result


# ---------------------------------------------------------------- invariants


def suite_invariants(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("invariants")

    states = semantics.reachable_states()
    ids = range(len(states))
    delta, clash = semantics.DELTA, semantics.CLASH
    full = [
        sum(all(s.values[o.index] for o in ctx.members) for ctx in CONTEXTS)
        for s in states
    ]
    well_formed = [semantics.state_is_well_formed(s) for s in states]

    # Nodes are (state id, whether the parent state held a context).
    def successors(node):
        q, _ = node
        return [(r, full[q] > 0) for r in semantics.live(q)]

    nodes, malformed, multi_context, persistence_broken = _sweep(
        successors,
        (0, False),
        cfg.invariant_len,
        lambda node: not well_formed[node[0]],
        lambda node: full[node[0]] > 1,
        lambda node: node[1] and not full[node[0]],
    )
    result.add(
        f"states stay well-formed over every consistent string up to length "
        f"{cfg.invariant_len}",
        malformed == 0,
        f"{nodes} states visited, {malformed} malformed",
    )
    result.add(
        "at most one context is ever determined",
        multi_context == 0,
        f"{multi_context} violations",
    )
    result.add(
        "a determined context persists under every consistent extension",
        persistence_broken == 0,
        f"{persistence_broken} violations",
    )
    edges = [(q, s, r) for q in ids for s, r in enumerate(delta[q]) if r != clash]
    violations = sum(not well_formed[q] or full[q] > 1 for q in ids) + sum(
        full[q] > 0 and full[r] == 0 for q, _, r in edges
    )
    result.add(
        "well-formedness, at most one context and persistence hold on every "
        "reachable state and edge, so on strings of every length",
        violations == 0,
        f"{len(states)} states, {len(edges)} edges, {violations} violations",
    )

    # flag a fold that leaves the sink, and a step whose repeat clashes
    leaves = [[q == clash and r != clash for r in row] for q, row in enumerate(delta)]
    repeats = [
        [r != clash and delta[r][s] == clash for s, r in enumerate(row)]
        for row in delta
    ]
    prefix_bad, repeat_bad = _random_folds(cfg, cfg.seed + 1, delta, leaves, repeats)
    result.add(
        f"prefixes of consistent strings are consistent ({cfg.random_strings} "
        "random strings)",
        prefix_bad == 0,
        f"{prefix_bad} violations",
    )
    result.add(
        "repeating the last measurement preserves consistency",
        repeat_bad == 0,
        f"{repeat_bad} violations",
    )
    broken = sum(r != clash for r in delta[clash])
    broken += sum(delta[r][s] != r for _, s, r in edges)
    result.add(
        "the clash sink is absorbing and a repeated consistent measurement "
        "stays put, so prefix closure and repetition hold on strings of "
        "every length",
        broken == 0,
        f"{len(edges)} edges, {broken} violations",
    )
    return result


# ---------------------------------------------------------------- counting


def suite_counting(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("counting")
    dfa = minimal_dfa()

    # brute force through the oracle's table only
    brute = [sum(layer.values()) for layer in semantics.layers(semantics.live, 0, 4)]
    report = automata.count_words(dfa, COUNT_MAX)
    result.add(
        "word counts at lengths 0..4 match brute-force enumeration",
        list(report.counts[:5]) == brute,
        f"dfa {list(report.counts[:5])} vs brute {brute}",
    )

    # Cayley-Hamilton gives the DP's counts, over the N-state DFA, a
    # recurrence of order at most N.  If the report's counts follow the
    # derived recurrence, of order L, the difference of the two obeys one
    # of order N + L, so agreeing on N + L terms they agree everywhere.
    c, rec, n_states = report.counts, report.recurrence, dfa.num_states
    dp = automata._dp_counts(dfa, n_states + len(rec) - 1)
    mismatches = sum(a != b for a, b in zip(c, dp)) + sum(
        c[n] != sum(a * c[n - i] for i, a in enumerate(rec, 1))
        for n in range(len(rec), len(c))
    )
    result.add(
        "the recurrence read off the DFA's equitable quotient reproduces the "
        "DP at every length",
        len(rec) <= n_states and c[: len(dp)] == tuple(dp) and not mismatches,
        f"recurrence {list(rec)}, agree on {len(dp)} >= {n_states} + {len(rec)} "
        f"terms, {mismatches} mismatches",
    )

    # int / int is correctly rounded, even for counts of a thousand digits
    tail = [c[n + 1] / c[n] for n in range(COUNT_MAX - 100, COUNT_MAX)]
    spread = max(tail) - min(tail)
    result.add(
        f"growth ratios converge at n_max={COUNT_MAX}",
        spread < 1e-6,
        f"last-100 spread {spread:.3e}, estimate {report.dominant_rate_estimate}",
    )

    bits = automata.hv_bits(report)
    rate_bits = math.log2(report.dominant_rate_estimate)
    diffs = [c - b for b, c in zip(bits, bits[1:])]
    window = diffs[50:200]
    result.add(
        "bit-curve increments sit within one bit of log2(growth rate) on "
        "lengths 50..200",
        bits[0] == 0
        and all(d >= 0 for d in diffs)
        and all(abs(d - rate_bits) <= 1.0 for d in window),
        f"increments {sorted(set(window))}, log2 rate {rate_bits:.4f}",
    )
    slope = bits[200] / 200
    result.add(
        "memory for all strings up to length n grows linearly, at most "
        "log2(18) bits per step",
        0 < slope <= math.log2(18),
        f"bits(200)/200 = {slope:.4f}, log2(18) = {math.log2(18):.4f}",
    )
    return result


# ---------------------------------------------------------------- maga


def _answer(m1_or_output, *args):
    """A predictor's answer, or None (which no required answer equals)
    when its recognizer rejects both signed extensions."""
    try:
        return m1_or_output(*args)
    except maga.RecognizerContractError:
        return None


def _transition_cover() -> list[tuple[SignedSymbol, ...]]:
    """The oracle's transition cover (Chow 1978): for each consistent
    edge q -s-> r, a shortest string to q followed by s."""
    delta, clash = semantics.DELTA, semantics.CLASH
    oracle = automata.Dfa(delta, 0, frozenset(range(clash)), clash)
    words = automata.shortest_words(oracle)
    return [
        words[q] + (sym,)
        for q in range(clash)
        for sym, r in zip(ALPHABET, delta[q])
        if r != clash
    ]


def _spot_check(
    machine: maga.MagaSpec, keep: Callable[[semantics.DeterminationState], object]
) -> tuple[int, int]:
    """Run the full interface ``machine.output`` against the oracle on
    the transition cover strings whose final state passes ``keep``;
    returns (strings checked, wrong answers)."""
    strings = [w for w in _transition_cover() if keep(semantics.final_state(w))]
    wrong = sum(
        _answer(machine.output, w, obs) != maga.expected_output(w, obs)
        for w in strings
        for obs in OBSERVABLES
    )
    return len(strings), wrong


def suite_maga(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("maga")
    triples = maga.all_class_triples()
    reps = maga.representatives()
    result.add(
        "24 classes with distinct consistent representatives",
        len(set(reps)) == 24
        and all(semantics.is_consistent(r) for r in reps)
        and all(maga.classify(r) == t for r, t in zip(reps, triples)),
        f"{len(set(reps))} distinct representatives",
    )

    states = semantics.reachable_states()
    classes = [maga.class_of(s) for s in states]

    def has_class(q: int) -> bool:
        return classes[q] is not None

    is_class = [lambda q, t=t: classes[q] == t for t in triples]
    _, total, *per_class = _sweep(semantics.live, 0, 3, has_class, *is_class)
    seen = {t for t, n in zip(triples, per_class) if n}
    result.add(
        "classification is total and onto the 24 classes (strings up to "
        "length 3)",
        seen == set(triples) and sum(per_class) == total,
        f"{len(seen)} classes over {total} context-determining strings",
    )

    claim = maga.verify_disagreement_claim()
    result.add(
        "every one of the 276 representative pairs disagrees somewhere",
        claim.complete and claim.pair_count == 276,
        f"{len(claim.witnesses)} witnesses, {len(claim.missing)} missing",
    )

    verdict = maga.lower_bound_check(maga.reference_maga_plus())
    result.add(
        "the 24-state reference machine is certified by the pigeonhole check",
        verdict.certified and verdict.distinct_memory_states == 24,
        f"distinct memory states: {verdict.distinct_memory_states}",
    )

    refuted = 0
    merges = 0
    for i in range(24):
        for j in range(i + 1, 24):
            merges += 1
            v = maga.lower_bound_check(maga.merged_reference_maga(i, j))
            if not v.certified and v.counterexample is not None:
                refuted += 1
    result.add(
        "every 23-state merge of the reference machine is refuted with a "
        "concrete witness",
        refuted == merges == 276,
        f"{refuted}/{merges} merges refuted",
    )

    machine = maga.reference_maga_plus()
    wrong_answers = [
        sum(machine.m1(t, obs) != maga.required_answer(s, obs) for obs in OBSERVABLES)
        if t is not None
        else 0
        for s, t in zip(states, classes)
    ]
    _, nodes, wrong = _sweep(
        semantics.live, 0, cfg.maga_len, has_class, wrong_answers.__getitem__
    )

    # exercise the real callables end to end on every edge of the oracle
    spot_checked, spot_wrong = _spot_check(machine, semantics.determined_context)
    result.add(
        f"reference machine answers match the oracle on every "
        f"context-determining string up to length {cfg.maga_len}",
        wrong == 0 and spot_wrong == 0,
        f"{nodes} strings x 9 observables, {wrong} wrong; "
        f"{spot_checked} full-interface spot checks",
    )
    return result


# ---------------------------------------------------------------- adapter


def suite_adapter(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("adapter")
    dfa = minimal_dfa()
    recognizer = maga.mara_from_dfa(dfa)
    machine = maga.mara_to_maga(recognizer)
    result.add(
        "product machine has the squared recognizer state count",
        len(machine.memory_states) == len(recognizer.memory_states) ** 2,
        f"{len(recognizer.memory_states)}^2 = {len(machine.memory_states)}",
    )
    result.add(
        "recognizer state count is at least the square root of the "
        "24-state predictor bound",
        len(recognizer.memory_states) >= math.isqrt(24 - 1) + 1,
        f"{len(recognizer.memory_states)} >= {math.isqrt(24 - 1) + 1}",
    )

    # The recognizer's memory for both signed extensions is the DFA
    # state.  CLASH absorbs, so a consistent string walks only pairs
    # off it.
    pairs, rows = _product(dfa)
    consistent = [q != semantics.CLASH for _, q in pairs]
    live = [[r for r in row if consistent[r]] for row in rows]
    states = semantics.reachable_states()
    wrong = [
        sum(
            _answer(machine.m1, (d, d), obs) != maga.required_answer(states[q], obs)
            for obs in OBSERVABLES
        )
        if ok
        else 0
        for ok, (d, q) in zip(consistent, pairs)
    ]
    nodes, wrong_strings = _sweep(
        live.__getitem__, 0, cfg.exhaustive_len, wrong.__getitem__
    )
    result.add(
        f"adapter answers match the oracle on every consistent string up to "
        f"length {cfg.exhaustive_len}",
        wrong_strings == 0,
        f"{nodes} strings x 9 observables, {wrong_strings} wrong",
    )

    bad = sum(wrong)
    spot_checked, spot_wrong = _spot_check(machine, lambda state: True)
    result.add(
        "adapter answers match the oracle on every reachable (DFA state, "
        "oracle state) pair, so on strings of every length",
        bad == 0 and spot_wrong == 0,
        f"{sum(consistent)} pairs x 9 observables, {bad} wrong; "
        f"{spot_checked} full-interface spot checks",
    )
    return result


# ---------------------------------------------------------------- bounds


def suite_bounds(cfg: VerifyConfig) -> SuiteResult:
    result = SuiteResult("bounds")
    expected = {1: 6, 2: 60, 3: 1080}
    got = {n: maga.scaling_report(n).lower_bound for n in expected}
    result.add(
        "lower bounds at 1..3 qubits are 6, 60, 1080",
        got == expected,
        f"{got}",
    )

    reports = list(maga.scaling_reports(QUBITS_MAX))
    gaps = [r.density_gap for r in reports]
    result.add(
        f"exact bound dominates its simplification for 1..{QUBITS_MAX} qubits",
        all(r.lower_bound >= r.simplified_bound for r in reports),
    )
    result.add(
        f"density stays above (n+3)/2 and above one bit per qubit for "
        f"1..{QUBITS_MAX} qubits",
        all(r.density >= r.density_floor and r.density > 1.0 for r in reports),
        f"density(1) = {reports[0].density:.4f}",
    )
    # The gap log2(B_n)/n - (n+3)/2 of the bound B is positive exactly when
    # B_n > 2^(n(n+3)/2), and as B_(n+1) = 2 (2^(n+1) + 1) B_n, it falls from
    # n to n+1 exactly when B_n 2^(n(n+1)/2) > 2^n (2^(n+1) + 1)^n.
    result.add(
        "density gap to (n+3)/2 shrinks monotonically toward zero",
        all(r.density_floor == (n + 3) / 2 for n, r in enumerate(reports, 1))
        and all(
            s.lower_bound == ((4 << n) + 2) * r.lower_bound
            and r.lower_bound << n * (n + 1) // 2 > ((2 << n) + 1) ** n << n
            for n, (r, s) in enumerate(zip(reports, reports[1:]), 1)
        )
        and reports[-1].lower_bound > 1 << QUBITS_MAX * (QUBITS_MAX + 3) // 2,
        f"gap(1) = {gaps[0]:.4f}, gap({QUBITS_MAX}) = {gaps[-1]:.2e}",
    )
    result.add(
        "direct square bound and 2-qubit scaled bound reported side by side",
        maga.SQUARE_LOWER_BOUND == 24 and got[2] == 60,
        f"square: {maga.SQUARE_LOWER_BOUND}, scaled n=2: {got[2]} "
        "(different context counts; not reconciled)",
    )
    return result


# ---------------------------------------------------------------- quantum


def suite_quantum(cfg: VerifyConfig) -> SuiteResult:
    import numpy as np  # only this suite needs numpy

    from . import quantum

    result = SuiteResult("quantum")
    # the unchecked table, so that a broken operator fails this line
    # instead of raising in standard_square()
    try:
        failures = quantum.operator_law_failures(quantum.pauli_table())
    except ValueError as err:  # an operator PauliObservable refuses
        failures = [str(err)]
    result.add(
        "operators are involutions; contexts commute and multiply to the "
        "context sign",
        not failures,
        "; ".join(failures),
    )
    if failures:
        return result  # every check below measures with these operators

    # per edge: it enters the sink; its state holds the symbol's observable;
    # it holds the other value.  The sink, read as the empty state, flags
    # nothing, so a run counts once, with its predictions through its clash.
    clash, delta = semantics.CLASH, semantics.DELTA
    held = [st.values for st in (*semantics.reachable_states(), semantics.EMPTY_STATE)]
    checks = (
        [[q != clash and r == clash for r in row] for q, row in enumerate(delta)],
        [[values[s.obs.index] != 0 for s in ALPHABET] for values in held],
        [[values[s.obs.index] == -s.value for s in ALPHABET] for values in held],
    )
    runs = quantum.sample_codes(cfg.quantum_runs, QUANTUM_RUN_LEN, cfg.seed + 3)
    inconsistent, determined_checked, determined_wrong = _fold(
        delta, (codes.T for codes in runs), np.sum, *checks
    )
    result.add(
        f"{cfg.quantum_runs} sampled runs of length {QUANTUM_RUN_LEN} "
        "are all consistent",
        inconsistent == 0,
        f"{inconsistent} inconsistent runs",
    )
    result.add(
        "sampled values equal the determined values at every step",
        determined_wrong == 0,
        f"{determined_checked} determined predictions, {determined_wrong} wrong",
    )

    # each trial draws a fresh state and then measures one observable
    seqs = np.random.SeedSequence(cfg.seed + 4).spawn(len(OBSERVABLES))
    details = []
    for obs, seq in zip(OBSERVABLES, seqs):
        rng = np.random.default_rng(seq)
        freq = quantum.measure_fresh(rng, [obs.index], QUANTUM_TRIALS).mean()
        if not (0.4 <= freq <= 0.6):
            details.append(f"{obs.name}: {freq:.3f}")
    result.add(
        f"first-outcome frequencies lie in [0.4, 0.6] over "
        f"{QUANTUM_TRIALS} fresh random states per observable",
        not details,
        "; ".join(details) or "all within bounds",
    )

    rng = np.random.default_rng(cfg.seed + 5)
    law_ok = True
    for ctx in CONTEXTS:
        outcomes = quantum.measure_fresh(rng, [obs.index for obs in ctx.members], 200)
        products = np.where(outcomes, 1, -1).prod(axis=1)
        law_ok &= bool((products == ctx.sign).all())
    result.add(
        "measuring a full context in sequence multiplies to the context sign",
        law_ok,
    )

    rng = np.random.default_rng(cfg.seed + 6)
    table = quantum.standard_square()
    drift = 0.0
    step = 0  # the start state; then each measurement
    try:
        st = quantum.haar_random_state(rng)
        for step in range(1, 1001):
            obs = OBSERVABLES[rng.integers(9)]
            _, st = quantum.measure(st, table[obs], rng)
            drift = max(drift, abs(st.norm() - 1.0))
        detail = f"max drift {drift:.2e}"
    except ValueError as err:  # a QState off the unit sphere is refused
        drift = math.inf
        detail = f"step {step}: {err}"
    result.add(
        "normalization is preserved across 1000 chained measurements",
        drift <= quantum.TOLERANCE,
        detail,
    )
    return result


SUITES = {
    "parity": suite_parity,
    "grammar": suite_grammar,
    "invariants": suite_invariants,
    "counting": suite_counting,
    "maga": suite_maga,
    "adapter": suite_adapter,
    "bounds": suite_bounds,
    "quantum": suite_quantum,
}


def run_suites(names: list[str], cfg: VerifyConfig) -> list[SuiteResult]:
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[name](cfg) for name in names]
