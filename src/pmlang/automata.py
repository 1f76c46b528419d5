"""Finite automata over the 18-symbol alphabet: determinization,
minimization, exact word counting, and the hidden-variable bit curve.

Every automaton reads ``square.ALPHABET``: symbol ``k`` is
``ALPHABET[k]``, so no automaton stores an alphabet of its own.

Counting is done with exact integers end to end; the only float in a
report is the growth-rate estimate taken from the final count ratio.
Their decimal digits come from the same recurrence run in exact decimal
arithmetic, whose conversion to str takes linear time.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from operator import mul, or_
from typing import Any, Callable, Iterable, Iterator, Mapping

from .semantics import reachable
from .square import ALPHABET, SignedSymbol

@dataclass
class Nfa:
    """Nondeterministic automaton; states may be any hashable objects."""

    states: frozenset
    transitions: frozenset  # of (state, SignedSymbol, state)
    start: Any
    accepting: frozenset

    def __post_init__(self):
        for src, _, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError("transition references an undeclared state")


@dataclass
class Dfa:
    """Deterministic automaton with a total transition table.

    States are 0..n-1; ``delta[q][k]`` is the successor of state ``q``
    on ``ALPHABET[k]``.  ``dead`` marks the
    absorbing reject state when one exists; reported state counts
    usually exclude it.
    """

    delta: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]
    dead: int | None = None

    @property
    def num_states(self) -> int:
        return len(self.delta)

    @property
    def live_state_count(self) -> int:
        return self.num_states - (1 if self.dead is not None else 0)

    @property
    def states(self) -> range:
        return range(self.num_states)

    def run(self, word: Iterable[SignedSymbol]) -> int:
        q = self.start
        for sym in word:
            q = self.delta[q][sym.index]
        return q

    def accepts(self, word: Iterable[SignedSymbol]) -> bool:
        return self.run(word) in self.accepting


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; the empty subset becomes the dead state.

    A subset is an int with bit i set for the NFA state of index i.  The
    states are indexed once, and each (state, symbol) pair gets the mask
    of its successors, so a step ORs the masks of the subset's bits and
    hashes no NFA state.  State numbering follows discovery order (BFS
    by alphabet index), the same as a subset construction over frozensets,
    so the result is deterministic.
    """
    index = {state: i for i, state in enumerate(nfa.states | {nfa.start})}
    masks = [[0] * len(ALPHABET) for _ in index]
    for src, sym, dst in nfa.transitions:
        masks[index[src]][sym.index] |= 1 << index[dst]
    rows: dict[int, tuple[int, ...]] = {}

    def successors(subset: int) -> tuple[int, ...]:
        row = [0] * len(ALPHABET)
        rest = subset
        while rest:
            low = rest & -rest  # the lowest set bit
            row = list(map(or_, row, masks[low.bit_length() - 1]))
            rest ^= low
        rows[subset] = tuple(row)
        return rows[subset]

    order = reachable(successors, 1 << index[nfa.start])
    ids = {subset: i for i, subset in enumerate(order)}
    delta = tuple(tuple(ids[succ] for succ in rows[subset]) for subset in order)
    final = sum(1 << index[s] for s in nfa.accepting if s in index)
    accepting = frozenset(i for i, subset in enumerate(order) if subset & final)
    return Dfa(delta, 0, accepting, ids.get(0))


def _refine(dfa: Dfa, signature: Callable) -> dict[int, int]:
    """Partition refinement of the reachable states, from the accepting
    and non-accepting blocks: each round relabels every state by its
    block and the ``signature`` of its successors' blocks, until a round
    adds no block.  Maps each reachable state, in BFS order, to its block.
    """
    reach = reachable(dfa.delta.__getitem__, dfa.start)
    block = {q: q in dfa.accepting for q in reach}
    while True:
        labels: dict[tuple, int] = {}
        refined = {
            q: labels.setdefault(
                (b, signature(block[s] for s in dfa.delta[q])), len(labels)
            )
            for q, b in block.items()
        }
        if len(labels) == len(set(block.values())):
            return block
        block = refined


def minimize(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal DFA via Moore partition refinement
    (Moore 1956): ``_refine`` the reachable states by the tuple of their
    successors' blocks.  The blocks are then renumbered by BFS from the
    start block, so the output is canonical.  Idempotent up to that
    renumbering.
    """
    block = _refine(dfa, tuple)
    rep = {b: q for q, b in block.items()}  # any member: the blocks are stable
    order = reachable(
        lambda b: [block[s] for s in dfa.delta[rep[b]]], block[dfa.start]
    )
    ids = {b: i for i, b in enumerate(order)}
    rows = tuple(tuple(ids[block[s]] for s in dfa.delta[rep[b]]) for b in order)
    accepting = frozenset(ids[b] for b in order if rep[b] in dfa.accepting)
    dead = next(
        (i for i, row in enumerate(rows) if i not in accepting and set(row) == {i}),
        None,
    )
    return Dfa(rows, 0, accepting, dead)


@dataclass(frozen=True)
class CountReport:
    """Exact word counts by length, with growth diagnostics."""

    counts: tuple[int, ...]
    cumulative: tuple[int, ...]
    dominant_rate_estimate: float | None
    recurrence: tuple[int, ...]  # a_1..a_L: c_n = sum a_i c_{n-i} for n >= L


def _dp_counts(dfa: Dfa, n_max: int) -> list[int]:
    """Accepted words of each length 0..n_max, by dynamic programming
    over the transition table with Python integers."""
    vec = [0] * dfa.num_states
    vec[dfa.start] = 1
    counts = [sum(vec[q] for q in dfa.accepting)]
    for _ in range(n_max):
        nxt = [0] * dfa.num_states
        for q, amount in enumerate(vec):
            if not amount:
                continue
            for succ in dfa.delta[q]:
                nxt[succ] += amount
        vec = nxt
        counts.append(sum(vec[q] for q in dfa.accepting))
    return counts


def _recurrence(dfa: Dfa) -> tuple[int, ...]:
    """A recurrence c_n = a_1 c_{n-1} + ... + a_L c_{n-L} (n >= L) of the
    word counts, from the equitable quotient (Godsil & Royle 2001, §9.3).

    ``_refine`` by the multiset of successor blocks leaves blocks whose
    states each have Q[i][j] successors in block j, so the counts are
    e_start Q^n 1_accepting and, by Cayley-Hamilton, obey Q's
    characteristic polynomial; Faddeev-LeVerrier finds it, with exact
    integer division.  The dead state's block is dropped after
    refinement: it reaches no accepting state, and would add a factor.
    """
    block = _refine(dfa, lambda succ: tuple(sorted(succ)))
    rep = {b: q for q, b in block.items()}
    live = [b for b in rep if b != block.get(dfa.dead)]
    quotient = [
        [sum(block[s] == c for s in dfa.delta[rep[b]]) for c in live] for b in live
    ]
    coeffs: list[int] = []
    qm = quotient  # Q M_k, where M_1 = I and M_(k+1) = Q M_k - a_k I
    for k in range(1, len(live) + 1):
        coeffs.append(sum(row[i] for i, row in enumerate(qm)) // k)  # tr(Q M_k) / k
        qm = [
            [sum(map(mul, row, col)) - coeffs[-1] * x for col, x in zip(zip(*qm), row)]
            for row in quotient
        ]
    return tuple(coeffs)


def count_words(dfa: Dfa, n_max: int, ceiling: int | None = None) -> CountReport:
    """Count accepted words of each length 0..n_max exactly.

    The DP gives the first L counts, and ``_recurrence``, of order L,
    extends them, exactly, to any length.  The dominant growth-rate
    estimate is the final count ratio, None if its divisor is missing or 0.

    With ``ceiling``, the report stops at the first length whose running
    total reaches it: the totals only grow, so no later count is needed
    to know that the table up to ``n_max`` holds a total that large.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    rec = _recurrence(dfa)
    terms = _dp_counts(dfa, len(rec) - 1)
    counts: list[int] = []
    cumulative = [0]
    for n in range(n_max + 1):
        count = terms[n] if n < len(terms) else sum(map(mul, rec, reversed(counts)))
        counts.append(count)
        cumulative.append(cumulative[-1] + count)
        if ceiling is not None and cumulative[-1] >= ceiling:
            break
    # int / int is correctly rounded, as float(Fraction(...)) is
    rate = counts[-1] / counts[-2] if len(counts) > 1 and counts[-2] else None
    return CountReport(tuple(counts), tuple(cumulative[1:]), rate, rec)


def decimal_rows(report: CountReport) -> Iterator[tuple[str, str]]:
    """``str`` of each count and running sum of ``report``, one length
    at a time.

    CPython's int-to-str takes time quadratic in the digits, and
    decimal's takes linear time.  So the report's recurrence runs a
    second time in ``decimal``, keeping only its last L terms.  It runs
    at ``decimal.MAX_PREC``, where whole-number ``fma`` and ``add`` do
    not round; ``Inexact`` and ``Rounded`` are trapped all the same, so
    every step is exact or raises.
    """
    counts, recurrence = report.counts, report.recurrence
    ctx = decimal.Context(prec=decimal.MAX_PREC)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    taps = [(i, ctx.create_decimal(a)) for i, a in enumerate(recurrence, 1) if a]
    recent = [ctx.create_decimal(c) for c in counts[: len(recurrence)]]
    total = ctx.create_decimal(0)
    for n in range(len(counts)):
        if n < len(recurrence):
            term = recent[n]
        else:
            term = ctx.create_decimal(0)
            for i, a in taps:
                term = ctx.fma(a, recent[-i], term)
            recent = recent[1:] + [term]
        total = ctx.add(total, term)
        yield str(term), str(total)


def hv_bits(report: CountReport) -> tuple[int, ...]:
    """Bits needed to label every word up to each length: ceil(log2) of
    the cumulative counts."""
    return tuple(
        (total - 1).bit_length() if total >= 1 else 0 for total in report.cumulative
    )


def shortest_words(dfa: Dfa) -> dict[int, tuple[SignedSymbol, ...]]:
    """A shortest word reaching each state, by BFS."""
    words: dict[int, tuple[SignedSymbol, ...]] = {dfa.start: ()}

    def successors(q: int) -> tuple[int, ...]:
        for sym, succ in zip(ALPHABET, dfa.delta[q]):
            if succ not in words:
                words[succ] = words[q] + (sym,)
        return dfa.delta[q]

    reachable(successors, dfa.start)
    return words


def to_dot(dfa: Dfa, labels: Mapping[int, str]) -> str:
    """Graphviz rendering with ``labels[q]`` on each state ``q``;
    accepting states are double circles and parallel edges are merged
    with token lists."""
    name = lambda q: f"q{q}"
    lines = ["digraph dfa {", "  rankdir=LR;", "  __start [shape=point];"]
    for q in dfa.states:
        shape = "doublecircle" if q in dfa.accepting else "circle"
        attrs = [f'shape="{shape}"', f'label="{labels[q]}"']
        if dfa.dead == q:
            attrs.append('style="dashed"')
        lines.append(f"  {name(q)} [{', '.join(attrs)}];")
    lines.append(f"  __start -> {name(dfa.start)};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for q in dfa.states:
        for k, succ in enumerate(dfa.delta[q]):
            grouped.setdefault((q, succ), []).append(ALPHABET[k].token)
    for (src, dst), tokens in sorted(grouped.items()):
        label = ",".join(tokens)
        lines.append(f'  {name(src)} -> {name(dst)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
