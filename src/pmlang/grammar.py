"""Right-linear grammar generating exactly the consistent measurement strings.

Generating symbols carry just enough history to know what a consistent
continuation looks like:

* the start symbol, before anything is measured;
* a single promise ``[X]``: X is emitted next and will then be the only
  determined observable;
* a pair ``[X Y]``: Y is emitted next, X is the other relevant recorded
  outcome, and emitting Y leaves the full context of X and Y determined.

Each rule emits at most one terminal.  The schemas mirror the possible
continuations of a history: stop, repeat the last measurement, re-measure
another member of the determined context, jump to an incompatible
observable with a fresh start, or begin a new context through any of the
three determined members.  Side conditions phrased negatively
("sharing no context") are at the observable level, because admitting a
same-observable symbol with the opposite outcome would generate strings
that clash on re-measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Iterator

from . import automata
from .square import (
    ALPHABET,
    SignedSymbol,
    compatible,
    format_string,
    parse_string,
    shared_context,
    third_value,
)


@dataclass(frozen=True, eq=False)
class GeneratingSymbol:
    """Start symbol, single promise, or pair of (prior, promised) symbols.

    Interned: ``START``, ``single()`` and ``pair()`` make the only
    instances, so symbols compare and hash by identity.
    """

    prior: SignedSymbol | None
    promised: SignedSymbol | None

    def __post_init__(self):
        if self.prior is not None:
            if self.promised is None:
                raise ValueError("a pair symbol needs a promised symbol")
            if self.prior is self.promised or not compatible(self.prior, self.promised):
                raise ValueError("pair symbols pair distinct compatible symbols")

    @property
    def is_start(self) -> bool:
        return self.promised is None

    @property
    def is_single(self) -> bool:
        return self.prior is None and self.promised is not None

    @property
    def is_pair(self) -> bool:
        return self.prior is not None

    @cached_property
    def label(self) -> str:
        if self.is_start:
            return "[S]"
        if self.is_single:
            return f"[{self.promised.token}]"
        return f"[{self.prior.token} {self.promised.token}]"

    def __repr__(self) -> str:
        return f"GeneratingSymbol({self.label})"


START = GeneratingSymbol(None, None)


@lru_cache(maxsize=None)
def single(x: SignedSymbol) -> GeneratingSymbol:
    return GeneratingSymbol(None, x)


@lru_cache(maxsize=None)
def pair(x: SignedSymbol, y: SignedSymbol) -> GeneratingSymbol:
    return GeneratingSymbol(x, y)


@dataclass(frozen=True)
class Rule:
    """``lhs -> emitted rhs`` with either part optional; tagged by schema."""

    lhs: GeneratingSymbol
    emitted: SignedSymbol | None
    rhs: GeneratingSymbol | None
    schema: str

    @cached_property
    def text(self) -> str:
        """The rule as ``grammar --dump`` prints it, built on first use."""
        parts = [self.lhs.label, "->"]
        if self.emitted is not None:
            parts.append(self.emitted.token)
        if self.rhs is not None:
            parts.append(self.rhs.label)
        if self.emitted is None and self.rhs is None:
            parts.append("lambda")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Rule({self.text})"


# Schema names in instantiation order.
SCHEMAS = (
    "empty-word",  # [S] -> lambda
    "first-symbol",  # [S] -> [X], no terminal emitted
    "single-stop",  # [X] -> X
    "single-repeat",  # [X] -> X [X]
    "single-switch",  # [X] -> X [Z], obs(Z) shares no context with obs(X)
    "single-extend",  # [X] -> X [X Y], Y compatible with X, different observable
    "pair-stop",  # [X Y] -> Y
    "pair-repeat",  # [X Y] -> Y [X Y]
    "pair-swap",  # [X Y] -> Y [Y X]
    "pair-branch-last",  # [X Y] -> Y [Y Z], Z compatible with Y, obs(Z) foreign to obs(X)
    "pair-third",  # [X Y] -> Y [Y T], T the context-completion value of X and Y
    "pair-branch-third",  # [X Y] -> Y [T U], U compatible with T, obs(U) foreign to X and Y
    "pair-branch-prior",  # [X Y] -> Y [X W], W compatible with X, obs(W) foreign to obs(Y)
)


# A rule in the look-ahead table: the id of its right-hand symbol, or
# -1 when it has none, and the rule itself.
Edge = tuple[int, Rule]

# The look-ahead past the last token, which also stands for the token
# before the first; a look-ahead cell keys a token t and the look-ahead
# u as t * WIDTH + u.
END = len(ALPHABET)
WIDTH = END + 1


@dataclass
class Grammar:
    symbols: tuple[GeneratingSymbol, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        # The look-ahead table.  Each symbol's id is its position in
        # ``symbols``, and the extra last row holds the silent rules,
        # under token END.  cells[q][t * WIDTH + u] is the one edge that
        # leaves q emitting t and leads to a symbol that emits u next,
        # or to none when u is END.  Only filled cells are stored; a
        # cell that two rules fill is left out, and conflicts names it
        # and its rules.
        ids = {sym: q for q, sym in enumerate(self.symbols)}
        # ahead[q] holds the tokens symbol q emits; ahead[-1], of no symbol, END
        ahead = [set() for _ in self.symbols] + [{END}]
        for rule in self.rules:
            if rule.emitted is not None:
                ahead[ids[rule.lhs]].add(rule.emitted.index)
        self.cells: list[dict[int, Edge]] = [{} for _ in ahead]
        shared: dict[tuple[int, int], list[Edge]] = {}
        for rule in self.rules:
            edge = (-1 if rule.rhs is None else ids[rule.rhs], rule)
            if rule.emitted is None:
                q, t = len(self.symbols), END
            else:
                q, t = ids[rule.lhs], rule.emitted.index
            cell = self.cells[q]
            for u in ahead[edge[0]]:
                key = t * WIDTH + u
                if key in cell:
                    shared.setdefault((q, key), [cell[key]]).append(edge)
                else:
                    cell[key] = edge
        self.conflicts: dict[tuple[int, int], str] = {}
        for (q, key), edges in shared.items():
            del self.cells[q][key]
            self.conflicts[q, key] = _cell_text(key, edges)


def _cell_text(key: int, edges: list[Edge]) -> str:
    """A look-ahead cell and the rules that fill it, for a message."""
    t, u = divmod(key, WIDTH)
    on = "" if t == END else f" on {ALPHABET[t].token}"
    before = "end" if u == END else ALPHABET[u].token
    rules = ", ".join(f"{rule.text} ({rule.schema})" for _, rule in edges)
    return f"{edges[0][1].lhs.label}{on} before {before}: {rules}"


def _foreign(x: SignedSymbol, z: SignedSymbol) -> bool:
    """Observable-level incompatibility: distinct cells sharing no line."""
    return x.obs is not z.obs and shared_context(x.obs, z.obs) is None


def _compatible_partner(x: SignedSymbol, y: SignedSymbol) -> bool:
    """Compatible symbols on distinct observables."""
    return x.obs is not y.obs and compatible(x, y)


@lru_cache(maxsize=None)
def build_grammar() -> Grammar:
    """Instantiate every schema over the 18-symbol alphabet.

    Deterministic: symbols and rules come out in canonical alphabet
    order, schema by schema.
    """
    singles = [single(x) for x in ALPHABET]
    pairs = [
        pair(x, y) for x in ALPHABET for y in ALPHABET if _compatible_partner(x, y)
    ]
    symbols = (START, *singles, *pairs)

    rules: list[Rule] = [Rule(START, None, None, "empty-word")]
    rules += [Rule(START, None, single(x), "first-symbol") for x in ALPHABET]
    for x in ALPHABET:
        xs = single(x)
        rules.append(Rule(xs, x, None, "single-stop"))
        rules.append(Rule(xs, x, xs, "single-repeat"))
        rules += [
            Rule(xs, x, single(z), "single-switch") for z in ALPHABET if _foreign(x, z)
        ]
        rules += [
            Rule(xs, x, pair(x, y), "single-extend")
            for y in ALPHABET
            if _compatible_partner(x, y)
        ]
    for p in pairs:
        x, y = p.prior, p.promised
        t = third_value(x, y)
        rules.append(Rule(p, y, None, "pair-stop"))
        rules.append(Rule(p, y, p, "pair-repeat"))
        rules.append(Rule(p, y, pair(y, x), "pair-swap"))
        rules += [
            Rule(p, y, pair(y, z), "pair-branch-last")
            for z in ALPHABET
            if _compatible_partner(y, z) and _foreign(x, z)
        ]
        rules.append(Rule(p, y, pair(y, t), "pair-third"))
        rules += [
            Rule(p, y, pair(t, u), "pair-branch-third")
            for u in ALPHABET
            if _compatible_partner(t, u) and _foreign(x, u) and _foreign(y, u)
        ]
        rules += [
            Rule(p, y, pair(x, w), "pair-branch-prior")
            for w in ALPHABET
            if _compatible_partner(x, w) and _foreign(y, w)
        ]
    return Grammar(symbols, tuple(rules))


@dataclass(frozen=True)
class Derivation:
    """The rules that derive ``string``, in order.  The first leaves
    ``START`` and emits nothing, each later one emits the next token,
    and only the last has no right-hand symbol; so the form after step
    k is the first k tokens, then the label of that symbol."""

    string: tuple[SignedSymbol, ...]
    steps: tuple[Rule, ...]

    def _cuts(self) -> tuple[str, Iterator[tuple[int, str]]]:
        """The formatted string, and for each form but the last the
        length of its token prefix and the right-hand label after it."""
        text = format_string(self.string)
        # the first k tokens, each followed by a space, end at ends[k]
        ends = accumulate((len(s.token) + 1 for s in self.string), initial=0)
        return text, zip(ends, (rule.rhs.label for rule in self.steps[:-1]))

    def forms(self) -> Iterator[str]:
        """The sentential form after each step, cut from the formatted
        derived string, one at a time."""
        text, cuts = self._cuts()
        spaced = text + " "
        yield from (spaced[:end] + label for end, label in cuts)
        yield text or "lambda"

    def form_width(self) -> int:
        """The length of the longest form, without building the forms."""
        text, cuts = self._cuts()
        return max([len(text or "lambda"), *(end + len(label) for end, label in cuts)])


def derive_membership(
    w: str | Iterable[SignedSymbol], grammar: Grammar | None = None
) -> Derivation | None:
    """A witness derivation of ``w``, or None when no derivation exists.

    One pass with one token of look-ahead: a derivation can apply at
    each token only the rule in the cell of (its current symbol, the
    token, the next token or END), because the rule after it must emit
    that next token.  Each cell holds one rule, so the pass finds a
    derivation exactly when one exists, and it is the only one.  A cell
    that two rules fill raises ValueError when the pass reads it.
    """
    g = grammar or build_grammar()
    symbols = parse_string(w) if isinstance(w, str) else tuple(w)
    tokens = [s.index for s in symbols]
    cells = g.cells
    q = len(g.symbols)  # the last row, of the silent rules
    steps = []
    for t, u in zip([END, *tokens], [*tokens, END]):
        key = t * WIDTH + u
        edge = cells[q].get(key)
        if edge is None:
            if (q, key) in g.conflicts:
                conflict = g.conflicts[q, key]
                raise ValueError(f"two rules fill one look-ahead cell, {conflict}")
            return None
        q, rule = edge
        steps.append(rule)
    return Derivation(symbols, tuple(steps))


ACCEPT = "ACCEPT"


def to_nfa(grammar: Grammar | None = None) -> automata.Nfa:
    """The automaton whose states are the generating symbols plus one
    accept state; one transition per emitting rule.

    The non-emitting rules are folded away.  They all leave ``START``:
    ``[S] -> [X]`` and the empty-word rule ``[S] -> lambda``.  So the
    start state copies the outgoing transitions of every symbol ``[X]``
    those rules lead to, and it is accepting exactly when one of them
    is the empty-word rule.
    """
    g = grammar or build_grammar()
    # moves[q]: the (terminal, target) of each rule that leaves q emitting
    moves: dict[GeneratingSymbol, list] = {sym: [] for sym in g.symbols}
    for rule in g.rules:
        if rule.emitted is not None:
            moves[rule.lhs].append((rule.emitted, ACCEPT if rule.rhs is None else rule.rhs))
    transitions = {(lhs, sym, dst) for lhs, row in moves.items() for sym, dst in row}
    accepting = {ACCEPT}
    for rule in g.rules:
        if rule.emitted is None and rule.rhs is None:  # the empty-word rule
            accepting.add(START)
        elif rule.emitted is None:
            transitions |= {(START, sym, dst) for sym, dst in moves[rule.rhs]}
    return automata.Nfa(
        states=frozenset(g.symbols) | {ACCEPT},
        transitions=frozenset(transitions),
        start=START,
        accepting=frozenset(accepting),
    )
