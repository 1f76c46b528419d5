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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Iterable

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


@dataclass(frozen=True)
class GeneratingSymbol:
    """Start symbol, single promise, or pair of (prior, promised) symbols."""

    prior: SignedSymbol | None
    promised: SignedSymbol | None
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.prior is not None:
            if self.promised is None:
                raise ValueError("a pair symbol needs a promised symbol")
            if self.prior is self.promised or not compatible(self.prior, self.promised):
                raise ValueError("pair symbols pair distinct compatible symbols")
        # the value the generated hash would give, computed once
        object.__setattr__(self, "_hash", hash((self.prior, self.promised)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_start(self) -> bool:
        return self.promised is None

    @property
    def is_single(self) -> bool:
        return self.prior is None and self.promised is not None

    @property
    def is_pair(self) -> bool:
        return self.prior is not None

    @property
    def label(self) -> str:
        if self.is_start:
            return "[S]"
        if self.is_single:
            return f"[{self.promised.token}]"
        return f"[{self.prior.token} {self.promised.token}]"

    def __repr__(self) -> str:
        return f"GeneratingSymbol({self.label})"


START = GeneratingSymbol(None, None)


# Interned, so the rules share one object per symbol.
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


# A rule in the grammar's tables: the id of its right-hand symbol, or
# -1 when it has none, and the rule itself.
Edge = tuple[int, Rule]


@dataclass
class Grammar:
    symbols: tuple[GeneratingSymbol, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        # Each symbol's id is its position in ``symbols``.
        # emits[lhs id][terminal index] holds the emitting rules as
        # edges, in canonical order; silent holds the rest.
        ids = {sym: q for q, sym in enumerate(self.symbols)}
        emits: list[list[list[Edge]]] = [[[] for _ in ALPHABET] for _ in self.symbols]
        silent: list[Edge] = []
        for rule in self.rules:
            edge = (-1 if rule.rhs is None else ids[rule.rhs], rule)
            if rule.emitted is None:
                silent.append(edge)
            else:
                emits[ids[rule.lhs]][rule.emitted.index].append(edge)
        self.emits: tuple[tuple[tuple[Edge, ...], ...], ...] = tuple(
            tuple(map(tuple, row)) for row in emits
        )
        self.silent: tuple[Edge, ...] = tuple(silent)


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

    def forms(self) -> list[str]:
        """The sentential form after each step, cut from the formatted
        derived string."""
        text = format_string(self.string)
        spaced = text + " "
        # spaced[: ends[k]] is the first k tokens, each followed by a space
        ends = accumulate((len(s.token) + 1 for s in self.string), initial=0)
        forms = [
            spaced[:end] + rule.rhs.label for end, rule in zip(ends, self.steps[:-1])
        ]
        return forms + [text or "lambda"]


def derive_membership(
    w: str | Iterable[SignedSymbol], grammar: Grammar | None = None
) -> Derivation | None:
    """A witness derivation of ``w``, or None when no derivation exists.

    Forward search over the rule graph with one back-pointer per
    (position, symbol); rules are explored in canonical order, so the
    returned witness is deterministic.  The search runs over symbol ids.
    """
    g = grammar or build_grammar()
    symbols = parse_string(w) if isinstance(w, str) else tuple(w)
    # layers[i] maps the id of each generating symbol reachable after i
    # tokens, or -1 once the string is complete, to its predecessor's id
    # and the rule
    layer = {}
    for rhs, rule in g.silent:
        if (rhs < 0) == (not symbols):
            layer.setdefault(rhs, (-1, rule))
    layers = [layer]
    emits = g.emits
    for i, tok in enumerate(symbols, 1):
        last = i == len(symbols)
        t = tok.index
        layer = {}
        for q in layers[-1]:
            for rhs, rule in emits[q][t]:
                if (rhs < 0) == last:
                    layer.setdefault(rhs, (q, rule))
        if not layer:
            return None
        layers.append(layer)
    if -1 not in layers[-1]:
        return None

    steps = []
    q = -1
    for layer in reversed(layers):
        q, rule = layer[q]
        steps.append(rule)
    return Derivation(symbols, tuple(reversed(steps)))


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

    def target(rhs: int) -> object:
        return g.symbols[rhs] if rhs >= 0 else ACCEPT

    transitions: set[tuple[object, SignedSymbol, object]] = set()
    for lhs, row in zip(g.symbols, g.emits):
        for rhs, rule in chain.from_iterable(row):
            transitions.add((lhs, rule.emitted, target(rhs)))
    accepting = {ACCEPT}
    for rhs, _ in g.silent:
        if rhs < 0:  # the empty-word rule
            accepting.add(START)
        else:
            for r, rule in chain.from_iterable(g.emits[rhs]):
                transitions.add((START, rule.emitted, target(r)))
    return automata.Nfa(
        states=frozenset(g.symbols) | {ACCEPT},
        transitions=frozenset(transitions),
        start=START,
        accepting=frozenset(accepting),
    )
