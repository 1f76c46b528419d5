"""Operational rules for sequential measurements on the square.

A measurement history is summarised by the set of currently determined
observables and their values.  Three rules drive the evolution:

* direct measurement: the measured observable becomes determined with
  the observed value; re-measuring a determined observable must repeat
  its current value, otherwise the history is inconsistent;
* disturbance: a determined observable that shares no context with the
  newly measured one loses its value;
* context completion: when two members of a context hold values, the
  third is forced so the product matches the context sign.

After any consistent history the determined set is empty, a single
observable, or exactly one full context.  That small state space is
what the rest of the package (grammar, automata, memory bounds, the
quantum cross-check) is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .square import (
    ALPHABET,
    CONTEXTS,
    OBSERVABLES,
    Context,
    Observable,
    SignedSymbol,
    parse_string,
)

Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class DeterminationState:
    """Immutable snapshot of the determined map; 0 marks undetermined."""

    values: tuple[int, ...]

    def value_of(self, obs: Observable) -> int | None:
        v = self.values[obs.index]
        return v if v else None

    @property
    def determined(self) -> dict[Observable, int]:
        return {o: v for o, v in zip(OBSERVABLES, self.values) if v}

    @property
    def is_empty(self) -> bool:
        return not any(self.values)

    @cached_property
    def _text(self) -> str:
        # built once: states are interned and reported often
        text = " ".join(
            f"{o.name}={v:+d}" for o, v in zip(OBSERVABLES, self.values) if v
        )
        return text or "(none)"

    def describe(self) -> str:
        return self._text


_STATES: dict[tuple[int, ...], DeterminationState] = {}


def _state(values: tuple[int, ...]) -> DeterminationState:
    try:
        return _STATES[values]
    except KeyError:
        st = DeterminationState(values)
        _STATES[values] = st
        return st


EMPTY_STATE = _state((0,) * 9)


@lru_cache(maxsize=None)
def step(
    state: DeterminationState, measurement: SignedSymbol
) -> DeterminationState | None:
    """Apply one measurement to a state by the three rules of the module
    docstring; a clash is reported as None, not as an exception."""
    me, value = measurement.obs, measurement.value
    if state.values[me.index] == -value:
        return None
    # disturbance: only the measured observable's row and column keep values
    new = [
        v if o.row == me.row or o.col == me.col else 0
        for o, v in zip(OBSERVABLES, state.values)
    ]
    new[me.index] = value
    # completion: only the measured observable's row and column can now
    # hold two values, and completing one adds no second value to any
    # other context, so one pass is enough
    for ctx in CONTEXTS:
        a, b, c = ctx.members
        held = [new[a.index], new[b.index], new[c.index]]
        if held.count(0) == 1:
            open_member = ctx.members[held.index(0)]
            new[open_member.index] = ctx.sign * math.prod(filter(None, held))
    return _state(tuple(new))


def reachable(
    successors: Callable[[Node], Iterable[Node]], start: Node
) -> tuple[Node, ...]:
    """Every node reachable from ``start`` along ``successors``, in BFS order."""
    order = [start]
    seen = {start}
    for node in order:
        for child in successors(node):
            if child not in seen:
                seen.add(child)
                order.append(child)
    return tuple(order)


# ---------------------------------------------------------------- the table
#
# ``step`` compiled once: the reachable states get dense ids in BFS
# order from the empty state (id 0), and DELTA[q][sym.index] is the id
# after measuring ``sym`` in state q.  A clash goes to the sink CLASH,
# whose row loops to itself, so a fold needs no branch.


_BY_ID: tuple[DeterminationState, ...] = reachable(
    lambda st: [r for sym in ALPHABET if (r := step(st, sym)) is not None],
    EMPTY_STATE,
)
_ID: dict[DeterminationState, int] = {st: q for q, st in enumerate(_BY_ID)}
CLASH = len(_BY_ID)
DELTA: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        CLASH if (r := step(st, sym)) is None else _ID[r] for sym in ALPHABET
    )
    for st in _BY_ID
) + ((CLASH,) * len(ALPHABET),)


def live(q: int) -> list[int]:
    """The state id after each consistent continuation of state ``q``."""
    return [r for r in DELTA[q] if r != CLASH]


def _coerce(w: str | Iterable[SignedSymbol]) -> tuple[SignedSymbol, ...]:
    if isinstance(w, str):
        return parse_string(w)
    return tuple(w)


def _fold(w: str | Iterable[SignedSymbol]) -> int:
    q = 0
    for sym in _coerce(w):
        q = DELTA[q][sym.index]
    return q


def final_state(w: str | Iterable[SignedSymbol]) -> DeterminationState | None:
    """Fold a string through ``step``; None when some measurement clashes."""
    q = _fold(w)
    return None if q == CLASH else _BY_ID[q]


def is_consistent(w: str | Iterable[SignedSymbol]) -> bool:
    return _fold(w) != CLASH


@dataclass(frozen=True)
class Trace:
    """Step-by-step record of a run, for reporting and the CLI table."""

    symbols: tuple[SignedSymbol, ...]
    states: tuple[DeterminationState, ...]  # after each consistent step
    failed_at: int | None  # 0-based index of the clashing symbol

    @property
    def consistent(self) -> bool:
        return self.failed_at is None

    @property
    def final(self) -> DeterminationState | None:
        if self.failed_at is not None:
            return None
        return self.states[-1] if self.states else EMPTY_STATE


def trace(w: str | Iterable[SignedSymbol]) -> Trace:
    symbols = _coerce(w)
    states = []
    q = 0
    for i, sym in enumerate(symbols):
        q = DELTA[q][sym.index]
        if q == CLASH:
            return Trace(symbols, tuple(states), i)
        states.append(_BY_ID[q])
    return Trace(symbols, tuple(states), None)


@lru_cache(maxsize=None)
def determined_context(
    state: DeterminationState,
) -> tuple[Context, tuple[int, int, int]] | None:
    """The unique fully determined context, if the state holds one."""
    for ctx in CONTEXTS:
        vals = tuple(state.values[o.index] for o in ctx.members)
        if all(vals):
            return ctx, vals
    return None


def agree(
    u: str | Iterable[SignedSymbol],
    v: str | Iterable[SignedSymbol],
    obs: Observable,
) -> bool:
    """Whether two consistent strings leave ``obs`` in the same condition.

    True when both leave it undetermined or both determine it with the
    same value.  Inconsistent input is a caller error.
    """
    su = final_state(u)
    sv = final_state(v)
    if su is None or sv is None:
        raise ValueError("agree requires consistent strings")
    return su.value_of(obs) == sv.value_of(obs)


def reachable_states() -> tuple[DeterminationState, ...]:
    """Every state reachable from the empty history, in BFS order; a
    state's position is its id in ``DELTA``."""
    return _BY_ID


def layers(
    successors: Callable[[Node], Iterable[Node]], start: Node, depth: int
) -> Iterator[dict[Node, int]]:
    """Multiplicity DP over a graph, one layer per length 0..depth.

    ``successors(node)`` lists one child per outgoing edge, repeats
    included.  Layer ``k`` maps each node to the number of length-``k``
    edge paths from ``start`` that end there, so a property of nodes
    summed with these weights counts strings without enumerating them.
    """
    layer = {start: 1}
    yield layer
    for _ in range(depth):
        nxt: dict[Node, int] = {}
        for node, count in layer.items():
            for child in successors(node):
                nxt[child] = nxt.get(child, 0) + count
        layer = nxt
        yield layer


def state_is_well_formed(state: DeterminationState) -> bool:
    """Structural invariant: the domain is empty, a singleton, or one
    full context whose values multiply to the context sign."""
    size = sum(map(bool, state.values))
    if size <= 1:
        return True
    found = determined_context(state)
    return size == 3 and found is not None and math.prod(found[1]) == found[0].sign
