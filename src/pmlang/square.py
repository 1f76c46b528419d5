"""The Peres-Mermin square: observables, contexts, and outcome-labelled symbols.

The nine observables sit in a 3x3 grid:

    A      B      C
    a      b      c
    alpha  beta   gamma

Each row and each column forms a context of three jointly measurable
observables.  A context constrains the product of its three outcomes:
+1 for five of the contexts and -1 for the column {C, c, gamma}.  Since
every observable lies in exactly one row and one column, flipping a
single value flips the product of exactly two contexts, which is why no
global assignment of +/-1 values can meet all six constraints at once.

Strings of measurements are written as whitespace-separated tokens, one
per measurement, where a ``~`` prefix marks outcome -1 (``A B ~gamma``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

OBSERVABLE_NAMES = ("A", "B", "C", "a", "b", "c", "alpha", "beta", "gamma")


@dataclass(frozen=True)
class Observable:
    """One cell of the square, addressed by (row, col)."""

    name: str
    row: int
    col: int
    index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index", 3 * self.row + self.col)

    def __repr__(self) -> str:
        return f"Observable({self.name})"


OBSERVABLES: tuple[Observable, ...] = tuple(
    Observable(name, i // 3, i % 3) for i, name in enumerate(OBSERVABLE_NAMES)
)
OBSERVABLE_BY_NAME: dict[str, Observable] = {o.name: o for o in OBSERVABLES}


@dataclass(frozen=True)
class Context:
    """A row or column of the square together with its product constraint.

    Members are ordered left to right for rows and top to bottom for
    columns; that order is what "first two members" means everywhere.
    """

    kind: str  # "row" or "col"
    index: int
    members: tuple[Observable, Observable, Observable]
    sign: int

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __repr__(self) -> str:
        return f"Context({self.name})"


def _build_contexts() -> tuple[Context, ...]:
    rows = [
        Context("row", r, tuple(OBSERVABLES[3 * r + c] for c in range(3)), 1)
        for r in range(3)
    ]
    cols = [
        Context(
            "col",
            c,
            tuple(OBSERVABLES[3 * r + c] for r in range(3)),
            -1 if c == 2 else 1,
        )
        for c in range(3)
    ]
    return tuple(rows + cols)


CONTEXTS: tuple[Context, ...] = _build_contexts()


def shared_context(x: Observable, y: Observable) -> Context | None:
    """The unique context containing both observables, if any.

    Two distinct cells share at most one line of the grid.  For ``x is y``
    the row context is returned; callers that need strictness must check
    distinctness themselves.
    """
    if x.row == y.row:
        return CONTEXTS[x.row]
    if x.col == y.col:
        return CONTEXTS[3 + x.col]
    return None


def obs_compatible(x: Observable, y: Observable) -> bool:
    """Whether two distinct observables are jointly measurable."""
    return x is not y and shared_context(x, y) is not None


@dataclass(frozen=True)
class SignedSymbol:
    """An observable together with a recorded outcome, e.g. ``~b``."""

    obs: Observable
    value: int  # +1 or -1
    # position in the canonical 18-symbol alphabet order
    index: int = field(init=False, compare=False, repr=False)
    token: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        minus = self.value != 1
        object.__setattr__(self, "index", 2 * self.obs.index + int(minus))
        object.__setattr__(self, "token", "~" * minus + self.obs.name)

    def __hash__(self) -> int:
        # equal symbols share an index; the generated hash would recurse
        # into the observable on every cache lookup
        return self.index

    def __repr__(self) -> str:
        return f"SignedSymbol({self.token})"


ALPHABET: tuple[SignedSymbol, ...] = tuple(
    SignedSymbol(obs, value) for obs in OBSERVABLES for value in (1, -1)
)
_SIGNED: dict[tuple[str, int], SignedSymbol] = {
    (s.obs.name, s.value): s for s in ALPHABET
}


def signed(obs: Observable | str, value: int) -> SignedSymbol:
    """Interned signed symbol for an observable (or its token name)."""
    name = obs if isinstance(obs, str) else obs.name
    try:
        return _SIGNED[(name, value)]
    except KeyError:
        raise ValueError(f"no symbol for observable {name!r} with value {value}")


def compatible(s: SignedSymbol, t: SignedSymbol) -> bool:
    """Compatibility on outcome-labelled symbols.

    Symbols on distinct observables are compatible exactly when the
    observables share a context; symbols on the same observable are
    compatible only when they also agree on the outcome, so ``A`` is
    compatible with ``A`` but not with ``~A``.
    """
    if s.obs is t.obs:
        return s.value == t.value
    return shared_context(s.obs, t.obs) is not None


def third_value(s: SignedSymbol, t: SignedSymbol) -> SignedSymbol:
    """The outcome forced on the remaining observable of a shared context.

    Given compatible symbols on two distinct observables, the third
    member of their common context must carry the value that makes the
    three outcomes multiply to the context sign.
    """
    if s.obs is t.obs:
        raise ValueError(f"{s.token} and {t.token} lie on the same observable")
    ctx = shared_context(s.obs, t.obs)
    if ctx is None:
        raise ValueError(f"{s.token} and {t.token} share no context")
    (remaining,) = [o for o in ctx.members if o is not s.obs and o is not t.obs]
    return signed(remaining, ctx.sign * s.value * t.value)


class TokenError(ValueError):
    """A malformed token, remembering its 0-based position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


_BY_TOKEN: dict[str, SignedSymbol] = {s.token: s for s in ALPHABET}


def parse_token(text: str) -> SignedSymbol:
    try:
        return _BY_TOKEN[text]
    except KeyError:
        raise ValueError(f"unrecognized token {text!r}") from None


def parse_string(text: str) -> tuple[SignedSymbol, ...]:
    """Parse a whitespace-separated token string; empty input is the empty word."""
    tokens = text.split()
    try:
        return tuple(map(_BY_TOKEN.__getitem__, tokens))
    except KeyError:
        i, tok = next((i, t) for i, t in enumerate(tokens) if t not in _BY_TOKEN)
        raise TokenError(f"token {i + 1}: unrecognized token {tok!r}", i) from None


def format_string(symbols: tuple[SignedSymbol, ...] | list[SignedSymbol]) -> str:
    return " ".join(s.token for s in symbols)


@dataclass(frozen=True)
class SquareFilling:
    """A total assignment of +/-1 values to all nine observables."""

    values: tuple[int, ...]  # aligned with OBSERVABLES

    def __post_init__(self):
        if len(self.values) != 9 or any(v not in (1, -1) for v in self.values):
            raise ValueError("a filling assigns +1 or -1 to each of the 9 cells")

    def value_of(self, obs: Observable) -> int:
        return self.values[obs.index]


def negative_context_count(filling: SquareFilling) -> int:
    """How many of the six contexts have member values multiplying to -1.

    This count is even for every filling, which is what rules out a
    classical assignment satisfying all six product constraints: that
    would need exactly one negative product.
    """
    count = 0
    for ctx in CONTEXTS:
        prod = 1
        for obs in ctx.members:
            prod *= filling.values[obs.index]
        if prod == -1:
            count += 1
    return count


def all_fillings() -> Iterator[SquareFilling]:
    """All 512 assignments of +/-1 values to the square."""
    for values in itertools.product((1, -1), repeat=9):
        yield SquareFilling(values)
