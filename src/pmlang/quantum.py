"""Two-qubit state-vector simulator for projective measurements of the
square's observables.

Each observable is a Hermitian tensor product of Pauli matrices with
eigenvalues +/-1; within any row or column the three operators commute
and multiply to plus or minus the identity according to the context
sign.  Sampling sequences of these measurements gives an independent
physical ground truth against which the symbolic machinery is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from .square import (
    CONTEXTS,
    OBSERVABLES,
    Observable,
    SignedSymbol,
    signed,
)

TOLERANCE = 1e-12

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Operator assignment, row-major over the square.  Any assignment with
# the right commutation and product structure would do; this is the
# standard published one, and standard_square() re-checks the structure
# on construction.
_PAULI_WORDS = (
    (_Z, _I),
    (_I, _Z),
    (_Z, _Z),
    (_I, _X),
    (_X, _I),
    (_X, _X),
    (_Z, _X),
    (_X, _Z),
    (_Y, _Y),
)


@dataclass
class QState:
    """A normalized pure state of two qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        if abs(self.norm() - 1.0) > TOLERANCE:
            raise ValueError("state vector must be normalized")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class PauliObservable:
    """A square observable with its operator and spectral projectors."""

    obs: Observable
    operator: np.ndarray

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if not np.allclose(op, op.conj().T, atol=TOLERANCE):
            raise ValueError("observable operator must be Hermitian")
        if not np.allclose(op @ op, np.eye(4), atol=TOLERANCE):
            raise ValueError("observable operator must square to the identity")
        self.operator = op
        self.proj_plus = (np.eye(4) + op) / 2
        self.proj_minus = (np.eye(4) - op) / 2


@lru_cache(maxsize=None)
def standard_square() -> dict[Observable, PauliObservable]:
    """The nine measurement operators, checked for the context laws.

    Raises if any in-context pair fails to commute or any context
    product differs from sign times identity, so a wrong assignment
    cannot survive construction.
    """
    table = {
        obs: PauliObservable(obs, np.kron(left, right))
        for obs, (left, right) in zip(OBSERVABLES, _PAULI_WORDS)
    }
    failures = operator_law_failures(table)
    if failures:
        raise AssertionError("; ".join(failures))
    return table


def operator_law_failures(table: dict[Observable, PauliObservable]) -> list[str]:
    """Every broken operator law of a table: an operator that does not
    square to the identity, an in-context pair that does not commute, or
    a context whose product is not its sign times the identity."""
    eye = np.eye(4)
    failures = [
        f"{obs.name} is not an involution"
        for obs, p in table.items()
        if not np.allclose(p.operator @ p.operator, eye, atol=TOLERANCE)
    ]
    for ctx in CONTEXTS:
        for a, b in combinations(ctx.members, 2):
            pa, pb = table[a].operator, table[b].operator
            if not np.allclose(pa @ pb, pb @ pa, atol=TOLERANCE):
                failures.append(
                    f"{a.name} and {b.name} do not commute in context {ctx.name}"
                )
        ops = [table[o].operator for o in ctx.members]
        prod = ops[0] @ ops[1] @ ops[2]
        if not np.allclose(prod, ctx.sign * eye, atol=TOLERANCE):
            failures.append(
                f"context {ctx.name} product is not {ctx.sign:+d} identity"
            )
    return failures


def haar_random_state(rng: np.random.Generator) -> QState:
    """A Haar-distributed pure state from normalized complex Gaussians."""
    while True:
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            return QState(vec / norm)


def measure(
    state: QState, pauli: PauliObservable, rng: np.random.Generator
) -> tuple[int, QState]:
    """Projectively measure; returns the sampled value and the
    normalized post-measurement state.

    Outcome probabilities within TOLERANCE of 0 or 1 are snapped, so an
    outcome that the preparation forces is reproduced exactly.
    """
    psi = state.amplitudes
    branch_plus = pauli.proj_plus @ psi
    prob_plus = float(np.real(np.vdot(psi, branch_plus)))
    if prob_plus < TOLERANCE:
        prob_plus = 0.0
    elif prob_plus > 1.0 - TOLERANCE:
        prob_plus = 1.0
    value = 1 if rng.random() < prob_plus else -1
    branch = branch_plus if value == 1 else pauli.proj_minus @ psi
    norm = np.linalg.norm(branch)
    if norm < TOLERANCE:
        raise AssertionError("projected onto a zero-probability branch")
    return value, QState(branch / norm)


def sample_symbols(
    length: int, rng: np.random.Generator, state: QState | None = None
) -> Iterator[SignedSymbol]:
    """Measure ``length`` uniformly chosen observables in sequence,
    yielding the outcome-labelled symbols."""
    table = standard_square()
    st = state if state is not None else haar_random_state(rng)
    for _ in range(length):
        obs = OBSERVABLES[rng.integers(len(OBSERVABLES))]
        value, st = measure(st, table[obs], rng)
        yield signed(obs, value)


def sample_run(length: int, seed: int) -> tuple[SignedSymbol, ...]:
    """One reproducible measurement sequence from a fresh random state."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = np.random.default_rng(seed)
    return tuple(sample_symbols(length, rng))


def sample_many(
    runs: int, length: int, seed: int
) -> Iterator[tuple[SignedSymbol, ...]]:
    """Independent reproducible runs via spawned per-run rng streams."""
    for seq in np.random.SeedSequence(seed).spawn(runs):
        rng = np.random.default_rng(seq)
        yield tuple(sample_symbols(length, rng))
