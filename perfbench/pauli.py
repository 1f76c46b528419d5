"""The benchmark's own two-qubit model of the Peres-Mermin square.

It shares no code with ``pmlang``: the language is defined physically,
as the outcome strings that sequential projective measurements of the
nine Pauli observables can produce with non-zero probability.  A string
s_1 .. s_n is in the language exactly when the projector product
P_{s_n} ... P_{s_1} is not the zero operator, which is what
:func:`clash_index` tests.  Measured on the maximally mixed state every
conditional outcome probability is 0, 1/2 or 1, so after renormalising
each step a product is either zero or has norm at least 1/2; the
threshold below sits far from both.
"""

from __future__ import annotations

import numpy as np

NAMES = ("A", "B", "C", "a", "b", "c", "alpha", "beta", "gamma")

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Row-major over the square: rows multiply to +I, columns to +I, +I, -I.
OPERATORS = np.array(
    [
        np.kron(left, right)
        for left, right in (
            (_Z, _I), (_I, _Z), (_Z, _Z),
            (_I, _X), (_X, _I), (_X, _X),
            (_Z, _X), (_X, _Z), (_Y, _Y),
        )
    ]
)
# PROJECTORS[2 * i + 0] projects onto outcome +1 of observable i, [2 * i + 1] onto -1.
PROJECTORS = np.array(
    [(np.eye(4) + sign * op) / 2 for op in OPERATORS for sign in (1, -1)]
)
ZERO = 1e-6
# Token of each projector index, and back: "A", "~A", "B", ...
TOKENS = tuple(prefix + name for name in NAMES for prefix in ("", "~"))
SYMBOLS = {tok: i for i, tok in enumerate(TOKENS)}


def clash_index(symbols: list[int]) -> int | None:
    """0-based position of the first outcome with zero probability, or
    None when the whole string can occur."""
    m = np.eye(4, dtype=complex)
    for i, sym in enumerate(symbols):
        m = PROJECTORS[sym] @ m
        norm = np.linalg.norm(m)
        if norm < ZERO:
            return i
        m /= norm
    return None


def all_consistent(rows: np.ndarray, chunk: int = 2000) -> np.ndarray:
    """Vectorised :func:`clash_index` over equal-length strings: one
    boolean per row of the (runs, length) array of projector indices."""
    out = np.ones(len(rows), dtype=bool)
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        m = np.broadcast_to(np.eye(4, dtype=complex), (len(block), 4, 4)).copy()
        ok = np.ones(len(block), dtype=bool)
        for col in range(block.shape[1]):
            m = PROJECTORS[block[:, col]] @ m
            norm = np.sqrt(np.einsum("kij,kij->k", m.conj(), m).real)
            ok &= norm >= ZERO
            m /= np.where(norm >= ZERO, norm, 1.0)[:, None, None]
        out[lo : lo + chunk] = ok
    return out


def sample_string(rng: np.random.Generator, length: int) -> list[int]:
    """Measure ``length`` uniformly chosen observables in sequence on a
    Haar-random pure state and return the outcome string."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    out = []
    for _ in range(length):
        obs = int(rng.integers(9))
        branch = PROJECTORS[2 * obs] @ psi
        p_plus = float(np.vdot(branch, branch).real)
        p_plus = 0.0 if p_plus < ZERO else 1.0 if p_plus > 1 - ZERO else p_plus
        sym = 2 * obs if rng.random() < p_plus else 2 * obs + 1
        psi = PROJECTORS[sym] @ psi
        psi /= np.linalg.norm(psi)
        out.append(sym)
    return out
