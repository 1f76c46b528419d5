"""Two-qubit state-vector simulator for projective measurements of the
square's observables.

Each observable is a Hermitian tensor product of Pauli matrices with
eigenvalues +/-1; within any row or column the three operators commute
and multiply to plus or minus the identity according to the context
sign.  Sampling sequences of these measurements gives an independent
physical ground truth against which the symbolic machinery is checked.

Every operator is a signed permutation matrix (one entry of modulus 1
per row), so the batched sampler applies it to a whole block of states
by a gather and a phase, without a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from .square import ALPHABET, CONTEXTS, OBSERVABLES, Observable, SignedSymbol

TOLERANCE = 1e-12

# Measurements per block of the batched sampler, and the fewest runs
# in a block; see block_runs().
BLOCK_STEPS = 1 << 10
MIN_BLOCK_RUNS = 8

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
    """A square observable with its operator, its spectral projectors and
    its signed-permutation form: row r of the operator holds the single
    nonzero entry ``phase[r]`` in column ``perm[r]``."""

    obs: Observable
    operator: np.ndarray

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        name = self.obs.name
        if not np.allclose(op, op.conj().T, atol=TOLERANCE):
            raise ValueError(f"the operator of {name} must be Hermitian")
        if not np.allclose(op @ op, np.eye(4), atol=TOLERANCE):
            raise ValueError(f"the operator of {name} must square to the identity")
        support = np.abs(op) > TOLERANCE
        self.perm = support.argmax(axis=1)
        self.phase = op[np.arange(4), self.perm]
        if not (support.sum(axis=1) == 1).all() or not np.allclose(
            np.abs(self.phase), 1.0, atol=TOLERANCE
        ):
            raise ValueError(
                f"the operator of {name} must be a signed permutation matrix"
            )
        self.operator = op
        self.proj_plus = (np.eye(4) + op) / 2
        self.proj_minus = (np.eye(4) - op) / 2


def pauli_table() -> dict[Observable, PauliObservable]:
    """The nine measurement operators, not yet checked for the context
    laws."""
    return {
        obs: PauliObservable(obs, np.kron(left, right))
        for obs, (left, right) in zip(OBSERVABLES, _PAULI_WORDS)
    }


@lru_cache(maxsize=None)
def standard_square() -> dict[Observable, PauliObservable]:
    """The nine measurement operators, checked for the context laws.

    Raises if any in-context pair fails to commute or any context
    product differs from sign times identity, so a wrong assignment
    cannot survive construction.
    """
    table = pauli_table()
    failures = operator_law_failures(table)
    if failures:
        raise AssertionError("; ".join(failures))
    return table


def operator_law_failures(table: dict[Observable, PauliObservable]) -> list[str]:
    """Every broken operator law of a table: an in-context pair that
    does not commute, or a context whose product is not its sign times
    the identity.  Each operator squares to the identity already, as
    ``PauliObservable`` refuses any other."""
    eye = np.eye(4)
    failures = []
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


def haar_vector(rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed unit vector from normalized complex Gaussians."""
    while True:
        z = rng.normal(size=8)
        vec = z[:4] + 1j * z[4:]
        # np.linalg.norm's own formula for a complex vector, without its
        # dispatch
        re, im = vec.real, vec.imag
        norm = np.sqrt(re.dot(re) + im.dot(im))
        if norm > 1e-6:
            return vec / norm


def haar_random_state(rng: np.random.Generator) -> QState:
    """A Haar-distributed pure state."""
    return QState(haar_vector(rng))


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


def measure_runs(
    psi: np.ndarray, ks: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure a block of runs: run i starts in state ``psi[i]`` and at
    step t measures observable ``ks[i, t]``, with outcome +1 exactly when
    ``us[i, t]`` is below the +1 probability, snapped to 0 or 1 within
    TOLERANCE as in :func:`measure`.

    Returns the outcomes (True for +1) as a (runs, steps) array, and the
    states after the last step, from which a next chunk of the same runs
    goes on.
    """
    table = standard_square()
    perms = np.array([table[o].perm for o in OBSERVABLES])
    phases = np.array([table[o].phase for o in OBSERVABLES])
    # per step and run: where in the flattened psi op·psi reads each
    # amplitude, and the phase it multiplies it by
    gather = perms[ks.T] + 4 * np.arange(len(psi))[:, None]
    phase = phases[ks.T]
    plus = np.empty(ks.shape[::-1], dtype=bool)
    for t, u in enumerate(us.T):
        flipped = phase[t] * psi.take(gather[t])
        # twice each branch; halving would not change the normalised state
        twice_plus = psi + flipped
        prob_plus = (psi.conj() * twice_plus).real.sum(axis=1) / 2
        prob_plus[prob_plus < TOLERANCE] = 0.0
        prob_plus[prob_plus > 1.0 - TOLERANCE] = 1.0
        plus[t] = hit = u < prob_plus
        branch = np.where(hit[:, None], twice_plus, psi - flipped)
        norm = np.sqrt((branch.conj() * branch).real.sum(axis=1))
        if norm.min() < 2 * TOLERANCE:
            raise AssertionError("projected onto a zero-probability branch")
        psi = branch / norm[:, None]
    return plus.T, psi


# Generator.integers(9) takes a 32-bit half of a PCG64 word, x, and
# returns (9x) >> 32, unless (9x) mod 2**32 falls below this threshold,
# when it draws another half instead (Lemire's method).
_REJECT_BELOW = (2**32 - len(OBSERVABLES)) % len(OBSERVABLES)


def _decode(words: np.ndarray, steps: int):
    """The observables and uniforms that ``steps`` pairs of scalar calls
    ``rng.integers(9)``, ``rng.random()`` would draw from the raw PCG64
    words ``rng.bit_generator.random_raw(3 * ceil(steps / 2))``, one row
    per run, and per run whether some ``integers`` call would have
    rejected its draw, so that the row is not what it would draw.

    Steps 2j and 2j + 1 take their observables from the low and the high
    half of word 3j, which the generator keeps between the two calls,
    and their uniforms from words 3j + 1 and 3j + 2, by ``random()``'s
    (w >> 11) * 2**-53.
    """
    runs = len(words)
    triples = words.reshape(runs, -1, 3)
    ints = triples[:, :, 0]
    halves = np.stack([ints & 0xFFFFFFFF, ints >> 32], axis=2).reshape(runs, -1)
    scaled = halves[:, :steps] * len(OBSERVABLES)
    rejected = ((scaled & 0xFFFFFFFF) < _REJECT_BELOW).any(axis=1)
    uniforms = (triples[:, :, 1:].reshape(runs, -1)[:, :steps] >> 11) * 2.0**-53
    return (scaled >> 32).astype(np.uint8), uniforms, rejected


def _scalar_steps(rng: np.random.Generator, steps: int) -> np.ndarray:
    """``steps`` (observable, uniform) rows drawn by the scalar calls."""
    count = len(OBSERVABLES)
    return np.array(
        [(rng.integers(count), rng.random()) for _ in range(steps)]
    ).reshape(steps, 2)


def block_runs(length: int) -> int:
    """Runs per block of the sampler: BLOCK_STEPS measurements' worth,
    and at least MIN_BLOCK_RUNS, so that each numpy step of a long run
    also advances other runs."""
    return max(MIN_BLOCK_RUNS, BLOCK_STEPS // max(length, 1))


def _sample_block(
    seeds: list, length: int
) -> Iterator[tuple[SignedSymbol, ...]]:
    """Runs of ``length`` steps, one per seed: from a generator on the
    seed, a Haar start state, then per step a uniform observable and a
    uniform number, drawn as ``rng.integers(9)`` and ``rng.random()``
    would draw them.

    The steps go in chunks of about BLOCK_STEPS // len(seeds), an even
    number so that no kept half word crosses a chunk, and each chunk
    takes one ``random_raw`` call per run; so the draws held at once stay
    bounded for any length.  A run whose draw Lemire's method would
    reject is drawn again by the scalar calls, from a fresh generator.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    psi = np.array([haar_vector(rng) for rng in rngs])
    ks = np.empty((len(rngs), length), dtype=np.uint8)
    plus = np.empty((len(rngs), length), dtype=bool)
    chunk = max(2, BLOCK_STEPS // len(rngs) & ~1)
    scalar = {}  # run -> generator that redraws it by scalar calls
    for t0 in range(0, length, chunk):
        steps = min(chunk, length - t0)
        words = np.array(
            [rng.bit_generator.random_raw(3 * -(-steps // 2)) for rng in rngs]
        )
        k, us, rejected = _decode(words, steps)
        for i in np.flatnonzero(rejected).tolist():
            if i not in scalar:
                scalar[i] = rng = np.random.default_rng(seeds[i])
                haar_vector(rng)
                for _ in range(0, t0, chunk):
                    _scalar_steps(rng, chunk)
        # the bulk draws of such a run go on, unused
        for i, rng in scalar.items():
            k[i], us[i] = _scalar_steps(rng, steps).T
        ks[:, t0:t0 + steps] = k
        plus[:, t0:t0 + steps], psi = measure_runs(psi, k, us)
    # ALPHABET lists each observable's +1 symbol before its -1 symbol
    for codes in (2 * ks + ~plus).tolist():
        yield tuple(map(ALPHABET.__getitem__, codes))


def sample_run(length: int, seed: int) -> tuple[SignedSymbol, ...]:
    """One reproducible measurement sequence from a fresh random state."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return next(_sample_block([seed], length))


def sample_many(
    runs: int, length: int, seed: int
) -> Iterator[tuple[SignedSymbol, ...]]:
    """Independent reproducible runs via spawned per-run rng streams,
    measured a block at a time."""
    root = np.random.SeedSequence(seed)
    block = block_runs(length)
    for done in range(0, runs, block):
        yield from _sample_block(root.spawn(min(block, runs - done)), length)
