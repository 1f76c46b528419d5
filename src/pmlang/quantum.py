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
from numpy.random.bit_generator import ISeedSequence

from .square import ALPHABET, CONTEXTS, OBSERVABLES, Observable, SignedSymbol

TOLERANCE = 1e-12

# Measurements per block of the batched sampler, and the fewest runs
# in a block; see block_runs().
BLOCK_STEPS = 1 << 12
MIN_BLOCK_RUNS = 8

# a Gaussian draw whose norm is at most this is drawn again
_MIN_NORM = 1e-6

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


def haar_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors from rows of eight normal draws, the real parts then
    the imaginary parts, and per row whether its norm exceeds _MIN_NORM;
    a row that does not is drawn again, and its vector here means
    nothing.

    The norm is np.linalg.norm's, bit for bit: the square root of the
    real and the imaginary parts' dot products, each of which adds its
    four squares in two lanes, (x0² + x2²) + (x1² + x3²), as the
    OpenBLAS dot product that numpy ships does for four elements.
    """
    squares = (z * z).reshape(-1, 2, 2, 2)  # row, part, half, lane
    lanes = squares[:, :, 0] + squares[:, :, 1]
    dots = lanes[:, :, 0] + lanes[:, :, 1]
    norm = np.sqrt(dots[:, 0] + dots[:, 1])
    vec = z[:, :4] + 1j * z[:, 4:]
    return vec / norm[:, None], norm > _MIN_NORM


def haar_vector(rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed unit vector from normalized complex Gaussians:
    the one-row case of :func:`haar_rows`, drawn until its norm is kept."""
    while True:
        vec, kept = haar_rows(rng.normal(size=(1, 8)))
        if kept[0]:
            return vec[0]


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


def measure_fresh(rng: np.random.Generator, ks: list[int], runs: int) -> np.ndarray:
    """The outcomes (True for +1) of measuring the observables ``ks`` in
    turn on ``runs`` fresh Haar states, as a (runs, len(ks)) array: one
    block of normals for the states, one more for the rows whose norm is
    too short until all are kept, then one block of uniforms."""
    starts, kept = haar_rows(rng.normal(size=(runs, 8)))
    while not kept.all():
        short = np.flatnonzero(~kept)
        starts[short], kept[short] = haar_rows(rng.normal(size=(len(short), 8)))
    return measure_runs(starts, np.tile(ks, (runs, 1)), rng.random((runs, len(ks))))[0]


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


# numpy's SeedSequence, after O'Neill's seed_seq_fe: the constants of
# the hash that mixes the entropy into its pool of four 32-bit words,
# and of the one that generate_state reads the pool by
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def child_seed_words(seed: int, start: int, count: int) -> np.ndarray:
    """Row i is ``generate_state(4, np.uint64)`` of child ``start + i``
    of ``SeedSequence(seed)``, as ``spawn`` makes it: the words from
    which PCG64 seeds that child's generator.

    A child's entropy is the seed's words, zero-padded to the pool size,
    then its index as one more word, its spawn key.  Up to that word the
    hash is the parent's, which numpy exposes as ``pool``; each child
    mixes only its index into that pool, one column for all children.
    A child index of 2**32 or more is a key of two words; those children
    are made one at a time, as spawn would make them.
    """
    parent = np.random.SeedSequence(seed)
    stop = start + count
    cut = min(max(start, 2**32), stop)
    # the hash calls that built the pool: four to fill it, twelve to mix
    # it, and four for each seed word past the fourth
    seed_words = max(1, -(-seed.bit_length() // 32))
    calls = 16 + 4 * max(0, seed_words - 4)
    hash_const = _INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32
    index = np.arange(start, cut, dtype=np.uint32)
    pool = []
    for word in parent.pool.tolist():
        value = index ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        value ^= value >> 16
        value = (word * _MIX_MULT_L & _MASK32) - value * _MIX_MULT_R
        pool.append(value ^ value >> 16)
    # generate_state(4, np.uint64): eight 32-bit words read cyclically
    # from the pool, paired low word first
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % len(pool)] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        halves.append((value ^ value >> 16).astype(np.uint64))
    words = np.empty((count, 4), dtype=np.uint64)
    words[:cut - start] = np.stack(halves[0::2], axis=1) | np.stack(
        halves[1::2], axis=1
    ) << 32
    # numpy's spawn counts its children in 32 bits and loops at 2**32
    for i in range(cut, stop):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        words[i - start] = child.generate_state(4, np.uint64)
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 words already generated: PCG64
    asks its seed sequence for ``generate_state(4, np.uint64)`` alone."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (len(self.words), np.uint64):
            raise ValueError("only the words given can be generated")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator that ``default_rng`` makes from a seed sequence
    whose ``generate_state(4, np.uint64)`` is ``words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _sample_block(words: np.ndarray, length: int) -> np.ndarray:
    """Runs of ``length`` steps as ALPHABET indexes, one row per row of
    seed words: from the generator on the words, a Haar start state, then
    per step a uniform observable and a uniform number, drawn as
    ``rng.integers(9)`` and ``rng.random()`` would draw them.

    The start states come from one ``normal(size=8)`` draw per run; a
    run whose draw :func:`haar_vector` would draw again is drawn by it,
    from a fresh generator.  The steps go in chunks of about
    BLOCK_STEPS // len(words), an even number so that no kept half word
    crosses a chunk, and each chunk takes one ``random_raw`` call per
    run; so the draws held at once stay bounded for any length.  A run
    whose draw Lemire's method would reject is drawn again by the scalar
    calls, from a fresh generator.
    """
    rngs = [_generator(row) for row in words]
    psi, kept = haar_rows(np.array([rng.normal(size=8) for rng in rngs]))
    for i in np.flatnonzero(~kept).tolist():
        rngs[i] = rng = _generator(words[i])
        psi[i] = haar_vector(rng)
    codes = np.empty((len(rngs), length), dtype=np.uint8)
    chunk = max(2, BLOCK_STEPS // len(rngs) & ~1)
    scalar = {}  # run -> generator that redraws it by scalar calls
    for t0 in range(0, length, chunk):
        steps = min(chunk, length - t0)
        raw = np.array(
            [rng.bit_generator.random_raw(3 * -(-steps // 2)) for rng in rngs]
        )
        k, us, rejected = _decode(raw, steps)
        for i in np.flatnonzero(rejected).tolist():
            if i not in scalar:
                scalar[i] = rng = _generator(words[i])
                haar_vector(rng)
                for _ in range(0, t0, chunk):
                    _scalar_steps(rng, chunk)
        # the bulk draws of such a run go on, unused
        for i, rng in scalar.items():
            k[i], us[i] = _scalar_steps(rng, steps).T
        plus, psi = measure_runs(psi, k, us)
        # ALPHABET lists each observable's +1 symbol before its -1 symbol
        codes[:, t0:t0 + steps] = 2 * k + ~plus
    return codes


def sample_run(length: int, seed: int) -> tuple[SignedSymbol, ...]:
    """One reproducible measurement sequence from a fresh random state,
    drawn by ``default_rng(seed)``."""
    if length < 0:
        raise ValueError("length must be non-negative")
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    return tuple(map(ALPHABET.__getitem__, _sample_block(words[None], length)[0]))


def sample_codes(runs: int, length: int, seed: int) -> Iterator[np.ndarray]:
    """Independent reproducible runs as ALPHABET indexes, a (runs, length)
    array per block; run i is drawn by the generator on child i of
    ``SeedSequence(seed)``, whose seed words go BLOCK_STEPS runs at a time."""
    block = block_runs(length)
    span = block * max(1, BLOCK_STEPS // block)
    for first in range(0, runs, span):
        words = child_seed_words(seed, first, min(span, runs - first))
        for i in range(0, len(words), block):
            yield _sample_block(words[i:i + block], length)


def sample_many(
    runs: int, length: int, seed: int
) -> Iterator[tuple[SignedSymbol, ...]]:
    """The runs of :func:`sample_codes` as symbols, a block at a time."""
    for codes in sample_codes(runs, length, seed):
        for row in codes.tolist():
            yield tuple(map(ALPHABET.__getitem__, row))
