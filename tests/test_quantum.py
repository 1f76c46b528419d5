"""The two-qubit simulator: operator structure, projective measurement
behaviour, reproducibility, and agreement with the consistency oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlang import quantum as qu
from pmlang import semantics as sem
from pmlang import square as sq


def test_operators_are_hermitian_involutions():
    eye = np.eye(4)
    for pauli in qu.standard_square().values():
        op = pauli.operator
        assert np.allclose(op, op.conj().T, atol=qu.TOLERANCE)
        assert np.allclose(op @ op, eye, atol=qu.TOLERANCE)
        assert np.allclose(pauli.proj_plus + pauli.proj_minus, eye, atol=qu.TOLERANCE)
        assert np.allclose(
            pauli.proj_plus @ pauli.proj_plus, pauli.proj_plus, atol=qu.TOLERANCE
        )
        assert np.allclose(
            pauli.operator, pauli.proj_plus - pauli.proj_minus, atol=qu.TOLERANCE
        )


def test_context_products_and_commutation():
    table = qu.standard_square()
    eye = np.eye(4)
    for ctx in sq.CONTEXTS:
        ops = [table[o].operator for o in ctx.members]
        assert np.allclose(ops[0] @ ops[1] @ ops[2], ctx.sign * eye, atol=qu.TOLERANCE)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.allclose(
                    ops[i] @ ops[j], ops[j] @ ops[i], atol=qu.TOLERANCE
                )


def test_operator_law_failures_names_each_broken_law():
    table = dict(qu.standard_square())
    assert qu.operator_law_failures(table) == []
    A, a = sq.OBSERVABLE_BY_NAME["A"], sq.OBSERVABLE_BY_NAME["a"]
    table[A], table[a] = table[a], table[A]
    assert qu.operator_law_failures(table) == [
        "A and B do not commute in context row0",
        "A and C do not commute in context row0",
        "context row0 product is not +1 identity",
        "a and b do not commute in context row1",
        "a and c do not commute in context row1",
        "context row1 product is not +1 identity",
    ]


def test_incompatible_observables_anticommute():
    """Observables sharing no line of the square fail to commute; in
    this operator assignment they anticommute outright."""
    table = qu.standard_square()
    for x in sq.OBSERVABLES:
        for y in sq.OBSERVABLES:
            if x is y or sq.obs_compatible(x, y):
                continue
            ox, oy = table[x].operator, table[y].operator
            assert not np.allclose(ox @ oy, oy @ ox, atol=qu.TOLERANCE)
            assert np.allclose(ox @ oy, -(oy @ ox), atol=qu.TOLERANCE)


def test_column_three_product_is_minus_identity():
    table = qu.standard_square()
    names = ["C", "c", "gamma"]
    prod = np.eye(4)
    for name in names:
        prod = prod @ table[sq.OBSERVABLE_BY_NAME[name]].operator
    assert np.allclose(prod, -np.eye(4), atol=qu.TOLERANCE)


def test_repeated_measurement_is_stable():
    rng = np.random.default_rng(42)
    table = qu.standard_square()
    for _ in range(20):
        state = qu.haar_random_state(rng)
        pauli = table[sq.OBSERVABLES[rng.integers(9)]]
        v1, s1 = qu.measure(state, pauli, rng)
        v2, s2 = qu.measure(s1, pauli, rng)
        assert v1 == v2
        assert np.allclose(s1.amplitudes, s2.amplitudes, atol=qu.TOLERANCE)


def test_eigenstate_measurement_is_deterministic():
    table = qu.standard_square()
    pauli = table[sq.OBSERVABLE_BY_NAME["A"]]  # diagonal in the basis
    rng = np.random.default_rng(0)
    plus = qu.QState(np.array([1, 0, 0, 0], dtype=complex))
    for _ in range(10):
        value, after = qu.measure(plus, pauli, rng)
        assert value == 1
        assert np.allclose(after.amplitudes, plus.amplitudes, atol=qu.TOLERANCE)


def test_first_outcome_frequency_matches_projection_probability():
    rng = np.random.default_rng(7)
    table = qu.standard_square()
    pauli = table[sq.OBSERVABLE_BY_NAME["A"]]
    state = qu.haar_random_state(rng)
    prob = float(np.real(np.vdot(state.amplitudes, pauli.proj_plus @ state.amplitudes)))
    trials = 20_000
    hits = 0
    for _ in range(trials):
        value, _ = qu.measure(state, pauli, rng)
        if value == 1:
            hits += 1
    sigma = (prob * (1 - prob) / trials) ** 0.5
    assert abs(hits / trials - prob) < 4 * sigma + 1e-9


def test_sampling_is_reproducible():
    assert qu.sample_run(12, 123) == qu.sample_run(12, 123)
    runs_a = list(qu.sample_many(5, 6, 99))
    runs_b = list(qu.sample_many(5, 6, 99))
    assert runs_a == runs_b
    assert qu.sample_run(0, 5) == ()


def test_sampled_runs_are_consistent():
    for run in qu.sample_many(300, 12, 2024):
        assert sem.is_consistent(run)


def test_sampled_values_match_determined_predictions():
    table = qu.standard_square()
    for seq in np.random.SeedSequence(31).spawn(100):
        rng = np.random.default_rng(seq)
        state = qu.haar_random_state(rng)
        oracle = sem.EMPTY_STATE
        for _ in range(12):
            obs = sq.OBSERVABLES[rng.integers(9)]
            value, state = qu.measure(state, table[obs], rng)
            predicted = oracle.value_of(obs)
            if predicted is not None:
                assert value == predicted
            oracle = sem.step(oracle, sq.signed(obs, value))
            assert oracle is not None


def test_full_context_measurement_obeys_the_sign():
    table = qu.standard_square()
    rng = np.random.default_rng(404)
    for ctx in sq.CONTEXTS:
        for _ in range(25):
            state = qu.haar_random_state(rng)
            prod = 1
            for obs in ctx.members:
                value, state = qu.measure(state, table[obs], rng)
                prod *= value
            assert prod == ctx.sign


def test_normalization_is_preserved():
    table = qu.standard_square()
    rng = np.random.default_rng(271828)
    state = qu.haar_random_state(rng)
    for _ in range(1000):
        obs = sq.OBSERVABLES[rng.integers(9)]
        _, state = qu.measure(state, table[obs], rng)
        assert abs(state.norm() - 1.0) <= qu.TOLERANCE


def test_signed_permutation_form_reproduces_each_operator():
    psi = qu.haar_vector(np.random.default_rng(5))
    for pauli in qu.standard_square().values():
        assert np.allclose(
            pauli.phase * psi[pauli.perm], pauli.operator @ psi, atol=qu.TOLERANCE
        )


def test_pauli_observable_refuses_a_non_permutation_involution():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    op = np.kron(hadamard, np.eye(2))
    assert np.allclose(op, op.conj().T) and np.allclose(op @ op, np.eye(4))
    with pytest.raises(ValueError, match="signed permutation"):
        qu.PauliObservable(sq.OBSERVABLES[0], op)


def test_batched_repeat_is_determined_at_extreme_uniforms():
    """A repeated measurement has probability 0 or 1 up to rounding; the
    snap must make the outcome repeat even for uniforms 0 and 1 - 2**-53."""
    rng = np.random.default_rng(8)
    ks = np.repeat(rng.integers(9, size=(200, 1)), 3, axis=1)
    starts = np.array([qu.haar_vector(rng) for _ in ks])
    us = np.array([(rng.random(), 0.0, 1.0 - 2.0**-53) for _ in ks])
    outcomes, _ = qu.measure_runs(starts, ks, us)
    assert (outcomes[:, 1:] == outcomes[:, :1]).all()


def _chained_measure(rng, length):
    """The single-state sampler: a Haar state, then measure() chained
    step by step, drawing in the sampler's order."""
    table = qu.standard_square()
    state = qu.haar_random_state(rng)
    run = []
    for _ in range(length):
        obs = sq.OBSERVABLES[rng.integers(9)]
        value, state = qu.measure(state, table[obs], rng)
        run.append(sq.signed(obs, value))
    return tuple(run)


@pytest.mark.parametrize("length", [0, 1, 40, 300])
def test_batched_sampler_equals_chained_measure(length):
    seed = 20240817 + length
    block = qu.block_runs(length)
    reference = [
        _chained_measure(np.random.default_rng(seq), length)
        for seq in np.random.SeedSequence(seed).spawn(block + 1)
    ]
    for runs in (0, 1, block - 1, block, block + 1):
        assert list(qu.sample_many(runs, length, seed)) == reference[:runs]
    assert qu.sample_run(length, 99) == _chained_measure(
        np.random.default_rng(99), length
    )


def test_haar_vector_keeps_the_two_call_stream():
    """One size-8 normal draw and the inlined norm give, bit for bit, the
    vector and the generator state of two size-4 draws and linalg.norm."""
    for seed in range(500):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        vec = theirs.normal(size=4) + 1j * theirs.normal(size=4)
        expected = vec / np.linalg.norm(vec)
        assert qu.haar_vector(ours).tobytes() == expected.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def _scalar_draws(rng, length):
    return [(rng.integers(9), rng.random()) for _ in range(length)]


def test_decoded_words_equal_the_scalar_draws():
    """The raw words of a generator decode to what its scalar calls draw,
    at every length, odd ones included."""
    for seed in range(60):
        for length in range(41):
            rng = np.random.default_rng([seed, length])
            words = rng.bit_generator.random_raw(3 * -(-length // 2))
            ks, us, rejected = qu._decode(words[None], length)
            expected = _scalar_draws(np.random.default_rng([seed, length]), length)
            assert list(zip(ks[0].tolist(), us[0].tolist())) == expected
            assert not rejected[0]


def test_decoder_flags_each_half_that_lemire_rejects():
    """(9x) mod 2**32 below 4 is a rejected draw in either half of the
    observable word; 4 itself is kept.  Uniform words are never flagged."""
    rejected_halves = [0, 954437177]  # 9x = 0 and 2 * 2**32 + 1
    kept_half = 3817748708  # 9x = 8 * 2**32 + 4
    assert kept_half * 9 % 2**32 == 4
    for half in rejected_halves:
        assert half * 9 % 2**32 < 4
    ones = 2**32 - 1
    rows = [[half, 0, 0] for half in rejected_halves]
    rows += [[half << 32 | ones, 0, 0] for half in rejected_halves]
    rows += [[kept_half << 32 | kept_half, 0, 0], [ones << 32 | ones, 0, 0]]
    _, _, rejected = qu._decode(np.array(rows, dtype=np.uint64), 2)
    assert rejected.tolist() == [True] * 4 + [False] * 2
    # the high half, here 0, of an odd run's last word is not a step of it
    _, _, rejected = qu._decode(np.array([[ones, 0, 0]], dtype=np.uint64), 1)
    assert not rejected[0]


def test_long_runs_in_odd_blocks_equal_chained_measure():
    """3 runs of 4000 steps take chunks of 4096 // 3 = 1365 steps, cut
    down to 1364 so that no kept half word crosses a chunk."""
    seqs = np.random.SeedSequence(7).spawn(3)
    reference = [_chained_measure(np.random.default_rng(seq), 4000) for seq in seqs]
    assert list(qu.sample_many(3, 4000, 7)) == reference


def test_rejected_runs_are_redrawn_by_scalar_calls(monkeypatch):
    """With every draw flagged, each run is redrawn by the scalar calls
    from its first chunk; with one run flagged in its second chunk only,
    it skips the steps already measured.  Both equal chained measure."""
    monkeypatch.setattr(qu, "_REJECT_BELOW", 2**32)
    for length, runs in [(1, 3), (12, 90), (4000, 3)]:
        seqs = np.random.SeedSequence(length).spawn(runs)
        reference = [
            _chained_measure(np.random.default_rng(seq), length) for seq in seqs
        ]
        assert list(qu.sample_many(runs, length, length)) == reference
    monkeypatch.undo()

    decode, calls = qu._decode, []

    def flag_run_one_in_chunk_two(words, steps):
        ks, us, rejected = decode(words, steps)
        calls.append(steps)
        rejected[1] = len(calls) == 2
        return ks, us, rejected

    monkeypatch.setattr(qu, "_decode", flag_run_one_in_chunk_two)
    seqs = np.random.SeedSequence(11).spawn(3)
    reference = [_chained_measure(np.random.default_rng(seq), 4000) for seq in seqs]
    assert list(qu.sample_many(3, 4000, 11)) == reference
    assert calls == [1364, 1364, 1272]


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**256 - 1]
)
def test_child_seed_words_equal_numpy_spawn(seed):
    """Children of a seed of one, two, three, five and eight entropy
    words; the last two are not padded before their spawn key, and each
    word past the fourth took four more hash calls to build the pool.
    The words are equal from any first child, the span the sampler
    computes at once included."""
    span = qu.BLOCK_STEPS
    children = np.random.SeedSequence(seed).spawn(span + 3)
    expected = np.array([c.generate_state(4, np.uint64) for c in children])
    assert (qu.child_seed_words(seed, 0, span) == expected[:span]).all()
    assert (qu.child_seed_words(seed, span - 2, 5) == expected[span - 2:]).all()
    assert qu.child_seed_words(seed, 5, 0).shape == (0, 4)


def test_child_indexes_past_two_to_the_32_take_a_two_word_key():
    """Children 2**32 - 2 and 2**32 - 1 have one-word keys, the next two
    two-word keys; each row is what spawn's child of that index gives."""
    first = 2**32 - 2
    for seed in (0, 2**128 + 1):
        expected = [
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            for i in range(first, first + 4)
        ]
        assert (qu.child_seed_words(seed, first, 4) == expected).all()


def test_child_seed_words_refuse_a_negative_seed():
    with pytest.raises(ValueError):
        qu.child_seed_words(-1, 0, 3)
    with pytest.raises(ValueError):
        next(qu.sample_many(1, 3, -1))


def test_runs_across_a_span_of_seed_words_equal_chained_measure():
    """One-step runs make blocks of BLOCK_STEPS runs, and each span of
    seed words holds one block; the run after it starts the next span."""
    runs = qu.block_runs(1) + 2
    seqs = np.random.SeedSequence(5).spawn(runs)
    reference = [_chained_measure(np.random.default_rng(seq), 1) for seq in seqs]
    assert list(qu.sample_many(runs, 1, 5)) == reference


def test_haar_rows_equal_haar_vector():
    """Stacked draws give, byte for byte, the vectors that haar_vector
    draws one at a time and the vectors that np.linalg.norm normalises."""
    draws = 10_000
    z = np.array([np.random.default_rng(seed).normal(size=8) for seed in range(draws)])
    rows, kept = qu.haar_rows(z)
    assert kept.all()
    for seed, row, draw in zip(range(draws), rows, z):
        assert row.tobytes() == qu.haar_vector(np.random.default_rng(seed)).tobytes()
        vec = draw[:4] + 1j * draw[4:]
        assert row.tobytes() == (vec / np.linalg.norm(vec)).tobytes()


def test_a_short_norm_is_drawn_again(monkeypatch):
    """With the least norm raised to 2.5, about two in five Gaussian
    draws are drawn again; the sampler replays those runs' generators,
    so that it still equals haar_vector drawing each state in turn."""
    monkeypatch.setattr(qu, "_MIN_NORM", 2.5)
    _, kept = qu.haar_rows(np.random.default_rng(3).normal(size=(90, 8)))
    assert 10 < (~kept).sum() < 60
    seqs = np.random.SeedSequence(12).spawn(90)
    reference = [_chained_measure(np.random.default_rng(seq), 12) for seq in seqs]
    assert list(qu.sample_many(90, 12, 12)) == reference


def _measured_one_by_one(rng, ks, runs):
    """measure_fresh's reference: per run, haar_vector, then the run's
    uniforms."""
    drawn = [(qu.haar_vector(rng), rng.random(len(ks))) for _ in range(runs)]
    starts, us = map(np.array, zip(*drawn))
    return qu.measure_runs(starts, np.tile(ks, (runs, 1)), us)[0]


@pytest.mark.parametrize("min_norm", [qu._MIN_NORM, 2.5])
def test_measure_fresh_equals_drawing_each_state_in_turn(monkeypatch, min_norm):
    """Equal outcomes and generator states after each call; at a least
    norm of 2.5 some draw is drawn again, so measure_fresh rewinds."""
    monkeypatch.setattr(qu, "_MIN_NORM", min_norm)
    ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
    for ks, runs in [([2, 5], 300), ([0, 4, 8], 200)]:
        expected = _measured_one_by_one(theirs, ks, runs)
        assert (qu.measure_fresh(ours, ks, runs) == expected).all()
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_qstate_rejects_unnormalized_vectors():
    with pytest.raises(ValueError):
        qu.QState(np.array([1, 1, 0, 0], dtype=complex))


def test_sample_run_rejects_negative_length():
    with pytest.raises(ValueError):
        qu.sample_run(-1, 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_any_seed_yields_a_consistent_run(seed):
    assert sem.is_consistent(qu.sample_run(10, seed))
