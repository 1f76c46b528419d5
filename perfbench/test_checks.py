"""Self-tests of the benchmark's references and checkers.

    python3 -m pytest -q perfbench

Each checker is fed a right output, which must pass, and deliberately
wrong ones, which must be flagged.  Nothing here imports pmlang.
"""

import hashlib
import itertools

import numpy as np
import pytest

import checks
import pauli

# Counts by length pinned in the acceptance tests.
ACCEPTANCE_COUNTS = [1, 18, 306, 4914, 76626]


def tokens(text):
    return [pauli.SYMBOLS[t] for t in text.split()]


# ------------------------------------------------------------ references


def test_closed_form_matches_the_acceptance_counts():
    rows = list(checks.closed_form_rows(4))
    assert [count for _, count, _, _ in rows] == ACCEPTANCE_COUNTS
    assert [cum for _, _, cum, _ in rows] == list(itertools.accumulate(ACCEPTANCE_COUNTS))
    assert all(bits == (cum - 1).bit_length() for _, _, cum, bits in rows)


def test_pauli_square_obeys_the_context_laws():
    ops = pauli.OPERATORS
    for i in range(9):
        assert np.allclose(ops[i] @ ops[i], np.eye(4))
    lines = [(0, 1, 2, 1), (3, 4, 5, 1), (6, 7, 8, 1), (0, 3, 6, 1), (1, 4, 7, 1), (2, 5, 8, -1)]
    for a, b, c, sign in lines:
        assert np.allclose(ops[a] @ ops[b], ops[b] @ ops[a])
        assert np.allclose(ops[a] @ ops[b] @ ops[c], sign * np.eye(4))


def test_projector_oracle_counts_match_the_closed_form():
    counts = [1] + [0] * 3
    frontier = [[]]
    for n in range(1, 4):
        frontier = [w + [s] for w in frontier for s in range(18) if pauli.clash_index(w + [s]) is None]
        counts[n] = len(frontier)
    assert counts == ACCEPTANCE_COUNTS[:4]
    rows = np.array(frontier)
    assert pauli.all_consistent(rows).all()
    clashing = rows.copy()
    clashing[:, -1] = clashing[:, -2] ^ 1  # repeat the previous measurement with the other outcome
    assert not pauli.all_consistent(clashing).any()


def test_sampled_strings_are_consistent():
    rng = np.random.default_rng(1)
    for n in (1, 5, 40):
        assert pauli.clash_index(pauli.sample_string(rng, n)) is None


def test_reference_strings():
    assert pauli.clash_index(tokens("A B c ~gamma")) is None
    assert pauli.clash_index(tokens("A B c gamma")) == 3


def test_certify_pins_at_the_acceptance_depths():
    pins = " ".join(checks.certify_pins(exhaustive_len=4, invariant_len=5))
    for number in ("(111151 strings", "(1257499 states visited", "(81865 strings x 9"):
        assert number in pins


# ------------------------------------------------------------ count


def csv_text(n_max, tweak=None):
    lines = [checks.COUNT_HEADER]
    for n, count, cumulative, bits in checks.closed_form_rows(n_max):
        if n == tweak:
            count += 1
        lines.append(f"{n},{count},{cumulative},{bits}\n")
    return "".join(lines)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_count_checker():
    expected = checks.count_csv_digests([20, 40])
    assert checks.check_count(40, 0, digest(csv_text(40)), expected) is None
    assert checks.check_count(20, 0, digest(csv_text(20)), expected) is None
    assert checks.check_count(40, 0, digest(csv_text(40, tweak=17)), expected)
    assert checks.check_count(40, 0, digest(csv_text(39)), expected)
    assert checks.check_count(40, 1, digest(csv_text(40)), expected)


# ------------------------------------------------------------ certify


def certify_text(pins, extra=()):
    lines = [f"PASS check {i} {pin}" for i, pin in enumerate(pins)]
    lines += [f"PASS filler {i}" for i in range(checks.CERTIFY_MIN_CHECKS - len(pins))]
    lines += list(extra)
    passed = sum(line.startswith("PASS") for line in lines)
    total = passed + sum(line.startswith("FAIL") for line in lines)
    return "\n".join(lines + [f"[summary] {passed}/{total} checks passed"]) + "\n"


def test_certify_checker():
    pins = checks.certify_pins(3, 4)
    assert checks.check_certify(0, certify_text(pins), pins) is None
    assert checks.check_certify(1, certify_text(pins), pins)
    wrong = [pin.replace("81865", "81864") for pin in pins]
    assert checks.check_certify(0, certify_text(wrong), pins)
    assert checks.check_certify(0, certify_text(pins[1:]), pins)
    assert checks.check_certify(0, certify_text(pins, ["FAIL a failed check"]), pins)
    assert checks.check_certify(0, certify_text(pins)[:-1].replace("passed", "passed?"), pins)


# ------------------------------------------------------------ query


@pytest.mark.parametrize("kind", ["validate", "derive"])
def test_query_checkers_flag_flipped_verdicts(kind):
    good, bad = tokens("A B c ~gamma"), tokens("A B c gamma")
    table = "header\nA B c ~gamma  [c ~gamma] -> ~gamma  pair-stop\n"
    if kind == "validate":
        check = checks.check_validate
        right_good, right_bad = (0, "rows\nconsistent\n"), (1, "rows\ninconsistent at token 4\n")
    else:
        check = checks.check_derive
        right_good, right_bad = (0, table), (1, "no derivation: the string is not in the language\n")
    assert check(good, *right_good) is None
    assert check(bad, *right_bad) is None
    assert check(good, *right_bad)
    assert check(bad, *right_good)
    assert check(good, 1, right_good[1])
    assert check(bad, 0, right_bad[1])


def test_validate_checker_flags_a_wrong_clash_position():
    assert checks.check_validate(tokens("A B c gamma"), 1, "inconsistent at token 3\n")


# ------------------------------------------------------------ sample


def test_sample_checker():
    rng = np.random.default_rng(5)
    runs = [" ".join(pauli.TOKENS[s] for s in pauli.sample_string(rng, 6)) for _ in range(50)]
    text = "\n".join(runs) + "\n"
    assert checks.check_sample(1, 50, 6, 0, text) is None
    assert checks.check_sample(1, 50, 6, 1, text)
    assert checks.check_sample(1, 51, 6, 0, text)
    assert checks.check_sample(1, 50, 6, 0, text.replace(runs[7], "A ~A B B B B", 1))
    assert checks.check_sample(1, 50, 6, 0, text.replace(runs[7], "A A A A A X", 1))
    seed, runs_, length = checks.SAMPLE_PIN
    assert checks.check_sample(seed, runs_, length, 0, text)  # not the pinned output
