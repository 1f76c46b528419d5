"""Reference checkers for the benchmark's outputs.

None of the references comes from ``pmlang``:

* word counts come from the closed form c_0 = 1,
  c_n = (8/5) 15^n - (2/3) 9^n, and the bit curve from their sums;
* string counts pinned in ``verify`` output come from 18^k and the same
  closed form;
* verdicts and clash positions come from the projector products of
  :mod:`pauli`;
* sampled output is checked by the same projector test, and for one
  seed against a digest pinned when the benchmark was written.

Each ``check_*`` function returns None when the output is right and a
one-line description of the first problem otherwise.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

import pauli

COUNT_HEADER = "n,count,cumulative,bits\n"


def closed_form_rows(n_max: int):
    """Yield (n, count, cumulative, bits) for n = 0..n_max."""
    cumulative = 0
    p15 = p9 = 1
    for n in range(n_max + 1):
        if n == 0:
            count = 1
        else:
            p15 *= 15
            p9 *= 9
            count = (24 * p15 - 10 * p9) // 15
        cumulative += count
        yield n, count, cumulative, (cumulative - 1).bit_length()


def count_csv_digests(lengths) -> dict[int, str]:
    """sha256 of the exact ``count --format csv`` text for each length,
    built a row at a time so no full text is held in memory."""
    wanted = set(lengths)
    digest = hashlib.sha256(COUNT_HEADER.encode())
    out = {}
    for n, count, cumulative, bits in closed_form_rows(max(wanted)):
        digest.update(f"{n},{count},{cumulative},{bits}\n".encode())
        if n in wanted:
            out[n] = digest.hexdigest()
    return out


def check_count(max_length: int, code: int, digest: str, expected: dict[int, str]) -> str | None:
    if code != 0:
        return f"count --max-length {max_length}: exit {code}"
    if digest != expected[max_length]:
        return f"count --max-length {max_length}: csv differs from the closed form"
    return None


# ------------------------------------------------------------------ certify

CERTIFY_MIN_CHECKS = 36


def certify_pins(exhaustive_len: int, invariant_len: int) -> list[str]:
    """Detail strings ``verify --suite all`` must print at these depths.

    At the acceptance depths (4 and 5) they carry the pinned numbers
    111151, 1257499 and 81865."""
    cumulative = [row[2] for row in closed_form_rows(max(exhaustive_len, invariant_len, 4))]
    counts = [row[1] for row in closed_form_rows(4)]
    all_strings = sum(18**k for k in range(exhaustive_len + 1))
    return [
        f"({all_strings} strings, 0 mismatches)",
        f"({cumulative[invariant_len]} states visited, 0 malformed)",
        f"({cumulative[exhaustive_len]} strings x 9 observables, 0 wrong)",
        f"(dfa {counts} vs brute {counts})",
    ]


_SUMMARY = re.compile(r"\[summary\] (\d+)/(\d+) checks passed")


def check_certify(code: int, text: str, pins: list[str]) -> str | None:
    if code != 0:
        return f"verify: exit {code}"
    lines = text.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        return f"verify: {failed[0]}"
    match = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if not match or match[1] != match[2] or int(match[2]) < CERTIFY_MIN_CHECKS:
        return f"verify: summary line {lines[-1] if lines else ''!r}"
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != int(match[2]):
        return f"verify: {passed} PASS lines for {match[2]} checks"
    for pin in pins:
        if not any(line.endswith(pin) for line in lines):
            return f"verify: no check reports {pin}"
    return None


# ------------------------------------------------------------------ query


def check_validate(symbols: list[int], code: int, text: str) -> str | None:
    clash = pauli.clash_index(symbols)
    want = "consistent" if clash is None else f"inconsistent at token {clash + 1}"
    lines = text.splitlines()
    last = lines[-1] if lines else ""
    if code != (0 if clash is None else 1) or last != want:
        return f"validate: exit {code}, {last!r}; expected {want!r}"
    return None


def check_derive(symbols: list[int], code: int, text: str) -> str | None:
    clash = pauli.clash_index(symbols)
    lines = text.splitlines()
    if clash is None:
        string = " ".join(pauli.TOKENS[s] for s in symbols)
        if code != 0 or not lines or not lines[-1].startswith(string + " "):
            return f"derive: exit {code}, no derivation ending in the input"
    elif code != 1 or lines != ["no derivation: the string is not in the language"]:
        return f"derive: exit {code} on a string that clashes at token {clash + 1}"
    return None


# ------------------------------------------------------------------ sample

# sha256 of `pmlang sample --length 12 --runs 5000 --seed 20240817 --check`,
# which is also the first 5000 lines of the same command with --runs 20000.
SAMPLE_PIN = (20240817, 5000, 12)
SAMPLE_PIN_SHA256 = "cfca7be9e5fb3d16e45f3ef395dab98e196776c846b4952b4119812c402ad823"


def check_sample(seed: int, runs: int, length: int, code: int, text: str) -> str | None:
    if code != 0:
        return f"sample --seed {seed}: exit {code}"
    pinned = (seed, runs, length) == SAMPLE_PIN
    if pinned and hashlib.sha256(text.encode()).hexdigest() != SAMPLE_PIN_SHA256:
        return f"sample --seed {seed}: output differs from the pinned digest"
    lines = text.splitlines()
    if len(lines) != runs:
        return f"sample --seed {seed}: {len(lines)} lines, expected {runs}"
    symbols = np.empty((runs, length), dtype=np.intp)
    for i, line in enumerate(lines):
        row = line.split(" ")
        if len(row) != length or not all(t in pauli.SYMBOLS for t in row):
            return f"sample --seed {seed}: line {i + 1} is not {length} tokens: {line}"
        symbols[i] = [pauli.SYMBOLS[t] for t in row]
    bad = np.flatnonzero(~pauli.all_consistent(symbols))
    if len(bad):
        return f"sample --seed {seed}: line {bad[0] + 1} cannot occur: {lines[bad[0]]}"
    return None
