"""The four workloads.

A workload yields rounds of operations.  An operation is
(kind, argv, sink, check): ``argv`` goes to ``pmlang.cli.run``, which
writes to ``sink``; ``check(code, sink)`` returns None or a description
of what is wrong.  Every input derives from the run seed.

Imported only after the measured set-up, so numpy and the checkers do
not count towards it.
"""

from __future__ import annotations

import hashlib
import io
import random

import numpy as np

import checks
import pauli


class HashSink:
    """Keeps only a digest, so a large output costs the benchmark no memory."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode())


class Certify:
    """`verify --suite all` below the acceptance depths (see README.md)."""

    DEPTHS = {"exhaustive_len": 3, "invariant_len": 4, "maga_len": 4, "random_strings": 20_000, "quantum_runs": 2_000}

    def __init__(self, seed: int):
        self.rng = random.Random(f"certify:{seed}")
        self.pins = checks.certify_pins(self.DEPTHS["exhaustive_len"], self.DEPTHS["invariant_len"])
        self.seeds = []

    def round(self, r: int):
        seed = self.rng.randrange(2**31)
        self.seeds.append(seed)
        argv = ["verify", "--suite", "all", "--seed", str(seed)]
        for key, value in self.DEPTHS.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        yield "verify", argv, io.StringIO(), lambda code, sink: checks.check_certify(code, sink.getvalue(), self.pins)


class Count:
    """`count --format csv` at five lengths up to 3000; the crash at
    3656 and above is probed separately by run.py.  An odd number of
    lengths puts the median latency inside one length's group."""

    BASES = (3000, 2000, 1000, 500, 250)

    def __init__(self, seed: int):
        rng = random.Random(f"count:{seed}")
        self.lengths = [base - rng.randrange(16) for base in self.BASES]
        self.expected = checks.count_csv_digests(self.lengths)
        self.seeds = self.lengths

    def round(self, r: int):
        for length in self.lengths:
            argv = ["count", "--max-length", str(length), "--format", "csv"]
            yield "count", argv, HashSink(), (
                lambda code, sink, n=length: checks.check_count(n, code, sink.digest.hexdigest(), self.expected)
            )


class Query:
    """Interactive `validate` and `derive` on strings of 1..256 tokens:
    sampled quantum runs, the same runs with the last measurement
    repeated with the opposite outcome, and uniform random strings.

    Each round holds, for every command and input class, one length
    from each sixteenth of 1..256 (stratified sampling), shuffled; so
    rounds differ in their strings but not in their mix."""

    CLASSES = ("sampled", "flipped", "random")
    STRATA, WIDTH = 16, 16

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0x9E37])
        self.seeds = [seed]

    def string(self, cls: str, n: int) -> list[int]:
        if cls == "sampled":
            return pauli.sample_string(self.rng, n)
        if cls == "flipped":
            symbols = pauli.sample_string(self.rng, n - 1)
            symbols.append(symbols[-1] ^ 1)
            if pauli.clash_index(symbols) != n - 1:
                raise AssertionError("a flipped repeat must clash at the last token")
            return symbols
        return [int(s) for s in self.rng.integers(18, size=n)]

    def round(self, r: int):
        plan = [
            (kind, cls, self.WIDTH * k + int(self.rng.integers(2 if cls == "flipped" and k == 0 else 1, self.WIDTH + 1)))
            for kind in ("validate", "derive")
            for cls in self.CLASSES
            for k in range(self.STRATA)
        ]
        for i in self.rng.permutation(len(plan)):
            kind, cls, n = plan[i]
            symbols = self.string(cls, n)
            argv = [kind, " ".join(pauli.TOKENS[s] for s in symbols)]
            check = checks.check_validate if kind == "validate" else checks.check_derive
            yield f"{kind}.{cls}", argv, io.StringIO(), (
                lambda code, sink, c=check, s=symbols: c(s, code, sink.getvalue())
            )


class Sample:
    """`sample --length 12 --runs 5000 --check`; round 0 uses the seed
    whose output digest is pinned.  Calls of about 1.7 s give a run a
    dozen latencies to take the median of, not three."""

    RUNS, LENGTH = 5_000, 12

    def __init__(self, seed: int):
        self.rng = random.Random(f"sample:{seed}")
        self.seeds = []

    def round(self, r: int):
        seed = checks.SAMPLE_PIN[0] if r == 0 else self.rng.randrange(2**31)
        self.seeds.append(seed)
        argv = ["sample", "--length", str(self.LENGTH), "--runs", str(self.RUNS), "--seed", str(seed), "--check"]
        yield "sample", argv, io.StringIO(), (
            lambda code, sink: checks.check_sample(seed, self.RUNS, self.LENGTH, code, sink.getvalue())
        )


WORKLOADS = {"certify": Certify, "count": Count, "query": Query, "sample": Sample}
