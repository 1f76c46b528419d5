"""Command-line behaviour: exit codes, byte-exact traces for the two
reference strings, machine formats, and seeded reproducibility."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlang import automata, cli, maga, quantum, verify
from pmlang import semantics as sem
from pmlang.square import ALPHABET, OBSERVABLES, parse_string, signed

CONSISTENT_TRACE = """\
step  token   observable  value  determined after step
1     A       A           +1     A=+1
2     B       B           +1     A=+1 B=+1 C=+1
3     c       c           +1     C=+1 c=+1 gamma=-1
4     ~gamma  gamma       -1     C=+1 c=+1 gamma=-1
consistent
"""

CLASHING_TRACE = """\
step  token  observable  value  determined after step
1     A      A           +1     A=+1
2     B      B           +1     A=+1 B=+1 C=+1
3     c      c           +1     C=+1 c=+1 gamma=-1
4     gamma  gamma       +1     clash: gamma is already determined as -1
inconsistent at token 4
"""

DERIVATION_TABLE = """\
string derived    rule applied           schema
[A]               [S] -> [A]             first-symbol
A [A B]           [A] -> A [A B]         single-extend
A B [C c]         [A B] -> B [C c]       pair-branch-third
A B c [c ~gamma]  [C c] -> c [c ~gamma]  pair-third
A B c ~gamma      [c ~gamma] -> ~gamma   pair-stop
"""


def invoke(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def invoke_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke(argv)
    return code, text, err.getvalue()


def assert_one_refusal_line(text, err):
    assert text == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_validate_accepting_trace_is_byte_exact():
    code, text = invoke(["validate", "A B c ~gamma"])
    assert code == 0
    assert text == CONSISTENT_TRACE


def test_validate_rejecting_trace_is_byte_exact():
    code, text = invoke(["validate", "A B c gamma"])
    assert code == 1
    assert text == CLASHING_TRACE


def test_validate_empty_string():
    code, text = invoke(["validate", ""])
    assert code == 0
    assert text == "consistent\n"


def test_validate_bad_token_is_a_usage_error(capsys):
    code, _ = invoke(["validate", "A B ~X"])
    assert code == 2
    assert "token 3" in capsys.readouterr().err


def test_derive_table_is_byte_exact():
    code, text = invoke(["derive", "A B c ~gamma"])
    assert code == 0
    assert text == DERIVATION_TABLE


def test_derive_rejects_clashing_string():
    code, text = invoke(["derive", "A B c gamma"])
    assert code == 1
    assert "no derivation" in text


def test_grammar_dump():
    code, text = invoke(["grammar", "--dump"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2647
    assert lines[0] == "[S] -> lambda"
    assert "[S] -> [A]" in lines
    assert "[C c] -> c [c ~gamma]" in lines
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f6d3f474117e3b484bcd64aad436575f5151566db06517636cdef129b70d0c49"
    )


def ljust_table(headers, rows):
    """The reference rendering: each cell left-justified to its column's
    width, two spaces between columns, trailing spaces stripped."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return "\n".join([fmt(headers)] + [fmt(row) for row in rows])


@pytest.mark.parametrize(
    "headers, rows",
    [
        (["n", "count"], []),  # no rows
        (["a wide header", "b"], [["x", "1"], ["yz", "22"]]),
        (["k", "v"], [["a much wider cell", "1"], ["b", "2"]]),
        (["key", "note"], [["a", ""], ["bb", ""]]),  # empty last column
        (["key", ""], [["a", ""]]),  # a column of width 0
        (["fmt", "x"], [["{}", "{0}"], ["{:>9}", "}{"]]),  # braces in cells
    ],
)
def test_render_table_matches_ljust_padding(headers, rows):
    assert cli._render_table(headers, rows) == ljust_table(headers, rows)


def test_count_csv():
    code, text = invoke(["count", "--max-length", "4", "--format", "csv"])
    assert code == 0
    assert text == (
        "n,count,cumulative,bits\n"
        "0,1,1,0\n"
        "1,18,19,5\n"
        "2,306,325,9\n"
        "3,4914,5239,13\n"
        "4,76626,81865,17\n"
    )


def test_count_json():
    code, text = invoke(["count", "--max-length", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["rows"][2] == {"n": 2, "count": 306, "cumulative": 325, "bits": 9}
    assert "dominant_rate_estimate" in payload


@pytest.mark.parametrize("n", [0, 1, 9, 10, 88, 1000])
def test_count_table_is_padded_to_its_widest_cells(n):
    """The table is written a row at a time with widths from its last row,
    and equals the table padded over every row."""
    report = automata.count_words(verify.minimal_dfa(), n)
    cells = zip(report.counts, report.cumulative, automata.hv_bits(report))
    rows = [[str(i), *map(str, row)] for i, row in enumerate(cells)]
    table = ljust_table(["n", "count", "cumulative", "bits"], rows)
    code, text = invoke(["count", "--max-length", str(n)])
    assert code == 0
    assert text == f"{table}\ndominant_rate_estimate: {report.dominant_rate_estimate}\n"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 88, 89, 1000, 3000])
def test_count_json_is_what_json_dumps_writes(n):
    """The json rows are written from digit strings; ``json.dumps`` of the
    exact integers gives the same text.  The recurrence takes over from
    the DP at 88."""
    report = automata.count_words(verify.minimal_dfa(), n)
    cells = zip(report.counts, report.cumulative, automata.hv_bits(report))
    payload = {
        "rows": [
            {"n": i, "count": count, "cumulative": total, "bits": bits}
            for i, (count, total, bits) in enumerate(cells)
        ],
        "dominant_rate_estimate": report.dominant_rate_estimate,
    }
    code, text = invoke(["count", "--max-length", str(n), "--format", "json"])
    assert (code, text) == (0, json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize(
    "argv", [["bound", "--qubits", "20"], ["density", "--qubits", "300"]]
)
def test_json_rows_are_what_json_dumps_writes(argv):
    code, text = invoke([*argv, "--format", "json"])
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_of_no_rows_is_an_empty_list():
    out = io.StringIO()
    cli._write_json(["n"], [], out, {"estimate": None})
    assert out.getvalue() == json.dumps({"rows": [], "estimate": None}, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--max-length", "0"],
        ["count", "--max-length", "4"],
        ["count", "--max-length", "1000"],
        ["bound", "--qubits", "20"],
        ["density", "--qubits", "300"],
    ],
)
def test_csv_is_what_csv_writer_writes(argv):
    """The csv rows are joined by hand; the same rows, read from the json
    output, go through ``csv.writer`` to the same text."""
    _, text = invoke([*argv, "--format", "csv"])
    rows = json.loads(invoke([*argv, "--format", "json"])[1])["rows"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    assert text == expected.getvalue()


def test_bound_table_contains_the_three_qubit_row():
    code, text = invoke(["bound", "--qubits", "3"])
    assert code == 0
    assert "1080" in text
    code, text = invoke(["bound", "--qubits", "3", "--format", "json"])
    payload = json.loads(text)
    rows = {row["qubits"]: row for row in payload["rows"]}
    assert rows[1]["lower_bound"] == 6
    assert rows[2]["lower_bound"] == 60
    assert rows[3]["lower_bound"] == 1080


def test_density_rows():
    code, text = invoke(["density", "--qubits", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    for row in payload["rows"]:
        assert row["density"] > 1.0
        assert row["violates_holevo"] is True
        assert row["density"] >= row["density_floor"]


def test_dfa_dot_emission():
    code, text = invoke(["dfa", "--emit", "dot"])
    assert code == 0
    assert text.startswith("digraph dfa {")
    assert "doublecircle" in text
    assert 'label="dead"' in text


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["dfa", "--raw", "--emit", "dot"],
            "1f5b77170e911cbedb75b31a91783c6b2eaba4b4d7aca12f7853165d99dcccd9",
        ),
        (
            ["dfa", "--emit", "dot"],
            "9014e55bf9f8caeb90b5ad858f9dd47cae7e7558c309559c5b36a70b0c61d1b2",
        ),
    ],
)
def test_dfa_dot_output_is_pinned(argv, digest):
    """The state numbering of both automata, their edges and labels."""
    code, text = invoke(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dfa_stats():
    code, text = invoke(["dfa"])
    assert code == 0
    assert "44" in text and "43" in text


def test_dfa_writes_the_table_to_a_file(tmp_path):
    target = tmp_path / "dfa.txt"
    code, text = invoke(["dfa", "-o", str(target)])
    assert code == 0
    assert text == ""
    assert target.read_text() == invoke(["dfa"])[1]


def test_dfa_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    code, text = invoke(["dfa", "--emit", "dot", "-o", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def invoke_main(argv):
    """``cli.main`` as a fresh process runs it: the exit code, stdout and
    stderr, with internal errors reported as exit 3."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(sys, "argv", ["pmlang", *argv]),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        pytest.raises(SystemExit) as exit_,
    ):
        cli.main()
    return exit_.value.code, out.getvalue(), err.getvalue()


@given(
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.sampled_from(cli.FORMATS)),
    st.permutations(range(3)),
)
@settings(max_examples=30, deadline=None)
def test_dfa_flags_give_a_table_or_one_refusal_line(dot, raw, fmt, order):
    """``dfa`` has no ``--format``: drawing one is a usage error."""
    flags = [["--emit", "dot"] if dot else [], ["--raw"] if raw else []]
    flags.append(["--format", fmt] if fmt else [])
    code, text, err = invoke_main(["dfa", *(f for i in order for f in flags[i])])
    if fmt is None:
        assert (code, err) == (0, "")
        assert text.startswith("digraph dfa {" if dot else "property")
    else:
        assert code == 2
        assert_one_refusal_line(text, err)


LAZY_IMPORT_SCRIPTS = [
    """
    import io, sys
    from pmlang import cli
    for argv in (
        ["validate", "A B c"],
        ["count", "--max-length", "5"],
        ["dfa"],
        ["verify", "--suite", "counting", "--seed", "1"],
    ):
        assert cli.run(argv, out=io.StringIO()) == 0, argv
    assert "numpy" not in sys.modules and "pmlang.quantum" not in sys.modules
    assert cli.run(["sample", "--length", "3", "--seed", "1"], io.StringIO()) == 0
    assert "numpy" in sys.modules and "pmlang.quantum" in sys.modules
    """,
    """
    import sys
    import pmlang
    assert "numpy" not in sys.modules
    from pmlang import QState
    assert QState is sys.modules["pmlang.quantum"].QState
    try:
        pmlang.no_such_name
    except AttributeError as err:
        assert "no_such_name" in str(err)
    else:
        raise AssertionError("pmlang.no_such_name did not raise")
    """,
]


# the environment of a fresh process that imports this checkout's pmlang
SRC = os.path.dirname(os.path.dirname(cli.__file__))
FRESH_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


@pytest.mark.parametrize("script", LAZY_IMPORT_SCRIPTS, ids=["cli", "package"])
def test_only_the_simulator_loads_numpy(script):
    """In a fresh process, commands that do not sample leave numpy and
    the simulator unloaded; ``sample`` and the package's quantum names
    load them."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=FRESH_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_sample_is_reproducible_and_checked():
    code_a, text_a = invoke(
        ["sample", "--length", "10", "--runs", "4", "--seed", "7", "--check"]
    )
    code_b, text_b = invoke(
        ["sample", "--length", "10", "--runs", "4", "--seed", "7", "--check"]
    )
    assert code_a == code_b == 0
    assert text_a == text_b
    assert len(text_a.splitlines()) == 4


def test_sample_output_is_pinned():
    code, text = invoke(
        ["sample", "--length", "12", "--runs", "5000", "--seed", "20240817", "--check"]
    )
    assert code == 0
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "cfca7be9e5fb3d16e45f3ef395dab98e196776c846b4952b4119812c402ad823"
    )


def test_a_five_word_seed_samples_what_default_rng_draws():
    """2**128 + 1 is a seed of five 32-bit words, so no zeros pad it
    before a child's spawn key.  Each line is the run that default_rng on
    that child draws: a Haar state from two normal(size=4) draws, then
    integers(9) and random() per step."""
    seed = "340282366920938463463374607431768211457"
    assert int(seed) == 2**128 + 1
    code, text = invoke(["sample", "--length", "6", "--runs", "20", "--seed", seed])
    assert code == 0
    table = quantum.standard_square()
    expected = []
    for child in np.random.SeedSequence(int(seed)).spawn(20):
        rng = np.random.default_rng(child)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = quantum.QState(vec / np.linalg.norm(vec))
        tokens = []
        for _ in range(6):
            obs = OBSERVABLES[rng.integers(9)]
            value, state = quantum.measure(state, table[obs], rng)
            tokens.append(signed(obs, value).token)
        expected.append(" ".join(tokens))
    assert text.splitlines() == expected


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["verify", "--suite", "quantum", "--seed", "20240817"],
            "8ad2baa32515cc753925fe845f970cdfbfdfbd71cd215e9ab9b070106bce9758",
        ),
        (
            # three long runs in one block
            ["sample", "--length", "1000", "--runs", "3", "--seed", "7"],
            "bb342b0bb6986c34526fec2691670c7ba2d54b25f459873a0379f7d856ca5608",
        ),
        (
            ["sample", "--length", "20000", "--runs", "1", "--seed", "7"],
            "44fb8e27266bb4529ae71b26db80576f4801a78ba6afe2483a2d778ed6617ff8",
        ),
    ],
)
def test_seeded_quantum_output_is_pinned(argv, digest):
    """The quantum suite at the default depths, and long sampled runs."""
    code, text = invoke(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        (
            "grammar",
            "4ff6e8fd790a52ca4f1a51b81c8d74929d8427f9d079f4009a59c68b08d2fb5a",
        ),
        (
            "adapter",
            "34450790a94342d4e624d712d1a1be84a7e692dfde8398753e7fac95850c9969",
        ),
    ],
)
def test_seeded_automaton_suites_are_pinned(suite, digest):
    """The suites that walk an automaton beside the oracle, at the
    default depths."""
    code, text = invoke(["verify", "--suite", suite, "--seed", "20240817"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(st.integers(-3, 40), st.integers(-3, 40), st.integers(-3, 40))
@settings(max_examples=60, deadline=None)
def test_sample_arguments_give_runs_or_one_refusal_line(length, runs, seed):
    argv = ["sample", "--length", str(length), "--runs", str(runs)]
    code, text, err = invoke_captured([*argv, "--seed", str(seed), "--check"])
    assert code in (0, 2)
    if code == 2:
        assert_one_refusal_line(text, err)
    else:
        lines = text.splitlines()
        assert len(lines) == runs
        assert all(len(line.split()) == length for line in lines)


WORDS = quantum._PAULI_WORDS
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize(
    "words, detail",
    [
        (
            (WORDS[3], *WORDS[1:3], WORDS[0], *WORDS[4:]),  # A and a swapped
            "A and B do not commute in context row0; "
            "A and C do not commute in context row0; "
            "context row0 product is not +1 identity; "
            "a and b do not commute in context row1; "
            "a and c do not commute in context row1; "
            "context row1 product is not +1 identity",
        ),
        (
            ((HADAMARD, np.eye(2)), *WORDS[1:]),
            "the operator of A must be a signed permutation matrix",
        ),
        (
            ((2 * quantum._Z, quantum._I), *WORDS[1:]),  # Hermitian, squares to 4
            "the operator of A must square to the identity",
        ),
    ],
)
def test_verify_reports_a_broken_operator_table(words, detail, monkeypatch, capsys):
    quantum.standard_square.cache_clear()
    monkeypatch.setattr(quantum, "_PAULI_WORDS", words)
    try:
        code, text = invoke(["verify", "--suite", "quantum", "--seed", "1"])
    finally:
        monkeypatch.undo()
        quantum.standard_square.cache_clear()
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert text == (
        "[suite quantum]\n"
        "FAIL operators are involutions; contexts commute and multiply to the "
        f"context sign ({detail})\n"
        "[summary] 0/1 checks passed\n"
    )


def test_verify_reports_a_bound_below_its_simplification(monkeypatch, capsys):
    """A formula whose simplified bound passes the exact one gives a
    FAIL line and exit 1, not an exception out of ``scaling_reports``."""
    report = maga.ScalingReport

    def broken(**fields):
        return report(**{**fields, "simplified_bound": fields["lower_bound"] + 1})

    monkeypatch.setattr(maga, "ScalingReport", broken)
    code, text = invoke(["verify", "--suite", "bounds", "--seed", "1"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert "FAIL exact bound dominates its simplification for 1..64 qubits\n" in text
    assert "[summary] 4/5 checks passed" in text


def test_verify_reports_a_broken_disagreement_table(monkeypatch, capsys):
    """With no disagreement found, the table's line fails and so does
    the merge line, whose collisions now have no witness."""
    monkeypatch.setattr(maga, "first_disagreement", lambda u, v: None)
    code, text = invoke("verify --suite maga --seed 1 --maga-len 1".split())
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert (
        "FAIL every one of the 276 representative pairs disagrees somewhere "
        "(0 witnesses, 276 missing)\n"
    ) in text
    assert (
        "FAIL every 23-state merge of the reference machine is refuted with a "
        "concrete witness (0/276 merges refuted)\n"
    ) in text
    assert "[summary] 4/6 checks passed" in text


def test_verify_reports_an_inconsistent_sampled_run(monkeypatch):
    clash = parse_string("A ~A")  # the clash step is checked against A=+1
    monkeypatch.setattr(quantum, "sample_many", lambda runs, length, seed: [clash])
    code, text = invoke("verify --suite quantum --seed 1".split())
    assert code == 1
    assert "are all consistent (1 inconsistent runs)" in text
    assert "(1 determined predictions, 1 wrong)" in text


def test_verify_reports_a_refused_state_in_the_chain_as_a_failed_line(
    monkeypatch, capsys
):
    """A measurement whose state drifts off the unit sphere makes QState
    refuse it; the normalization line fails instead of the run crashing."""
    real = quantum.measure
    calls = 0

    def drifting(state, pauli, rng):
        nonlocal calls
        calls += 1
        value, after = real(state, pauli, rng)
        if calls == 500:
            after = quantum.QState(after.amplitudes * (1 + 1e-9))
        return value, after

    monkeypatch.setattr(quantum, "measure", drifting)
    code, text = invoke("verify --suite quantum --seed 1 --quantum-runs 10".split())
    assert code == 1
    assert capsys.readouterr().err == ""
    assert (
        "FAIL normalization is preserved across 1000 chained measurements "
        "(step 500: state vector must be normalized)\n"
    ) in text
    assert "[summary] 5/6 checks passed" in text


def test_verify_fast_suites_pass():
    code, text = invoke(["verify", "--suite", "parity", "--seed", "1"])
    assert code == 0
    assert "[summary] 2/2 checks passed" in text
    code, text = invoke(["verify", "--suite", "bounds", "--seed", "1"])
    assert code == 0
    assert "FAIL" not in text


def test_verify_with_reduced_depths():
    code, text = invoke(
        [
            "verify",
            "--suite",
            "grammar",
            "--seed",
            "3",
            "--exhaustive-len",
            "3",
            "--random-strings",
            "500",
        ]
    )
    assert code == 0
    assert "FAIL" not in text
    # no random strings: nothing to fold
    for suite in ("grammar", "invariants"):
        code, text = invoke(
            ["verify", "--suite", suite, "--seed", "3", "--exhaustive-len", "2"]
            + ["--invariant-len", "2", "--random-strings", "0"]
        )
        assert code == 0
        assert "FAIL" not in text and text.endswith(" checks passed\n")

    # every suite at the benchmark's depths; pins the whole report and
    # the counts it gives
    code, text = invoke(
        "verify --suite all --seed 20240817 --exhaustive-len 3 --invariant-len 4 "
        "--maga-len 4 --random-strings 20000 --quantum-runs 2000".split()
    )
    assert code == 0
    assert "FAIL" not in text
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "602ef860c903faf048be01aa76a9d00c2d41ab1390c530c1de8149a00073e496"
    )
    for detail in (
        "(6175 strings, 0 mismatches)",
        "(81865 states visited, 0 malformed)",
        "(24 classes over 3600 context-determining strings)",
        "(67104 strings x 9 observables, 0 wrong; 504 full-interface spot checks)",
        "(5239 strings x 9 observables, 0 wrong)",
        "(43 pairs x 9 observables, 0 wrong; 684 full-interface spot checks)",
        "(6286 determined predictions, 0 wrong)",
    ):
        assert detail in text


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "grammar", "--exhaustive-len", "-1"], "--exhaustive-len"),
        (["--suite", "invariants", "--invariant-len", "-1"], "--invariant-len"),
        (["--suite", "maga", "--maga-len", "-1"], "--maga-len"),
        (["--suite", "grammar", "--random-strings", "-1"], "--random-strings"),
        (["--suite", "bounds", "--invariant-len", "7"], "--invariant-len"),
        (["--suite", "quantum", "--quantum-runs", "-1"], "--quantum-runs"),
        (["--suite", "quantum", "--seed", "-5"], "--seed"),
        (["--suite", "all", "--exhaustive-len", "7", "--maga-len", "-1"], "--maga-len"),
        (["--suite", "grammar", "--exhaustive-len", "7"], "--exhaustive-len"),
        (["--suite", "invariants", "--invariant-len", "7"], "--invariant-len"),
        (["--suite", "maga", "--maga-len", "7"], "--maga-len"),
        (
            ["--suite", "invariants", "--invariant-len", "3700", "--random-strings", "10"],
            "--invariant-len",
        ),
    ],
    ids=[f"argv{i}" for i in range(12)],
)
def test_verify_rejects_out_of_range_settings(argv, flag, capsys):
    """The one refusal line names the flag as typed, not the config field."""
    code, text = invoke(["verify", "--seed", "1", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag} must be ")


@pytest.mark.parametrize(
    "flag",
    [
        "--random-max-len",
        "--count-max",
        "--qubits-max",
        "--quantum-run-len",
        "--quantum-trials",
    ],
)
def test_verify_rejects_removed_flags(flag, capsys):
    """These five settings are module constants in ``verify``, not flags."""
    with pytest.raises(SystemExit) as exit_:
        invoke(["verify", "--suite", "bounds", "--seed", "1", flag, "5"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unrecognized arguments: {flag} 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--length", "3", "--runs", "-1", "--seed", "1"],
        ["sample", "--length", "3", "--seed", "-1"],
        ["count", "--max-length", "3656"],
        ["bound", "--qubits", "200"],
        ["density", "--qubits", "3001"],
        ["bound", "--qubits", "3001"],
    ],
)
def test_out_of_range_arguments_exit_two(argv, capsys):
    code, text = invoke(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_count_refusal_names_the_digit_limit(capsys):
    for argv in (["count", "--max-length", "3656"], ["bound", "--qubits", "168"]):
        code, _ = invoke([*argv, "--format", "json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "sys.get_int_max_str_digits()" in err
        assert "PYTHONINTMAXSTRDIGITS" in err


@pytest.mark.parametrize(
    "command, last, limit",
    [
        ("count", 3655, 4300),
        ("count", 3655, 4299),
        ("count", 543, 640),
        ("bound", 167, 4300),
        ("bound", 167, 4274),
        ("bound", 63, 640),
    ],
)
def test_each_side_of_the_digit_limit(command, last, limit):
    """``last`` is the largest length or qubit count whose values have
    at most ``limit`` digits: it prints every row and ``last + 1`` is
    refused.  The largest value at count 3655 has 4299 digits and at
    bound 167 has 4274, so those limits put it exactly at the limit."""
    flag = {"count": "--max-length", "bound": "--qubits"}[command]
    rows = last + 1 if command == "count" else last  # lengths from 0, qubits from 1
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, text, err = invoke_captured([command, flag, str(last), "--format", "csv"])
        assert (code, err) == (0, "")
        assert len(text.splitlines()) == 1 + rows
        code, text, err = invoke_captured([command, flag, str(last + 1)])
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2
    assert_one_refusal_line(text, err)
    assert f"sys.get_int_max_str_digits() = {limit};" in err


def test_count_refuses_before_computing_the_counts_past_the_limit():
    """The first total past the digit limit (at 3656) decides the refusal,
    so the counts to 30000, 449 MiB of integers, are never computed."""
    verify.minimal_dfa()  # built before tracing, as every command shares it
    tracemalloc.start()
    try:
        code, text, err = invoke_captured(["count", "--max-length", "30000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert_one_refusal_line(text, err)
    assert peak < 50 * 2**20, peak


def test_lifting_the_digit_limit_lifts_the_count_refusal():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, text = invoke(["count", "--max-length", "3700", "--format", "csv"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(text.splitlines()) == 3702  # a header and lengths 0..3700


@given(
    st.sampled_from(["bound", "density"]),
    st.integers(-3, 250),
    st.sampled_from(cli.FORMATS),
)
@settings(max_examples=60, deadline=None)
def test_bound_and_density_give_rows_or_one_refusal_line(command, qubits, fmt):
    code, text, err = invoke_captured(
        [command, "--qubits", str(qubits), "--format", fmt]
    )
    assert code in (0, 2)
    if code == 2:
        assert_one_refusal_line(text, err)
    else:
        rows = json.loads(text)["rows"] if fmt == "json" else text.splitlines()[1:]
        assert len(rows) == qubits


@given(
    st.one_of(st.integers(-5, 300), st.integers(3650, 5000)),
    st.sampled_from(cli.FORMATS),
)
@settings(max_examples=20, deadline=None)
def test_count_gives_rows_or_one_refusal_line(length, fmt):
    """Negative lengths and counts past the int-to-str digit limit
    (from 3656) are refused; everything else prints one row per length."""
    code, text, err = invoke_captured(
        ["count", "--max-length", str(length), "--format", fmt]
    )
    assert code in (0, 2)
    if code == 2:
        assert_one_refusal_line(text, err)
        assert not 0 <= length < 3656
        return
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:  # a header row, and in a table a closing estimate line
        rows = text.splitlines()[1 : -1 if fmt == "table" else None]
    assert len(rows) == length + 1


@given(
    st.sampled_from(["grammar", "invariants"]),
    st.sampled_from(["--exhaustive-len", "--invariant-len", "--maga-len"]),
    st.integers(-3, 10**4),
    st.integers(0, 20),
)
@settings(max_examples=40, deadline=None)
def test_verify_depths_give_a_report_or_one_refusal_line(suite, flag, depth, strings):
    """A depth outside 0..6 is refused before any work."""
    argv = ["verify", "--suite", suite, "--seed", "1", "--random-strings"]
    code, text, err = invoke_captured([*argv, str(strings), flag, str(depth)])
    if 0 <= depth <= verify.MAX_DEPTH:
        assert (code, err) == (0, "")
        assert text.endswith(" checks passed\n")
    else:
        assert code == 2
        assert_one_refusal_line(text, err)


SYMBOL_BY_TOKEN = {sym.token: sym for sym in ALPHABET}
MALFORMED_TOKENS = ["~", "~~A", "D", "Alpha", "~gam", "A~", "betaa", "x1"]


@st.composite
def consistent_then_any(draw):
    """A consistent string, by ``step`` over all 18 symbols, then one
    token that may clash."""
    state = sem.EMPTY_STATE
    tokens = []
    for _ in range(draw(st.integers(0, 63))):
        options = [s for s in ALPHABET if sem.step(state, s) is not None]
        sym = draw(st.sampled_from(options))
        state = sem.step(state, sym)
        tokens.append(sym.token)
    tokens.append(draw(st.sampled_from(ALPHABET)).token)
    return tokens


@given(
    st.sampled_from(["validate", "derive"]),
    st.one_of(
        st.lists(st.sampled_from([*SYMBOL_BY_TOKEN, *MALFORMED_TOKENS]), max_size=64),
        consistent_then_any(),
    ),
)
@settings(max_examples=150, deadline=None)
def test_validate_and_derive_give_the_step_verdict_or_one_refusal_line(command, tokens):
    code, text, err = invoke_captured([command, " ".join(tokens)])
    if any(tok not in SYMBOL_BY_TOKEN for tok in tokens):
        assert code == 2
        assert_one_refusal_line(text, err)
        return
    state = sem.EMPTY_STATE
    for tok in tokens:
        state = sem.step(state, SYMBOL_BY_TOKEN[tok])
        if state is None:
            break
    assert code == (0 if state is not None else 1)
    assert err == ""


@pytest.mark.parametrize("command", ["validate", "derive"])
def test_a_string_that_begins_with_a_dash_names_the_bad_token(command, capsys):
    for argv in ([command, "-A"], [command, "--", "-A"]):
        code, text = invoke(argv)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: token 1: unrecognized token '-A'\n"
    with pytest.raises(SystemExit) as exit_:
        invoke([command, "--help"])
    assert exit_.value.code == 0
    assert f"usage: pmlang {command}" in capsys.readouterr().out


def test_main_reports_an_internal_error_in_one_line(monkeypatch, capsys):
    def broken(args, out):
        raise RuntimeError("table\nbroken")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    monkeypatch.setattr(sys, "argv", ["pmlang", "validate", "A"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal: RuntimeError: table broken\n"
    # in-process callers still see the exception itself
    with pytest.raises(RuntimeError):
        cli.run(["validate", "A"])
    # usage errors keep their own exit code
    monkeypatch.setattr(sys, "argv", ["pmlang", "nonsense"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2
    capsys.readouterr()


REUSE_SEQUENCE = [
    ["verify", "--suite", "parity", "--seed", "1", "--exhaustive-len", "1"],
    ["validate", "-A"],
    ["count", "--max-length", "-1"],
    ["validate", "A ~A"],
    ["derive", "A B c ~gamma"],
]


def test_one_parser_serves_every_call_of_a_process():
    """Calls that follow others in one process give the stdout, stderr
    and exit code each gives as the first call of a fresh process, and
    the parser is built once."""
    for argv in REUSE_SEQUENCE:
        fresh = subprocess.run(
            [sys.executable, "-m", "pmlang.cli", *argv],
            env=FRESH_ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, text, err = invoke_captured(argv)
        assert (code, text, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser.cache_info().misses == 1


def test_a_replaced_command_runs_after_the_parser_is_built(monkeypatch):
    invoke(["validate", "A"])
    calls = []

    def recorded(args, out):
        calls.append(args.string)
        return 0

    monkeypatch.setattr(cli, "cmd_validate", recorded)
    assert invoke(["validate", "A B"]) == (0, "")
    assert calls == ["A B"]


def main_in_a_fresh_process(argv, stdout):
    """Exit code and stderr of ``pmlang argv`` writing to ``stdout``,
    which is buffered, as it is by default, so the flush at exit runs."""
    env = {k: v for k, v in FRESH_ENV.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "pmlang.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stderr


@pytest.mark.parametrize(
    "argv",
    [["validate", "A B"], ["count", "--max-length", "5"], ["dfa", "--emit", "dot"]],
)
def test_a_closed_pipe_exits_two_in_one_line(argv):
    """Output to a pipe whose reader has gone is a write error, not an
    internal one, and the flush at exit adds no second line."""
    read, write = os.pipe()
    os.close(read)
    try:
        result = main_in_a_fresh_process(argv, write)
    finally:
        os.close(write)
    assert result == (2, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["dfa", "-o", "/dev/full"], ["count", "--max-length", "5"]]
)
def test_a_full_device_exits_two_in_one_line(argv):
    with open("/dev/full", "w") as full:
        result = main_in_a_fresh_process(argv, full)
    assert result == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError):
        verify.run_suites(["nonsense"], verify.VerifyConfig(seed=1))
    names = [s.suite for s in verify.run_suites(["parity"], verify.VerifyConfig(seed=1))]
    assert names == ["parity"]


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["count", "--max-length"],
        ["nonsense"],
        ["validate"],
        ["count"],
        ["count", "--max-length", "3", "--format", "bogus"],
    ):
        with pytest.raises(SystemExit) as err:
            invoke(argv)
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    code, _ = invoke(["bound", "--qubits", "0"])
    assert code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        invoke(["--help"])
    assert err.value.code == 0
    assert "usage: pmlang" in capsys.readouterr().out
