"""Command-line interface.

Exit codes: 0 for success or acceptance, 1 for rejection or a failed
verification, 2 for usage errors (including malformed tokens) and for
output that cannot be written, 3 for an internal error; ``main``
reports the last two in one stderr line.  All
randomized commands require ``--seed`` and identical invocations with
identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from itertools import chain
from typing import Iterator, Sequence

from . import automata, grammar, maga, semantics, verify
from .square import TokenError, format_string, parse_string

FORMATS = ("table", "csv", "json")


def _table_lines(headers, rows, widths=None) -> Iterator[str]:
    """The headers, then each row, every cell padded to its column's
    widest and the line right-stripped.  Given ``widths``, the widest
    cell of each column of ``rows``, the rows are read one at a time."""
    if widths is None:
        rows = list(rows)
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{max(w, len(h))}}}" for w, h in zip(widths, headers))
    return (line.format(*row).rstrip() for row in chain([headers], rows))


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    return "\n".join(_table_lines(headers, rows))


def _emit_rows(headers, rows, fmt, out, extra: dict | None = None, widths=None):
    """``rows`` in ``fmt``; a table with ``widths``, as ``_table_lines``
    takes them, is written a row at a time."""
    if fmt == "table":
        for line in _table_lines(headers, ([str(c) for c in r] for r in rows), widths):
            print(line, file=out)
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}", file=out)
    elif fmt == "csv":
        # every cell is a number or a fixed word, so none needs quoting;
        # one write per row keeps a long output streaming
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(map(str, row)) + "\n")
    else:
        _write_json(headers, rows, out, extra)


def _write_json(headers, rows, out, extra: dict | None) -> None:
    """What ``json.dumps({"rows": [...], **extra}, indent=2)`` prints,
    written one row at a time.  A str cell holds the digits of a
    number and is written as it is, so no count goes through int-to-str."""

    def value(cell) -> str:
        return cell if isinstance(cell, str) else json.dumps(cell)

    keys = [json.dumps(h) for h in headers]
    out.write('{\n  "rows": [')
    sep = "\n"
    for row in rows:
        fields = ",\n".join(f"      {k}: {value(c)}" for k, c in zip(keys, row))
        out.write(f"{sep}    {{\n{fields}\n    }}")
        sep = ",\n"
    out.write("]" if sep == "\n" else "\n  ]")  # an empty list is "[]"
    for key, cell in (extra or {}).items():
        out.write(f",\n  {json.dumps(key)}: {value(cell)}")
    out.write("\n}\n")


# ------------------------------------------------------------ validate


def cmd_validate(args, out) -> int:
    result = semantics.trace(parse_string(args.string))
    rows = []
    # every step up to and including a clash, which records no state
    for i, sym in enumerate(result.symbols[: len(result.states) + 1]):
        if result.failed_at == i:
            prior = result.states[i - 1] if i else semantics.EMPTY_STATE
            determined = prior.value_of(sym.obs)
            comment = f"clash: {sym.obs.name} is already determined as {determined:+d}"
        else:
            comment = result.states[i].describe()
        rows.append(
            [str(i + 1), sym.token, sym.obs.name, f"{sym.value:+d}", comment]
        )
    if rows:
        print(
            _render_table(
                ["step", "token", "observable", "value", "determined after step"],
                rows,
            ),
            file=out,
        )
    if result.consistent:
        print("consistent", file=out)
        return 0
    print(f"inconsistent at token {result.failed_at + 1}", file=out)
    return 1


# ------------------------------------------------------------ derive


def cmd_derive(args, out) -> int:
    witness = grammar.derive_membership(args.string)
    if witness is None:
        print("no derivation: the string is not in the language", file=out)
        return 1
    steps = witness.steps
    texts, schemas = [rule.text for rule in steps], [rule.schema for rule in steps]
    widths = (witness.form_width(), max(map(len, texts)), max(map(len, schemas)))
    headers = ["string derived", "rule applied", "schema"]
    # a row at a time, so a long derivation is never held in full
    for line in _table_lines(headers, zip(witness.forms(), texts, schemas), widths):
        print(line, file=out)
    return 0


# ------------------------------------------------------------ grammar


def cmd_grammar(args, out) -> int:
    g = grammar.build_grammar()
    if args.dump:
        for rule in g.rules:
            print(rule.text, file=out)
        return 0
    counts: dict[str, int] = {}
    for rule in g.rules:
        counts[rule.schema] = counts.get(rule.schema, 0) + 1
    rows = [[schema, str(counts[schema])] for schema in grammar.SCHEMAS]
    rows.append(["total", str(len(g.rules))])
    print(_render_table(["schema", "rules"], rows), file=out)
    print(f"generating symbols: {len(g.symbols)}", file=out)
    return 0


# ------------------------------------------------------------ dfa


def _semantic_labels(dfa: automata.Dfa) -> dict[int, str]:
    labels = {}
    for state, word in automata.shortest_words(dfa).items():
        final = semantics.final_state(word)
        labels[state] = "dead" if final is None else final.describe()
    return labels


def cmd_dfa(args, out) -> int:
    raw, minimal = verify._pipeline()
    dfa = raw if args.raw else minimal
    if args.emit == "dot":
        text = automata.to_dot(dfa, _semantic_labels(dfa))
    else:
        rows = [
            ["states (total)", str(dfa.num_states)],
            ["states (excluding dead)", str(dfa.live_state_count)],
            ["accepting states", str(len(dfa.accepting))],
            ["dead state", "none" if dfa.dead is None else f"q{dfa.dead}"],
        ]
        text = _render_table(["property", "value"], rows) + "\n"
    if not args.output:
        out.write(text)
        return 0
    try:
        fh = open(args.output, "w")
    except OSError as err:
        print(f"error: cannot write {args.output}: {err.strerror}", file=sys.stderr)
        return 2
    with fh:
        fh.write(text)
    return 0


# ------------------------------------------------------------ count


def _digit_ceiling() -> int | None:
    """The least non-negative int that str() refuses under the
    interpreter's int-to-str digit limit, 10**limit; None when the
    limit is 0, which lifts it."""
    limit = sys.get_int_max_str_digits()
    return 10**limit if limit else None


def _refuse_digits(what: str) -> int:
    """Say on one stderr line that ``what`` exceed the digit limit."""
    print(
        f"error: {what} have more digits than the int-to-str limit "
        f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}; "
        "set PYTHONINTMAXSTRDIGITS to raise it",
        file=sys.stderr,
    )
    return 2


def cmd_count(args, out) -> int:
    ceiling = _digit_ceiling()
    # the counts stop at the first total that reaches the ceiling,
    # which already decides the refusal
    report = automata.count_words(verify.minimal_dfa(), args.max_length, ceiling)
    largest = report.cumulative[-1]  # the largest value in any row
    if ceiling is not None and largest >= ceiling:
        return _refuse_digits(f"counts at --max-length {args.max_length}")
    headers = ["n", "count", "cumulative", "bits"]
    bits = automata.hv_bits(report)
    rows = (  # digit strings in linear time per value
        [n, count, total, b]
        for n, ((count, total), b) in enumerate(
            zip(automata.decimal_rows(report), bits)
        )
    )
    widths = None
    if args.format == "table":  # every column grows with n: the last row is widest
        last = (args.max_length, report.counts[-1], largest, bits[-1])
        widths = [len(str(cell)) for cell in last]
    extra = {"dominant_rate_estimate": report.dominant_rate_estimate}
    extra = None if args.format == "csv" else extra
    _emit_rows(headers, rows, args.format, out, extra, widths)
    return 0


# ------------------------------------------------------------ bound / density


def cmd_bound(args, out) -> int:
    headers = [
        "qubits",
        "contexts",
        "context_size",
        "lower_bound",
        "simplified_bound",
        "density",
        "density_floor",
    ]
    ceiling = _digit_ceiling()
    rows = []
    for r in maga.scaling_reports(args.qubits):
        # lower_bound is the largest cell, and grows with the row
        if ceiling is not None and r.lower_bound >= ceiling:
            return _refuse_digits(f"bounds at --qubits {args.qubits}")
        rows.append(
            [
                r.qubits,
                r.contexts,
                r.context_size,
                r.lower_bound,
                r.simplified_bound,
                f"{r.density:.6f}" if args.format == "table" else r.density,
                f"{r.density_floor:.6f}" if args.format == "table" else r.density_floor,
            ]
        )
    _emit_rows(headers, rows, args.format, out)
    return 0


def cmd_density(args, out) -> int:
    headers = ["qubits", "density", "density_floor", "gap", "violates_holevo"]
    rows = []
    for r in maga.scaling_reports(args.qubits):
        if args.format == "table":
            rows.append(
                [
                    r.qubits,
                    f"{r.density:.6f}",
                    f"{r.density_floor:.6f}",
                    f"{r.density_gap:.6e}",
                    str(r.violates_holevo).lower(),
                ]
            )
        else:
            rows.append(
                [r.qubits, r.density, r.density_floor, r.density_gap, r.violates_holevo]
            )
    _emit_rows(headers, rows, args.format, out)
    return 0


# ------------------------------------------------------------ sample


def cmd_sample(args, out) -> int:
    from . import quantum  # numpy is loaded only by the commands that use it

    failures = 0
    for run in quantum.sample_many(args.runs, args.length, args.seed):
        line = format_string(run)
        print(line, file=out)
        if args.check and not semantics.is_consistent(run):
            print(f"rejected by the consistency oracle: {line}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


# ------------------------------------------------------------ verify


def cmd_verify(args, out) -> int:
    names = [f.name for f in dataclasses.fields(verify.VerifyConfig)]
    try:
        cfg = verify.VerifyConfig(**{name: getattr(args, name) for name in names})
    except ValueError as err:  # its message begins with the field's name
        name, reason = str(err).split(" ", 1)
        print(f"error: --{name.replace('_', '-')} {reason}", file=sys.stderr)
        return 2
    results = verify.run_suites([args.suite], cfg)
    failed = 0
    for suite in results:
        print(f"[suite {suite.suite}]", file=out)
        for check in suite.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{status} {check.name}{detail}", file=out)
            if not check.passed:
                failed += 1
    total = sum(len(s.checks) for s in results)
    print(f"[summary] {total - failed}/{total} checks passed", file=out)
    return 1 if failed else 0


# ------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage text;
    subparsers are built from the same class.

    With ``dash_string``, a lone argument that begins with "-" and names
    none of the options is the positional string, so ``validate -A``
    reaches the tokenizer, as ``validate -- -A`` does."""

    def __init__(self, *args, dash_string=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.dash_string = dash_string

    def parse_known_args(self, args=None, namespace=None):
        if (
            self.dash_string
            and len(args) == 1
            and args[0].startswith("-")
            and not any(o.startswith(args[0]) for o in self._option_string_actions)
        ):
            args = ["--", *args]
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(2, f"error: {' '.join(message.split())}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: it depends
    on nothing that changes between calls."""
    parser = _Parser(
        prog="pmlang",
        description="Measurement language of the Peres-Mermin square: "
        "consistency oracle, grammar, automata, memory bounds, and a "
        "quantum cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    string_help = 'token string, e.g. "A B c ~gamma"'
    p = sub.add_parser(
        "validate",
        dash_string=True,
        help="check a measurement string and show the trace",
    )
    p.add_argument("string", help=string_help)

    p = sub.add_parser("derive", dash_string=True, help="print a witness derivation")
    p.add_argument("string", help=string_help)

    p = sub.add_parser("grammar", help="inspect the instantiated grammar")
    p.add_argument("--dump", action="store_true", help="print every rule")

    p = sub.add_parser("dfa", help="inspect or export the automaton")
    p.add_argument("--emit", choices=("dot",), help="emit a graph description")
    p.add_argument("--raw", action="store_true", help="use the unminimized automaton")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("count", help="exact word counts by length")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")

    p = sub.add_parser("bound", help="memory lower bounds for n qubits")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")

    p = sub.add_parser("density", help="information density of the bounds")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")

    p = sub.add_parser("sample", help="sample measurement runs from the simulator")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--check",
        action="store_true",
        help="fail if any sampled run is rejected by the consistency oracle",
    )

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite", choices=("all", *verify.SUITES), required=True
    )
    p.add_argument("--seed", type=int, required=True)
    for f in dataclasses.fields(verify.VerifyConfig):
        if f.name != "seed":
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=int, default=f.default)

    return parser


def run(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, floor in (
        ("qubits", 1), ("max_length", 0), ("length", 0), ("runs", 0), ("seed", 0)
    ):
        value = getattr(args, name, None)
        if value is not None and value < floor:
            need = f"at least {floor}" if floor else "non-negative"
            print(f"error: --{name.replace('_', '-')} must be {need}", file=sys.stderr)
            return 2
    if getattr(args, "qubits", 0) > maga.MAX_QUBITS:
        print(f"error: --qubits must be at most {maga.MAX_QUBITS}", file=sys.stderr)
        return 2
    try:
        # looked up by name, so a replaced cmd_<command> takes effect
        return globals()[f"cmd_{args.command}"](args, out)
    except TokenError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so a failed write raises here, not at exit
    except OSError as err:  # a closed pipe or a full device
        # as in the SIGPIPE note of the Python docs: the flush at exit
        # goes to devnull instead of failing a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {err.strerror}", file=sys.stderr)
        code = 2
    except Exception as err:  # SystemExit and KeyboardInterrupt pass through
        message = " ".join(str(err).split())
        print(f"error: internal: {type(err).__name__}: {message}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
