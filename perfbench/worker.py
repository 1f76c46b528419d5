"""One benchmark worker process: a single closed-loop client.

    python3 perfbench/worker.py setup <trace>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>

``setup`` imports the package and builds the minimal DFA, then exits;
``run`` does the same and then sends the workload's operations (see
workloads.py) to ``pmlang.cli.run`` one after another until ``seconds``
have passed, always finishing the round it is in.  Each operation's
output is checked against :mod:`checks`.  The last line of stdout is one
JSON object.

With trace 1, rounds alternate between traced (even) and untraced (odd),
so one run yields both the per-layer numbers and the tracing overhead.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import spans  # noqa: E402  (standard library only)

SUITES = ("parity", "grammar", "invariants", "counting", "maga", "adapter", "bounds", "quantum")
LOOP_SPANS = (
    *(f"verify.{s}" for s in SUITES),
    "semantics.trace",
    "semantics.is_consistent",
    "automata.count_words",
    "automata.hv_bits",
    "square.parse_string",
    "grammar.derive_membership",
    "quantum.sample_many",
)
ROUND_COUNTERS = ("maga.lower_bound_check", "maga.expected_output", "quantum.measure")


def instrument(tracer: spans.Tracer) -> None:
    """Wrap each layer's public functions where the callers look them up."""
    from pmlang import automata, cli, grammar, maga, quantum, semantics, square, verify

    def span(name, sizes=()):
        return lambda fn: tracer.span(name, fn, sizes)

    tracer.wrap([grammar], "build_grammar", span("grammar.build_grammar", [("grammar.rules", lambda g: len(g.rules))]))
    tracer.wrap([grammar], "to_nfa", span("grammar.to_nfa", [("automata.nfa_states", lambda n: len(n.states))]))
    tracer.wrap([automata], "determinize", span("automata.determinize", [("automata.dfa_states", lambda d: d.num_states)]))
    tracer.wrap([automata], "minimize", span("automata.minimize", [("automata.min_states", lambda d: d.num_states)]))
    tracer.wrap([automata], "count_words", span("automata.count_words"))
    tracer.wrap([automata], "hv_bits", span("automata.hv_bits"))
    tracer.wrap([square, cli, semantics, grammar], "parse_string", span("square.parse_string"))
    tracer.wrap([semantics], "trace", span("semantics.trace"))
    tracer.wrap([semantics], "is_consistent", span("semantics.is_consistent"))
    tracer.wrap([grammar], "derive_membership", span("grammar.derive_membership"))
    tracer.wrap([quantum], "sample_many", lambda fn: tracer.generator("quantum.sample_many", fn))
    tracer.wrap([maga], "lower_bound_check", lambda fn: tracer.counter("maga.lower_bound_check", fn))
    tracer.wrap([maga], "expected_output", lambda fn: tracer.counter("maga.expected_output", fn))
    tracer.wrap([quantum], "measure", lambda fn: tracer.counter("quantum.measure", fn))
    for suite in verify.SUITES:
        tracer.wrap([verify.SUITES], suite, span(f"verify.{suite}"))


def setup(traced: bool):
    """Import the package and build the minimal DFA, as every CLI call does."""
    import pmlang.cli

    t_import = time.perf_counter()
    if not os.path.abspath(pmlang.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pmlang was imported from {pmlang.__file__}, not from {SRC}")
    tracer = None
    if traced:
        tracer = spans.Tracer()
        instrument(tracer)
        tracer.install()
    pmlang.cli.verify.minimal_dfa()
    t_done = time.perf_counter()
    info = {"setup_s": t_done - T0, "import_s": t_import - T0}
    if tracer is not None:
        info.update(tracer.inclusive(0, len(tracer)))
        info.update(tracer.sizes)
    return pmlang.cli, tracer, info


# ---------------------------------------------------------------- loop


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cli, tracer, setup_info = setup(traced)
    import workloads

    step = cli.semantics.step
    load = workloads.WORKLOADS[workload](seed)

    ops = []  # (round, kind, seconds)
    rounds = []  # (traced, wall seconds, first span, end span)
    problems = []
    attempted = failed = 0
    round0 = {}
    start = time.perf_counter()
    r = 0
    while r < 2 or time.perf_counter() - start < seconds:
        trace_round = traced and r % 2 == 0
        if tracer is not None:
            (tracer.install if trace_round else tracer.uninstall)()
            lo = len(tracer)
        before = step.cache_info()
        wall = 0.0
        for kind, argv, sink, check in load.round(r):
            attempted += 1
            sid = tracer.begin("cli.run") if trace_round else None
            t = time.perf_counter()
            try:
                code = cli.run(argv, out=sink)
            except Exception as err:  # a crash is a failed operation, not a benchmark error
                code, problem = None, f"{kind}: {type(err).__name__}: {err}"
            dt = time.perf_counter() - t
            if sid is not None:
                tracer.finish(sid)
            if r == 0:
                # Peak memory through set-up and one round, before the check
                # allocates: what one CLI call holds.  Later rounds would
                # add only the warm worker's uncollected garbage.
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if code is not None:
                problem = check(code, sink)
            if problem:
                failed += 1
                problems.append(problem)
            ops.append((r, kind, dt))
            wall += dt
        rounds.append((trace_round, wall, lo if tracer else 0, len(tracer) if tracer else 0))
        if r == 0:
            after = step.cache_info()
            round0 = {
                "semantics.step.calls": after.hits + after.misses - before.hits - before.misses,
                "semantics.step.misses": after.misses - before.misses,
            }
            if tracer is not None:
                round0.update({f"{name}.calls": tracer.counts.get(name, 0) for name in ROUND_COUNTERS})
        r += 1

    result = {
        "setup": setup_info,
        "ops": ops,
        "round_walls": [w for t, w, _, _ in rounds if not t],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_kib": peak_kib,
        "inputs": {"seed": seed, "derived": load.seeds},
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = per_layer(tracer, rounds, round0)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{workload}-seed{seed}.spans.npz")
        tracer.save(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["spans"] = len(tracer)
    return result


def per_layer(tracer: spans.Tracer, rounds, round0) -> dict:
    """Per-round means over the traced rounds, plus round 0's counters."""
    import statistics

    traced = [(lo, hi) for t, _, lo, hi in rounds if t]
    totals = {name: 0.0 for name in LOOP_SPANS}
    cli_self = 0.0
    for lo, hi in traced:
        for name, secs in tracer.inclusive(lo, hi).items():
            if name in totals:
                totals[name] += secs
        cli_self += tracer.self_time("cli.run", lo, hi)
    out = {f"{name}_s": secs / len(traced) for name, secs in totals.items()}
    out["cli.self_s"] = cli_self / len(traced)
    out.update(round0)
    # Round 0 also fills the caches; leave it out of the comparison when
    # another traced round exists.
    traced_walls = [w for t, w, _, _ in rounds if t]
    untraced_walls = [w for t, w, _, _ in rounds if not t]
    out["trace.overhead_s"] = statistics.median(traced_walls[1:] or traced_walls) - statistics.median(untraced_walls)
    return out


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1] == "1")[2]
    elif argv[:1] == ["run"] and len(argv) == 5:
        result = run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(__doc__)
    import json  # only now: the package's own import of json is part of set-up

    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
