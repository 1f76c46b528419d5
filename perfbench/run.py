"""Benchmark entry point for pmlang.

    python3 perfbench/run.py --workload {certify,count,query,sample} \
        --seed N --seconds S --trace {0,1}

Runs from a source checkout: the package is imported from ``src/`` next
to this directory, with nothing installed.  One run does, in order:

1. four set-up probes, each a fresh process that imports the package
   and builds the minimal DFA;
2. one worker process that loads the package the same way and sends
   the workload's operations for S seconds (see worker.py);
3. four more set-up probes; ``setup_s`` is the median of the eight and
   of the worker's own set-up.  Probing on both sides of the worker
   samples the machine at two times, not in one burst;
4. for ``count`` only, the crash probe ``pmlang count --max-length 3656``
   in a fresh process, recorded as found, never repaired.

It writes the full result, with its environment, to
``perfbench/out/<workload>-seed<N>-trace<T>.json`` and prints one JSON
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  It exits 1 when any output fails its reference
check, and 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # on each side of the worker
PROBE_LENGTH = 3656  # the first length whose cumulative count has more than 4300 digits
DEADLINE_S = 170
SETUP_STAGES = ("import", "grammar.build_grammar", "grammar.to_nfa", "automata.determinize", "automata.minimize")
SIZES = ("grammar.rules", "automata.nfa_states", "automata.dfa_states", "automata.min_states")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, hence counters, repeat exactly
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def crash_probe(deadline: float) -> dict:
    """Run `pmlang count` past the int-to-str digit limit as a CLI user
    would, and record what happens; the limit is left as it is."""
    proc = subprocess.run(
        [sys.executable, "-m", "pmlang.cli", "count", "--max-length", str(PROBE_LENGTH), "--format", "csv"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    stderr = proc.stderr.splitlines()
    return {
        "argv": ["count", "--max-length", str(PROBE_LENGTH), "--format", "csv"],
        "exit": proc.returncode,
        "stderr_first_line": stderr[0] if stderr else "",
        "stderr_last_line": stderr[-1] if stderr else "",
        "stdout_lines": proc.stdout.count("\n"),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    sources = sorted((SRC / "pmlang").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
    }


def percentile_99(values: list[float]) -> float:
    """Interpolated within the data, so with few values it is close to
    the largest, never beyond it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "count", "query", "sample"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pmlang" / "__init__.py").is_file():
        print(f"error: no package to measure at {SRC / 'pmlang'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    import compileall

    compileall.compile_dir(str(SRC / "pmlang"), quiet=1)  # so no probe pays for byte-compiling
    trace = str(args.trace)
    setups = [worker(["setup", trace], deadline) for _ in range(SETUP_PROBES)]
    result = worker(["run", args.workload, str(args.seed), str(args.seconds), trace], deadline)
    setups += [result["setup"]] + [worker(["setup", trace], deadline) for _ in range(SETUP_PROBES)]
    crash = crash_probe(deadline) if args.workload == "count" else None

    latencies = [secs for _, _, secs in result["ops"]]
    if args.trace:
        metrics = {
            f"{stage}_s": statistics.median(s[f"{stage}_s" if stage == "import" else stage] for s in setups)
            for stage in SETUP_STAGES
        }
        metrics.update({name: result["setup"][name] for name in SIZES})
        metrics.update(result["per_layer"])
        metrics["cli.count_probe_failed"] = int(crash is not None and crash["exit"] != 0)
        units = {name: "count" if not name.endswith("_s") else "s" for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(result["round_walls"]),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": result["peak_rss_kib"] / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print("error: metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in names}
    correct = result["failed"] == 0
    p99 = percentile_99(latencies)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": result["inputs"],
        "metrics": metrics,
        "operations": len(latencies),
        # Recorded, not a metric: only query has the 1000+ operations
        # that leave ten beyond p99.
        "op_p99_ms": p99 * 1e3,
        "operations_beyond_p99": sum(x > p99 for x in latencies),
        "rounds": len(result["round_walls"]),
        "setup_samples": [s["setup_s"] for s in setups],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "crash_probe": crash,
        "spans_file": result.get("spans_file"),
        "spans": result.get("spans"),
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if crash and crash["exit"] != 0:
        print(f"known defect: pmlang {' '.join(crash['argv'])} exits {crash['exit']}: "
              f"{crash['stderr_last_line']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
