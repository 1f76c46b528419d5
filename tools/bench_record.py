"""Assemble a BENCH_*.json file from perfbench result files.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT \
        --what "one paragraph on the change" --method "how the runs were made" \
        [--note NAME=FILE ...] -o BENCH_name.json

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of two
checkouts, one of the parent commit and one of the change, each holding
the ``<workload>-seed<N>-trace<T>.json`` records that ``perfbench/run.py``
wrote.  Runs pair up by workload and seed.  For each workload and each
end-to-end metric declared in BENCHMARK.json, the file gives every run of
both sides, their medians and quartiles (inclusive method), the number of
pairs in which the change is better, and whether the change's median is
within the declared bound of the parent's.  Traced runs (``trace1``) are
listed with their per-layer metrics, one entry per seed and side.  Each
``--note NAME=FILE`` adds the JSON held in FILE under ``notes``, for
measurements made outside perfbench.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(out_dir: Path, trace: int) -> dict[tuple[str, int], dict]:
    """The result records of one side, keyed by (workload, seed)."""
    runs = {}
    for path in sorted(out_dir.glob(f"*-seed*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["environment"]["seed"]] = record
    return runs


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "quartiles": [q1, q3], "runs": values}


def environment(records: list[dict]) -> dict:
    """The environment fields shared by every record of one side; a
    field that differs between records is listed with all its values."""
    fields: dict[str, set] = {}
    for record in records:
        for key, value in record["environment"].items():
            if key != "seed":
                fields.setdefault(key, set()).add(value)
    return {key: next(iter(v)) if len(v) == 1 else sorted(v) for key, v in fields.items()}


def end_to_end(parent: dict, change: dict, declared: list[dict]) -> dict:
    workloads: dict[str, dict] = {}
    for workload, seed in sorted(parent.keys() & change.keys()):
        workloads.setdefault(workload, {"seeds": []})["seeds"].append(seed)
    for workload, entry in workloads.items():
        sides = {
            side: [runs[workload, seed] for seed in entry["seeds"]]
            for side, runs in (("parent", parent), ("change", change))
        }
        entry["pairs"] = len(entry["seeds"])
        for side, records in sides.items():
            entry[f"{side}_operations"] = {
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
            }
        for metric in declared:
            name, lower = metric["name"], metric["better"] == "lower"
            before = [r["metrics"][name] for r in sides["parent"]]
            after = [r["metrics"][name] for r in sides["change"]]
            p, c = summary(before), summary(after)
            sign = 1 if lower else -1
            entry[name] = {
                "unit": metric["unit"],
                "parent": p,
                "change": c,
                "change_vs_parent": c["median"] / p["median"] - 1 if p["median"] else None,
                "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(after, before)),
                "bound": metric["bound"],
                "within_bound": sign * (c["median"] - p["median"]) <= metric["bound"] * abs(p["median"]),
            }
    return workloads


def traced(parent: dict, change: dict) -> list[dict]:
    return [
        {"workload": workload, "seed": seed, "side": side, "metrics": runs[workload, seed]["metrics"]}
        for side, runs in (("parent", parent), ("change", change))
        for workload, seed in sorted(runs)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_out", type=Path)
    parser.add_argument("change_out", type=Path)
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--method", required=True, help="how the runs were made")
    parser.add_argument(
        "--note", action="append", default=[], metavar="NAME=FILE",
        help="add the JSON in FILE to the record's notes under NAME",
    )
    parser.add_argument("-o", "--output", type=Path, help="write here instead of stdout")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent_out, 0), load_runs(args.change_out, 0)
    if not parent.keys() & change.keys():
        print("error: no (workload, seed) has a trace0 record on both sides", file=sys.stderr)
        return 2
    for workload, seed in sorted(parent.keys() ^ change.keys()):
        print(f"warning: {workload} seed {seed} has a record on one side only", file=sys.stderr)
    record = {
        "what": args.what,
        "method": args.method,
        "environment": {"parent": environment(list(parent.values())), "change": environment(list(change.values()))},
        "end_to_end": end_to_end(parent, change, declared),
        "traced": traced(load_runs(args.parent_out, 1), load_runs(args.change_out, 1)),
    }
    notes = dict(note.split("=", 1) for note in args.note)
    if notes:
        record["notes"] = {name: json.loads(Path(f).read_text()) for name, f in notes.items()}
    text = json.dumps(record, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
