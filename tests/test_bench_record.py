"""The BENCH file writer in tools/: pairing by workload and seed,
medians, quartiles and the bound verdict, on hand-made records."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def write_record(out_dir, workload, seed, trace, wall, commit):
    metrics = {name: 1.0 for name in METRICS}
    metrics["wall_s"] = wall
    record = {
        "workload": workload,
        "environment": {"python": "3.11.7", "git_commit": commit, "seed": seed},
        "metrics": metrics,
        "attempted": 5,
        "failed": 0,
    }
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_pairs_runs_and_summarises_each_metric(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    for seed, before, after in ((1, 1.0, 0.2), (2, 1.2, 0.1), (3, 1.1, 1.3)):
        write_record(parent, "count", seed, 0, before, "aaa")
        write_record(change, "count", seed, 0, after, "bbb")
    write_record(parent, "count", 9, 0, 5.0, "aaa")  # no partner: left out
    write_record(change, "count", 1, 1, 0.3, "bbb")
    note = tmp_path / "long.json"
    note.write_text('{"parent_s": 0.8, "change_s": 0.7}')
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--what", "w", "--method", "m", "-o", str(out)]
    argv += ["--note", f"long_runs={note}"]
    assert bench_record.main(argv) == 0
    assert "count seed 9" in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["environment"]["parent"] == {"python": "3.11.7", "git_commit": "aaa"}
    count = record["end_to_end"]["count"]
    assert count["seeds"] == [1, 2, 3] and count["pairs"] == 3
    assert count["change_operations"] == {"attempted": 15, "failed": 0}
    wall = count["wall_s"]
    assert wall["parent"] == {"median": 1.1, "quartiles": [1.05, 1.15], "runs": [1.0, 1.2, 1.1]}
    assert wall["change"]["median"] == 0.2
    assert wall["change_better_pairs"] == 2
    assert wall["within_bound"] is True
    assert count["setup_s"]["change_better_pairs"] == 0
    assert record["notes"] == {"long_runs": {"parent_s": 0.8, "change_s": 0.7}}
    assert record["traced"] == [
        {"workload": "count", "seed": 1, "side": "change", "metrics": json.loads(
            (change / "count-seed1-trace1.json").read_text())["metrics"]}
    ]
