"""Fast smoke run of every workload at reduced size.

    python3 perfbench/selftest.py

For each workload it makes one untraced and one traced run on reduced-size
inputs and checks that

* both runs pass the correctness gate;
* every end-to-end and every per-layer metric is emitted, with its unit;
* in the written spans, every child lies inside its parent's interval and
  no span's children add up to more than its duration (self time >= 0);

and that BENCHMARK.json lists the workloads and metrics defined here.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import csv
import gzip
import json
import sys

import run


def check_catalogue(metrics, workloads):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS), doc["workloads"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END), doc["end_to_end"]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(metrics.PER_LAYER), doc["per_layer"]


def check_emitted(result, catalogue):
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    emitted = result["metrics"]
    assert list(emitted) == [name for name, *_ in catalogue], sorted(emitted)
    for name, unit, *_ in catalogue:
        assert emitted[name]["unit"] == unit, (name, emitted[name])
        assert isinstance(emitted[name]["value"], (int, float)), (name, emitted[name])


def check_spans(path):
    spans = {}
    with gzip.open(path, "rt") as fh:
        for row in csv.DictReader(fh):
            spans[int(row["id"])] = (int(row["start_ns"]), int(row["end_ns"]), int(row["parent"]))
    covered = dict.fromkeys(spans, 0)
    for start, end, parent in spans.values():
        if parent >= 0:
            p_start, p_end, _ = spans[parent]
            assert p_start <= start <= end <= p_end, (path, start, end, parent)
            covered[parent] += end - start
    for sid, (start, end, _) in spans.items():
        assert end - start - covered[sid] >= 0, (path, sid)
    assert spans, path


def main() -> int:
    if not run.prepare():
        return 2
    import bench
    import metrics
    import workloads

    check_catalogue(metrics, workloads)
    for name in workloads.WORKLOADS:
        check_emitted(bench.run(name, 0, 0.1, False, smoke=True), metrics.END_TO_END)
        check_emitted(bench.run(name, 0, 0.1, True, smoke=True), metrics.PER_LAYER)
        check_spans(bench.OUT_DIR / f"spans-{name}-seed0-trace1-smoke.csv.gz")
        print(f"selftest {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
