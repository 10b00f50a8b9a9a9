"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced at the TINY scale and
checks that
* the result has exactly the keys correct, attempted, failed, metrics;
* every metric named in BENCHMARK.json is present, finite and carries its
  declared unit, and no other metric is;
* every output passes its check and no wrap target is absent;
* the two traced runs report identical work counts.
It then checks that the benchmark exits non-zero without printing a
result in a directory that holds only BENCHMARK.json and perfbench/.
Prints one line per step and exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run as bench
from tracing import COUNT_METRICS

SEED = 3


def expect(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_result(result: dict, declared: list[dict], label: str):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{label}: {result['failed']} failed operations")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    expect(sorted(metrics) == sorted(names),
           f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        entry = metrics[m["name"]]
        expect(entry["unit"] == m["unit"] and entry["unit"],
               f"{label}: {m['name']} unit {entry['unit']!r}")
        value = entry["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} value {value!r}")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=bench.ROOT) as tmp:
        shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(bench.HERE, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "limit_curve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, "ran without the lsufdr sources")
    expect('"correct"' not in proc.stdout,
           "printed a result without the lsufdr sources")


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for workload in bench.BUILDERS:
        result, _ = bench.benchmark(workload, SEED, 0, False, bench.TINY)
        check_result(result, spec["end_to_end"], f"{workload} untraced")
        counts = []
        for _ in range(2):
            result, info = bench.benchmark(workload, SEED, 0, True,
                                           bench.TINY)
            check_result(result, spec["per_layer"], f"{workload} traced")
            expect(not info["absent_wrap_targets"],
                   f"{workload}: absent {info['absent_wrap_targets']}")
            counts.append({k: result["metrics"][k]["value"]
                           for k in COUNT_METRICS})
        expect(counts[0] == counts[1], f"{workload}: counts differ")
        print(f"ok {workload}")
    check_refuses_without_sources()
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
