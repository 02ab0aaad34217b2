"""Self-test of the benchmark, at toy size; takes about 20 seconds.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, each in a fresh process as the
benchmark's callers do, and checks that each run is correct and emits
exactly the end-to-end or per-layer metrics that ``BENCHMARK.json``
names, each with its declared unit. It also checks that the benchmark
fails, without printing a result, in a directory that holds only the
benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(HERE, ".work")


def run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=False)


def check_result(spec, workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
               "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, f"{workload}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    wrong_units = {k: got[k] for k in want if got.get(k) != want[k]}
    assert got == want, (f"{workload} trace={trace}: missing "
                         f"{sorted(set(want) - set(got))}, unexpected "
                         f"{sorted(set(got) - set(want))}, units "
                         f"{wrong_units}")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if trace:
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        assert 0.9 < accounted <= 1.0, f"{workload}: accounted {accounted}"
    else:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, f"{workload}: {name} is {m['value']}"
    print(f"ok  {workload:14s} trace={trace} attempted={result['attempted']}")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "serve-history", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program"
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  bare directory exits", proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
