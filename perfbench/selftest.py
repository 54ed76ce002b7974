"""Short self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py once untraced and twice traced,
each with one sample (``--seconds 1``) and seed 0, and checks that:

- every metric BENCHMARK.json names is printed, with its unit, on a
  ``metric`` line and in the final JSON line, and so are op_p50_ms,
  op_p90_ms, ops and error_rate on metric lines;
- the outputs were correct, with at least 100 ops per sample;
- the two traced runs give identical counts;
- the bypass claims hold: no ProductTable build on oracle and witt, no
  Z-table build on generators and witt, and at most 30 schur_in_e misses
  (the partitions of 0 to 6) on battery.

It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.  Exits 1 on any
failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0
BYPASS = {
    ("oracle", "groth.ProductTable.ensure.builds"): 0,
    ("witt", "groth.ProductTable.ensure.builds"): 0,
    ("generators", "pbw.zdata.builds"): 0,
    ("witt", "pbw.zdata.builds"): 0,
}
BATTERY_SCHUR_MISSES = 30  # partitions of 0..6: 1+1+2+3+5+7+11
# printed on metric lines for every workload, whether or not BENCHMARK.json
# bounds them
PRINTED = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ops": "count", "error_rate": "ratio",
}

failures = []


def check(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, _, name, value, unit, _ = line.split(" ")
            printed[name] = (float(value), unit)
    result = json.loads(lines[-1]) if lines else {}
    return printed, result


def check_metrics(workload: str, label: str, wanted: list, printed: dict, result: dict):
    metrics = result.get("metrics", {})
    for m in wanted:
        name, unit = m["name"], m["unit"]
        check(printed.get(name, (None, None))[1] == unit,
              f"{workload} {label}: metric line {name} in {unit}")
        got = metrics.get(name, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
              f"{workload} {label}: JSON metric {name} in {unit}")
    check(set(metrics) == {m["name"] for m in wanted},
          f"{workload} {label}: JSON holds exactly the metrics of BENCHMARK.json")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        proc = run(wl, 0)
        check(proc.returncode == 0, f"{wl} untraced: exit 0 ({proc.stderr.strip()[-300:]})")
        printed, result = parse(proc)
        check_metrics(wl, "untraced", bench["end_to_end"], printed, result)
        for name, unit in PRINTED.items():
            check(printed.get(name, (None, None))[1] == unit, f"{wl}: metric line {name} in {unit}")
        check(result.get("correct") is True and result.get("failed") == 0,
              f"{wl} untraced: outputs correct")
        check(printed.get("ops", (0,))[0] >= 100, f"{wl}: at least 100 ops per sample")

        counts = []
        for i in (1, 2):
            proc = run(wl, 1)
            check(proc.returncode == 0, f"{wl} traced #{i}: exit 0 ({proc.stderr.strip()[-300:]})")
            printed, result = parse(proc)
            check_metrics(wl, f"traced #{i}", bench["per_layer"], printed, result)
            check(result.get("correct") is True, f"{wl} traced #{i}: outputs correct")
            counts.append({
                k: v["value"] for k, v in result.get("metrics", {}).items() if v["unit"] == "count"
            })
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        check(bool(counts[0]) and not differ, f"{wl}: two traced runs give identical counts {differ}")
        for (bwl, name), want in BYPASS.items():
            if bwl == wl:
                check(counts[0].get(name) == want, f"{wl}: {name} = {counts[0].get(name)}, expected {want}")
        if wl == "battery":
            misses = counts[0].get("witt.schur_in_e.misses")
            check(misses is not None and misses <= BATTERY_SCHUR_MISSES,
                  f"battery: witt.schur_in_e.misses = {misses} <= {BATTERY_SCHUR_MISSES}")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
