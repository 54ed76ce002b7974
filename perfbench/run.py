"""The wreathgroth benchmark: one workload, cold, timed from outside.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from the repository root.  Workloads (see README.md in this directory
for why each was chosen):

  battery     ``wreathgroth verify all --degree 4`` over integers, cyclic(2),
              matrix(2) and golden; one op per named check
  generators  e_n(W) and h_n(W) for W outside the basis
  oracle      PBW-oracle products, the two-path F-series and lambda^n(e_1(U))
  witt        Witt-vector mul/add/ghosts at lengths 6-9 and formal group laws

Every sample is a fresh interpreter (child.py), because the library's caches
are pinned on @cache'd builtin rings and every CLI call starts cold.  Samples
run one after another, one query at a time (a closed loop with one client),
until the next one would end past ``--seconds``; at least one always runs.
A run also starts a few interpreters that only set up, so that ``setup_s``
is a median over several samples.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` samples alternate untraced and traced and the last line holds
the per-layer metrics and the tracing overhead.  Every output is checked
against refs/ (and, for Witt ops, the ghost map); a wrong or raising op counts
as failed.  Lines before the last give every metric with its sample count and
a run record (git rev, Python, nproc, kernel lane, load, hash seed).
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

perf_counter = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("battery", "generators", "oracle", "witt")
SETUP_SAMPLES = 12  # set-up-only interpreters per run, besides the samples' own
HASH_SEED = "0"
DEADLINE_S = 170  # a run never outlives this, whatever --seconds says
# The end-to-end metrics of the JSON line, which BENCHMARK.json bounds.  The
# others are printed on metric lines only: ops is fixed by the workload's
# shape, error_rate is 0 when the program is right, and the per-op
# percentiles of ops that last 0.05-80 ms spread by 0.2-0.4 (quartile
# distance over median, ten seeds) on a 2-vCPU virtual machine shared with
# other tenants, more than any bound can absorb.  wall_s, the same work
# timed over whole samples, spread by 0.07-0.23 there.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def spawn(args: list, deadline: float) -> dict:
    """Start child.py, read its READY and RESULT lines, reap it with its
    resource usage.  Returns the parsed lines plus setup_s and maxrss."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD] + args, stdout=subprocess.PIPE, cwd=ROOT, env=env
    )
    out = {}
    buf = b""
    fd = proc.stdout.fileno()
    eof = False
    try:
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise BenchError(f"child {args} ran past the deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                eof = True
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                tag, _, body = line.decode().partition(" ")
                if tag == "READY":
                    out["setup_s"] = perf_counter() - t0
                out[tag] = json.loads(body)
    finally:
        if not eof:
            os.kill(proc.pid, signal.SIGKILL)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or "READY" not in out:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    out["maxrss_mb"] = usage.ru_maxrss / 1024
    return out


def quantile(values, k: int) -> float:
    """The k-th decile cut point (k=5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "none (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return ref


def measure(workload: str, seed: int, seconds: int, trace: bool):
    start = perf_counter()
    deadline = start + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [
        spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    pattern = [False, True] if trace else [False]
    samples = []
    longest = 0.0
    while True:
        t = perf_counter()
        for traced in pattern:
            extra = []
            if traced:
                os.makedirs(OUT, exist_ok=True)
                run_id = f"{workload}-seed{seed}-{len(samples)}"
                extra = ["--trace", "--run-id", run_id,
                         "--spans", os.path.join(OUT, f"spans-{workload}.json")]
            got = spawn(base + extra, deadline)
            if "RESULT" not in got:
                raise BenchError(f"child {base + extra} printed no result")
            got["traced"] = traced
            samples.append(got)
            setups.append(got["setup_s"])
        longest = max(longest, perf_counter() - t)
        if perf_counter() - start + longest > seconds:
            break
    return setups, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "wreathgroth")):
        print(f"error: no src/wreathgroth under {ROOT}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    try:
        setups, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    results = [s["RESULT"] for s in samples]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["failures"]:
            print(f"failure {line}", file=sys.stderr)

    op_s = [x for s in plain for x in s["RESULT"]["op_s"]]
    walls = [s["RESULT"]["wall_s"] for s in plain]
    n_ops = len(op_s)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_ms": (quantile(op_s, 5) * 1e3, "ms", n_ops),
        "op_p90_ms": (quantile(op_s, 9) * 1e3, "ms", n_ops),
        "peak_rss_mb": (statistics.median(s["maxrss_mb"] for s in plain), "MB", len(plain)),
        "ops": (n_ops // len(plain), "count", len(plain)),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio", attempted),
    }
    correct = failed == 0 and attempted > 0
    per_layer = {}
    if traced:
        layers = [s["RESULT"]["layers"] for s in traced]
        for name, (value, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit == "count" and len(set(values)) != 1:
                print(f"failure {name} differs between traced samples: {values}", file=sys.stderr)
                correct = False
            per_layer[name] = (statistics.median(values), unit, len(values))
        overhead = statistics.median(s["RESULT"]["wall_s"] for s in traced) - statistics.median(walls)
        per_layer["trace.overhead_s"] = (overhead, "s", len(traced))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "backend": samples[0]["READY"]["backend"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "hash_seed": HASH_SEED,
        "samples": len(samples),
    }
    print("record " + json.dumps(record, sort_keys=True))
    for group in (end_to_end, per_layer):
        for name, (value, unit, n) in group.items():
            print(f"metric {args.workload} {name} {value:.6g} {unit} n={n}")
    shown = per_layer if args.trace else {name: end_to_end[name] for name in GATED}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
