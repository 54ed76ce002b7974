"""One cold run of one workload, in a fresh interpreter.

run.py starts this script once per sample.  It imports the library from the
checkout's ``src/``, resolves the workload's rings, checks that every cache
is still empty and prints ``READY``; the time from spawn to that line is the
set-up time a CLI call pays.  Unless ``--setup-only`` is given it then runs
the workload, checks every output and prints ``RESULT`` with the per-op
latencies.  With ``--trace`` it also wraps the library's layers (see
tracing.py) and adds the per-layer metrics.

Protocol on stdout, one line each: ``READY <json>`` then ``RESULT <json>``.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from functools import partial

perf_counter = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFS = os.path.join(HERE, "refs")


def emit(tag: str, payload: dict):
    sys.__stdout__.write(f"{tag} {json.dumps(payload, sort_keys=True)}\n")
    sys.__stdout__.flush()


def setup(workload: str):
    """Import the library and resolve the workload's rings, cold."""
    sys.path.insert(0, SRC)
    t = perf_counter()
    import wreathgroth
    from wreathgroth import cli, ring  # noqa: F401  cli imports every layer

    import_s = perf_counter() - t
    if not os.path.abspath(wreathgroth.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"wreathgroth imported from {wreathgroth.__file__}, not {SRC}")
    sys.path.insert(0, HERE)
    import workloads

    t = perf_counter()
    rings = [ring.resolve_ring(spec) for spec in workloads.RINGS[workload]]
    resolve_s = perf_counter() - t
    assert_cold(rings)
    return rings, {"import_s": import_s, "resolve_s": resolve_s, "backend": wreathgroth.backend()}


def assert_cold(rings):
    from wreathgroth import witt

    for r in rings:
        if r._caches:
            raise SystemExit(f"ring {r.name} is not cold: caches {sorted(r._caches)}")
    if witt.schur_in_e.cache_info().currsize:
        raise SystemExit("witt.schur_in_e is not cold")


# ---------------------------------------------------------------------------
# tracing: which library functions are wrapped, and the per-layer metrics

def count_lambdas(rank: int, degree: int) -> int:
    """Number of multipartitions with at most `degree` boxes over `rank`
    labels: the lambdas one ProductTable build of that degree expands."""
    import workloads

    return sum(len(workloads.multipartitions(rank, n)) for n in range(degree + 1))


def install_tracer(tr):
    from wreathgroth import cli, groth, hopf, kernels, pbw, symfun, verify, witt

    counts, depth = tr.counts, tr.depth

    def ensure_hook(args, kwargs):
        table = args[0]
        before = table.degree

        def after(_):
            if table.degree > before:
                counts["groth.ProductTable.ensure.builds"] += 1
                counts["groth.table.lambdas_built"] += count_lambdas(table.ring.rank(), table.degree)

        return after

    def e_of_hook(args, kwargs):
        ring, n, W = args
        if n and not W.is_zero() and W.basis_index() is None:
            counts["groth.e_of.lookups"] += 1
            if (W.key(), n) in ring._caches.get("e_of", ()):
                counts["groth.e_of.memo_hits"] += 1

    def z_multiply_hook(args, kwargs):
        if depth["groth.h_element"]:
            counts["groth.h_element.z_multiply_calls"] += 1

    def power_to_schur_hook(args, kwargs):
        counts["symfun.power_to_schur.terms_in"] += len(args[0].terms)

    def zdata_hook(args, kwargs):
        ring = args[0]
        before = ring._caches.get("pbw_zdata")

        def after(_):
            if ring._caches.get("pbw_zdata") is not before:
                counts["pbw.zdata.builds"] += 1

        return after

    def span(name, hook=None):
        return lambda fn: tr.span(name, fn, hook)

    tr.patch(groth.ProductTable, "ensure", span("groth.ProductTable.ensure", ensure_hook))
    tr.patch(groth, "z_multiply", span("groth.z_multiply", z_multiply_hook))
    tr.patch(groth, "h_element", span("groth.h_element"))
    tr.patch(groth, "e_of", span("groth.e_of", e_of_hook))
    tr.patch(symfun, "power_to_schur", span("symfun.power_to_schur", power_to_schur_hook))
    tr.patch(symfun, "multiply", span("symfun.multiply"))
    tr.patch(symfun, "substitute_variable_sets", span("symfun.substitute_variable_sets"))
    tr.patch(hopf, "comultiply", span("hopf.comultiply"))
    tr.patch(hopf, "antipode", span("hopf.antipode"))
    tr.patch(hopf, "formal_group_law", span("hopf.formal_group_law"))
    tr.patch(pbw, "_zdata", span("pbw.zdata", zdata_hook))
    tr.patch(pbw, "to_z_basis", span("pbw.to_z_basis"))
    tr.patch(pbw.PBWElement, "__mul__", span("pbw.PBWElement.mul"))
    tr.patch(pbw, "oracle_multiply", span("pbw.oracle_multiply"))
    tr.patch(pbw, "f_series", span("pbw.f_series"))
    tr.patch(pbw, "lambda_on_e1", span("pbw.lambda_on_e1"))
    tr.patch(kernels, "character", lambda fn: tr.counter("kernels.character", fn))
    tr.patch(kernels, "partitions_of", lambda fn: tr.counter("kernels.partitions_of", fn))
    tr.patch(kernels, "normalize_product", span("kernels.normalize_product"))
    tr.patch(witt.WittVector, "__mul__", span("witt.mul"))
    tr.patch(witt.WittVector, "ghosts", lambda fn: tr.counter("witt.ghosts", fn))
    for suite in verify.SUITES:
        tr.patch(verify, "suite_" + suite.replace("-", "_"), span("verify." + suite))
    tr.patch(verify, "battery", span("verify.battery"))
    tr.patch(cli, "main", span("cli.main"))


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, rings, setup_info) -> dict:
    """Every per-layer metric as {name: [value, unit]}."""
    from wreathgroth import partitions, verify, witt

    c, self_s, incl_s = tr.counts, tr.self_s, tr.incl_s
    tables = [r._caches["product_table"] for r in rings if "product_table" in r._caches]
    kept = sum(count_lambdas(t.ring.rank(), t.degree) for t in tables)
    zdata_calls = c["pbw.zdata.calls"]
    schur = witt.schur_in_e.cache_info()
    m = {}

    def put(name, value, unit="count"):
        m[name] = [value, unit]

    put("groth.ProductTable.ensure.calls", c["groth.ProductTable.ensure.calls"])
    put("groth.ProductTable.ensure.builds", c["groth.ProductTable.ensure.builds"])
    put("groth.ProductTable.ensure.incl_s", incl_s["groth.ProductTable.ensure"], "s")
    put("groth.table.lambdas_built", c["groth.table.lambdas_built"])
    put("groth.table.useful_ratio", ratio(kept, c["groth.table.lambdas_built"]), "ratio")
    put("groth.table.pairs", sum(len(t.pairs) for t in tables))
    put("groth.table.degree", max((t.degree for t in tables), default=0))
    for name in ("symfun.power_to_schur", "symfun.multiply", "symfun.substitute_variable_sets"):
        put(name + ".calls", c[name + ".calls"])
        put(name + ".self_s", self_s[name], "s")
    put("symfun.power_to_schur.terms_in", c["symfun.power_to_schur.terms_in"])
    put("groth.z_multiply.calls", c["groth.z_multiply.calls"])
    put("groth.z_multiply.self_s", self_s["groth.z_multiply"], "s")
    put("groth.h_element.calls", c["groth.h_element.calls"])
    put("groth.h_element.incl_s", incl_s["groth.h_element"], "s")
    put("groth.h_element.z_multiply_calls", c["groth.h_element.z_multiply_calls"])
    put("groth.e_of.calls", c["groth.e_of.calls"])
    put("groth.e_of.memo_hit_ratio", ratio(c["groth.e_of.memo_hits"], c["groth.e_of.lookups"]), "ratio")
    put("groth.e_of.memo_size", sum(len(r._caches.get("e_of", ())) for r in rings))
    put("groth.h_of.memo_size", sum(len(r._caches.get("h_of", ())) for r in rings))
    for name in ("hopf.comultiply", "hopf.antipode"):
        put(name + ".calls", c[name + ".calls"])
        put(name + ".self_s", self_s[name], "s")
    put("hopf.formal_group_law.incl_s", incl_s["hopf.formal_group_law"], "s")
    put("pbw.zdata.calls", zdata_calls)
    put("pbw.zdata.builds", c["pbw.zdata.builds"])
    put("pbw.zdata.self_s", self_s["pbw.zdata"], "s")
    put("pbw.zdata.reuse_ratio", ratio(zdata_calls - c["pbw.zdata.builds"], zdata_calls), "ratio")
    for name in ("pbw.to_z_basis", "pbw.PBWElement.mul"):
        put(name + ".calls", c[name + ".calls"])
        put(name + ".self_s", self_s[name], "s")
    put("pbw.oracle_multiply.calls", c["pbw.oracle_multiply.calls"])
    put("pbw.oracle_multiply.incl_s", incl_s["pbw.oracle_multiply"], "s")
    put("pbw.f_series.incl_s", incl_s["pbw.f_series"], "s")
    put("pbw.lambda_on_e1.incl_s", incl_s["pbw.lambda_on_e1"], "s")
    put("kernels.character.calls", c["kernels.character.calls"])
    put("kernels.partitions_of.calls", c["kernels.partitions_of.calls"])
    put("kernels.normalize_product.calls", c["kernels.normalize_product.calls"])
    put("kernels.normalize_product.self_s", self_s["kernels.normalize_product"], "s")
    put("partitions.partitions.currsize", partitions.partitions.cache_info().currsize)
    put("witt.mul.calls", c["witt.mul.calls"])
    put("witt.mul.self_s", self_s["witt.mul"], "s")
    put("witt.ghosts.calls", c["witt.ghosts.calls"])
    put("witt.schur_in_e.misses", schur.misses)
    put("witt.schur_in_e.currsize", schur.currsize)
    for suite in verify.SUITES:
        put(f"verify.{suite}.s", incl_s["verify." + suite], "s")
    put("verify.checks.failed", c["verify.checks.failed"])
    put("ring.caches.keys", sum(len(r._caches) for r in rings))
    put("setup.import_s", setup_info["import_s"], "s")
    put("ring.resolve_ring.s", setup_info["resolve_s"], "s")
    put("cli.self_s", incl_s["cli.main"] - incl_s["verify.battery"], "s")
    return m


# ---------------------------------------------------------------------------
# workloads

def load_json(name: str):
    with open(os.path.join(REFS, name)) as fh:
        return json.load(fh)


@contextlib.contextmanager
def recording(tr):
    """Trace only while the workload runs, not while inputs are made or
    outputs checked."""
    if tr:
        tr.enabled = True
    try:
        yield
    finally:
        if tr:
            tr.enabled = False


def run_battery(seed: int, tr):
    """The verify battery through cli.main; one op per named check."""
    import workloads
    from wreathgroth import verify

    ops = []  # [seconds, passed]
    original = verify.Report.run

    def timed_run(self, name, fn):
        passed = False
        t = perf_counter()
        try:
            original(self, name, fn)
            passed = self.checks[-1].passed
        finally:
            ops.append([perf_counter() - t, passed])

    verify.Report.run = timed_run
    with recording(tr):
        t = perf_counter()
        code, stdout = workloads.run_battery(seed)
        wall = perf_counter() - t
    verify.Report.run = original
    if tr:
        tr.counts["verify.checks.failed"] = sum(1 for _, ok in ops if not ok)

    expected = battery_reference(seed)
    got_checks = [line for line in stdout.splitlines() if line.startswith("  ")]
    want_checks = [line for line in expected.splitlines() if line.startswith("  ")]
    failures = []
    for i, op in enumerate(ops):
        got = got_checks[i] if i < len(got_checks) else ""
        want = want_checks[i] if i < len(want_checks) else None
        if not op[1] or got != want or not got.startswith("  PASS "):
            op[1] = False
            failures.append(f"check {i}: {got!r} (reference {want!r})")
    # checks that never ran (cli.main raised first) count as failed ops
    ops.extend([0.0, False] for _ in range(len(want_checks) - len(ops)))
    extra = 0
    if code != 0 or stdout != expected:
        failures.append(f"exit code {code}; stdout equals the reference: {stdout == expected}")
        extra = 1
    return wall, ops, failures, extra


def battery_reference(seed: int) -> str:
    """The committed stdout for a shipped seed.  For any other seed, the
    seed-0 reference with the seed in the suite headers replaced: check
    names do not depend on the seed, and every check must pass."""
    path = os.path.join(REFS, f"battery-seed{seed}.txt")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    with open(os.path.join(REFS, "battery-seed0.txt")) as fh:
        return fh.read().replace(", seed=0)\n", f", seed={seed})\n")


def run_stream(workload: str, seed: int, tr):
    """A query stream from workloads.PLANS, as a closed loop: each query is
    sent when the previous one has returned."""
    import workloads

    plan = workloads.PLANS[workload](seed)
    results, ops = [], []
    with recording(tr):
        t_start = perf_counter()
        for _, run, _ in plan:
            t = perf_counter()
            try:
                result, rendering = run()
                error = None
            except Exception as exc:  # counted as a failed op; the run goes on
                result, rendering, error = None, None, f"{type(exc).__name__}: {exc}"
            ops.append([perf_counter() - t, True])
            results.append((result, rendering, error))
        wall = perf_counter() - t_start

    refs = load_json(f"{workload}.json")
    by_key = refs["by_key"]
    by_seed = refs.get("by_seed", {}).get(str(seed), {})
    failures = []
    for op, (key, _, check), (result, rendering, error) in zip(ops, plan, results):
        why = error
        if why is None and check is not None and not check(result):
            why = "self-check failed"
        if why is None:
            want = by_key.get(key) or by_seed.get(key)
            if want is None and (check is None or by_seed):
                why = "no reference"
            elif want is not None and want != workloads.digest(rendering):
                why = f"hash {workloads.digest(rendering)} != reference {want}"
        if why:
            op[1] = False
            failures.append(f"{key}: {why}")
    return wall, ops, failures, 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("battery", "generators", "oracle", "witt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file a traced run writes its spans to")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)

    rings, info = setup(args.workload)
    emit("READY", info)
    if args.setup_only:
        return 0

    tr = None
    if args.trace:
        from tracing import Tracer

        tr = Tracer(args.run_id)
        install_tracer(tr)
    runner = run_battery if args.workload == "battery" else partial(run_stream, args.workload)
    wall, ops, failures, extra = runner(args.seed, tr)
    payload = {
        "wall_s": wall,
        "op_s": [op[0] for op in ops],
        "attempted": len(ops),
        "failed": min(len(ops), sum(1 for op in ops if not op[1]) + extra),
        "failures": failures[:20],
    }
    if tr:
        tr.unpatch()
        payload["layers"] = layer_metrics(tr, rings, info)
        if args.spans:
            tr.write_spans(args.spans)
    emit("RESULT", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
