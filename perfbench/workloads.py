"""The four workloads: seeded query plans, how each query runs, and how its
result is rendered and checked.

Shapes are fixed: which rings, which degrees and lengths, how many queries
of each kind.  The seed draws only coefficients, which pairs and elements
are sampled, and the order.  Each plan is a list of queries ``(key, run, check)``:
``key`` names the query and is the lookup key of the reference tables;
``run()`` calls the library and returns ``(result, rendering)``, where
``rendering`` is the canonical text whose hash is compared with the
reference; ``check(result)``, where not None, is a self-check that holds for
every seed.
"""

import contextlib
import hashlib
import io
import itertools
import random

from wreathgroth import cli, groth, hopf, pbw
from wreathgroth.partitions import format_multipartition
from wreathgroth.ring import resolve_ring
from wreathgroth.witt import WittVector

BATTERY_DEGREE = 4
COEFFS = (1, -1, 2, -2)

RINGS = {
    "battery": ("builtin:integers", "builtin:cyclic(2)", "builtin:matrix(2)", "builtin:golden"),
    "generators": ("builtin:integers", "builtin:golden", "builtin:cyclic(2)"),
    "oracle": ("builtin:golden", "builtin:matrix(2)", "builtin:integers", "builtin:cyclic(2)"),
    "witt": ("builtin:integers", "builtin:matrix(2)"),
}

# generators: ring -> (largest n for e_n, largest n for h_n); W runs over
# every coefficient vector of coeff_vectors()
GEN_SHAPE = {
    "builtin:integers": (5, 5),
    "builtin:golden": (5, 4),
    "builtin:cyclic(2)": (4, 3),
}
GEN_REPEATS = 14

# oracle: ring -> (largest |mu| + |nu|, share of the pairs sampled per degree)
ORACLE_PRODUCTS = {"builtin:golden": (6, 1 / 2), "builtin:matrix(2)": (5, 1 / 3)}
ORACLE_F_SERIES = {"builtin:golden": 6, "builtin:matrix(2)": 6}  # W per ring, degree 5
ORACLE_F_DEGREE = 5
ORACLE_LAMBDA = {"builtin:integers": 4, "builtin:cyclic(2)": 4}  # U per ring, n <= 4
ORACLE_LAMBDA_N = 4

# witt: per length 6..9, this many of each op
WITT_LENGTHS = (6, 7, 8, 9)
WITT_OPS = {"mul": 75, "add": 15, "ghosts": 15}
WITT_COMPONENTS = (-3, 3)
WITT_LAWS = (("builtin:integers", 6), ("builtin:matrix(2)", 3))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def coeff_vectors(rank: int):
    """Every coefficient vector over COEFFS that is not a basis element."""
    out = []
    for vec in itertools.product(COEFFS, repeat=rank):
        if sum(1 for c in vec if c) == 1 and 1 in vec:
            continue
        out.append(vec)
    return out


def vec_text(vec) -> str:
    return ",".join(str(c) for c in vec)


def ring_element(ring, vec):
    return ring.element(dict(enumerate(vec)))


# ---------------------------------------------------------------------------
# generators

def generator_query(spec: str, kind: str, n: int, vec):
    ring = resolve_ring(spec)
    W = ring_element(ring, vec)
    fn = groth.e_of if kind == "e" else groth.h_element

    def run():
        out = fn(ring, n, W)
        return out, groth.format_groth(out)

    return f"{spec}|{kind}|{n}|{vec_text(vec)}", run, None


def generator_keys():
    for spec, (emax, hmax) in GEN_SHAPE.items():
        for vec in coeff_vectors(resolve_ring(spec).rank()):
            for kind, top in (("e", emax), ("h", hmax)):
                for n in range(1, top + 1):
                    yield spec, kind, n, vec


def generator_universe():
    return [generator_query(*q) for q in generator_keys()]


def plan_generators(seed: int):
    """Every (ring, kind, n, W) once, then GEN_REPEATS repeats of earlier
    queries at seeded places.  n ascends, and at each n the e queries come
    before the h queries; the seed orders the W and the rings within each
    (n, kind).  So every ring's product table grows through the same degrees
    and the same queries find their e_n(W) already memoized, whatever the
    seed: the seed moves work between queries but does not change it."""
    rnd = random.Random(seed)
    groups: dict[tuple, list] = {}
    for q in generator_keys():
        groups.setdefault((q[2], q[1]), []).append(q)
    order = []
    for level in sorted(groups):
        rnd.shuffle(groups[level])
        order.extend(groups[level])
    for _ in range(GEN_REPEATS):
        pos = rnd.randrange(1, len(order) + 1)
        order.insert(pos, order[rnd.randrange(pos)])
    return [generator_query(*q) for q in order]


# ---------------------------------------------------------------------------
# oracle

def _partitions(n: int, largest=None):
    # enumerated here rather than by the library, whose @cache'd
    # enumerations must stay cold until the workload runs
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions(n - first, first)
    ]


def multipartitions(k: int, n: int):
    if k == 1:
        return [(p,) for p in _partitions(n)]
    return [
        (p,) + rest
        for a in range(n + 1)
        for p in _partitions(a)
        for rest in multipartitions(k - 1, n - a)
    ]


def oracle_pairs(spec: str, d: int):
    k = resolve_ring(spec).rank()
    return [
        (mu, nu)
        for a in range(1, d)
        for mu in multipartitions(k, a)
        for nu in multipartitions(k, d - a)
    ]


def oracle_product_query(spec: str, mu, nu):
    ring = resolve_ring(spec)

    def run():
        out = pbw.oracle_multiply(ring, mu, nu)
        return out, groth.format_groth(out)

    labels = ring.labels
    key = f"{spec}|mul|{format_multipartition(mu, labels)}|{format_multipartition(nu, labels)}"
    return key, run, None


def render_tseries(series) -> str:
    rows = []
    for k in sorted(series.coeffs):
        terms = series.coeffs[k].terms
        body = ";".join(
            f"{terms[w]}*{pbw.format_word(w, series.ring)}" for w in sorted(terms)
        )
        rows.append(f"t^{k}:{body}")
    return "\n".join(rows)


def f_series_query(spec: str, vec):
    ring = resolve_ring(spec)
    W = ring_element(ring, vec)

    def run():
        out = pbw.f_series(ring, W, ORACLE_F_DEGREE)
        return out, render_tseries(out)

    return f"{spec}|f|{ORACLE_F_DEGREE}|{vec_text(vec)}", run, None


def lambda_query(spec: str, n: int, vec):
    ring = resolve_ring(spec)
    U = ring_element(ring, vec)

    def run():
        out = pbw.lambda_on_e1(ring, n, U)
        return out, groth.format_groth(out)

    return f"{spec}|lambda|{n}|{vec_text(vec)}", run, None


def lambda_vectors(rank: int):
    return list(itertools.product(COEFFS, repeat=rank))


def oracle_universe():
    for spec, (top, _) in ORACLE_PRODUCTS.items():
        for d in range(2, top + 1):
            for mu, nu in oracle_pairs(spec, d):
                yield oracle_product_query(spec, mu, nu)
    for spec in ORACLE_F_SERIES:
        for vec in coeff_vectors(resolve_ring(spec).rank()):
            yield f_series_query(spec, vec)
    for spec in ORACLE_LAMBDA:
        for vec in lambda_vectors(resolve_ring(spec).rank()):
            for n in range(1, ORACLE_LAMBDA_N + 1):
                yield lambda_query(spec, n, vec)


def plan_oracle(seed: int):
    rnd = random.Random(seed)
    plan = []
    for spec, (top, share) in ORACLE_PRODUCTS.items():
        # degrees ascend, so the Z-table is rebuilt the same number of times
        # for every seed
        for d in range(2, top + 1):
            pairs = oracle_pairs(spec, d)
            picked = rnd.sample(pairs, max(1, round(share * len(pairs))))
            plan.extend(oracle_product_query(spec, mu, nu) for mu, nu in picked)
    for spec, count in ORACLE_F_SERIES.items():
        for vec in rnd.sample(coeff_vectors(resolve_ring(spec).rank()), count):
            plan.append(f_series_query(spec, vec))
    for spec, count in ORACLE_LAMBDA.items():
        for vec in rnd.sample(lambda_vectors(resolve_ring(spec).rank()), count):
            plan.extend(lambda_query(spec, n, vec) for n in range(1, ORACLE_LAMBDA_N + 1))
    return plan


# ---------------------------------------------------------------------------
# witt

def ghosts_by_newton(comps) -> tuple:
    """Ghost components by Newton's identity, numerically and independently
    of the library: w_n = sum_{k<n} (-1)^(k-1) a_k w_{n-k} + (-1)^(n-1) n a_n."""
    w = []
    for n in range(1, len(comps) + 1):
        total = (-1) ** (n - 1) * n * comps[n - 1]
        for k in range(1, n):
            total += (-1) ** (k - 1) * comps[k - 1] * w[n - k - 1]
        w.append(total)
    return tuple(w)


def render_law(law) -> str:
    ring = law.ring
    rows = []
    for (u, i), poly in sorted(law.components.items()):
        terms = ";".join(f"{c}*{m}" for m, c in sorted(poly.items()))
        rows.append(f"e{i}({ring.labels[u]}):{terms}")
    return "\n".join(rows)


def witt_query(index: int, op: str, a: WittVector, b: WittVector):
    ga, gb = ghosts_by_newton(a.comps), ghosts_by_newton(b.comps)

    def run():
        if op == "mul":
            out = a * b
        elif op == "add":
            out = a + b
        else:
            out = a.ghosts()
            return out, ",".join(map(str, out))
        return out, ",".join(map(str, out.comps))

    def check(out) -> bool:
        # the ghost map is a ring map onto componentwise arithmetic
        if op == "ghosts":
            return tuple(out) == ga
        got = ghosts_by_newton(out.comps)
        if op == "mul":
            return got == tuple(x * y for x, y in zip(ga, gb))
        return got == tuple(x + y for x, y in zip(ga, gb))

    return f"witt|{index}|{op}|{len(a)}", run, check


def law_query(spec: str, degree: int):
    ring = resolve_ring(spec)

    def run():
        law = hopf.formal_group_law(ring, degree)
        ok = hopf.law_associative(law, degree)
        return (law, ok), render_law(law)

    return f"{spec}|law|{degree}", run, lambda out: out[1] is True


def plan_witt(seed: int):
    rnd = random.Random(seed)
    lo, hi = WITT_COMPONENTS
    shapes = [
        (op, length)
        for length in WITT_LENGTHS
        for op, count in WITT_OPS.items()
        for _ in range(count)
    ]
    rnd.shuffle(shapes)
    plan = []
    for index, (op, length) in enumerate(shapes):
        a = WittVector([rnd.randint(lo, hi) for _ in range(length)])
        b = WittVector([rnd.randint(lo, hi) for _ in range(length)])
        plan.append(witt_query(index, op, a, b))
    for spec, degree in WITT_LAWS:
        plan.append(law_query(spec, degree))
    return plan


PLANS = {"generators": plan_generators, "oracle": plan_oracle, "witt": plan_witt}


def battery_argv(seed: int) -> list:
    return [
        "verify", "all", "--degree", str(BATTERY_DEGREE),
        "--ring", ",".join(RINGS["battery"]), "--seed", str(seed),
    ]


def run_battery(seed: int):
    """cli.main on the battery, stdout captured; returns (exit code, stdout).
    An exception that escapes cli.main is returned as the exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(battery_argv(seed))
        except Exception as exc:  # reported as a failed run, never a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()
