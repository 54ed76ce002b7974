"""Command-line front end.

Each leaf subcommand names its handler with ``set_defaults(run=cmd_...)``
and ``main`` calls ``args.run(args)``.  Every handler prints through one
printer, ``_emit``: one sorted-keys JSON line under --json, else text lines.

Exit codes: 0 success, 1 failed verification, 2 parse/usage error, 3 the
ring lacks the optional data a suite needs.  Output is deterministic for
fixed inputs (including --seed).
"""

import argparse
import json
import sys

from . import __version__
from . import groth as gr
from . import hopf
from . import pbw
from . import verify
from .errors import ConfigError, DomainError, MissingDataError
from .groth import GrothElement, format_groth
from .partitions import (
    format_multipartition,
    mp_sort_key,
    parse_multipartition,
)
from .ring import parse_element, resolve_ring
from .witt import WittVector

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_MISSING = 3


def _parse_groth_literal(ring, text: str):
    return parse_multipartition(text.strip().removeprefix("Z"), ring.labels)


def _groth_json(x: GrothElement):
    out = []
    for key in sorted(x.terms, key=mp_sort_key):
        term = {
            ring_label: list(parts)
            for ring_label, parts in zip(x.ring.labels, key)
            if parts
        }
        out.append({"coeff": str(x.terms[key]), "term": term})
    return out


def _emit(args, payload, lines) -> None:
    """The one printer: under --json the payload as one sorted-keys JSON
    line, otherwise each text line (none for an empty result)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_element(args, x: GrothElement) -> None:
    _emit(args, {"terms": _groth_json(x)}, [format_groth(x)])


def cmd_ring_validate(args) -> int:
    ring = resolve_ring(args.ring)
    issues = ring.validate()
    payload = {
        "ring": ring.name,
        "rank": ring.rank(),
        "valid": not issues,
        "monomial_algebra": ring.is_monomial_algebra(),
        "commutative": ring.is_commutative(),
        "issues": issues,
    }
    lines = [
        f"ring {ring.name}: rank {ring.rank()}",
        f"  monomial algebra: {payload['monomial_algebra']}",
        f"  commutative: {payload['commutative']}",
        *([f"  INVALID: {issue}" for issue in issues] or ["  valid"]),
    ]
    _emit(args, payload, lines)
    return EXIT_OK if not issues else EXIT_FAILED


def cmd_groth_mul(args) -> int:
    ring = resolve_ring(args.ring)
    a, b = (GrothElement.basis(ring, _parse_groth_literal(ring, t)) for t in args.operands)
    _emit_element(args, a * b)
    return EXIT_OK


def cmd_groth_generator(args) -> int:
    """e_n(W) or h_n(W): the generator function is set by the subcommand."""
    ring = resolve_ring(args.ring)
    _emit_element(args, args.generator(ring, args.n, parse_element(ring, args.elem)))
    return EXIT_OK


def cmd_groth_xbasis(args) -> int:
    ring = resolve_ring(args.ring)
    lam = _parse_groth_literal(ring, args.operands[0])
    _emit_element(args, gr.x_basis_element(ring, lam))
    return EXIT_OK


def cmd_oracle_mul(args) -> int:
    ring = resolve_ring(args.ring)
    mu, nu = (_parse_groth_literal(ring, t) for t in args.operands)
    _emit_element(args, pbw.oracle_multiply(ring, mu, nu))
    return EXIT_OK


def cmd_oracle_zelement(args) -> int:
    ring = resolve_ring(args.ring)
    el = pbw.z_element_pbw(ring, _parse_groth_literal(ring, args.operands[0]))
    rows = [(str(c), pbw.format_word(w, ring)) for w, c in sorted(el.terms.items())]
    payload = {"terms": [{"coeff": c, "word": w} for c, w in rows]}
    _emit(args, payload, [f"{c} * {w}" for c, w in rows] or ["0"])
    return EXIT_OK


def cmd_hopf_delta(args) -> int:
    ring = resolve_ring(args.ring)
    lam = _parse_groth_literal(ring, args.elem)
    delta = hopf.comultiply(GrothElement.basis(ring, lam))
    terms = sorted(
        delta.terms.items(), key=lambda kv: (mp_sort_key(kv[0][0]), mp_sort_key(kv[0][1]))
    )
    rows = [
        (c, format_multipartition(mu, ring.labels), format_multipartition(nu, ring.labels))
        for (mu, nu), c in terms
    ]
    payload = {"terms": [{"coeff": str(c), "left": l, "right": r} for c, l, r in rows]}
    lines = [("" if c == 1 else f"{c}*") + f"Z{l} (x) Z{r}" for c, l, r in rows]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_witt(args) -> int:
    try:
        a = WittVector([int(x) for x in args.a.split(",")])
        b = WittVector([int(x) for x in args.b.split(",")])
    except ValueError as exc:
        raise ConfigError(f"Witt components must be integers: {exc}") from exc
    if len(a) != args.length or len(b) != args.length:
        raise ConfigError(
            f"expected {args.length} components, got {len(a)} and {len(b)}"
        )
    out = a + b if args.action == "add" else a * b
    _emit(args, {"result": list(out.comps)}, [",".join(str(c) for c in out.comps)])
    return EXIT_OK


def cmd_law_dump(args) -> int:
    ring = resolve_ring(args.ring)
    law = hopf.formal_group_law(ring, args.degree)

    def mono_str(mono):
        return "*".join(f"e{j}({'xy'[fam]}_{ring.labels[u]})" for fam, u, j in mono) or "1"

    rows = [
        (f"e{i}({ring.labels[u]})", sorted(poly.items()))
        for (u, i), poly in sorted(law.components.items())
    ]
    payload = {name: {mono_str(m): str(c) for m, c in poly} for name, poly in rows}
    lines = [
        f"{name} -> " + " + ".join((f"{c}*" if c != 1 else "") + mono_str(m) for m, c in poly)
        for name, poly in rows
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _report_lines(reports, ok: bool):
    for r in reports:
        yield f"suite {r.suite} (ring={r.ring}, degree={r.degree}, seed={r.seed})"
        for c in r.checks:
            status = "PASS" if c.passed else "FAIL"
            tail = f" [{c.detail}]" if c.detail and not c.passed else ""
            yield f"  {status} {c.name}{tail}"
    yield "all checks passed" if ok else "FAILURES above"


def cmd_verify(args) -> int:
    rings = [resolve_ring(spec) for spec in args.ring.split(",")]
    if args.suite == "all":
        reports = verify.battery(rings, args.degree, args.seed)
    else:
        reports = [
            verify.run_suite(args.suite, ring, args.degree, args.seed)
            for ring in rings
        ]
    ok = all(r.passed for r in reports)
    payload = {
        "degree": args.degree,
        "seed": args.seed,
        "passed": ok,
        "reports": [
            {**vars(r), "checks": [vars(c) for c in r.checks], "passed": r.passed}
            for r in reports
        ],
    }
    _emit(args, payload, _report_lines(reports, ok))
    return EXIT_OK if ok else EXIT_FAILED


def _degree(text: str) -> int:
    """--degree: an int >= 0; anything else is a parser error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return n


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (unknown flag, missing value,
    bad choice, missing positional) print one ``error:`` line, as every
    other malformed input does, instead of the usage line and the error.
    Subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wreathgroth",
        description=(
            "Exact computations in the limiting Grothendieck ring of wreath "
            "products over a finite-rank base ring."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)

    def add_common(p, run, ring=True, degree=False, seed=False):
        """The options every leaf shares, and the handler main() calls."""
        p.set_defaults(run=run)
        if ring:
            p.add_argument(
                "--ring",
                default="builtin:integers",
                help="ring config path or builtin:{integers,cyclic(n),matrix(n),golden}",
            )
        if degree:
            p.add_argument("--degree", type=_degree, default=4, help="truncation degree")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)

    ring_p = sub.add_parser("ring", help="ring configuration utilities")
    ring_sub = ring_p.add_subparsers(dest="action", required=True)
    val = ring_sub.add_parser("validate", help="validate a ring config")
    add_common(val, cmd_ring_validate)

    groth_p = sub.add_parser("groth", help="compute in the multipartition basis")
    groth_sub = groth_p.add_subparsers(dest="action", required=True)
    mul = groth_sub.add_parser("mul", help="product of two basis elements")
    mul.add_argument("operands", nargs=2, help="two literals like 'Z{e:[1]}'")
    add_common(mul, cmd_groth_mul)
    for name, what, generator in (
        ("e", "e_n", gr.e_of), ("h", "h_n", gr.h_element), ("decompose", "e_n expanded", gr.e_of)
    ):
        p = groth_sub.add_parser(name, help=f"{what} of a ring element")
        p.add_argument("--elem", required=True, help="ring element literal, e.g. 'e+g'")
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(generator=generator)
        add_common(p, cmd_groth_generator)
    xb = groth_sub.add_parser("xbasis", help="second basis element in the Z basis")
    xb.add_argument("operands", nargs=1, help="multipartition literal")
    add_common(xb, cmd_groth_xbasis)

    oracle_p = sub.add_parser("oracle", help="enveloping-algebra side computations")
    oracle_sub = oracle_p.add_subparsers(dest="action", required=True)
    omul = oracle_sub.add_parser("mul", help="product via the PBW realization")
    omul.add_argument("operands", nargs=2)
    add_common(omul, cmd_oracle_mul)
    zel = oracle_sub.add_parser("zelement", help="basis element in normal-ordered words")
    zel.add_argument("operands", nargs=1)
    add_common(zel, cmd_oracle_zelement)

    hopf_p = sub.add_parser("hopf", help="Hopf-structure computations")
    hopf_sub = hopf_p.add_subparsers(dest="action", required=True)
    delta = hopf_sub.add_parser("delta", help="coproduct of a basis element")
    delta.add_argument("--elem", required=True, help="literal like 'Z{e:[2,1]}'")
    add_common(delta, cmd_hopf_delta)

    witt_p = sub.add_parser("witt", help="truncated big Witt vectors")
    witt_sub = witt_p.add_subparsers(dest="action", required=True)
    for op in ("add", "mul"):
        p = witt_sub.add_parser(op)
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--a", required=True, help="comma list, e.g. '1,2,3'")
        p.add_argument("--b", required=True)
        add_common(p, cmd_witt, ring=False)

    law_p = sub.add_parser("law", help="the formal group law on e-coordinates")
    law_sub = law_p.add_subparsers(dest="action", required=True)
    dump = law_sub.add_parser("dump", help="print the law components")
    add_common(dump, cmd_law_dump, degree=True)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument(
        "suite", choices=sorted(verify.SUITES) + ["all"], help="suite name"
    )
    verify_p.add_argument(
        "--ring",
        default="builtin:integers",
        help="one ring spec, or a comma-separated list to verify in turn",
    )
    add_common(verify_p, cmd_verify, ring=False, degree=True, seed=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:  # argparse stores [] for an option whose value is "--" (--elem=--)
            raise ConfigError(f"--{empty[0]} needs a value")
        return args.run(args)
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
