"""Command-line front end.

Exit codes: 0 success, 1 failed verification, 2 parse/usage error, 3 the
ring lacks the optional data a suite needs.  Output is deterministic for
fixed inputs (including --seed); JSON mode emits sorted keys.
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
    text = text.strip()
    if text.startswith("Z"):
        text = text[1:]
    return parse_multipartition(text, ring.labels)


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


def _emit_element(args, x: GrothElement):
    if args.json:
        print(json.dumps({"terms": _groth_json(x)}, sort_keys=True))
    else:
        print(format_groth(x))


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
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ring {ring.name}: rank {ring.rank()}")
        print(f"  monomial algebra: {payload['monomial_algebra']}")
        print(f"  commutative: {payload['commutative']}")
        if issues:
            for issue in issues:
                print(f"  INVALID: {issue}")
        else:
            print("  valid")
    return EXIT_OK if not issues else EXIT_FAILED


def cmd_groth(args) -> int:
    ring = resolve_ring(args.ring)
    if args.action == "mul":
        a = GrothElement.basis(ring, _parse_groth_literal(ring, args.operands[0]))
        b = GrothElement.basis(ring, _parse_groth_literal(ring, args.operands[1]))
        _emit_element(args, a * b)
    elif args.action in ("e", "decompose"):
        W = parse_element(ring, args.elem)
        _emit_element(args, gr.e_of(ring, args.n, W))
    elif args.action == "h":
        W = parse_element(ring, args.elem)
        _emit_element(args, gr.h_element(ring, args.n, W))
    elif args.action == "xbasis":
        lam = _parse_groth_literal(ring, args.operands[0])
        _emit_element(args, gr.x_basis_element(ring, lam))
    return EXIT_OK


def cmd_oracle(args) -> int:
    ring = resolve_ring(args.ring)
    if args.action == "mul":
        mu = _parse_groth_literal(ring, args.operands[0])
        nu = _parse_groth_literal(ring, args.operands[1])
        _emit_element(args, pbw.oracle_multiply(ring, mu, nu))
    elif args.action == "zelement":
        lam = _parse_groth_literal(ring, args.operands[0])
        el = pbw.z_element_pbw(ring, lam)
        if args.json:
            terms = [
                {"coeff": str(c), "word": pbw.format_word(w, ring)}
                for w, c in sorted(el.terms.items())
            ]
            print(json.dumps({"terms": terms}, sort_keys=True))
        else:
            if not el.terms:
                print("0")
            for w, c in sorted(el.terms.items()):
                print(f"{c} * {pbw.format_word(w, ring)}")
    return EXIT_OK


def cmd_hopf_delta(args) -> int:
    ring = resolve_ring(args.ring)
    lam = _parse_groth_literal(ring, args.elem)
    delta = hopf.comultiply(GrothElement.basis(ring, lam))
    rows = sorted(
        delta.terms.items(), key=lambda kv: (mp_sort_key(kv[0][0]), mp_sort_key(kv[0][1]))
    )
    if args.json:
        payload = [
            {
                "coeff": str(c),
                "left": format_multipartition(mu, ring.labels),
                "right": format_multipartition(nu, ring.labels),
            }
            for (mu, nu), c in rows
        ]
        print(json.dumps({"terms": payload}, sort_keys=True))
    else:
        for (mu, nu), c in rows:
            left = "Z" + format_multipartition(mu, ring.labels)
            right = "Z" + format_multipartition(nu, ring.labels)
            prefix = "" if c == 1 else f"{c}*"
            print(f"{prefix}{left} (x) {right}")
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
    if args.json:
        print(json.dumps({"result": list(out.comps)}, sort_keys=True))
    else:
        print(",".join(str(c) for c in out.comps))
    return EXIT_OK


def cmd_law_dump(args) -> int:
    ring = resolve_ring(args.ring)
    law = hopf.formal_group_law(ring, args.degree)

    def mono_str(mono):
        if not mono:
            return "1"
        bits = []
        for fam, u, j in mono:
            name = "x" if fam == 0 else "y"
            bits.append(f"e{j}({name}_{ring.labels[u]})")
        return "*".join(bits)

    if args.json:
        payload = {}
        for (u, i), poly in sorted(law.components.items()):
            payload[f"e{i}({ring.labels[u]})"] = {
                mono_str(m): str(c) for m, c in sorted(poly.items())
            }
        print(json.dumps(payload, sort_keys=True))
    else:
        for (u, i), poly in sorted(law.components.items()):
            terms = " + ".join(
                (f"{c}*" if c != 1 else "") + mono_str(m)
                for m, c in sorted(poly.items())
            )
            print(f"e{i}({ring.labels[u]}) -> {terms}")
    return EXIT_OK


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
    if args.json:
        payload = {
            "degree": args.degree,
            "seed": args.seed,
            "passed": ok,
            "reports": [
                {
                    "suite": r.suite,
                    "ring": r.ring,
                    "degree": r.degree,
                    "seed": r.seed,
                    "passed": r.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            print(f"suite {r.suite} (ring={r.ring}, degree={r.degree}, seed={r.seed})")
            for c in r.checks:
                status = "PASS" if c.passed else "FAIL"
                tail = f" [{c.detail}]" if c.detail and not c.passed else ""
                print(f"  {status} {c.name}{tail}")
        print("all checks passed" if ok else "FAILURES above")
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

    def add_common(p, ring=True, degree=False, seed=False):
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
    add_common(val)

    groth_p = sub.add_parser("groth", help="compute in the multipartition basis")
    groth_sub = groth_p.add_subparsers(dest="action", required=True)
    mul = groth_sub.add_parser("mul", help="product of two basis elements")
    mul.add_argument("operands", nargs=2, help="two literals like 'Z{e:[1]}'")
    add_common(mul)
    for name, what in (("e", "e_n"), ("h", "h_n"), ("decompose", "e_n expanded")):
        p = groth_sub.add_parser(name, help=f"{what} of a ring element")
        p.add_argument("--elem", required=True, help="ring element literal, e.g. 'e+g'")
        p.add_argument("--n", type=int, required=True)
        add_common(p)
    xb = groth_sub.add_parser("xbasis", help="second basis element in the Z basis")
    xb.add_argument("operands", nargs=1, help="multipartition literal")
    add_common(xb)

    oracle_p = sub.add_parser("oracle", help="enveloping-algebra side computations")
    oracle_sub = oracle_p.add_subparsers(dest="action", required=True)
    omul = oracle_sub.add_parser("mul", help="product via the PBW realization")
    omul.add_argument("operands", nargs=2)
    add_common(omul)
    zel = oracle_sub.add_parser("zelement", help="basis element in normal-ordered words")
    zel.add_argument("operands", nargs=1)
    add_common(zel)

    hopf_p = sub.add_parser("hopf", help="Hopf-structure computations")
    hopf_sub = hopf_p.add_subparsers(dest="action", required=True)
    delta = hopf_sub.add_parser("delta", help="coproduct of a basis element")
    delta.add_argument("--elem", required=True, help="literal like 'Z{e:[2,1]}'")
    add_common(delta)

    witt_p = sub.add_parser("witt", help="truncated big Witt vectors")
    witt_sub = witt_p.add_subparsers(dest="action", required=True)
    for op in ("add", "mul"):
        p = witt_sub.add_parser(op)
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--a", required=True, help="comma list, e.g. '1,2,3'")
        p.add_argument("--b", required=True)
        add_common(p, ring=False)

    law_p = sub.add_parser("law", help="the formal group law on e-coordinates")
    law_sub = law_p.add_subparsers(dest="action", required=True)
    dump = law_sub.add_parser("dump", help="print the law components")
    add_common(dump, degree=True)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument(
        "suite", choices=sorted(verify.SUITES) + ["all"], help="suite name"
    )
    verify_p.add_argument(
        "--ring",
        default="builtin:integers",
        help="one ring spec, or a comma-separated list to verify in turn",
    )
    add_common(verify_p, ring=False, degree=True, seed=True)
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
        if args.command == "ring":
            return cmd_ring_validate(args)
        if args.command == "groth":
            return cmd_groth(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "hopf":
            return cmd_hopf_delta(args)
        if args.command == "witt":
            return cmd_witt(args)
        if args.command == "law":
            return cmd_law_dump(args)
        if args.command == "verify":
            return cmd_verify(args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
