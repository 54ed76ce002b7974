"""Fuzz the CLI with generated ring configs, literals and flag vectors.

Whatever the input, ``cli.main`` must return an exit code in {0,1,2,3}
without raising, and print at most one line to stderr (the ``error:`` line
of a usage error); it never prints a traceback.  Literals are kept to small
degrees so that every well-formed input is also cheap to compute.  Every
generated flag vector is refused by the parser, so none of them runs a
command.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, strategies as st

from wreathgroth import cli

LABELS = st.sampled_from(["a", "b", "e", "g", "1", "x", "", " a", "a:b", "[", "é"])

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), LABELS,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.one_of(LABELS, st.text(max_size=3)), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def vectors(draw, labels):
    keys = st.sampled_from(labels) if labels else LABELS
    return draw(st.one_of(st.dictionaries(keys, st.integers(-2, 2), max_size=2), json_values))


@st.composite
def configs(draw):
    """Mostly well-shaped ring configs of rank <= 2 with random constants,
    some of them broken in one place."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=2))
    rows = [
        {"left": l, "right": r, "out": draw(vectors(labels))}
        for l in labels
        for r in labels
    ]
    if rows and draw(st.booleans()):
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    config = {"basis": labels, "mult": rows}
    if draw(st.booleans()):
        config["unit"] = draw(vectors(labels))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["1", "2", "0", "-1", "x", "1.5"]))
        config["adams"] = {key: {lab: draw(vectors(labels)) for lab in labels}}
    if draw(st.booleans()):
        lab = draw(st.sampled_from(labels))
        key = draw(st.sampled_from(["0", "1", "2", "-1", "r"]))
        config["lambda"] = {lab: {key: draw(vectors(labels))}}
    for _ in range(draw(st.integers(0, 1))):
        config[draw(st.sampled_from(["basis", "mult", "unit", "adams", "lambda"]))] = draw(json_values)
    return json.dumps(config).encode()


ring_files = st.one_of(
    configs(),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=20),
)

# element literals such as "2*a - b", and multipartition literals such as
# "Z{a:[2,1];b:[1]}": drawn from their own alphabets, with every number a
# single digit at most 2 so that well-formed ones stay small
element_literals = st.text(alphabet="ab1xeg2*+- ", max_size=8)
mp_literals = st.text(alphabet="Z{}[]:;,ab1e2 -", max_size=12)


def small(text: str) -> bool:
    return not re.search(r"\d\d", text) and sum(int(d) for d in re.findall(r"\d", text)) <= 4


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean(code, err, argv):
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert len(err.splitlines()) <= 1, (argv, err)
    if err:
        assert err.startswith("error: "), (argv, err)


@given(
    ring=ring_files,
    elem=element_literals,
    mp=mp_literals,
    n=st.integers(0, 2),
    command=st.sampled_from(["validate", "e", "h", "decompose", "xbasis", "delta", "oracle"]),
)
def test_cli_survives_generated_rings_and_literals(ring, elem, mp, n, command):
    if not small(mp):
        mp = "{}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "wb") as fh:
            fh.write(ring)
        cmd, rest = {
            "validate": (["ring", "validate"], []),
            "e": (["groth", "e"], [f"--elem={elem}", "--n", str(n)]),
            "h": (["groth", "h"], [f"--elem={elem}", "--n", str(n)]),
            "decompose": (["groth", "decompose"], [f"--elem={elem}", "--n", str(n)]),
            "xbasis": (["groth", "xbasis"], ["--", mp]),
            "delta": (["hopf", "delta"], [f"--elem={mp}"]),
            "oracle": (["oracle", "mul"], ["--", mp, "{}"]),
        }[command]
        argv = [*cmd, f"--ring={path}", *rest]
        code, err = run(argv)
    assert_clean(code, err, argv)


@given(elem=element_literals, mp=mp_literals, n=st.integers(0, 2))
def test_cli_survives_literals_on_builtin_rings(elem, mp, n):
    if not small(mp):
        mp = "{}"
    for ring in ("builtin:integers", "builtin:cyclic(2)", "builtin:golden"):
        for argv in (
            ["groth", "h", f"--elem={elem}", "--n", str(n), f"--ring={ring}"],
            ["groth", "mul", f"--ring={ring}", "--", mp, mp],
            ["hopf", "delta", f"--elem={mp}", f"--ring={ring}"],
        ):
            code, err = run(argv)
            assert_clean(code, err, argv)


# ---------------------------------------------------------------------------
# flag vectors: a small valid command line per subcommand, broken in one place

# the two choice words of each command line, then its required arguments,
# one group per positional or flag with its value
VALID = {
    ("ring", "validate"): [],
    ("groth", "mul"): [["{}", "{}"]],
    ("groth", "e"): [["--elem", "e"], ["--n", "1"]],
    ("groth", "h"): [["--elem", "e"], ["--n", "1"]],
    ("groth", "decompose"): [["--elem", "e"], ["--n", "1"]],
    ("groth", "xbasis"): [["{}"]],
    ("oracle", "mul"): [["{}", "{}"]],
    ("oracle", "zelement"): [["{}"]],
    ("hopf", "delta"): [["--elem", "{}"]],
    ("witt", "add"): [["--length", "1"], ["--a", "1"], ["--b", "1"]],
    ("witt", "mul"): [["--length", "1"], ["--a", "1"], ["--b", "1"]],
    ("law", "dump"): [],
    ("verify", "symfun"): [],
}
CHOICES = {word for cmd in VALID for word in cmd} | {"all", "commutation", "hopf", "lambda"}
INT_FLAGS = ("--n", "--length", "--degree", "--seed")
# no option of any subcommand starts with --x, so no abbreviation matches
unknown_flags = st.from_regex(r"\A--x[a-z0-9-]{0,5}(=[a-z0-9]{0,3})?\Z")
# no digit and no leading dash: never an int, never read as an option
junk = st.text(alphabet="abcxyz.,:é ", max_size=5)


def value_flags(cmd):
    """The flags of a command line that take a value."""
    optional = {"witt": [], "law": ["--ring", "--degree"], "verify": ["--ring", "--degree", "--seed"]}
    return [g[0] for g in VALID[cmd] if g[0].startswith("--")] + optional.get(cmd[0], ["--ring"])


@st.composite
def broken_argvs(draw):
    """A valid command line with one defect the parser refuses: an unknown
    flag, a value flag with no value, a non-integer int value, a negative
    --degree, a word that is no choice, or a dropped required argument."""
    cmd = draw(st.sampled_from(sorted(VALID)))
    groups = [list(g) for g in VALID[cmd]]
    kinds = ["unknown", "no value", "bad choice"]
    if any(g[0] in INT_FLAGS for g in groups):
        kinds.append("bad int")
    if "--degree" in value_flags(cmd):
        kinds.append("negative degree")
    if groups:
        kinds.append("dropped")
    kind = draw(st.sampled_from(kinds))
    if kind == "bad int":
        draw(st.sampled_from([g for g in groups if g[0] in INT_FLAGS]))[1] = draw(junk)
    elif kind == "dropped":
        del groups[draw(st.integers(0, len(groups) - 1))]
    argv = [*cmd, *(t for g in groups for t in g)]
    if kind == "unknown":
        argv.insert(draw(st.integers(0, len(argv))), draw(unknown_flags))
    elif kind == "no value":
        argv.append(draw(st.sampled_from(value_flags(cmd))))
    elif kind == "bad choice":
        argv[draw(st.integers(0, 1))] = draw(junk.filter(lambda t: t not in CHOICES))
    elif kind == "negative degree":
        n = str(draw(st.integers(max_value=-1)))
        argv += draw(st.sampled_from([["--degree", n], [f"--degree={n}"]]))
    return argv


@given(argv=broken_argvs())
def test_usage_errors_are_one_line_and_exit_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2, argv
    assert out.getvalue() == "", argv
    assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@pytest.mark.parametrize("cmd", [()] + sorted(VALID), ids=" ".join)
def test_help_exits_0(cmd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*cmd, "--help"])
    assert code == 0
    assert out.getvalue().startswith("usage: wreathgroth")
