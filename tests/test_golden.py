"""Golden CLI corpus: every README example on each of the four test rings,
in text and --json, with the exact stdout and exit code it must produce.

The expected outputs in ``golden/cases.json`` are fixed: any byte of drift
in stdout, or a changed exit code, is a behaviour change.
"""

import json
from pathlib import Path

import pytest

from wreathgroth import cli

CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_cli_output(case, capsys):
    code = cli.main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
