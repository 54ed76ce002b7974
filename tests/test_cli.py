import json
import os
import subprocess
import sys

import pytest

from wreathgroth import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_groth_mul_golden(capsys):
    code, out, _ = run(capsys, "groth", "mul", "Z{1:[1]}", "Z{1:[1]}")
    assert code == 0
    assert out.strip() == "Z{1:[1]} + Z{1:[2]} + Z{1:[1,1]}"


def test_groth_mul_identity(capsys):
    code, out, _ = run(capsys, "groth", "mul", "Z{}", "Z{1:[2,1]}")
    assert code == 0
    assert out.strip() == "Z{1:[2,1]}"


def test_groth_e_decomposition(capsys):
    code, out, _ = run(
        capsys, "groth", "e", "--ring", "builtin:cyclic(2)", "--elem", "e+g", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "Z{g:[1,1]} + Z{e:[1];g:[1]} + Z{e:[1,1]}"


def test_groth_json_mode(capsys):
    code, out, _ = run(capsys, "groth", "mul", "--json", "Z{1:[1]}", "Z{1:[1]}")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "terms": [
            {"coeff": "1", "term": {"1": [1]}},
            {"coeff": "1", "term": {"1": [2]}},
            {"coeff": "1", "term": {"1": [1, 1]}},
        ]
    }


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "groth", "mul", "Z{bogus:[1]}", "Z{}")
    assert code == 2
    assert "unknown basis label" in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["groth", "mul", "onlyone"]) == 2


def test_ring_validate_builtin(capsys):
    code, out, _ = run(capsys, "ring", "validate", "--ring", "builtin:matrix(2)")
    assert code == 0
    assert "monomial algebra: True" in out
    assert "valid" in out


def test_ring_validate_config_and_failure(tmp_path, capsys):
    good = {
        "basis": ["a"],
        "unit": {"a": 1},
        "mult": [{"left": "a", "right": "a", "out": {"a": 1}}],
    }
    p = tmp_path / "good.json"
    p.write_text(json.dumps(good))
    code, out, _ = run(capsys, "ring", "validate", "--ring", str(p))
    assert code == 0

    bad = {
        "basis": ["a", "b"],
        "mult": [
            {"left": "a", "right": "a", "out": {"b": 1}},
            {"left": "a", "right": "b", "out": {"a": 1}},
            {"left": "b", "right": "a", "out": {}},
            {"left": "b", "right": "b", "out": {}},
        ],
    }
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "ring", "validate", "--ring", str(p2))
    assert code == 1
    assert "no unit" in out
    assert "associativity fails" in out

    p3 = tmp_path / "broken.json"
    p3.write_text("{not json")
    code, _, err = run(capsys, "ring", "validate", "--ring", str(p3))
    assert code == 2


C2_CONFIG = {
    "basis": ["e", "g"],
    "unit": {"e": 1},
    "mult": [
        {"left": "e", "right": "e", "out": {"e": 1}},
        {"left": "e", "right": "g", "out": {"g": 1}},
        {"left": "g", "right": "e", "out": {"g": 1}},
        {"left": "g", "right": "g", "out": {"e": 1}},
    ],
}


@pytest.mark.parametrize(
    "override",
    [
        {"adams": {"x": {"e": {"e": 1}, "g": {"e": 1}}}},
        {"lambda": {"e": {"two": {}}}},
        {"adams": [1]},
        {"adams": {"2": "e"}},
        {"lambda": {"e": [1]}},
        {"mult": 5},
        {"unit": {"e": True}},
    ],
    ids=[
        "adams-key", "lambda-key", "adams-list", "adams-table-string",
        "lambda-table-list", "mult-int", "bool-coefficient",
    ],
)
def test_malformed_ring_config_is_a_usage_error(tmp_path, capsys, override):
    p = tmp_path / "ring.json"
    p.write_text(json.dumps({**C2_CONFIG, **override}))
    code, out, err = run(capsys, "ring", "validate", "--ring", str(p))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]


def test_flags_a_command_does_not_read_are_rejected(capsys):
    code, _, _ = run(capsys, "groth", "mul", "Z{1:[1]}", "Z{1:[1]}", "--degree", "3")
    assert code == 2
    code, _, _ = run(
        capsys, "witt", "add", "--length", "3", "--a", "1,2,3", "--b", "4,5,6", "--seed", "1"
    )
    assert code == 2


def test_oracle_mul_matches_groth(capsys):
    _, a, _ = run(capsys, "groth", "mul", "Z{1:[1]}", "Z{1:[1]}")
    _, b, _ = run(capsys, "oracle", "mul", "Z{1:[1]}", "Z{1:[1]}")
    assert a == b


def test_oracle_zelement_dump(capsys):
    code, out, _ = run(capsys, "oracle", "zelement", "Z{1:[2]}")
    assert code == 0
    assert out.splitlines() == [
        "-1/2 * T1(1)",
        "1/2 * T1(1)*T1(1)",
        "1 * T2(1)",
    ]


def test_hopf_delta(capsys):
    code, out, _ = run(
        capsys, "hopf", "delta", "--ring", "builtin:cyclic(2)", "--elem", "Z{e:[1]}"
    )
    assert code == 0
    assert out.splitlines() == [
        "Z{} (x) Z{e:[1]}",
        "Z{e:[1]} (x) Z{}",
    ]


def test_witt_cli(capsys):
    code, out, _ = run(
        capsys, "witt", "add", "--length", "3", "--a", "1,0,0", "--b", "2,0,0"
    )
    assert code == 0
    assert out.strip() == "3,2,0"
    code, out, _ = run(
        capsys, "witt", "mul", "--length", "3", "--a", "1,0,0", "--b", "5,7,9"
    )
    assert code == 0
    assert out.strip() == "5,7,9"
    code, _, _ = run(capsys, "witt", "add", "--length", "4", "--a", "1,2", "--b", "1,2")
    assert code == 2


def test_law_dump(capsys):
    code, out, _ = run(capsys, "law", "dump", "--degree", "1")
    assert code == 0
    assert out.strip() == "e1(1) -> e1(x_1) + e1(y_1)"


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "symfun", "--degree", "6")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_missing_lambda_data_exit_three(capsys):
    code, _, err = run(
        capsys, "verify", "lambda", "--ring", "builtin:matrix(2)", "--degree", "2"
    )
    assert code == 3
    assert "lambda" in err


def test_verify_multiple_rings(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "oracle-crosscheck",
        "--ring",
        "builtin:integers,builtin:cyclic(2)",
        "--degree",
        "2",
    )
    assert code == 0
    assert out.count("suite oracle-crosscheck") == 2
    assert "ring=integers" in out and "ring=ZC2" in out


def test_verify_json_and_determinism(capsys):
    code, out1, _ = run(
        capsys, "verify", "witt", "--json", "--degree", "2", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["seed"] == 7
    code, out2, _ = run(
        capsys, "verify", "witt", "--json", "--degree", "2", "--seed", "7"
    )
    assert out1 == out2


def test_version(capsys):
    assert cli.main(["--version"]) == 0


def test_cross_process_byte_determinism():
    # identical inputs must give byte-identical output even across processes
    # with different hash randomization
    argv = [
        sys.executable, "-m", "wreathgroth.cli",
        "verify", "oracle-crosscheck",
        "--ring", "builtin:cyclic(2)", "--degree", "3", "--seed", "11", "--json",
    ]
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("action", ["e", "h", "decompose"])
def test_groth_negative_n_is_a_usage_error(capsys, action):
    code, out, err = run(
        capsys, "groth", action, "--n", "-1", "--ring", "builtin:integers", "--elem", "2*1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
