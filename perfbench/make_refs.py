"""Write the reference outputs the benchmark checks against, into refs/.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_refs.py

The generators and oracle references cover every query any seed can draw,
so every seed is checked against them.  The battery stdout and the Witt op
results depend on the seed's draws, so they are stored for the shipped seeds
only; other seeds are checked by all checks passing and by the ghost map.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

SHIPPED_SEEDS = (0, 1)
REFS = os.path.join(HERE, "refs")


def hashes(queries) -> dict:
    out = {}
    for key, run, check in queries:
        result, rendering = run()
        if check is not None and not check(result):
            raise SystemExit(f"self-check fails at {key}")
        out[key] = workloads.digest(rendering)
    return out


def write_json(name: str, payload: dict):
    with open(os.path.join(REFS, name), "w") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(REFS, exist_ok=True)
    for seed in SHIPPED_SEEDS:
        code, stdout = workloads.run_battery(seed)
        if code != 0:
            raise SystemExit(f"battery fails at seed {seed}")
        with open(os.path.join(REFS, f"battery-seed{seed}.txt"), "w") as fh:
            fh.write(stdout)
    write_json("generators.json", {"by_key": hashes(workloads.generator_universe())})
    write_json("oracle.json", {"by_key": hashes(workloads.oracle_universe())})
    laws = [workloads.law_query(spec, degree) for spec, degree in workloads.WITT_LAWS]
    by_seed = {
        str(seed): hashes(q for q in workloads.plan_witt(seed) if "|law|" not in q[0])
        for seed in SHIPPED_SEEDS
    }
    write_json("witt.json", {"by_key": hashes(laws), "by_seed": by_seed})


if __name__ == "__main__":
    main()
