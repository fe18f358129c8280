#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload path-auth --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own cargo workspace, path
dependencies on `crates/`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload, prints the ledger, and prints as the
last line one JSON object with `correct`, `attempted`, `failed` and the
metrics `BENCHMARK.json` declares: `end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`. The full result (every metric, check and
note) is saved under `perfbench/out/`.

Exit codes: 0 every output check passed; 1 an output check failed;
2 usage error; 3 build failed; 4 the run broke the result contract.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(code, msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return code


def select(full, declared):
    """Narrows a full result to the declared metrics, or raises KeyError."""
    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None:
            raise KeyError(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            raise KeyError(f"metric {m['name']} has unit {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": bool(full["correct"]),
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(2, f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        return fail(3, "build failed")
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    out_dir = HERE / "out"
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(proc.stdout, end="")
        return fail(4, f"benchmark exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
        result = select(full, declared)
    except (ValueError, KeyError) as e:
        return fail(4, f"bad result line: {e}")
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
