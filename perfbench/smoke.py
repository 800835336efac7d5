"""Short smoke run of the benchmark: ``python3 perfbench/smoke.py``.

For every workload it runs the first few ops once untraced and twice
traced at one seed, and checks that

* the last line is the result object, with every metric ``BENCHMARK.json``
  names, each a number with that metric's unit, and nothing else;
* the human-readable lines print every end-to-end figure with its unit;
* every count metric repeats exactly between the two traced runs;

and finally that the benchmark exits non-zero without a result line when
the qgraph sources are missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench  # perfbench/ is on sys.path as the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
MAX_OPS = 3
COUNT_UNITS = ("count", "B", "flop-computed")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc, wanted: dict, problems: list, tag: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(wanted):
        problems.append(f"{tag}: metric names differ: {sorted(set(result['metrics']) ^ set(wanted))}")
    for name, entry in result["metrics"].items():
        unit = wanted.get(name)
        if not isinstance(entry.get("value"), (int, float)) or entry.get("unit") != unit:
            problems.append(f"{tag}: {name} = {entry} (want a number in {unit})")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--max-ops", str(MAX_OPS)]
        plain = run(common + ["--trace", "0"])
        result_of(plain, end_to_end, problems, f"{workload} trace 0")
        for name, unit in dict(end_to_end, **{k: per_layer[k] for k in bench.STAGES}).items():
            if not any(line.split()[:1] == [name] and line.rstrip().endswith(unit)
                       for line in plain.stdout.splitlines()):
                problems.append(f"{workload}: no '{name} <value> {unit}' line")
        traced = [result_of(run(common + ["--trace", "1"]), per_layer, problems, f"{workload} trace 1")
                  for _ in range(2)]
        if all(traced):
            for name, unit in per_layer.items():
                a, b = (t["metrics"][name]["value"] for t in traced)
                if unit in COUNT_UNITS and a != b:
                    problems.append(f"{workload}: count {name} differs between runs: {a} != {b}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("PROBLEM:", problem)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
