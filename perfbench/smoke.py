"""Smoke check: run every workload once, untraced and traced, at the shortest
run length, and assert that every metric BENCHMARK.json names is printed
with its unit, that all output checks pass and that traced runs write
span records.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / ".perfbench_tmp" / "smoke-spans.jsonl"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            if trace:
                SPANS.parent.mkdir(exist_ok=True)
                cmd += ["--spans", str(SPANS)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
                problems.append(f"{label}: output checks failed: {info['failures']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{label}: metrics {sorted(set(printed) ^ set(expected))} or units differ")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{label}: end-to-end metrics not above zero: {zero}")
            if trace and not SPANS.is_file():
                problems.append(f"{label}: no spans written")
            elif trace:
                span = json.loads(SPANS.read_text().splitlines()[0])
                if not {"name", "start", "end", "parent", "doc_id"} <= set(span):
                    problems.append(f"{label}: span record lacks fields: {sorted(span)}")
                SPANS.unlink()
            print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"metrics={len(printed)}", flush=True)
    if SPANS.parent.is_dir() and not any(SPANS.parent.iterdir()):
        SPANS.parent.rmdir()
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
