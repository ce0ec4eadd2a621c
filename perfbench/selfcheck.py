"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` is well formed (keys, name and unit
syntax, bounds of at most 0.25, a ``setup_s`` metric), that every workload runs
once at tiny shapes with tracing off and on and prints exactly the metrics
``BENCHMARK.json`` lists with the listed units, and that in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files the command
exits non-zero without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(message: str) -> None:
    print(f"selfcheck: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]
    ):
        fail("paths")
    command = spec["command"]
    if not 1 <= len(command) <= 32 or not all(
        isinstance(c, str) and len(c) <= 200 and not c.startswith("/") for c in command
    ):
        fail("command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("number of workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        fail("number of metrics")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric {m}")
        names.append(m["name"])
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        fail("names must be unique and well formed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if len(json.dumps(spec)) > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-1500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['correct']} {result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace} metrics differ: {sorted(set(got) ^ set(want))}")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or not math.isfinite(entry["value"]):
            fail(f"{workload} trace={trace} {name}={entry}")
    print(f"selfcheck: {workload} trace={trace} ok ({len(got)} metrics)")


def check_without_program(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    bare = ROOT / ".perfbench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without the program the benchmark must exit non-zero and print no result")
    print("selfcheck: bare directory exits", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("selfcheck: BENCHMARK.json ok")
    check_without_program(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
