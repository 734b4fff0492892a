#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps its fixed schema, runs every workload at
its tiny size with tracing off and on, and asserts that each run prints
every declared metric with its unit and no other, reports no failure, and
that two traced runs count exactly the same work. Last, it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's
own files, where it must fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
COUNT_UNITS = ("count", "bytes")


def check_schema(bench: dict, size: int) -> list[str]:
    errors = []

    def need(ok, what):
        if not ok:
            errors.append(what)

    need(size <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    need(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"top-level keys {sorted(bench)}",
    )
    cmd = bench["command"]
    need(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command")
    need(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd), "command path")
    need(1 <= len(bench["paths"]) <= 16, "number of paths")
    for p in bench["paths"]:
        need(PATH.fullmatch(p) is not None and ".." not in p.split("/"), f"path {p!r}")
    need(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(bench["workloads"]) <= 8, "number of workloads")
    for w in bench["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    need(1 <= len(bench["end_to_end"]) <= 16, "number of end_to_end metrics")
    need(1 <= len(bench["per_layer"]) <= 128, "number of per_layer metrics")
    names = [w["name"] for w in bench["workloads"]]
    for m in bench["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in bench["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        need(UNIT.fullmatch(m["unit"]) is not None, f"unit of {m['name']}")
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for n in names:
        need(NAME.fullmatch(n) is not None, f"name {n!r}")
    need(len(names) == len(set(names)), "names are not unique")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    need(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(bounds.values()),
        "setup_s must be in s, lower is better, with the largest bound",
    )
    return errors


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, declared: list[dict], label: str) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        errors.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name):
            errors.append(f"{label}: {name} is {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} value {m['value']!r}")
    return errors, metrics


def main() -> int:
    text = (ROOT / "BENCHMARK.json").read_text()
    bench = json.loads(text)
    errors = check_schema(bench, len(text.encode()))
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]

    for w in bench["workloads"]:
        name = w["name"]
        e, _ = check_result(run(name, 0), bench["end_to_end"], f"{name} trace 0")
        errors += e
        e1, first = check_result(run(name, 1), bench["per_layer"], f"{name} trace 1")
        e2, second = check_result(run(name, 1), bench["per_layer"], f"{name} trace 1 again")
        errors += e1 + e2
        for metric in counted:
            if first and second and first[metric]["value"] != second[metric]["value"]:
                errors.append(f"{name}: count {metric} did not repeat")
        print(f"{name}: checked", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("a directory without the program did not fail cleanly")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
