#!/usr/bin/env python3
"""Benchmark of the filexlab command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds it and imports
the program from that checkout's `src/`. The workloads are defined in
`workloads.py` and explained in `README.md`.

--trace 0 runs the workload's CLI commands in fresh processes, pass after
pass, for about S seconds, and reports the end-to-end metrics (medians
over the passes). --trace 1 runs the workload once through the CLI, then
twice inside this process at one worker, untraced and traced, then times
each layer in isolation, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Machine
details, output digests, per-pass times and interquartile ranges are
written to .perfbench_work/results/, the spans to .perfbench_work/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One thread per numeric library, here and in every child process, so two
# pool workers keep to nproc busy threads. Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 165.0
SETUP_SAMPLES = 11
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import filexlab.cli; "
    "print(time.perf_counter() - t0, flush=True)"
)
LAYERS = ("cli", "sweep", "filex", "sampling", "toy_els", "stats", "records", "analysis", "svgplot")


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Per fresh process: seconds from spawn until `filexlab.cli` is imported,
    and the part of that spent in the import statement."""
    walls, imports = [], []
    for _ in range(samples):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=ENV,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            walls.append(perf_counter() - start)
            proc.wait(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing filexlab.cli exited {proc.returncode}")
        imports.append(float(line))
    return walls, imports


def run_cli(argv: list[str], deadline: float) -> tuple[float, int]:
    """Seconds and exit code of one `filexlab` command in a fresh process."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "filexlab.cli", *argv], cwd=ROOT, env=ENV,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        # the process group holds the pool workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(err)
    return elapsed, proc.returncode


def fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def cli_pass(workload, out: Path, seed: int, deadline: float) -> tuple[float, list[int]]:
    fresh(out)
    total, codes = 0.0, []
    for argv in workload.commands(out, seed, workload.workers):
        elapsed, code = run_cli(argv, deadline)
        total += elapsed
        codes.append(code)
    return total, codes


def in_process_pass(workload, out: Path, seed: int, tracer=None) -> tuple[float, list[int]]:
    """The workload's commands through `filexlab.cli.main` at one worker."""
    from filexlab import cli

    fresh(out)
    codes = []
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(workload.commands(out, seed, 1)):
            main = cli.main
            if tracer is not None:
                tracer.request = i
                main = tracer.span("cli.main", cli.main)
            codes.append(main(argv))
    return perf_counter() - start, codes


def end_to_end(workload, seed, seconds, deadline, tally) -> tuple[dict, dict]:
    from workloads import digests

    setup_walls, _ = measure_setup(SETUP_SAMPLES)
    work = WORK / workload.name
    workload.prepare(work, seed)
    out = work / "out"
    walls, first = [], None
    start = perf_counter()
    while True:
        wall, codes = cli_pass(workload, out, seed, deadline)
        walls.append(wall)
        workload.check(out, seed, codes, tally)
        found = digests(out)
        if first is None:
            first = found
        else:
            tally.check(found == first, "outputs differ between passes of one seed")
        typical = statistics.median(walls)
        if perf_counter() - start + typical > seconds or perf_counter() + typical > deadline:
            break
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "points_per_s": workload.points / wall_s,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    details = {"pass_walls_s": walls, "setup_walls_s": setup_walls, "digests": first}
    return metrics, details


def per_layer(workload, seed, deadline, tally, quick) -> tuple[dict, dict]:
    import layers
    import tracing
    from workloads import digests

    _, imports = measure_setup(SETUP_SAMPLES)
    work = WORK / workload.name
    workload.prepare(work, seed)
    out = work / "out"

    cli_wall, codes = cli_pass(workload, out, seed, deadline)
    workload.check(out, seed, codes, tally)
    reference = digests(out)

    plain_wall, codes = in_process_pass(workload, out, seed)
    workload.check(out, seed, codes, tally)
    tally.check(digests(out) == reference, "untraced in-process outputs differ from the CLI's")

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_wall, codes = in_process_pass(workload, out, seed, tracer)
    finally:
        tracer.remove()
    workload.check(out, seed, codes, tally)
    tally.check(digests(out) == reference, "traced outputs differ from the CLI's")
    tracer.dump(WORK / "traces" / f"{workload.name}-seed{seed}.json")

    isolated = layers.measure(work / "layers", quick)
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    # per-point busy time, less what the kernel wrappers inside the points added
    kernel_calls = counts["sampling.categorical_counts.calls"] + counts["toy_els.toy_update.calls"]
    busy = tracer.total(tracing.POINT_SPANS) - kernel_calls * tracing.kernel_cost()
    metrics["sweep.pool.parallel_eff"] = busy / (workload.workers * cli_wall)
    for name in (
        "sweep.points", "sweep.skipped", "filex.draws",
        "stats.kendall_tau.calls.exact", "stats.kendall_tau.calls.mc",
        "stats.kendall_tau.calls.normal", "records.bytes_written", "records.bytes_read",
        "sampling.categorical_counts.calls",
    ):
        metrics[name] = counts[name]
    metrics["toy_els.updates"] = counts["toy_els.toy_update.calls"]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics.update({name: median for name, (median, _, _) in isolated.items()})
    details = {
        "cli_wall_s": cli_wall,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "import_s": imports,
        "isolated": {n: {"median": m, "iqr": q, "unit": u} for n, (m, q, u) in isolated.items()},
        "digests": reference,
    }
    return metrics, details


def machine() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {v: ENV[v] for v in THREAD_VARS},
    }


def digest_status(workload: str, seed: int, found: dict, tiny: bool) -> str:
    """Whether the outputs match the recorded baseline for this seed; a
    mismatch is reported, not failed, so a stream re-baseline can update it."""
    if tiny:
        return "not compared (tiny)"
    baseline = json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed))
    if baseline is None:
        return "no baseline for this seed"
    return "match" if baseline == found else "MISMATCH"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads, for selfcheck.py")
    args = parser.parse_args()
    if not (SRC / "filexlab" / "cli.py").is_file():
        print(f"perfbench: no filexlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    sys.path.insert(0, str(SRC))
    from workloads import Tally, make_workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = make_workloads(args.tiny)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    deadline = perf_counter() + DEADLINE_S
    tally = Tally()
    if args.trace:
        metrics, details = per_layer(workload, args.seed, deadline, tally, args.tiny)
    else:
        metrics, details = end_to_end(workload, args.seed, args.seconds, deadline, tally)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    status = digest_status(args.workload, args.seed, details["digests"], args.tiny)
    info = machine()
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine: {json.dumps(info)}")
    for m in declared:
        value = metrics[m["name"]]
        spread = details.get("isolated", {}).get(m["name"], {}).get("iqr")
        iqr = "" if spread is None else f"  (IQR {spread:.4g})"
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}{iqr}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} ({tally.failed}/{tally.attempted})")
    print(f"output digests: {status}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(
            {
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "machine": info, "metrics": metrics, "failed_frac": failed_frac,
                "problems": tally.problems, "digest_status": status, **details,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
