#!/usr/bin/env python3
"""Record the output digests of finished benchmark runs as the baseline.

    python3 perfbench/rebaseline.py

Reads every untraced full-size result in .perfbench_work/results/ and
writes its output digests into perfbench/digests.json, by workload and
seed, keeping entries for other seeds. Run it after running the benchmark
on the seeds to record, and only when the outputs are meant to change (an
explicit random-stream re-baseline) or a seed has no baseline yet.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_work" / "results"


def main() -> None:
    path = HERE / "digests.json"
    baseline = json.loads(path.read_text())
    for result in sorted(RESULTS.glob("*-trace0.json")):
        run = json.loads(result.read_text())
        baseline.setdefault(run["workload"], {})[str(run["seed"])] = run["digests"]
        print(f"{run['workload']} seed {run['seed']}: {len(run['digests'])} files")
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
