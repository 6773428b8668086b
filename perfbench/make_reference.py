"""Rewrite reference.json from the program as it is now.

Usage, from the repository root: ``python3 perfbench/make_reference.py``

It runs the sweep-3x2 workload once at seed 1 (seeds 1 and 2, radii 0, 0.1
and 0.35) with the default config and stores each run's key scalars. Run it
only in a change that means to alter those scalars, and say so there. The
tolerances already in the file are kept.
"""

from __future__ import annotations

import json
import shutil
import time

import checks
import run


def main() -> None:
    wl = run.Workload("sweep-3x2", 1)
    work = run.WORK / f"reference-{time.time_ns()}"
    try:
        rep = run.run_rep(work, 0, wl, False, time.perf_counter() + 900, use_reference=False)
        if rep["problems"]:
            raise SystemExit(json.dumps(rep["problems"], indent=2))
        out = work / "rep0" / "out"
        runs = {checks.run_key(rho, seed):
                checks.key_scalars(checks.read_json(out / checks.run_key(rho, seed) / "summary.json"))
                for rho, seed in wl.runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {**checks.read_json(checks.REFERENCE_PATH), "runs": runs}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {len(runs)} runs to {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
