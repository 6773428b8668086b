"""advlab benchmark: three workloads driven through the public CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload erm-run --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each repetition runs ``perfbench/rep.py`` in a fresh interpreter with a
fresh, empty output directory and calls ``advlab.cli.main``, so internals can
change without breaking the benchmark. Workload seeds are ``--seed`` and
``--seed + 1``. With ``--trace 0`` the run first starts ``SETUP_PROBES``
set-up-only interpreters. It then repeats the workload while the next
repetition is expected to end within ``--seconds``, and reports medians of
the end-to-end metrics. With ``--trace 1`` it runs one untraced and one
traced repetition and reports per-layer metrics (see ``spans.py``) per
traced CLI run. Traced numbers never enter the end-to-end metrics.

Every repetition's outputs are checked (``checks.py``). Human-readable lines
come first. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run counts as
failed when its CLI call raises or exits non-zero, when it diverges, or when
an output check fails. Exit code 0 means every check passed. 1 means a check
failed. 2 means the program under test is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a benchmark run must end within 180 s
SETUP_PROBES = 5

# Why these workloads: erm-run bypasses PGD, so parameter gradients, sgd_step
# and allocator churn dominate, and a PGD change should not move it. adv-run
# is the paper's attacked setting, where input gradients sit beside parameter
# gradients. sweep-3x2 is the only one with the process pool, radius-
# independent work repeated across radii, jobs that run second in a worker,
# and the merge and analysis writers.
WORKLOADS = {
    "erm-run": {"radii": (0.0,), "sweep": False},
    "adv-run": {"radii": (0.35,), "sweep": False},
    "sweep-3x2": {"radii": (0.0, 0.1, 0.35), "sweep": True, "workers": 2},
}

END_TO_END = {
    "setup_s": "s",        # fresh interpreter -> import advlab.cli, config, datasets
    "first_run_s": "s",    # first run in its process (sweep: first job in a worker)
    "wall_s": "s",         # end of set-up -> last artifact written
    "cpu_s": "s",          # user + sys of the repetition and its children
    "peak_rss_mb": "MB",   # largest max RSS of the repetition and its children
}
# Printed beside the end-to-end metrics but reported as the per-layer
# proc.repeat_run_s: later runs in a process are bimodal with allocator state,
# so across ten seeds their spread reached the largest bound a metric may have.
REPEAT_RUN = "repeat_run_s"  # a later run in the same process (sweep: later jobs)

PER_LAYER = {
    **{f"{name}.calls": "count" for name in spans.TRACED},
    **{f"{name}.self_s": "s" for name in spans.TRACED if name != "rng.stream"},
    "cli.job_s.p50": "s", "cli.job_s.max": "s", "cli.queue_wait_s.max": "s",
    "cli.pool_busy_share": "share", "cli.merge_s": "s",
    "proc.user_s": "s", "proc.sys_s": "s", "proc.minor_faults": "count",
    "proc.nivcsw": "count", "proc.repeat_run_s": "s", "trace.overhead_s": "s",
}

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Workload:
    """One workload at one seed: its config, CLI calls and expected runs."""

    def __init__(self, name: str, seed: int, base: dict | None = None):
        spec = WORKLOADS[name]
        self.seeds = (seed, seed + 1)
        self.sweep = spec["sweep"]
        self.workers = spec.get("workers", 1)
        self.runs = [(rho, s) for rho in spec["radii"] for s in self.seeds]
        self.config = {**(base or {}), "seeds": list(self.seeds)}
        if self.sweep:
            self.config.update(radius_list=list(spec["radii"]), workers=self.workers)

    def calls(self, ini: str) -> list[list[str]]:
        if self.sweep:
            return [["sweep", "--config", ini]]
        return [["train", "--config", ini, "--rho", repr(rho), "--seed", str(seed)]
                for rho, seed in self.runs]


def _stop(proc: subprocess.Popen) -> None:
    """Kill the repetition's process group (its pool workers too) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_rep(work: Path, index: int, wl: Workload, trace: bool, deadline: float,
            use_reference: bool, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and check what it wrote."""
    rep_dir = work / f"rep{index}"
    out, trace_dir = rep_dir / "out", rep_dir / "trace"
    out.mkdir(parents=True)  # raises if it exists: every repetition starts empty
    trace_dir.mkdir()
    ini = str(rep_dir / "config.ini")
    spec = {"src": str(SRC), "out_dir": str(out), "config": wl.config, "config_path": ini,
            "calls": [] if setup_only else wl.calls(ini), "trace": trace,
            "trace_dir": str(trace_dir), "cli_stdout": str(rep_dir / "cli_stdout.txt"),
            "result": str(rep_dir / "result.json")}
    (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    start = time.perf_counter()
    with open(rep_dir / "stderr.txt", "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), str(rep_dir / "spec.json")],
                                cwd=ROOT, stdout=err, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            pass
        finally:
            _stop(proc)
    rep = {"elapsed": time.perf_counter() - start, "problems": {}, "runs": [] if setup_only else wl.runs}
    if not (rep_dir / "result.json").is_file():
        tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
        rep["problems"]["rep"] = [f"no result (exit {proc.returncode}): {tail}"]
        return rep
    result = checks.read_json(rep_dir / "result.json")
    rep.update(result, setup_s=result["ready"] - start)
    if setup_only:
        return rep
    rep["jobs"] = sorted((m["started"], m["finished"]) for m in map(
        checks.read_json, out.glob("*/*/meta.json")))  # (started, finished) wall-clock stamps

    problems = {checks.run_key(*run): checks.check_run(out, *run, use_reference)
                for run in wl.runs}
    rep_problems = []  # problems of the repetition as a whole fail all of its runs
    for run, call in zip(wl.runs, result["calls"]):
        if call["rc"] != 0:
            failure = f"CLI exit {call['rc']} {call.get('error', '')}".strip()
            (rep_problems if wl.sweep else problems[checks.run_key(*run)]).insert(0, failure)
    if wl.sweep:
        rep_problems += checks.check_sweep(out, len(wl.runs), result["calls"][0]["wall_start"])
    if trace and wl.sweep and len(result["worker_trace"]) != len(wl.runs):
        rep_problems.append(f"{len(result['worker_trace'])} traced sweep jobs, expected {len(wl.runs)}")
    rep["problems"] = {key: p for key, p in [*problems.items(), ("rep", rep_problems)] if p}
    rep["digests"] = checks.artifact_digests(out, wl.runs)
    return rep


def run_times(rep: dict, wl: Workload) -> tuple[list[float], list[float]]:
    """Durations of runs that came first in their process, and of later runs."""
    if wl.sweep:
        # the pool's first `workers` jobs are each the first job of a worker
        durations = [f - s for s, f in rep["jobs"]]
        return durations[:wl.workers], durations[wl.workers:]
    durations = [c["end"] - c["start"] for c in rep["calls"]]
    return durations[:1], durations[1:]


def end_to_end(reps: list[dict], probes: list[dict], wl: Workload) -> dict:
    samples = {name: [] for name in [*END_TO_END, REPEAT_RUN]}
    samples["setup_s"] = [r["setup_s"] for r in probes + reps]
    for rep in reps:
        first, repeat = run_times(rep, wl)
        samples["first_run_s"] += first
        samples[REPEAT_RUN] += repeat
        samples["wall_s"].append(rep["calls"][-1]["end"] - rep["ready"])
        samples["cpu_s"].append(rep["rusage"]["user_s"] + rep["rusage"]["sys_s"])
        samples["peak_rss_mb"].append(rep["rusage"]["max_rss_mb"])
    return samples


def per_layer(untraced: dict, traced: dict, wl: Workload) -> dict:
    """Span totals per traced CLI run, plus pool timings and rusage of the untraced run."""
    n = len(wl.runs)
    values = {}
    for kind in ("calls", "self_s"):
        for name in spans.TRACED:
            total = traced["trace"][kind][name] + sum(w[kind][name] for w in traced["worker_trace"])
            values[f"{name}.{kind}"] = total / n
    del values["rng.stream.self_s"]
    jobs = untraced["jobs"]
    job_s = [f - s for s, f in jobs]
    call_starts = [c["wall_start"] for c in untraced["calls"]]
    span = max(f for _, f in jobs) - min(s for s, _ in jobs)
    values.update({
        "cli.job_s.p50": statistics.median(job_s),
        "cli.job_s.max": max(job_s),
        "cli.queue_wait_s.max": max(s - max(c for c in call_starts if c <= s) for s, _ in jobs),
        "cli.pool_busy_share": sum(job_s) / (wl.workers * span),
        "cli.merge_s": untraced["calls"][-1]["wall_end"] - max(f for _, f in jobs),
        **{f"proc.{k}": untraced["rusage"][k] for k in ("user_s", "sys_s", "minor_faults", "nivcsw")},
        "proc.repeat_run_s": statistics.median(run_times(untraced, wl)[1]),
        "trace.overhead_s": run_times(traced, wl)[0][0] - run_times(untraced, wl)[0][0],
    })
    return values


def environment(first_rep: dict) -> dict:
    env = dict(first_rep.get("env", {}))
    env["blas_env"] = {v: os.environ[v] for v in BLAS_VARS if v in os.environ}
    env["nproc"] = len(os.sched_getaffinity(0))
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None
    env["src_lines"] = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return env


def measure(name: str, seed: int, seconds: float, trace: bool, base: dict | None = None,
            use_reference: bool = True) -> dict:
    """Run one workload; returns the result object plus human-readable lines."""
    wl = Workload(name, seed, base)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        index = itertools.count()
        if trace:
            probes = []
            reps = [run_rep(work, next(index), wl, t, deadline, use_reference) for t in (False, True)]
        else:
            probes = [run_rep(work, next(index), wl, False, deadline, use_reference, setup_only=True)
                      for _ in range(SETUP_PROBES)]
            reps = [run_rep(work, next(index), wl, False, deadline, use_reference)]
            while (reps[-1].get("calls") and
                   time.perf_counter() + reps[-1]["elapsed"] <= min(start + seconds, deadline)):
                reps.append(run_rep(work, next(index), wl, False, deadline, use_reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = {f"rep{i}/{k}": v for i, r in enumerate(probes + reps)
                for k, v in r["problems"].items()}
    attempted = sum(len(r["runs"]) for r in reps)
    failed = sum(len(r["runs"]) if "rep" in r["problems"] else len(r["problems"])
                 for r in reps)
    lines = [f"workload {name}  seeds {wl.seeds[0]},{wl.seeds[1]}  repetitions {len(reps)}  "
             f"attempted {attempted}  failed {failed}"]
    lines += [f"  FAIL {k}: {'; '.join(v)}" for k, v in sorted(problems.items())]
    metrics = {}
    if not problems:
        if trace:
            values = per_layer(reps[0], reps[1], wl)
            absent = reps[1]["trace"]["absent"]
            if absent:
                lines.append(f"  absent at this commit: {', '.join(absent)}")
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
            lines += [f"  {k:44s} {values[k]:14.6g} {u}" for k, u in PER_LAYER.items()]
        else:
            samples = end_to_end(reps, probes, wl)
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                       for k, u in END_TO_END.items()}
            lines += [f"  {k:14s} {statistics.median(v):10.4f} {END_TO_END.get(k, 's'):3s} "
                      f"n={len(v):<3d}min {min(v):.4f}  max {max(v):.4f}" for k, v in samples.items()]
            lines.append(f"  {'failed_share':14s} {failed / attempted:10.4f}     n={attempted}")
        lines.append("  artifacts " + json.dumps(reps[0]["digests"], sort_keys=True))
        lines.append("  artifacts identical across repetitions: "
                     f"{all(r['digests'] == reps[0]['digests'] for r in reps)}")
    lines.append("  env " + json.dumps(environment(reps[0]), sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "advlab" / "cli.py").is_file():
        print(f"advlab sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        measured = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(measured["lines"]), flush=True)
        results[name] = measured["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
