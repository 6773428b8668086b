"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/rep.py <spec.json>``, started by ``run.py``.

The spec names the source tree, an empty output directory, the config
overrides and the CLI argument lists. This process imports ``advlab.cli``,
writes and loads the workload config, builds the datasets (the end of
set-up), then calls ``advlab.cli.main`` once per argument list. It writes
``perf_counter`` stamps, wall-clock stamps, exit codes, rusage and, when
tracing, span totals to the spec's result file. ``perf_counter`` is
CLOCK_MONOTONIC on Linux, so the parent can subtract its own stamps.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _rusage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once joined
    return {"user_s": me.ru_utime + kids.ru_utime, "sys_s": me.ru_stime + kids.ru_stime,
            "minor_faults": me.ru_minflt + kids.ru_minflt,
            "nivcsw": me.ru_nivcsw + kids.ru_nivcsw,
            "max_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from advlab import cli
    from advlab.config import ExperimentConfig, load_config, save_config

    out = Path(spec["out_dir"])
    if any(out.iterdir()):
        raise SystemExit(f"output directory {out} is not empty")
    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["config"].items()}
    save_config(ExperimentConfig(output_dir=str(out), **overrides), spec["config_path"])
    load_config(spec["config_path"]).load_datasets()
    result = {"ready": time.perf_counter(), "calls": []}

    if spec["trace"]:
        import spans

        tracer = spans.install()
        spans.trace_sweep_jobs(spec["trace_dir"])

    with open(spec["cli_stdout"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for argv in spec["calls"]:
            call = {"wall_start": time.time(), "start": time.perf_counter()}
            try:
                call["rc"] = cli.main(argv)
            except SystemExit as exc:
                call["rc"] = exc.code
            except Exception:
                call["rc"] = None
                call["error"] = traceback.format_exc()
            call["end"] = time.perf_counter()
            call["wall_end"] = time.time()
            result["calls"].append(call)

    result["rusage"] = _rusage()
    if spec["trace"]:
        result["trace"] = tracer.totals()
        result["worker_trace"] = spans.job_dumps(spec["trace_dir"])
    result["env"] = _environment()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
