"""Call counts and self time of advlab's public functions, recorded from outside.

:func:`install` wraps each function in ``TRACED`` and rebinds every advlab
module attribute that holds the original, so the wrapper is found wherever a
caller looks the function up: ``training.sgd_step``, ``training.adv_grad``,
``analysis.pgd_batch``, ``data.stream`` and so on. Methods are rebound on
their class. A function that does not exist at the commit under test is
reported as absent instead of failing the run.

Self time is a call's wall time minus the wall time of the traced calls it
made. Nothing under ``src/`` is changed.

The sweep runs its jobs in a process pool. :class:`WorkerJob` stands in for
the pool's job function, ``cli._run_job``: it traces each job inside the
worker and writes that job's totals to a JSON file. A worker rebuilds it
from this module when it unpickles a job, so it works whether the pool forks
or spawns its workers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

TRACED = (
    "nn.grad_params", "nn.mean_grad", "nn.loss_batch", "nn.forward",
    "nn.per_example_grad_norms", "nn.grad_inputs",
    "adversarial.pgd_batch", "adversarial.adv_grad",
    "training.sgd_step", "training.train_twin", "training.write_ledger_csv",
    "training.save_checkpoint",
    "data.BatchSchedule.indices", "data.LabeledSet.subset", "rng.stream",
    "privacy.collect_noise", "privacy.fit_laplace", "privacy.compose",
    "attacks.optimal_threshold", "attacks.true_label_confidences",
    "analysis.adversarial_accuracy",
    "cli.run_experiment",
)


class Tracer:
    """Per-name call counts and self seconds for one process."""

    def __init__(self):
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self._child_s: list[float] = []  # traced-child seconds of each open call

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
        return traced

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "absent": list(self.absent)}


_installed: Tracer | None = None  # one tracer per process; forked workers inherit it


def install() -> Tracer:
    """Wrap every traced function in the imported advlab modules (once per process)."""
    global _installed
    if _installed is not None:
        return _installed
    import advlab.cli  # noqa: F401  (imports every module the pipeline uses)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "advlab" or name.startswith("advlab.")]
    for name in TRACED:
        module_name, *path = name.split(".")
        holder = sys.modules.get(f"advlab.{module_name}")
        for attr in path[:-1]:
            holder = getattr(holder, attr, None)
        original = getattr(holder, path[-1], None)
        if not callable(original):
            tracer.absent.append(name)
            continue
        traced = tracer.wrap(name, original)
        if len(path) > 1:
            setattr(holder, path[-1], traced)
            continue
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, traced)
    _installed = tracer
    return tracer


class WorkerJob:
    """Replacement for ``cli._run_job`` that traces each job in its worker."""

    def __init__(self, run_job, dump_dir: str):
        self.run_job = run_job
        self.dump_dir = dump_dir

    def __reduce__(self):
        # the original job function pickles by name, and that name now points
        # at this object; a worker rebuilds the job from the module instead
        return (_worker_job, (self.dump_dir,))

    def __call__(self, job):
        tracer = install()
        tracer.reset()
        try:
            return self.run_job(job)
        finally:
            path = Path(self.dump_dir) / f"job-{os.getpid()}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(tracer.totals()), encoding="utf-8")


def _worker_job(dump_dir: str) -> WorkerJob:
    from advlab import cli

    run_job = cli._run_job
    if isinstance(run_job, WorkerJob):  # forked worker: the parent's patch is inherited
        return run_job
    return WorkerJob(run_job, dump_dir)


def trace_sweep_jobs(dump_dir: str) -> None:
    """Route the sweep's pool through :class:`WorkerJob`, if the CLI still has ``_run_job``."""
    from advlab import cli

    if callable(getattr(cli, "_run_job", None)):
        cli._run_job = WorkerJob(cli._run_job, dump_dir)


def job_dumps(dump_dir: str) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(dump_dir).glob("job-*.json"))]
