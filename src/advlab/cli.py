"""Command-line front end: run one twin experiment or a radius sweep, merge a
sweep, probe two checkpoints, or print a config. Every artifact is written
whole, to a temporary file in its directory that ``os.replace`` then moves
into place. A CSV cell holds an integer as ``str(int(v))`` and any other
number as ``repr(float(v))``.

Artifact layout for one run (everything except meta.json is byte-stable
across reruns of the same config and seed; ``<r>`` and the summary's ``rho``
are the run's ``AttackSpec`` radius, so a radius of -0.0 is the ``rho=0.0`` run).
Each value is checked once, where it enters: ``ExperimentConfig`` (config, data
by ``load_datasets``), ``config.check_seed`` (``--seed``),
:func:`_load_checkpoint_for` (checkpoints), ``intensity.check_probe`` (``probe``).

    <output_dir>/rho=<r>/seed=<s>/
        ledger.csv       one row per logged iteration
        erm.ckpt         final ERM model (RPG1 format)
        adv.ckpt         final adversarial model
        noise_hist.csv   201-bin histogram of normalized gradient noise
        summary.json     intensities, budgets, bounds, attack, accuracies,
                         and the config digest the run was made under; the
                         one ``bounds`` record holds ``beta`` (also the
                         on-average bound), ``high_prob_bound`` (computed on
                         loss / M, times M, with c = 1) and the ``gamma`` it
                         holds at, ``bounds.GAMMA``
        meta.json        how the run was made: ``started`` and ``finished``
                         wall-clock stamps, ``stages_s`` (wall seconds spent
                         in ``train``, ``noise``, ``mia``, ``adv_eval`` and
                         ``writes``, the last without the summary.json write,
                         which follows meta.json; the rest of the run, such
                         as loading data and accounting, is in none of
                         them), ``max_rss_mb`` (the process's peak
                         resident set so far, from ``ru_maxrss``; a sweep
                         worker's peak covers its earlier jobs), ``stage_peak_rss_mb`` (that peak
                         as each stage last ended, null for a stage that did
                         not run; ``train``, ``noise``, ``mia`` and
                         ``adv_eval`` run in this order with ``writes``
                         between them, so the first of the four whose value
                         equals ``max_rss_mb`` ends the stretch of the run
                         that set its peak),
                         ``blas_env`` (the BLAS thread
                         variables in effect), ``numpy_preloaded`` and
                         ``versions`` (advlab, numpy, Python)

``sweep`` and ``report`` write ``<output_dir>/sweep.csv``, a row per successful
run with the ``SWEEP_COLUMNS`` rho, seed, intensity_1t, adv_accuracy,
adv_accuracy_common, attack_accuracy, gen_gap, eps_leading, beta and
high_prob_bound (from the ``bounds`` record), and ``<output_dir>/analysis.json``.
analysis.json has one shape at every row count: ``rows`` (the row count),
``failures`` (each failed run's ``rho=R seed=S: <why>`` line, sorted) and
five ``spearman`` rank correlations of intensity_1t: with rho, attack_accuracy
and gen_gap over every row (``intensity_vs_radius``,
``intensity_vs_attack_accuracy``, ``intensity_vs_gen_gap``), and with
adv_accuracy_common and adv_accuracy over the rows with rho > 0
(``intensity_vs_common_attack_accuracy``,
``intensity_vs_matched_attack_accuracy``). An entry is null where it has
fewer than 3 rows or one of its two columns is constant.

``sweep`` reruns a run whose summary.json is missing, unreadable (it does
not parse, is not a JSON object, records another run's ``rho`` or ``seed``,
as one copied from another run's directory does, or records no failure but
lacks a ``SWEEP_COLUMNS`` path, as one written before a column was renamed
or before ``bounds`` became one record does) or stale: its ``config_digest``
covers every config field except ``train_csv``, ``test_csv``, ``seeds``,
``output_dir`` and ``workers``, and for CSV data the sha256 of both files'
bytes, so editing any other field or either data file reruns the sweep, and
moving the data files does not.
A failed run still writes summary.json (with ``diverged_at`` or a one-line
``failure``) and meta.json, so it is not retrained and merges as a failure.
A run writes meta.json before summary.json, so a run killed between the two
has no summary.json and is unfinished: a finished run has both.
With ``workers = 0`` the sweep runs one process per unfinished run, capped
by the CPUs it may use (``os.sched_getaffinity`` where it exists, so a
``taskset`` or cpuset limit counts, else ``os.cpu_count()``).

BLAS threads: importing this module sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 unless one of
``BLAS_THREAD_VARS`` is already set, so each process, sweep workers
included, runs BLAS on one thread. To choose another count, export one of
those variables before starting advlab. The pin only works when numpy
is not loaded yet; ``numpy_preloaded`` in meta.json says whether it was.
On one thread, large products also sum in one order, so the artifacts do
not depend on the machine's core count.

Exit codes: 0 success; 1 an error, in one ``error:`` line (``sweep`` and
``report`` print one ``rho=R seed=S: <why>`` line per failed run): a run
diverged, its logged records are all degenerate (every clean max gradient norm
numerically zero), a model is dead (its max gradient norm at the last logged
step numerically zero), or a logged intensity is exactly zero; for ``sweep``
also a run that raised or lost its worker, for ``report`` one whose
summary.json is missing, stale or unreadable (among them one that records
another run's rho or seed, and one that records no failure but lacks a sweep
column). 1 also means a file that cannot be read (any ``OSError``: missing, a
directory, no permission; ``report`` reads a run's CSV data files for the
digest) or written (named by the path asked for, such as an ``--out`` in a
missing directory or with no file name, as ``""``, ``.`` and ``/`` have, never
by the temporary file), a malformed or non-UTF-8 data CSV (also one with a
non-finite feature such as ``nan``, ``inf`` or ``1e400``), named by file and
line, a checkpoint given to ``probe`` that breaks the RPG1 format (a zero layer
width, which no config builds, and an activation byte other than relu's 0, as an
older version's tanh net has, among it) or holds a non-finite parameter, named
by file, a diverged model (a checkpoint given to ``probe`` whose max gradient
norms are not finite, as a diverged run leaves, prints the one ``error:
non-finite <what>: the model has diverged`` line and writes no table),
``probe`` meeting a degenerate clean max gradient norm, or a ``MemoryError``
(an array too large for memory, such as a huge ``noise_batches``' pool, after
training).
2 configuration error, in one ``config error:`` line: a config file that is not
UTF-8, does not parse, or has a section outside ``[data]``, ``[net]``,
``[train]``, ``[attack]``, ``[privacy]``, ``[bounds]`` and ``[sweep]``, a key
under ``[DEFAULT]`` or a key that names no field of its section (such as
``source``, ``activation``, ``gamma_list``, ``constant_c``, ``lr_decay``,
``lr_decay_every``, ``momentum``, ``weight_decay``, ``step_size``,
``delta_prime``, ``norm`` or ``steps``, which older versions wrote; all checked
before any directory or job), any value ``ExperimentConfig`` rejects (a value
of the wrong type such as ``total_iterations = 40.0``, a non-finite number, a
seed outside [0, 2**128), an ``lr_init`` <= 0, one of ``train_csv`` and
``test_csv`` without the other, or a ``log_every`` above ``total_iterations``,
under which no record would be logged, among them), a training set of fewer than 2 rows,
train and test data of different feature widths, a blob matrix, net or noise
pool past one float64 array or ``noise_batches`` past 2**64 Philox steps
(checked before the data is drawn), a ``batch_size`` or noise field that does
not fit the data
(``ExperimentConfig.load_datasets`` checks these for every command that reads
data: ``train``, ``sweep`` and ``probe``), a ``--rho`` or ``--seed`` that
makes no valid run (``train`` and ``sweep`` exit before any directory or job),
a checkpoint given to ``probe`` whose input width differs from the data's or
that has fewer outputs than the data has classes, or ``probe`` batch sizes that
are not integers in [1, training set size] (an empty ``--taus`` among them) or
a ``--repeats`` below 1 or past 2**64 Philox steps or one float64 array
(checked before any gradient work).
A command line that argparse rejects also exits 2, but prints a usage line and
an ``advlab: error:`` line (``advlab <command>: error:`` for a command's known
flags): no command or an unknown one (``attack``, ``noise``, ``accountant`` and
``bounds`` among them; every run writes the attack, noise fit, budgets and
bounds to summary.json), an unknown flag, a missing ``--config`` or another
required flag, or a flag value of the wrong type such as a non-integer ``--seed``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads it, unless the user chose a
# thread count. The sweep already runs one worker process per core, and an
# idle OpenBLAS helper thread spin-waits after every large product, taking
# CPU from the other workers. Pool workers fork from this process (or spawn
# with its environment), so they inherit the pin.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
BLAS_ENV = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
NUMPY_PRELOADED = "numpy" in sys.modules  # then the environment came too late

# the imports below load numpy, so they come after the pin
import argparse
import contextlib
import dataclasses
import functools
import json
import operator
import platform
import resource
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, analysis, attacks, bounds, intensity, nn, privacy, training
from .config import (ConfigError, ExperimentConfig, check_seed, config_digest, load_config,
                     to_ini)
from .data import CsvFormatError, LabeledSet, write_atomic, write_csv

VERSIONS = {"advlab": __version__, "numpy": np.__version__,
            "python": platform.python_version()}

# sweep.csv column -> its path in a run's summary.json
SWEEP_COLUMNS = {
    "rho": ("rho",), "seed": ("seed",), "intensity_1t": ("intensity_1t",),
    "adv_accuracy": ("adv_accuracy",), "adv_accuracy_common": ("adv_accuracy_common",),
    "attack_accuracy": ("mia", "accuracy"), "gen_gap": ("adv", "gen_gap"),
    "eps_leading": ("budgets", "leading_thm5", "epsilon"), "beta": ("bounds", "beta"),
    "high_prob_bound": ("bounds", "high_prob_bound")}


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_histogram_csv(path, values: np.ndarray) -> None:
    edges, counts = privacy.noise_histogram(values)
    write_csv(path, ("bin_left", "bin_right", "count"), zip(edges[:-1], edges[1:], counts))


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Add the wall seconds of the ``with`` body to ``stages["s"][name]``, and set
    ``stages["peak_rss_mb"][name]`` to the peak resident set at its end."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages["s"][name] += time.perf_counter() - start
        stages["peak_rss_mb"][name] = _max_rss_mb()


def _write_run(run_dir: Path, started: float, stages: dict, summary: dict) -> dict:
    """Write a run's meta.json, then its summary.json, which marks the run
    finished (see :func:`_load_summaries`); returns the summary."""
    _write_json(run_dir / "meta.json", {
        "started": started, "finished": time.time(), "stages_s": stages["s"],
        "stage_peak_rss_mb": stages["peak_rss_mb"], "max_rss_mb": _max_rss_mb(),
        "blas_env": BLAS_ENV, "numpy_preloaded": NUMPY_PRELOADED, "versions": VERSIONS})
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_dir_for(cfg: ExperimentConfig, rho: float, seed: int) -> Path:
    return Path(cfg.output_dir) / f"rho={rho!r}" / f"seed={seed}"


def _noise(cfg: ExperimentConfig, net: nn.DenseNet, train_set: LabeledSet,
           seed: int) -> tuple[np.ndarray, dict]:
    """Gradient noise at ``net`` and its Laplace fit: (the normalized values,
    the ``{b, location, count, divisor}`` record)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        sample = privacy.collect_noise(net, train_set, cfg.noise_tau, cfg.noise_batches,
                                       cfg.noise_components, seed, cfg.loss_bound)
    fit = privacy.fit_laplace(sample.values)
    return sample.values, {"b": fit.scale, "location": fit.location, "count": fit.count,
                           "divisor": sample.divisor}


def _score(net: nn.DenseNet, train_set: LabeledSet, test_set: LabeledSet) -> tuple[dict, list]:
    """Forward each set through ``net`` once: (``net``'s ``{train_acc, test_acc,
    gen_gap}`` record, the training and test sets' (logits, labels) pairs)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        scored = [(nn.forward(net, s.features), s.labels) for s in (train_set, test_set)]
    train, test = (attacks.accuracy(*pair) for pair in scored)
    return {"train_acc": train, "test_acc": test, "gen_gap": train - test}, scored


def _mia(scored) -> dict:
    """The threshold attack on the true-label confidences of :func:`_score`'s
    pairs: its ``{zeta_optim, accuracy}`` record."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        confs = [attacks.true_label_confidences(*pair) for pair in scored]
    return dataclasses.asdict(attacks.optimal_threshold(*confs))


def run_experiment(cfg: ExperimentConfig, rho: float, seed: int) -> dict:
    """Full per-run pipeline: train, measure, account, bound, attack, persist.

    Returns the summary it writes. A run that diverged, or that ``intensity.judge``
    fails, stops after training with ``diverged_at`` or ``failure`` set.
    """
    started = time.time()
    names = ("train", "noise", "mia", "adv_eval", "writes")
    stages = {"s": dict.fromkeys(names, 0.0), "peak_rss_mb": dict.fromkeys(names)}
    attack = cfg.attack_spec(rho)
    check_seed("seed", seed)
    train_set, test_set = cfg.load_datasets()
    run_dir = run_dir_for(cfg, attack.radius, seed)
    run_dir.mkdir(parents=True, exist_ok=True)

    with _stage(stages, "train"):
        ledger = training.train_twin(train_set, cfg, attack, seed)
        erm, _ = _score(ledger.erm.net, train_set, test_set)
        adv, adv_scored = _score(ledger.adv.net, train_set, test_set)  # the MIA reads these
    records, good, failure = intensity.judge(ledger.erm.logged, ledger.adv.logged)
    with _stage(stages, "writes"):
        training.write_ledger_csv(records, run_dir / "ledger.csv")
        training.save_checkpoint(ledger.erm.net, run_dir / "erm.ckpt")
        training.save_checkpoint(ledger.adv.net, run_dir / "adv.ckpt")

    summary = {
        "rho": attack.radius,
        "seed": seed,
        "config_digest": config_digest(cfg),
        "diverged_at": ledger.diverged_at,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "index_digests": {
            "erm": ledger.erm.index_digest,
            "adv": ledger.adv.index_digest,
            "match": ledger.erm.index_digest == ledger.adv.index_digest,
        },
        "erm": erm, "adv": adv,
    }
    if ledger.diverged_at is None and failure is not None:
        summary["failure"] = failure
    if _run_failure(summary) is not None:  # nothing to account; summary.json says why
        return _write_run(run_dir, started, stages, summary)
    summary["records"] = len(records)
    summary["records_skipped"] = len(records) - len(good)

    # gradient noise and Laplace scale, taken at the final ERM iterate
    with _stage(stages, "noise"):
        values, summary["noise"] = _noise(cfg, ledger.erm.net, train_set, seed)
    with _stage(stages, "writes"):
        _write_histogram_csv(run_dir / "noise_hist.csv", values)

    n = len(train_set)
    summary["eps_per_step"], budgets = privacy.budgets(
        [r.l_erm for r in good], [r.intensity for r in good], cfg.total_iterations, n,
        summary["noise"]["b"])
    leading = budgets["leading_thm5"]
    summary["intensity_1t"] = leading.inputs["i_1t"]
    summary["l_erm_1t"] = leading.inputs["l_erm_1t"]
    summary["budgets"] = {k: dataclasses.asdict(b) for k, b in budgets.items()}
    summary["bounds"] = bounds.bound_report(leading.epsilon, leading.delta, cfg.loss_bound, n)

    with _stage(stages, "mia"):
        summary["mia"] = _mia(adv_scored)

    with _stage(stages, "adv_eval"):
        summary["adv_accuracy"] = analysis.adversarial_accuracy(
            ledger.adv.net, test_set, attack, cfg.loss_bound)
        # the same model under the sweep's common (largest-radius) attack, so
        # robustness is comparable across runs
        summary["adv_accuracy_common"] = analysis.adversarial_accuracy(
            ledger.adv.net, test_set, cfg.attack_spec(cfg.radius_list[-1]), cfg.loss_bound)

    return _write_run(run_dir, started, stages, summary)


def _run_failure(summary: dict) -> str | None:
    """``rho=R seed=S: <why>`` when a run's summary is no sweep row, else None."""
    why = summary.get("failure")
    if summary.get("diverged_at") is not None:
        why = f"diverged at t={summary['diverged_at']}"
    return None if why is None else f"rho={summary['rho']} seed={summary['seed']}: {why}"


def _failed(rho: float, seed: int, why: str) -> dict:
    """The summary of a run that left none of its own."""
    return {"rho": rho, "seed": seed, "failure": why}


def _run_job(args) -> dict:
    cfg, rho, seed = args
    try:
        return run_experiment(cfg, rho, seed)
    except Exception:
        return _failed(rho, seed, traceback.format_exc().rstrip())


def _pool_result(future, job) -> dict:
    """A job's summary; a job that a dead worker left unfinished is a failure."""
    from concurrent.futures.process import BrokenProcessPool  # only a sweep loads the pool
    try:
        return future.result()
    except BrokenProcessPool as exc:
        _, rho, seed = job
        return _failed(rho, seed, f"worker process died before this run finished: {exc}")


def sweep_row(summary: dict) -> dict:
    """``summary``'s ``SWEEP_COLUMNS`` row; a ``ValueError`` names the first column it lacks."""
    row = {}
    for column, path in SWEEP_COLUMNS.items():
        try:
            row[column] = functools.reduce(operator.getitem, path, summary)
        except (KeyError, TypeError):
            raise ValueError(f"lacks {column}") from None
    return row


def sweep_rows(summaries: list[dict]) -> list[dict]:
    """One ``SWEEP_COLUMNS`` row per summary, in (rho, seed) order."""
    return [sweep_row(s) for s in sorted(summaries, key=lambda s: (s["rho"], s["seed"]))]


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def _spearman(xs, ys) -> float | None:
    """The rank correlation of ``xs`` and ``ys``, or None where it is undefined:
    fewer than 3 points, or a constant column."""
    try:
        return analysis.spearman(xs, ys)
    except ValueError:
        return None


def analyze_rows(rows: list[dict]) -> dict:
    """The sweep's rank correlations: ``rows`` and five ``spearman`` entries,
    each null where its correlation is undefined."""
    col = lambda name, rows=rows: np.array([row[name] for row in rows])
    ii = col("intensity_1t")
    robust = [row for row in rows if row["rho"] > 0]  # attacked-training rows only
    ii_r = col("intensity_1t", robust)
    return {
        "rows": len(rows),
        "spearman": {
            "intensity_vs_radius": _spearman(ii, col("rho")),
            "intensity_vs_attack_accuracy": _spearman(ii, col("attack_accuracy")),
            "intensity_vs_gen_gap": _spearman(ii, col("gen_gap")),
            # Fig-1 style trend: every robust model judged by one common attack
            "intensity_vs_common_attack_accuracy": _spearman(
                ii_r, col("adv_accuracy_common", robust)),
            "intensity_vs_matched_attack_accuracy": _spearman(ii_r, col("adv_accuracy", robust)),
        },
    }


def _load_summaries(cfg: ExperimentConfig) -> tuple[list[dict], dict[tuple, str]]:
    """Read every run's summary.json.

    Returns (summaries, unfinished). ``unfinished`` maps each (rho, seed)
    pair without a current summary, in sweep order, to the reason: its
    summary.json is missing, unreadable (it does not parse, parses to
    something other than a JSON object, records another run's rho or seed,
    or records no failure but lacks a ``SWEEP_COLUMNS`` path), or was
    written under a config with another digest.
    """
    digest = config_digest(cfg)
    summaries, unfinished = [], {}
    for rho in cfg.radius_list:
        for seed in cfg.seeds:
            path = run_dir_for(cfg, rho, seed) / "summary.json"
            try:
                summary = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(summary, dict):
                    raise ValueError("not a JSON object")
                if (summary.get("rho"), summary.get("seed")) != (rho, seed):
                    raise ValueError(f"written for rho={summary.get('rho')} "
                                     f"seed={summary.get('seed')}")
                if _run_failure(summary) is None:
                    sweep_row(summary)  # raises when it lacks a column
            except FileNotFoundError:
                unfinished[rho, seed] = "no summary.json"
            except ValueError as exc:  # corrupt, not an object, another run's, lacking a column
                unfinished[rho, seed] = f"unreadable {path}: {exc}"
            else:
                if summary.get("config_digest") == digest:
                    summaries.append(summary)
                else:
                    unfinished[rho, seed] = f"stale {path}: written under another config"
    return summaries, unfinished


def run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Run every (rho, seed) pair, skipping finished run directories.

    A run whose summary.json is missing, unreadable or stale (another
    config digest) is unfinished and runs again. A worker that dies fails
    each run it left unfinished, and the merge still runs. Returns
    (summaries, failed runs' too; failure messages). Each run writes only
    inside its own directory; the merge below is single-threaded. A config
    error is raised before any run starts. The pool has no more processes
    than unfinished runs, and with ``workers = 0`` no more than the CPUs
    this process may use (its affinity mask, where the OS has one).
    """
    cfg.load_datasets()
    summaries, unfinished = _load_summaries(cfg)
    jobs = [(cfg, rho, seed) for rho, seed in unfinished]
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    workers = min(cfg.workers or usable or 1, len(jobs))
    if workers <= 1:  # one worker, or no job: run here
        summaries.extend(map(_run_job, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_job, job) for job in jobs]
            summaries.extend(_pool_result(future, job) for future, job in zip(futures, jobs))

    _, failures = merge_sweep(cfg, summaries)
    return summaries, failures


def merge_sweep(cfg: ExperimentConfig, summaries: list[dict]) -> tuple[list[dict], list[str]]:
    """Write sweep.csv and analysis.json; returns (rows, every failure).

    A summary that records a failure (``diverged_at`` set, or a ``failure``
    reason) is a failure, not a row, so a resumed sweep or a report cannot
    drop a failed run silently.
    """
    failures = sorted(f for f in map(_run_failure, summaries) if f is not None)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep_rows([s for s in summaries if _run_failure(s) is None])
    write_sweep_csv(rows, out / "sweep.csv")
    _write_json(out / "analysis.json", analyze_rows(rows) | {"failures": failures})
    return rows, failures


# ---------------------------------------------------------------- commands


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    rho = args.rho if args.rho is not None else cfg.radius_list[0]
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    summary = run_experiment(cfg, rho, seed)
    if (failure := _run_failure(summary)) is not None:
        print(f"error: run {failure}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _, failures = run_sweep(cfg)
    for f in failures:
        print(f, file=sys.stderr)
    print(f"sweep artifacts under {cfg.output_dir}/ "
          f"({len(failures)} failed run(s))" if failures else
          f"sweep artifacts under {cfg.output_dir}/")
    return 1 if failures else 0


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    summaries, unfinished = _load_summaries(cfg)
    rows, failures = merge_sweep(cfg, summaries + [
        _failed(rho, seed, why) for (rho, seed), why in unfinished.items()])
    for f in failures:
        print(f, file=sys.stderr)
    print(f"merged {len(rows)} runs into {Path(cfg.output_dir) / 'sweep.csv'}")
    return 1 if failures else 0


def _load_checkpoint_for(path, data: LabeledSet) -> nn.DenseNet:
    """The checkpoint at ``path``; a config error unless it reads the data's
    features and scores every one of its classes."""
    net = training.load_checkpoint(path)
    if net.in_dim != data.dim or net.out_dim < data.num_classes:
        raise ConfigError(f"{path}: a {'-'.join(map(str, net.layer_widths))} net does not fit "
                          f"data with {data.dim} features and {data.num_classes} classes")
    return net


def _cmd_probe(args) -> int:
    cfg = load_config(args.config)
    check_seed("--seed", args.seed)
    train_set, _ = cfg.load_datasets()
    n = len(train_set)
    try:
        taus = ([int(v) for v in args.taus.split(",")] if args.taus is not None
                else [max(1, n // 8), max(1, n // 2), n])
        intensity.check_probe(taus, args.repeats, n)
    except ValueError as exc:  # a --taus entry that is empty, not an integer, or out of range
        raise ConfigError(f"probe --taus/--repeats: {exc}") from None
    net_erm = _load_checkpoint_for(args.erm_checkpoint, train_set)
    net_adv = _load_checkpoint_for(args.adv_checkpoint, train_set)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        rows = intensity.consistency_probe(net_erm, net_adv, train_set,
                                           cfg.attack_spec(args.rho), taus,
                                           args.repeats, args.seed, cfg.loss_bound)
    write_csv(args.out, ("tau", "mean_estimate", "full_value"),
              ((r.tau, r.mean_estimate, r.full_value) for r in rows))
    print(f"probe table written to {args.out}")
    return 0


def _cmd_config(args) -> int:
    if args.config:
        print(to_ini(load_config(args.config)), end="")
    else:
        print(to_ini(ExperimentConfig()), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advlab",
        description="Twin ERM/adversarial training lab: intensity, privacy, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one twin experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run the full radius x seed sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-merge finished runs into sweep.csv; a run "
                       "whose summary.json is missing, stale or unreadable fails")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("probe", help="batch-size consistency probe")
    p.add_argument("--config", required=True)
    p.add_argument("--erm-checkpoint", required=True, dest="erm_checkpoint")
    p.add_argument("--adv-checkpoint", required=True, dest="adv_checkpoint")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--taus", default=None, help="comma-separated batch sizes")
    p.add_argument("--repeats", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="probe.csv")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("config", help="print the default (or a normalized) config")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CsvFormatError, OSError, MemoryError, training.CheckpointFormatError,
            nn.DivergenceError, privacy.DegenerateNoiseError,
            intensity.DegenerateDenominatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
