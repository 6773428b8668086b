"""Command-line front end: run one twin experiment, a radius sweep, or the
standalone calculators. Every artifact is written whole, to a temporary file
in its directory that ``os.replace`` then moves into place. A CSV cell holds
an integer as ``str(int(v))`` and any other number as ``repr(float(v))``.

Artifact layout for one run (everything except meta.json is byte-stable
across reruns of the same config and seed):

    <output_dir>/rho=<r>/seed=<s>/
        ledger.csv       one row per logged iteration
        erm.ckpt         final ERM model (RPG1 format)
        adv.ckpt         final adversarial model
        noise_hist.csv   201-bin histogram of normalized gradient noise
        summary.json     intensities, budgets, bounds, attack, accuracies,
                         and the config digest the run was made under
        meta.json        how the run was made: ``started`` and ``finished``
                         wall-clock stamps, ``stages_s`` (wall seconds spent
                         in ``train``, ``noise``, ``mia``, ``adv_eval`` and
                         ``writes``; the rest of the run, such as loading data
                         and accounting, is in none of them), ``max_rss_mb``
                         (the process's peak resident set so far, from
                         ``ru_maxrss``; a sweep worker's peak covers its
                         earlier jobs), ``stage_peak_rss_mb`` (that peak
                         as each stage last ended, null for a stage that did
                         not run; ``train``, ``noise``, ``mia`` and
                         ``adv_eval`` run in this order with ``writes``
                         between them, so the first of the four whose value
                         equals ``max_rss_mb`` ends the stretch of the run
                         that set its peak),
                         ``blas_env`` (the BLAS thread
                         variables in effect), ``numpy_preloaded`` and
                         ``versions`` (advlab, numpy, Python)

``sweep`` reruns a run whose summary.json is missing, unreadable or stale:
its ``config_digest`` covers every config field except ``seeds``,
``output_dir`` and ``workers``, so editing any other field reruns the sweep.

BLAS threads: importing this module sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 unless one of
``BLAS_THREAD_VARS`` is already set, so each process, sweep workers
included, runs BLAS on one thread. To choose another count, export one of
those variables before starting advlab. The pin only works when numpy
is not loaded yet; ``numpy_preloaded`` in meta.json says whether it was.
On one thread, large products also sum in one order, so the artifacts do
not depend on the machine's core count.

Exit codes: 0 success; 1 a run failed, in one ``error:`` or ``run failed:``
line: it diverged, its logged records are all degenerate (every clean max
gradient norm numerically zero), or a logged intensity is exactly zero; for
``sweep`` also a run lost with a dead worker, for ``report`` a stale or
unreadable one. 1 also means ``attack`` or ``noise`` got a checkpoint whose
outputs are not finite, as a diverged run leaves, or ``probe`` met a
degenerate clean max gradient norm. 2 configuration error, in one ``config
error:`` line: noise fields that do not fit the data (checked before any
training; for ``noise``, against the checkpoint's parameter count), a
``loss_bound`` or ``constant_c`` that is not positive and finite, a
checkpoint given to ``attack``, ``noise`` or ``probe`` whose input width
differs from the data's or that has fewer outputs than the data has
classes, ``probe`` batch sizes that are not integers in [1, training set
size] or ``--repeats`` below 1 (checked before any gradient work), and
invalid ``accountant`` and ``bounds`` arguments, among them a nan or
infinite ``accountant`` statistic, a scalar-mode ``--iterations`` below 1,
a ``bounds --eps`` of nan, and a ``--loss-bound`` or ``--c`` that is not
positive and finite.
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
import json
import platform
import resource
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__, analysis, attacks, bounds, intensity, nn, privacy, training
from .config import ConfigError, ExperimentConfig, config_digest, load_config, to_ini
from .data import CsvFormatError, LabeledSet, _csv_rows, write_atomic, write_csv

VERSIONS = {"advlab": __version__, "numpy": np.__version__,
            "python": platform.python_version()}

SWEEP_COLUMNS = ("rho", "seed", "intensity_1t", "adv_accuracy", "adv_accuracy_common",
                 "attack_accuracy", "gen_gap", "eps_leading", "on_avg_bound",
                 "high_prob_bound")


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_histogram_csv(path: Path, values: np.ndarray) -> None:
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


def _write_meta(run_dir: Path, started: float, stages: dict) -> None:
    _write_json(run_dir / "meta.json", {
        "started": started, "finished": time.time(), "stages_s": stages["s"],
        "stage_peak_rss_mb": stages["peak_rss_mb"], "max_rss_mb": _max_rss_mb(),
        "blas_env": BLAS_ENV, "numpy_preloaded": NUMPY_PRELOADED, "versions": VERSIONS})


def run_dir_for(cfg: ExperimentConfig, rho: float, seed: int) -> Path:
    return Path(cfg.output_dir) / f"rho={rho!r}" / f"seed={seed}"


def _budget_json(b: privacy.PrivacyBudget | None) -> dict | None:
    if b is None:
        return None
    return {"epsilon": b.epsilon, "delta": b.delta, "provenance": b.provenance,
            "inputs": b.inputs}


def run_experiment(cfg: ExperimentConfig, rho: float, seed: int) -> dict:
    """Full per-run pipeline: train, measure, account, bound, attack, persist."""
    started = time.time()
    names = ("train", "noise", "mia", "adv_eval", "writes")
    stages = {"s": dict.fromkeys(names, 0.0), "peak_rss_mb": dict.fromkeys(names)}
    train_set, test_set = cfg.load_datasets()
    cfg.check_noise(train_set)
    run_dir = run_dir_for(cfg, rho, seed)
    run_dir.mkdir(parents=True, exist_ok=True)

    loss_spec = cfg.loss_spec()
    with _stage(stages, "train"):
        ledger = training.train_twin(train_set, test_set, cfg.train_config(rho, seed),
                                     hidden=cfg.hidden, activation=cfg.activation,
                                     loss_spec=loss_spec)
    with _stage(stages, "writes"):
        training.write_ledger_csv(ledger.records, run_dir / "ledger.csv")
        training.save_checkpoint(ledger.erm.net, run_dir / "erm.ckpt")
        training.save_checkpoint(ledger.adv.net, run_dir / "adv.ckpt")

    summary = {
        "rho": rho,
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
        "erm": {"train_acc": ledger.erm_train_acc, "test_acc": ledger.erm_test_acc,
                "gen_gap": ledger.erm_train_acc - ledger.erm_test_acc},
        "adv": {"train_acc": ledger.adv_train_acc, "test_acc": ledger.adv_test_acc,
                "gen_gap": ledger.adv_train_acc - ledger.adv_test_acc},
    }
    if ledger.diverged_at is not None:
        with _stage(stages, "writes"):
            _write_json(run_dir / "summary.json", summary)
        _write_meta(run_dir, started, stages)
        raise RuntimeError(f"run rho={rho} seed={seed} diverged at t={ledger.diverged_at}")

    good = [r for r in ledger.records if not r.degenerate]
    if not good:
        raise intensity.DegenerateDenominatorError(
            f"run rho={rho} seed={seed}: every logged record was degenerate (clean max "
            "gradient norm numerically zero), so there is no intensity to account")
    zero = [r.t for r in good if r.intensity == 0.0]
    if zero:  # whether an intensity of 0 is a valid value is not settled yet
        raise intensity.DegenerateDenominatorError(
            f"run rho={rho} seed={seed}: the intensity is 0 (adversarial max gradient norm "
            f"exactly zero) at {len(zero)} record(s) from t={zero[0]}; the composite needs > 0")
    summary["records"] = len(ledger.records)
    summary["records_skipped"] = len(ledger.records) - len(good)

    # gradient noise and Laplace scale, taken at the final ERM iterate
    with _stage(stages, "noise"):
        noise = privacy.collect_noise(ledger.erm.net, train_set, cfg.noise_tau,
                                      cfg.noise_batches, cfg.noise_components, seed=seed,
                                      loss_spec=loss_spec)
        fit = privacy.fit_laplace(noise.values)
    with _stage(stages, "writes"):
        _write_histogram_csv(run_dir / "noise_hist.csv", noise.values)
    summary["noise"] = {"b": fit.scale, "location": fit.location, "count": fit.count,
                        "divisor": noise.divisor}

    n = len(train_set)
    summary["eps_per_step"], budgets = privacy.budgets(
        [r.l_erm for r in good], [r.intensity for r in good], cfg.total_iterations, n,
        fit.scale, cfg.delta_prime)
    leading = budgets["leading_thm5"]
    summary["intensity_1t"] = leading.inputs["i_1t"]
    summary["l_erm_1t"] = leading.inputs["l_erm_1t"]
    summary["budgets"] = {k: _budget_json(b) for k, b in budgets.items()}

    summary["bounds"] = []
    for gamma in cfg.gamma_list:
        rep = bounds.bound_report(leading.epsilon, leading.delta, cfg.loss_bound,
                                  n, gamma, cfg.constant_c)
        summary["bounds"].append({
            "gamma": gamma, "beta": rep.beta, "on_avg_bound": rep.beta,
            "high_prob_bound": rep.high_prob_bound,
            "high_prob_bound_normalized": rep.high_prob_bound_normalized,
            "high_prob_bound_rescaled": rep.high_prob_bound_rescaled, "c": rep.c})

    with _stage(stages, "mia"):
        report = attacks.optimal_threshold(
            attacks.true_label_confidences(ledger.adv.net, train_set),
            attacks.true_label_confidences(ledger.adv.net, test_set))
    summary["mia"] = {"zeta_optim": report.zeta_optim, "accuracy": report.accuracy}

    with _stage(stages, "adv_eval"):
        summary["adv_accuracy"] = analysis.adversarial_accuracy(
            ledger.adv.net, test_set, cfg.attack_spec(rho), loss_spec)
        # the same model under the sweep's common (largest-radius) attack, so
        # robustness is comparable across runs
        summary["adv_accuracy_common"] = analysis.adversarial_accuracy(
            ledger.adv.net, test_set, cfg.attack_spec(cfg.radius_list[-1]), loss_spec)

    with _stage(stages, "writes"):
        _write_json(run_dir / "summary.json", summary)
    _write_meta(run_dir, started, stages)
    return summary


def _run_job(args) -> tuple[float, int, dict | None, str]:
    cfg, rho, seed = args
    try:
        return rho, seed, run_experiment(cfg, rho, seed), ""
    except Exception:
        return rho, seed, None, traceback.format_exc()


def _pool_result(future, job) -> tuple[float, int, dict | None, str]:
    """A job's result; a job that a dead worker left unfinished is a failure."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        _, rho, seed = job
        return rho, seed, None, f"worker process died before this run finished: {exc}"


def sweep_rows(summaries: list[dict]) -> list[dict]:
    rows = []
    for s in sorted(summaries, key=lambda s: (s["rho"], s["seed"])):
        rows.append({
            "rho": s["rho"], "seed": s["seed"], "intensity_1t": s["intensity_1t"],
            "adv_accuracy": s["adv_accuracy"],
            "adv_accuracy_common": s["adv_accuracy_common"],
            "attack_accuracy": s["mia"]["accuracy"],
            "gen_gap": s["adv"]["gen_gap"], "eps_leading": s["budgets"]["leading_thm5"]["epsilon"],
            "on_avg_bound": s["bounds"][0]["on_avg_bound"],
            "high_prob_bound": s["bounds"][0]["high_prob_bound"]})
    return rows


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def _fit_json(fit: analysis.PolyFit | None) -> dict | None:
    if fit is None:
        return None
    return {"coefficients": list(fit.coefficients),
            "scaled_coefficients": list(fit.scaled_coefficients),
            "x_center": fit.x_center, "x_scale": fit.x_scale, "degree": fit.degree}


def _try_fit(xs, ys, degree=4):
    try:
        return analysis.polyfit(xs, ys, degree)
    except ValueError:
        return None


def _try_spearman(xs, ys) -> float | None:
    try:
        return analysis.spearman(xs, ys)
    except ValueError:
        return None


def analyze_rows(rows: list[dict]) -> dict:
    """Sweep-level correlations and trend fits; entries degrade to null when
    a column is constant or too short."""
    col = lambda name: np.array([row[name] for row in rows])
    ii = col("intensity_1t")
    robust = [row for row in rows if row["rho"] > 0]  # attacked-training rows only
    ii_r = np.array([row["intensity_1t"] for row in robust])
    return {
        "rows": len(rows),
        "spearman": {
            "intensity_vs_radius": _try_spearman(ii, col("rho")),
            "intensity_vs_attack_accuracy": _try_spearman(ii, col("attack_accuracy")),
            "intensity_vs_gen_gap": _try_spearman(ii, col("gen_gap")),
            # Fig-1 style trend: every robust model judged by one common attack
            "intensity_vs_common_attack_accuracy":
                _try_spearman(ii_r, np.array([row["adv_accuracy_common"] for row in robust])),
            "intensity_vs_matched_attack_accuracy":
                _try_spearman(ii_r, np.array([row["adv_accuracy"] for row in robust])),
        },
        "polyfit": {
            "radius_to_intensity": _fit_json(_try_fit(col("rho"), ii)),
            "intensity_to_common_attack_accuracy":
                _fit_json(_try_fit(ii_r, np.array([row["adv_accuracy_common"] for row in robust]))),
            "intensity_to_attack_accuracy": _fit_json(_try_fit(ii, col("attack_accuracy"))),
            "intensity_to_gen_gap": _fit_json(_try_fit(ii, col("gen_gap"))),
        },
    }


def _load_summaries(cfg: ExperimentConfig) -> tuple[list[dict], dict[tuple, str | None]]:
    """Read every run's summary.json.

    Returns (summaries, unfinished). ``unfinished`` maps each (rho, seed)
    pair without a current summary, in sweep order, to None when its
    summary.json is missing and to a failure message when it cannot be
    parsed or was written under a config with another digest.
    """
    digest = config_digest(cfg)
    summaries, unfinished = [], {}
    for rho in cfg.radius_list:
        for seed in cfg.seeds:
            path = run_dir_for(cfg, rho, seed) / "summary.json"
            try:
                summary = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                unfinished[rho, seed] = None
            except ValueError as exc:  # truncated or corrupt JSON
                unfinished[rho, seed] = f"rho={rho} seed={seed}: unreadable {path}: {exc}"
            else:
                if summary.get("config_digest") == digest:
                    summaries.append(summary)
                else:
                    unfinished[rho, seed] = (f"rho={rho} seed={seed}: stale {path}: "
                                             "written under another config")
    return summaries, unfinished


def run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Run every (rho, seed) pair, skipping finished run directories.

    A run whose summary.json is missing, unreadable or stale (another
    config digest) is unfinished and runs again. A worker that dies fails
    each run it left unfinished, and the merge still runs. Returns
    (summaries, failure messages). Each run writes only inside its own
    directory; the merge below is single-threaded. A config error is raised
    before any run starts.
    """
    cfg.check_noise(cfg.load_datasets()[0])
    summaries, unfinished = _load_summaries(cfg)
    jobs = [(cfg, rho, seed) for rho, seed in unfinished]
    failures = []
    if jobs:
        workers = cfg.workers or min(len(jobs), os.cpu_count() or 1)
        if workers == 1:
            results = map(_run_job, jobs)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_job, job) for job in jobs]
                results = [_pool_result(future, job) for future, job in zip(futures, jobs)]
        for rho, seed, summary, err in results:
            if summary is None:
                failures.append(f"rho={rho} seed={seed}:\n{err}")
            else:
                summaries.append(summary)

    _, failures = merge_sweep(cfg, summaries, failures)
    return summaries, failures


def merge_sweep(cfg: ExperimentConfig, summaries: list[dict],
                failures: list[str]) -> tuple[list[dict], list[str]]:
    """Write sweep.csv and analysis.json; returns (rows, every failure).

    A summary whose ``diverged_at`` is set is a failure, not a row, so a
    resumed sweep or a report cannot drop a diverged run silently.
    """
    failures = [*failures, *(f"rho={s['rho']} seed={s['seed']}: diverged at t={s['diverged_at']}"
                             for s in summaries if s.get("diverged_at") is not None)]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep_rows([s for s in summaries if s.get("diverged_at") is None])
    write_sweep_csv(rows, out / "sweep.csv")
    report = analyze_rows(rows) if len(rows) >= 3 else {"rows": len(rows)}
    report["failures"] = sorted(failures)
    _write_json(out / "analysis.json", report)
    return rows, report["failures"]


# ---------------------------------------------------------------- commands


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    rho = args.rho if args.rho is not None else cfg.radius_list[0]
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    summary = run_experiment(cfg, rho, seed)
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
    rows, failures = merge_sweep(cfg, summaries, [m for m in unfinished.values() if m])
    for f in failures:
        print(f, file=sys.stderr)
    print(f"merged {len(rows)} runs into {Path(cfg.output_dir) / 'sweep.csv'}")
    return 1 if failures else 0


def _read_series_csv(path) -> tuple[list[float], list[float]]:
    l_erm, intens = [], []
    for lineno, (l, i) in _csv_rows(path, header="l_erm,intensity", width=2):
        try:
            l_erm.append(float(l))
            intens.append(float(i))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric value") from None
    return l_erm, intens


def _cmd_accountant(args) -> int:
    if args.series:
        l_erm, intens = _read_series_csv(args.series)
    else:
        if args.l_erm is None or args.intensity is None:
            raise ConfigError("scalar mode needs --l-erm and --intensity")
        if args.iterations < 1:
            raise ConfigError("--iterations must be >= 1")
        l_erm = [args.l_erm] * args.iterations
        intens = [args.intensity] * args.iterations
    try:
        _, budgets = privacy.budgets(l_erm, intens, len(l_erm), args.n, args.b,
                                     args.delta_prime)
    except ValueError as exc:  # invalid calculator arguments
        raise ConfigError(str(exc)) from None
    print(json.dumps({k: _budget_json(b) for k, b in budgets.items()},
                     sort_keys=True, indent=2))
    return 0


def _cmd_bounds(args) -> int:
    try:
        rep = bounds.bound_report(args.eps, args.delta, args.loss_bound, args.n,
                                  args.gamma, args.c)
    except ValueError as exc:  # invalid calculator arguments
        raise ConfigError(str(exc)) from None
    print(json.dumps({
        "beta": rep.beta, "on_avg_bound": rep.beta,
        "high_prob_bound": rep.high_prob_bound,
        "high_prob_bound_normalized": rep.high_prob_bound_normalized,
        "high_prob_bound_rescaled": rep.high_prob_bound_rescaled,
        "inputs": {"eps": rep.eps, "delta": rep.delta, "m": rep.m, "n": rep.n,
                   "gamma": rep.gamma, "c": rep.c}}, sort_keys=True, indent=2))
    return 0


def _load_checkpoint_for(path, data: LabeledSet) -> nn.DenseNet:
    """The checkpoint at ``path``; a config error unless it reads the data's
    features and scores every one of its classes."""
    net = training.load_checkpoint(path)
    if net.in_dim != data.dim or net.out_dim < data.num_classes:
        raise ConfigError(f"{path}: a {'-'.join(map(str, net.layer_widths))} net does not fit "
                          f"data with {data.dim} features and {data.num_classes} classes")
    return net


def _cmd_attack(args) -> int:
    cfg = load_config(args.config)
    train_set, test_set = cfg.load_datasets()
    net = _load_checkpoint_for(args.checkpoint, train_set)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        confs = [attacks.true_label_confidences(net, s) for s in (train_set, test_set)]
    if not all(np.isfinite(c).all() for c in confs):
        raise training.DivergenceError(
            f"{args.checkpoint}: non-finite confidences; is it a diverged run's checkpoint?")
    report = attacks.optimal_threshold(*confs)
    if args.sweep_csv:
        write_csv(args.sweep_csv, ("zeta", "accuracy"), report.sweep)
    print(json.dumps({"zeta_optim": report.zeta_optim, "accuracy": report.accuracy,
                      "n_train": report.n_train, "n_test": report.n_test},
                     sort_keys=True, indent=2))
    return 0


def _cmd_noise(args) -> int:
    cfg = load_config(args.config)
    train_set, _ = cfg.load_datasets()
    net = _load_checkpoint_for(args.checkpoint, train_set)
    cfg.check_noise_for(len(train_set), net.num_params)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows
        sample = privacy.collect_noise(net, train_set, cfg.noise_tau, cfg.noise_batches,
                                       cfg.noise_components, seed=args.seed,
                                       loss_spec=cfg.loss_spec())
    fit = privacy.fit_laplace(sample.values)
    _write_histogram_csv(Path(args.out), sample.values)
    print(json.dumps({"b": fit.scale, "location": fit.location, "count": fit.count,
                      "divisor": sample.divisor, "histogram": args.out},
                     sort_keys=True, indent=2))
    return 0


def _cmd_probe(args) -> int:
    cfg = load_config(args.config)
    train_set, _ = cfg.load_datasets()
    n = len(train_set)
    try:
        taus = ([int(v) for v in args.taus.split(",")] if args.taus
                else [max(1, n // 8), max(1, n // 2), n])
        intensity.check_probe(taus, args.repeats, n)
    except ValueError as exc:  # a --taus entry that is not an integer, or out of range
        raise ConfigError(f"probe --taus/--repeats: {exc}") from None
    net_erm = _load_checkpoint_for(args.erm_checkpoint, train_set)
    net_adv = _load_checkpoint_for(args.adv_checkpoint, train_set)
    rows = intensity.consistency_probe(net_erm, net_adv, train_set,
                                       cfg.attack_spec(args.rho), taus,
                                       args.repeats, args.seed, cfg.loss_spec())
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

    p = sub.add_parser("report", help="re-merge completed runs into sweep.csv")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("accountant", help="standalone privacy-budget calculator")
    p.add_argument("--series", default=None, help="CSV with header l_erm,intensity")
    p.add_argument("--l-erm", type=float, default=None, dest="l_erm")
    p.add_argument("--intensity", type=float, default=None)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--delta-prime", type=float, required=True, dest="delta_prime")
    p.set_defaults(func=_cmd_accountant)

    p = sub.add_parser("bounds", help="stability and generalization bounds")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--loss-bound", type=float, default=10.0, dest="loss_bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("attack", help="membership inference against a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sweep-csv", default=None, dest="sweep_csv")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("noise", help="gradient-noise histogram and Laplace fit")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="noise_hist.csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_noise)

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
    except (CsvFormatError, FileNotFoundError, training.CheckpointFormatError,
            training.DivergenceError, privacy.DegenerateNoiseError,
            intensity.DegenerateDenominatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
