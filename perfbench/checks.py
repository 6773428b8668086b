"""Output checks for the artifacts one benchmark repetition wrote.

Every check returns a list of problems; an empty list means the check passed.
The artifact layout is the one ``advlab.cli`` documents:
``<output_dir>/rho=<r>/seed=<s>/{ledger.csv, erm.ckpt, adv.ckpt,
noise_hist.csv, summary.json, meta.json}``, plus ``sweep.csv`` and
``analysis.json`` at the top of a sweep.

Key scalars are compared with ``reference.json`` when it holds the run's
(rho, seed). Other seeds get only the checks that do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RUN_FILES = ("ledger.csv", "erm.ckpt", "adv.ckpt", "noise_hist.csv", "summary.json",
             "meta.json")
STABLE_FILES = RUN_FILES[:-1]  # meta.json holds wall-clock stamps
REFERENCE_PATH = Path(__file__).parent / "reference.json"
BUDGETS = ("composed_thm4", "leading_thm5", "erm_corollary")
ACCURACIES = ("erm.train_acc", "erm.test_acc", "adv.train_acc", "adv.test_acc",
              "adv_accuracy", "adv_accuracy_common", "mia.accuracy")
KEY_SCALARS = ("intensity_1t", "noise.b", *(f"budgets.{b}.epsilon" for b in BUDGETS),
               *ACCURACIES)
REQUIRED = (*KEY_SCALARS, "diverged_at", "index_digests.match", "l_erm_1t", "records",
            "eps_per_step", "bounds", "mia.zeta_optim", "n_train", "n_test")


def run_key(rho: float, seed: int) -> str:
    return f"rho={rho!r}/seed={seed}"


def _lookup(obj, path: str):
    for part in path.split("."):
        obj = obj[part]
    return obj


def key_scalars(summary: dict) -> dict:
    return {name: _lookup(summary, name) for name in KEY_SCALARS}


def _non_finite(obj, path="") -> list[str]:
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path.lstrip(".")]
    return []


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(out: Path, rho: float, seed: int, use_reference: bool) -> list[str]:
    """Completeness, finiteness, the radius-0 collapse and the stored references."""
    run_dir = out / run_key(rho, seed)
    missing = [f for f in RUN_FILES if not (run_dir / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    summary = read_json(run_dir / "summary.json")
    problems = []
    for name in REQUIRED:
        try:
            _lookup(summary, name)
        except (KeyError, TypeError):
            problems.append(f"summary.json lacks {name}")
    if problems:
        return problems
    problems += [f"non-finite {p}" for p in _non_finite(summary)]
    if summary["diverged_at"] is not None:
        problems.append(f"diverged at t={summary['diverged_at']}")
    if summary["index_digests"]["match"] is not True:
        problems.append("ERM and adversarial batch schedules differ")
    if rho == 0.0:
        if summary["intensity_1t"] != 1.0:
            problems.append(f"radius 0 gives intensity_1t {summary['intensity_1t']!r}, not 1.0")
        if (run_dir / "erm.ckpt").read_bytes() != (run_dir / "adv.ckpt").read_bytes():
            problems.append("radius 0: erm.ckpt and adv.ckpt differ")
    reference = read_json(REFERENCE_PATH) if use_reference else {"runs": {}}
    if run_key(rho, seed) in reference["runs"]:
        rtol, atol = reference["rtol"], reference["atol"]
        for name, want in reference["runs"][run_key(rho, seed)].items():
            got = _lookup(summary, name)
            if not abs(got - want) <= atol + rtol * abs(want):
                problems.append(f"{name} = {got!r}, reference {want!r}")
    return problems


def check_sweep(out: Path, runs: int, started: float) -> list[str]:
    """sweep.csv row count, no reported failures, and one new meta.json per run."""
    problems = []
    csv = out / "sweep.csv"
    rows = len(csv.read_text(encoding="utf-8").splitlines()) - 1 if csv.is_file() else 0
    if rows != runs:
        problems.append(f"sweep.csv has {rows} rows, expected {runs}")
    analysis = out / "analysis.json"
    if not analysis.is_file():
        problems.append("missing analysis.json")
    elif read_json(analysis).get("failures") != []:
        problems.append("analysis.json reports failures")
    fresh = [m for m in out.glob("*/*/meta.json")
             if read_json(m)["started"] >= started]
    if len(fresh) != runs:
        problems.append(f"{len(fresh)} new meta.json files, expected {runs}")
    return problems


def artifact_digests(out: Path, runs) -> dict:
    """sha256 of each byte-stable artifact; recorded, never gated on."""
    digests = {}
    for rho, seed in runs:
        for name in STABLE_FILES:
            path = out / run_key(rho, seed) / name
            if path.is_file():
                digests[f"{run_key(rho, seed)}/{name}"] = sha256(path)
    if (out / "sweep.csv").is_file():
        digests["sweep.csv"] = sha256(out / "sweep.csv")
    return digests
