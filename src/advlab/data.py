"""Datasets: CSV ingestion, synthetic blobs, splits, deterministic batches.

The mini-batch schedule is part of the reproducibility contract: batch
indices for iteration t are the first ``batch_size`` entries of a uniform
permutation drawn from the Philox stream ``(seed, DOMAIN_BATCH, t)`` (see
:mod:`advlab.rng`). Replaying a schedule therefore yields bit-identical
index sequences on any machine, which is what lets the twin trainer feed
two models exactly the same data.

A ``LabeledSet`` is validated once, where data enters (:func:`synth_blobs`,
:func:`load_csv`, :func:`split`); per-batch code slices its arrays. The
counts, spread, ``n_train`` and ``batch_size`` that :func:`synth_blobs`,
:func:`split` and ``BatchSchedule`` take are checked by ``ExperimentConfig``.

CSV layout: one example per row, ``d`` numeric feature columns followed by
one integer label column. A header row is skipped when ``header=True``.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import DOMAIN_BATCH, DOMAIN_BLOBS, DOMAIN_SPLIT, stream

BLOB_CENTER_SCALE = 3.0
ENTRY_LIMIT = np.iinfo(np.intp).max // 8  # the float64 entries one array can hold


class CsvFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""


def _owned(a, dtype=None) -> np.ndarray:
    """``a`` itself if it is a read-only array that owns its data (of ``dtype``,
    when given), so no one can change it; else a copy that the caller cannot reach."""
    if (isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable
            and (dtype is None or a.dtype == dtype)):
        return a
    return np.array(a, dtype=dtype)


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix [N x d] plus integer labels [N] in [0, num_classes).

    The set keeps read-only arrays that own their data as they are, and
    copies any other input, so a caller's writable array never changes it.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = _owned(self.features, np.float64)
        y = _owned(self.labels)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError(f"misaligned features {x.shape} / labels {y.shape}")
        if len(x) < 1:
            raise ValueError("dataset must contain at least one example")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("labels must be integers")
        if self.num_classes < 1 or y.min() < 0 or y.max() >= self.num_classes:
            raise ValueError(f"labels outside [0, {self.num_classes})")
        if not np.isfinite(x).all():
            raise ValueError("non-finite feature value")
        x.setflags(write=False)
        y = y.astype(np.int64, copy=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledSet":
        """The rows at ``indices``, in index order, as a new validated set; only
        :func:`split` builds one, and per-batch code slices the arrays instead."""
        x, y = self.features[indices], self.labels[indices]
        x.setflags(write=False)  # fresh and read-only, so the set keeps them uncopied
        y.setflags(write=False)
        return LabeledSet(x, y, self.num_classes)


@dataclass(frozen=True)
class BatchSchedule:
    """Deterministic iteration -> index-list mapping (Philox, see module docs)."""

    seed: int
    batch_size: int

    def indices(self, t: int, n: int) -> np.ndarray:
        """Batch indices for iteration t over a dataset of size n. The caller passes
        t >= 1 and n >= batch_size (``ExperimentConfig.load_datasets`` checks the latter)."""
        rng = stream(self.seed, DOMAIN_BATCH, t)
        return rng.permutation(n)[: self.batch_size]


def _csv_rows(path, header: bool):
    """(1-based line number, cells) of each non-blank line of a CSV file.

    ``header=True`` skips line 1. Every row has as many cells as the first.
    Errors are ``CsvFormatError``s naming the file and the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from None
    start = 1 if header else 0
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvFormatError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")
        yield lineno, cells


def load_csv(path, header: bool = False) -> LabeledSet:
    """Parse a feature+label CSV; errors name the 1-based offending line."""
    rows, labels = [], []
    for lineno, cells in _csv_rows(path, header):
        if len(cells) < 2:
            raise CsvFormatError(f"{path}: line {lineno}: need at least one feature and a label")
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric feature") from None
        if not all(map(math.isfinite, row)):  # nan, inf, or a number past the float range
            raise CsvFormatError(f"{path}: line {lineno}: non-finite feature")
        rows.append(row)
        lab = cells[-1].strip()
        try:
            labels.append(int(lab))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-integer label {lab!r}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    x, y = np.array(rows), np.array(labels, dtype=np.int64)
    if y.min() < 0:
        raise CsvFormatError(f"{path}: negative label")
    x.setflags(write=False)  # fresh and read-only, so the set keeps them uncopied
    y.setflags(write=False)
    return LabeledSet(x, y, int(y.max()) + 1)


def write_atomic(path, content: str | bytes) -> None:
    """Write ``content`` (text as UTF-8) to a temporary file beside ``path``, then
    ``os.replace`` it: a killed process leaves the old file or none, never part of one.
    An ``OSError`` names ``path``, not the temporary file, also when it names no file."""
    if not Path(path).name:  # "", "." and "/" are directories
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _cell(v) -> str:
    return str(int(v)) if isinstance(v, (int, np.integer, np.bool_)) else repr(float(v))


def write_csv(path, columns, rows) -> None:
    """A header line (none if ``columns`` is empty), then one line per row. A cell that
    is an int, a numpy integer or a bool is written as ``str(int(v))``, any other as
    ``repr(float(v))``, the shortest text that parses back to the same double."""
    lines = [",".join(columns)] if columns else []
    lines += [",".join(map(_cell, row)) for row in rows]
    write_atomic(path, "".join(line + "\n" for line in lines))


def blob_center(k: int, dim: int) -> np.ndarray:
    """Deterministic center of class k: axis k mod dim, magnitude scale*(1 + k//dim)."""
    c = np.zeros(dim)
    c[k % dim] = BLOB_CENTER_SCALE * (1 + k // dim)
    return c


def synth_blobs(n_per_class: int, num_classes: int, dim: int, spread: float, seed: int) -> LabeledSet:
    """Gaussian clusters at the documented class centers; same seed, same bits."""
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    centers = np.stack([blob_center(k, dim) for k in range(num_classes)])
    x = stream(seed, DOMAIN_BLOBS).standard_normal((len(labels), dim))
    x *= spread  # in place, which saves two feature-sized temporaries
    x += centers[labels]
    x.setflags(write=False)  # fresh and read-only, so the set keeps them uncopied
    labels.setflags(write=False)
    return LabeledSet(x, labels, num_classes)


def split(dataset: LabeledSet, n_train: int, seed: int) -> tuple[LabeledSet, LabeledSet]:
    """Disjoint shuffled train/test partition with n_train in [1, len(dataset))."""
    perm = stream(seed, DOMAIN_SPLIT).permutation(len(dataset))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])
