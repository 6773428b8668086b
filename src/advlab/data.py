"""Datasets: CSV ingestion, synthetic blobs, splits, deterministic batches.

The mini-batch schedule is part of the reproducibility contract: batch
indices for iteration t are the first ``batch_size`` entries of a uniform
permutation drawn from the Philox stream ``(seed, DOMAIN_BATCH, t)`` (see
:mod:`advlab.rng`). Replaying a schedule therefore yields bit-identical
index sequences on any machine, which is what lets the twin trainer feed
two models exactly the same data.

CSV layout: one example per row, ``d`` numeric feature columns followed by
one integer label column. A header row is skipped when ``header=True``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import DOMAIN_BATCH, DOMAIN_BLOBS, DOMAIN_SPLIT, stream

BLOB_CENTER_SCALE = 3.0


class CsvFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix [N x d] plus integer labels [N] in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.array(self.features, dtype=np.float64)
        y = np.array(self.labels)
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
        y = y.astype(np.int64)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledSet":
        """The rows at ``indices``, in index order, as a new set.

        Built without re-running validation: every row already passed it
        when this set was constructed, so the rows are finite and the labels
        are int64 in range. An index array copies the rows and a slice views
        them; either way the result is read-only like the originals. Only
        the shape of the selection is checked; an empty one is rejected.
        """
        x = self.features[indices]
        y = self.labels[indices]
        if y.ndim != 1:
            raise ValueError(f"misaligned features {x.shape} / labels {y.shape}")
        if len(y) < 1:
            raise ValueError("dataset must contain at least one example")
        x.setflags(write=False)
        y.setflags(write=False)
        out = object.__new__(LabeledSet)
        object.__setattr__(out, "features", x)
        object.__setattr__(out, "labels", y)
        object.__setattr__(out, "num_classes", self.num_classes)
        return out


@dataclass(frozen=True)
class BatchSchedule:
    """Deterministic iteration -> index-list mapping (Philox, see module docs)."""

    seed: int
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    def indices(self, t: int, n: int) -> np.ndarray:
        """Batch indices for iteration t >= 1 over a dataset of size n."""
        if t < 1:
            raise ValueError("iteration index starts at 1")
        if self.batch_size > n:
            raise ValueError(f"batch_size {self.batch_size} exceeds dataset size {n}")
        rng = stream(self.seed, DOMAIN_BATCH, t)
        return rng.permutation(n)[: self.batch_size]


def _csv_rows(path, header: bool | str = False, width: int | None = None):
    """(1-based line number, cells) of each non-blank line of a CSV file.

    ``header=True`` skips line 1; a string also requires line 1 to equal it.
    Every row has ``width`` cells, or as many as the first row when ``width``
    is None. Errors are ``CsvFormatError``s naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if isinstance(header, str) and (not lines or lines[0].strip() != header):
        raise CsvFormatError(f"{path}: line 1: expected header {header!r}")
    start = 1 if header else 0
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
            rows.append([float(c) for c in cells[:-1]])
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric feature") from None
        lab = cells[-1].strip()
        try:
            labels.append(int(lab))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-integer label {lab!r}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    y = np.array(labels, dtype=np.int64)
    if y.min() < 0:
        raise CsvFormatError(f"{path}: negative label")
    return LabeledSet(np.array(rows), y, int(y.max()) + 1)


def write_atomic(path, content: str | bytes) -> None:
    """Write ``content`` (text as UTF-8) to a temporary file beside ``path``, then
    ``os.replace`` it: a killed process leaves the old file or none, never part of one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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
    if n_per_class < 1 or num_classes < 1 or dim < 1:
        raise ValueError("counts must be positive")
    if spread < 0:
        raise ValueError("spread must be nonnegative")
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    centers = np.stack([blob_center(k, dim) for k in range(num_classes)])
    x = stream(seed, DOMAIN_BLOBS).standard_normal((len(labels), dim))
    x *= spread  # in place, which saves two feature-sized temporaries
    x += centers[labels]
    return LabeledSet(x, labels, num_classes)


def split(dataset: LabeledSet, n_train: int, seed: int) -> tuple[LabeledSet, LabeledSet]:
    """Disjoint shuffled train/test partition with n_train training rows."""
    if not 1 <= n_train < len(dataset):
        raise ValueError(f"n_train must be in [1, {len(dataset) - 1}]")
    perm = stream(seed, DOMAIN_SPLIT).permutation(len(dataset))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])
