"""Region-phrase grounding head: parallel text encoding, alignment, focal loss.

Category texts are encoded independently (CLS-pooled) so sequence-length
limits never depend on the number of categories; alignment scores are the
plain region-by-phrase dot product, trained with a sigmoid focal loss against
a binary match matrix. Region features arrive precomputed; only the text
encoder carries trainable parameters here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import compose, encoder as enc
from .errors import ConfigError, DataError, NumericsError
from .knowledge import finite_array, iter_jsonl, string_field

POOLING = "cls"  # the token every category text pools at, in ground-train and ground-eval


@dataclass
class RegionSet:
    """Precomputed region features for one image, optionally with targets."""

    image_id: str
    features: np.ndarray  # (M, P)
    targets: Optional[np.ndarray] = None  # (M, K) binary


@dataclass
class PhraseBank:
    """Per-category text encodings stacked as columns (P, K)."""

    matrix: np.ndarray
    texts: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"focal alpha must lie in (0, 1), got {self.alpha}")
        if not self.gamma >= 0.0:
            raise ConfigError(f"focal gamma must be >= 0, got {self.gamma}")


def load_regions_jsonl(
    path, num_classes: Optional[int] = None, width: Optional[int] = None
) -> list[RegionSet]:
    """Region rows; every row's features have ``width`` columns, or the first row's.

    Targets, where given, are a binary matrix with one row per region and,
    when ``num_classes`` is given, one column per class. A row that breaks
    this, or whose ``image_id`` is not a string, raises ``DataError`` with
    its ``path:lineno``.
    """
    regions = []
    for where, obj in iter_jsonl(path, ("image_id", "features")):
        image_id = string_field(obj, "image_id", where)
        features = finite_array(obj["features"], 2, where, "features", width)
        width = features.shape[1]
        targets = None
        if obj.get("targets") is not None:
            targets = finite_array(obj["targets"], 2, where, "targets", num_classes)
            if targets.shape[0] != features.shape[0]:
                raise DataError(f"{where}: targets row count != features row count")
            if not np.isin(targets, (0.0, 1.0)).all():
                raise DataError(f"{where}: targets must be binary")
        regions.append(RegionSet(image_id, features, targets))
    return regions


def category_texts(class_names: list[str], store, source: str, max_tokens: int) -> list[str]:
    """Each class's prompt-free text, ``compose.class_texts`` without a template, as
    ``ground-train`` trains on and ``ground-eval`` scores against."""
    return [compose.class_texts(name, store, source, max_tokens)[1][0] for name in class_names]


def encode_phrases_parallel(params: enc.ModelParams, texts: list[str]) -> PhraseBank:
    """Encode each category text independently through the base branch.

    Column k depends only on text k. A single text that still exceeds the
    sequence budget (the composer only truncates knowledge, never the
    query) raises ``DataError`` naming it, not a silent cut.
    """
    if not texts:
        raise ValueError("category text list must be non-empty")
    cols = []
    for text in texts:
        compose.check_class_budget(text, text, params.config.max_tokens)
        cols.append(enc.encode_text(params, enc.text_to_ids(text, params.config, POOLING)))
    return PhraseBank(matrix=np.stack(cols, axis=1), texts=list(texts))


def ground_scores(region_features: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Alignment scores: (M, P) region features times (P, K) phrase bank."""
    v = np.asarray(region_features, dtype=np.float64)
    u = np.asarray(bank, dtype=np.float64)
    if v.ndim != 2 or u.ndim != 2 or v.shape[1] != u.shape[0]:
        raise ValueError(f"incompatible shapes {v.shape} and {u.shape}")
    return v @ u


def _softplus(x):
    # log(1 + e^x), stable for large |x|.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    # For x < -709.78, e^-x overflows to inf and 1/(1+inf) gives 0, within
    # 1e-308 of the exact value; only numpy's overflow warning is silenced.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def focal_loss(scores: np.ndarray, targets: np.ndarray, fp: FocalParams = FocalParams()) -> float:
    loss, _ = focal_loss_with_grad(scores, targets, fp)
    return loss


def focal_cells(
    scores: np.ndarray, targets: np.ndarray, fp: FocalParams = FocalParams()
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell sigmoid focal loss and its gradient w.r.t. the scores, any shape.

    Positive cells contribute -alpha (1-p)^gamma log p and negative cells
    -(1-alpha) p^gamma log(1-p), with p = sigmoid(score), computed via
    stabilized log-sigmoids.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError(f"scores shape {s.shape} != targets shape {t.shape}")
    if not np.all(np.isfinite(s)):
        raise NumericsError("grounding scores contain non-finite entries")

    p = _sigmoid(s)
    log_p = -_softplus(-s)
    log_1mp = -_softplus(s)

    pos = -fp.alpha * (1.0 - p) ** fp.gamma * log_p
    neg = -(1.0 - fp.alpha) * p**fp.gamma * log_1mp

    # d loss / d s, derived per cell.
    d_pos = -fp.alpha * (1.0 - p) ** fp.gamma * (fp.gamma * p * (-log_p) + (1.0 - p))
    d_neg = (1.0 - fp.alpha) * p**fp.gamma * (fp.gamma * (1.0 - p) * (-log_1mp) + p)
    return t * pos + (1.0 - t) * neg, t * d_pos + (1.0 - t) * d_neg


def focal_total(cells: np.ndarray) -> float:
    """The summed focal loss over a cell matrix from ``focal_cells``."""
    loss = float(np.sum(cells))
    if not np.isfinite(loss):
        raise NumericsError("focal loss is non-finite")
    return loss


def focal_loss_with_grad(
    scores: np.ndarray, targets: np.ndarray, fp: FocalParams = FocalParams()
) -> tuple[float, np.ndarray]:
    """Summed sigmoid focal loss (``focal_cells``) and its gradient w.r.t. the scores."""
    cells, grad = focal_cells(scores, targets, fp)
    return focal_total(cells), grad


def classify_regions(regions: RegionSet, bank: PhraseBank) -> list[tuple[int, float]]:
    """Per-region best category index and its sigmoid score (ties -> lowest index); a
    non-finite score, which ``argmax`` would read as category 0, is a ``NumericsError``."""
    scores = ground_scores(regions.features, bank.matrix)
    if not np.isfinite(scores).all():
        raise NumericsError(f"image {regions.image_id!r} has a non-finite grounding score")
    out = []
    for row in scores:
        k = int(np.argmax(row))
        out.append((k, float(_sigmoid(row[k]))))
    return out


def zero_shot_region_classify(
    params: enc.ModelParams, regions: RegionSet, texts: list[str]
) -> list[tuple[int, float]]:
    """``classify_regions`` against a phrase bank encoded from ``texts``."""
    return classify_regions(regions, encode_phrases_parallel(params, texts))


def region_accuracy(
    predictions: list[tuple[int, float]], targets: np.ndarray
) -> Optional[float]:
    """Accuracy over regions with at least one positive target; None if none."""
    correct = 0
    scored = 0
    for (k, _), row in zip(predictions, np.asarray(targets)):
        if row.sum() == 0:
            continue
        scored += 1
        correct += int(row[k] == 1)
    return correct / scored if scored else None
