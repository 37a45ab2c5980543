"""Supervised contrastive loss over label-grouped batches, in both directions.

The image->text direction averages, for each image row, the log-softmax over
its positive set {k : label_k == label_i}; the text->image direction does the
same over columns. With all-unique labels this reduces to the symmetric
InfoNCE objective used by CLIP-style models. Softmax rows/columns are
stabilized by max subtraction. The loss is summed over the batch (no 1/B
averaging).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Project each feature row onto the unit sphere."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise ValueError("cannot normalize a near-zero row")
    return m / norms


def normalize_rows_backward(raw: np.ndarray, d_normed: np.ndarray) -> np.ndarray:
    """Backward of row-wise normalization: d_raw from d(raw/||raw||)."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    unit = raw / norms
    inner = np.sum(d_normed * unit, axis=1, keepdims=True)
    return (d_normed - unit * inner) / norms


@dataclass(frozen=True)
class ContrastiveLoss:
    l_i2t: float
    l_t2i: float
    l_ic: float


def _group_matrix(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    shifted = z - np.max(z, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def grouped_contrastive_loss(sim: np.ndarray, labels, tau: float) -> ContrastiveLoss:
    """Evaluate the grouped contrastive loss on a similarity matrix."""
    loss, _, _ = grouped_contrastive_loss_with_grads(sim, labels, tau)
    return loss


def grouped_contrastive_loss_with_grads(
    sim: np.ndarray, labels, tau: float
) -> tuple[ContrastiveLoss, np.ndarray, float]:
    """Loss plus exact gradients d(loss)/d(sim) and d(loss)/d(tau)."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {sim.shape}")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if not np.all(np.isfinite(sim)):
        raise NumericsError("similarity matrix contains non-finite entries")

    match = _group_matrix(labels)
    if match.shape != sim.shape:
        raise ValueError("labels length does not match the batch size")
    group_size = match.sum(axis=1)  # |P(i)| row-wise == |Q(j)| column-wise

    z = tau * sim
    log_p_rows = _log_softmax(z, axis=1)
    log_p_cols = _log_softmax(z, axis=0)

    l_i2t = -np.sum(match * log_p_rows / group_size[:, None])
    l_t2i = -np.sum(match * log_p_cols / group_size[None, :])

    # d/dz of each direction: softmax minus the averaged positive indicator.
    p_rows = np.exp(log_p_rows)
    p_cols = np.exp(log_p_cols)
    dz = (p_rows - match / group_size[:, None]) + (p_cols - match / group_size[None, :])
    d_sim = tau * dz
    d_tau = float(np.sum(sim * dz))

    loss = ContrastiveLoss(float(l_i2t), float(l_t2i), float(l_i2t + l_t2i))
    if not np.isfinite(loss.l_ic):
        raise NumericsError("contrastive loss is non-finite", {"tau": tau})
    return loss, d_sim, d_tau
