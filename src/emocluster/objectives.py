"""Loss functions: the cluster-contrastive NT-Xent variant, cross-entropy,
and the multi-task combination.

The contrastive loss scores one positive against the mined negatives with
temperature-scaled cosine similarities.  By default the denominator sums
over the negatives only (the literal printed form, which can go negative);
the standard form that also includes the positive is available via a flag
and is bounded below by zero.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ContrastiveBatch:
    z_anchor: np.ndarray  # (B, P)
    z_positive: np.ndarray  # (B, P)
    z_negatives: np.ndarray  # (B, M, P): anchor i's negatives in the slots of mask row i, zeros elsewhere
    negative_mask: np.ndarray  # (B, M) bool, at least one slot per anchor
    tau: float

    def validate(self) -> None:
        if self.tau <= 0:
            raise ValueError("temperature must be > 0")
        B, P = self.z_anchor.shape
        if self.z_positive.shape != (B, P):
            raise ValueError("anchor/positive shape mismatch")
        if self.z_negatives.ndim != 3 or self.z_negatives.shape[::2] != (B, P):
            raise ValueError(f"negatives must be a ({B}, M, {P}) array")
        if self.negative_mask.shape != self.z_negatives.shape[:2]:
            raise ValueError("negative mask must be (B, M)")
        empty = np.flatnonzero(~self.negative_mask.any(axis=1))
        if empty.size:
            raise ValueError(f"anchor {empty[0]}: needs at least one negative")


@dataclass
class ContrastiveGrads:
    d_anchor: np.ndarray
    d_positive: np.ndarray
    d_negatives: np.ndarray  # (B, M, P), zero in the unmasked slots


def ntxent_variant(batch: ContrastiveBatch, include_positive_in_denominator: bool = False):
    """Per-anchor -log( exp(sim_pos/tau) / sum_k exp(sim_k/tau) ), averaged.

    The sum runs over the mined negatives, plus the positive itself when
    the flag is set.  Returns (loss, analytic gradients wrt every z).

    The whole batch is scored at once over the zero-padded (B, M, P)
    negatives; d cos(a, y)/da is the closed form (y_hat - cos * a_hat) / |a|
    on the unit vectors.
    """
    batch.validate()
    B = batch.z_anchor.shape[0]
    tau = batch.tau
    mask, negs = batch.negative_mask, batch.z_negatives

    n_a = np.linalg.norm(batch.z_anchor, axis=1)
    n_p = np.linalg.norm(batch.z_positive, axis=1)
    n_n = np.linalg.norm(negs, axis=2)
    if not (n_a.all() and n_p.all() and n_n[mask].all()):
        raise ValueError("cosine similarity undefined for zero vectors")
    n_n[~mask] = 1.0  # padding stays a zero vector
    a_hat = batch.z_anchor / n_a[:, None]
    p_hat = batch.z_positive / n_p[:, None]
    n_hat = negs / n_n[:, :, None]
    s_pos = np.einsum("bp,bp->b", a_hat, p_hat)
    s_neg = np.einsum("bp,bmp->bm", a_hat, n_hat)

    scaled = np.where(mask, s_neg / tau, -np.inf)
    if include_positive_in_denominator:
        scaled = np.concatenate([scaled, (s_pos / tau)[:, None]], axis=1)
    mx = scaled.max(axis=1)
    lse = mx + np.log(np.exp(scaled - mx[:, None]).sum(axis=1))
    loss = float((lse - s_pos / tau).mean())
    w = np.exp(scaled - lse[:, None])  # softmax over the denominator terms; padding gets 0

    # d(loss)/d(sim): negatives get w_k/tau, the positive -1/tau (+w_pos/tau), all over B
    c_neg = w[:, : mask.shape[1]] / (tau * B)
    c_pos = np.full(B, -1.0 / (tau * B))
    if include_positive_in_denominator:
        c_pos += w[:, -1] / (tau * B)
    d_anchor = (
        c_pos[:, None] * p_hat
        + np.einsum("bm,bmp->bp", c_neg, n_hat)
        - (c_pos * s_pos + (c_neg * s_neg).sum(axis=1))[:, None] * a_hat
    ) / n_a[:, None]
    d_positive = c_pos[:, None] * (a_hat - s_pos[:, None] * p_hat) / n_p[:, None]
    d_negatives = c_neg[:, :, None] * (a_hat[:, None, :] - s_neg[:, :, None] * n_hat) / n_n[:, :, None]
    return loss, ContrastiveGrads(d_anchor, d_positive, d_negatives)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax probability of the true class.

    Evaluated with max-subtracted log-sum-exp; returns (loss, gradient wrt
    the logits) with the 1/batch factor already applied.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes) with one label per row")
    B, C = logits.shape
    if np.any(labels < 0) or np.any(labels >= C):
        raise ValueError(f"labels out of range [0, {C})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float((lse - shifted[np.arange(B), labels]).mean())
    probs = np.exp(shifted - lse[:, None])
    grad = probs.copy()
    grad[np.arange(B), labels] -= 1.0
    return loss, grad / B


@dataclass
class MtlWeights:
    w_contrastive: float = 1.0
    w_speaker: float = 1.0
    grl_lambda: float = 1.0

    def validate(self) -> None:
        for name in ("w_contrastive", "w_speaker", "grl_lambda"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if self.w_contrastive == 0 and self.w_speaker == 0:
            raise ValueError("at least one loss weight must be > 0")


def mtl_combine(l_contrastive: float, l_speaker: float, weights: MtlWeights) -> float:
    """Weighted sum of the two task losses (the reported scalar is the same
    in adversarial mode; the reversal only affects gradient routing)."""
    weights.validate()
    return weights.w_contrastive * l_contrastive + weights.w_speaker * l_speaker
