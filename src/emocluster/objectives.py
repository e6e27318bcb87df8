"""Loss functions: the cluster-contrastive NT-Xent variant, cross-entropy,
and the multi-task combination.

The contrastive loss scores one positive against the mined negatives with
temperature-scaled cosine similarities.  By default the denominator sums
over the negatives only (the literal printed form, which can go negative);
the standard form that also includes the positive is available via a flag
and is bounded below by zero.  A zero projection has no direction and
leaves the loss.
"""

import math
from dataclasses import dataclass

import numpy as np


def ntxent_variant(proj: np.ndarray, neg_mask: np.ndarray, tau: float, include_positive_in_denominator: bool = False):
    """Per-anchor -log( exp(sim_pos/tau) / sum_k exp(sim_k/tau) ), averaged.

    proj holds a batch's projection rows: B anchors, then their B
    positives, then one negative per set slot of the (B, M) neg_mask, in
    row-major order.  The sum runs over the anchor's negatives, plus the
    positive itself when the flag is set.  Returns (loss, gradient wrt
    proj) in the same row layout.

    A projection whose norm is 0 has no direction, so it leaves the loss:
    a zero negative frees its slot, and an anchor whose own or positive
    projection is zero, or whose negatives are all zero, leaves the mean.
    Such rows get a zero gradient; with no anchor left the loss is 0.

    The batch is scored at once over the negatives' unit vectors padded
    into a (B, M, P) block; d cos(a, y)/da is the closed form
    (y_hat - cos * a_hat) / |a| on the unit vectors.
    """
    if not tau > 0:
        raise ValueError("temperature must be > 0")
    B, M = neg_mask.shape
    empty = np.flatnonzero(~neg_mask.any(axis=1))
    if empty.size:
        raise ValueError(f"anchor {empty[0]}: needs at least one negative")
    owner = np.nonzero(neg_mask)[0]  # the anchor of each negative row
    if proj.ndim != 2 or len(proj) != 2 * B + len(owner):
        raise ValueError(f"need {2 * B + len(owner)} projection rows: {B} anchors, {B} positives, one per negative slot")

    norms = np.linalg.norm(proj, axis=1)
    zero = norms == 0
    if zero.any():
        live = neg_mask.copy()
        live[neg_mask] = ~zero[2 * B :]
        keep = ~zero[:B] & ~zero[B : 2 * B] & live.any(axis=1)
        dproj = np.zeros_like(proj)
        if not keep.any():
            return 0.0, dproj
        rows = np.flatnonzero(np.concatenate([keep, keep, live[neg_mask] & keep[owner]]))
        loss, dproj[rows] = ntxent_variant(proj[rows], live[keep], tau, include_positive_in_denominator)
        return loss, dproj

    unit = proj / norms[:, None]
    a_hat, p_hat, negs_hat = unit[:B], unit[B : 2 * B], unit[2 * B :]
    n_hat = np.zeros((B, M, proj.shape[1]))  # padding stays a zero vector
    n_hat[neg_mask] = negs_hat
    s_pos = np.einsum("bp,bp->b", a_hat, p_hat)
    s_neg = np.einsum("bp,bmp->bm", a_hat, n_hat)

    scaled = np.where(neg_mask, s_neg / tau, -np.inf)
    if include_positive_in_denominator:
        scaled = np.concatenate([scaled, (s_pos / tau)[:, None]], axis=1)
    mx = scaled.max(axis=1)
    lse = mx + np.log(np.exp(scaled - mx[:, None]).sum(axis=1))
    loss = float((lse - s_pos / tau).mean())
    w = np.exp(scaled - lse[:, None])  # softmax over the denominator terms; padding gets 0

    # d(loss)/d(sim): negatives get w_k/tau, the positive -1/tau (+w_pos/tau), all over B
    c_neg = w[:, :M] / (tau * B)
    c_pos = np.full(B, -1.0 / (tau * B))
    if include_positive_in_denominator:
        c_pos += w[:, -1] / (tau * B)
    d_anchor = (
        c_pos[:, None] * p_hat
        + np.einsum("bm,bmp->bp", c_neg, n_hat)
        - (c_pos * s_pos + (c_neg * s_neg).sum(axis=1))[:, None] * a_hat
    ) / norms[:B, None]
    d_positive = c_pos[:, None] * (a_hat - s_pos[:, None] * p_hat) / norms[B : 2 * B, None]
    c, s = c_neg[neg_mask][:, None], s_neg[neg_mask][:, None]
    d_negatives = c * (a_hat[owner] - s * negs_hat) / norms[2 * B :, None]
    return loss, np.concatenate([d_anchor, d_positive, d_negatives])


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
