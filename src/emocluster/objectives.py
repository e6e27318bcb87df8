"""Loss functions: the cluster-contrastive NT-Xent variant, cross-entropy,
and the multi-task combination.

The contrastive loss scores one positive against the mined negatives with
temperature-scaled cosine similarities.  By default the denominator sums
over the negatives only (the literal printed form, which can go negative);
the standard form that also includes the positive is available via a flag
and is bounded below by zero.
"""

from dataclasses import dataclass

import numpy as np


def cosine_sim(x, y) -> float:
    """Exactly x.y / (|x||y|)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(x @ y / (nx * ny))


def _cosine_with_grads(x: np.ndarray, y: np.ndarray):
    """sim plus its partials wrt both vectors."""
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    sim = float(x @ y / (nx * ny))
    dx = y / (nx * ny) - sim * x / (nx * nx)
    dy = x / (nx * ny) - sim * y / (ny * ny)
    return sim, dx, dy


@dataclass
class ContrastiveBatch:
    z_anchor: np.ndarray  # (B, P)
    z_positive: np.ndarray  # (B, P)
    z_negatives: list[np.ndarray]  # per anchor, (m_i, P) with m_i >= 1
    tau: float

    def validate(self) -> None:
        if self.tau <= 0:
            raise ValueError("temperature must be > 0")
        B, P = self.z_anchor.shape
        if self.z_positive.shape != (B, P):
            raise ValueError("anchor/positive shape mismatch")
        if len(self.z_negatives) != B:
            raise ValueError("one negative set per anchor required")
        for i, zn in enumerate(self.z_negatives):
            if zn.ndim != 2 or zn.shape[0] < 1 or zn.shape[1] != P:
                raise ValueError(f"anchor {i}: negatives must be a nonempty (m, {P}) array")


@dataclass
class ContrastiveGrads:
    d_anchor: np.ndarray
    d_positive: np.ndarray
    d_negatives: list[np.ndarray]


def ntxent_variant(batch: ContrastiveBatch, include_positive_in_denominator: bool = False):
    """Per-anchor -log( exp(sim_pos/tau) / sum_k exp(sim_k/tau) ), averaged.

    The sum runs over the mined negatives, plus the positive itself when
    the flag is set.  Returns (loss, analytic gradients wrt every z).
    """
    batch.validate()
    B = batch.z_anchor.shape[0]
    tau = batch.tau
    d_anchor = np.zeros_like(batch.z_anchor)
    d_positive = np.zeros_like(batch.z_positive)
    d_negatives = [np.zeros_like(zn) for zn in batch.z_negatives]

    total = 0.0
    for i in range(B):
        a = batch.z_anchor[i]
        p = batch.z_positive[i]
        negs = batch.z_negatives[i]
        s_pos, dpos_da, dpos_dp = _cosine_with_grads(a, p)
        neg_data = [_cosine_with_grads(a, negs[k]) for k in range(len(negs))]
        scores = [s for s, _, _ in neg_data]
        if include_positive_in_denominator:
            scores = scores + [s_pos]
        scaled = np.asarray(scores) / tau
        mx = scaled.max()
        lse = mx + np.log(np.exp(scaled - mx).sum())
        total += -s_pos / tau + lse
        w = np.exp(scaled - lse)  # softmax over the denominator terms

        # d(loss_i)/d(sim): negatives get w_k/tau, positive gets -1/tau (+w_pos/tau)
        coef_pos = -1.0 / tau
        if include_positive_in_denominator:
            coef_pos += w[-1] / tau
        d_anchor[i] += coef_pos * dpos_da
        d_positive[i] += coef_pos * dpos_dp
        for k, (_, dneg_da, dneg_dn) in enumerate(neg_data):
            coef = w[k] / tau
            d_anchor[i] += coef * dneg_da
            d_negatives[i][k] += coef * dneg_dn

    loss = total / B
    d_anchor /= B
    d_positive /= B
    for dn in d_negatives:
        dn /= B
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
        if self.w_contrastive < 0 or self.w_speaker < 0:
            raise ValueError("loss weights must be >= 0")
        if self.w_contrastive == 0 and self.w_speaker == 0:
            raise ValueError("at least one loss weight must be > 0")
        if self.grl_lambda < 0:
            raise ValueError("grl_lambda must be >= 0")


def mtl_combine(l_contrastive: float, l_speaker: float, weights: MtlWeights) -> float:
    """Weighted sum of the two task losses (the reported scalar is the same
    in adversarial mode; the reversal only affects gradient routing)."""
    weights.validate()
    return weights.w_contrastive * l_contrastive + weights.w_speaker * l_speaker
