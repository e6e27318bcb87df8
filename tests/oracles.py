"""Independent brute-force reference implementations used as test oracles.

Everything here is written from first principles (explicit loops, pair
enumeration, direct definitions) and deliberately shares no code with the
package under test.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np


def brute_contingency(clusters, labels):
    counts = Counter(zip(clusters, labels))
    rows = sorted({c for c, _ in counts}, key=str)
    cols = sorted({l for _, l in counts}, key=str)
    return rows, cols, counts


def brute_nmi(clusters, labels):
    """NMI over the arithmetic mean of the two entropies."""
    n = len(clusters)
    rows, cols, counts = brute_contingency(clusters, labels)
    row_tot = Counter(clusters)
    col_tot = Counter(labels)

    def entropy(totals):
        h = 0.0
        for v in totals.values():
            p = v / n
            h -= p * math.log(p)
        return h

    h_c = entropy(row_tot)
    h_t = entropy(col_tot)
    if h_c == 0.0 or h_t == 0.0:
        return 1.0 if h_c == h_t == 0.0 else 0.0
    mi = 0.0
    for r in rows:
        for c in cols:
            nij = counts.get((r, c), 0)
            if nij:
                mi += (nij / n) * math.log(nij * n / (row_tot[r] * col_tot[c]))
    return min(1.0, max(0.0, mi / ((h_c + h_t) / 2.0)))


def brute_ari(clusters, labels):
    """ARI via exhaustive enumeration of all item pairs."""
    n = len(clusters)
    a = b = c = d = 0
    for i, j in combinations(range(n), 2):
        same_cluster = clusters[i] == clusters[j]
        same_label = labels[i] == labels[j]
        if same_cluster and same_label:
            a += 1
        elif same_cluster:
            b += 1
        elif same_label:
            c += 1
        else:
            d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def brute_purity(clusters, labels):
    per_cluster = {}
    for cl, lab in zip(clusters, labels):
        per_cluster.setdefault(cl, []).append(lab)
    return sum(Counter(v).most_common(1)[0][1] for v in per_cluster.values()) / len(clusters)


def brute_silhouette(points, clusters):
    """O(n^2) silhouette with explicit loops and math.dist."""
    points = [list(map(float, p)) for p in points]
    n = len(points)
    uniq = sorted(set(clusters), key=str)
    members = {u: [i for i in range(n) if clusters[i] == u] for u in uniq}
    total = 0.0
    for i in range(n):
        own = members[clusters[i]]
        if len(own) == 1:
            continue
        a = sum(math.dist(points[i], points[j]) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(math.dist(points[i], points[j]) for j in members[u]) / len(members[u])
            for u in uniq
            if u != clusters[i]
        )
        if max(a, b) > 0.0:
            total += (b - a) / max(a, b)
    return total / n


def enumerate_contingency_tables(n, max_rows=3, max_cols=3):
    """All nonnegative integer tables (as row tuples) summing to n.

    NMI/ARI/purity depend only on this table, so enumerating tables covers
    every labeled partition pair up to item order and relabeling.
    """
    cells = max_rows * max_cols

    def fill(remaining, cells_left):
        if cells_left == 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in fill(remaining - v, cells_left - 1):
                yield (v,) + rest

    for flat in fill(n, cells):
        yield tuple(flat[i * max_cols : (i + 1) * max_cols] for i in range(max_rows))


def table_to_pair(table):
    """Expand a contingency table into explicit (clusters, labels) lists."""
    clusters, labels = [], []
    for r, row in enumerate(table):
        for c, count in enumerate(row):
            clusters.extend([r] * count)
            labels.extend([c] * count)
    return clusters, labels


def longdouble_ntxent(sim_pos, sim_negs, tau, include_positive):
    """Extended-precision scalar evaluation of the contrastive loss."""
    ld = np.longdouble
    sp = ld(sim_pos) / ld(tau)
    terms = [ld(s) / ld(tau) for s in sim_negs]
    if include_positive:
        terms = terms + [sp]
    denom = sum(np.exp(t) for t in terms)
    return float(-(sp - np.log(denom)))


def _cosine_with_grads(x, y):
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    sim = float(x @ y / (nx * ny))
    return sim, y / (nx * ny) - sim * x / (nx * nx), x / (nx * ny) - sim * y / (ny * ny)


def loop_ntxent(z_anchor, z_positive, z_negatives, tau, include_positive):
    """The contrastive loss and its gradients, one anchor and one pair at a time.

    Returns (loss, d_anchor, d_positive, [d_negatives per anchor]).
    """
    B = len(z_anchor)
    d_anchor = np.zeros_like(z_anchor)
    d_positive = np.zeros_like(z_positive)
    d_negatives = [np.zeros_like(zn) for zn in z_negatives]
    total = 0.0
    for i in range(B):
        s_pos, dpos_da, dpos_dp = _cosine_with_grads(z_anchor[i], z_positive[i])
        neg_data = [_cosine_with_grads(z_anchor[i], n) for n in z_negatives[i]]
        scores = [s for s, _, _ in neg_data] + ([s_pos] if include_positive else [])
        scaled = np.asarray(scores) / tau
        mx = scaled.max()
        lse = mx + math.log(np.exp(scaled - mx).sum())
        w = np.exp(scaled - lse)
        if include_positive:
            # log(1 + sum_k exp((s_k - s_pos)/tau)) as log1p, and -1 + w_pos as minus the
            # negatives' weights: both keep their digits when the positive dominates
            total += math.log1p(np.exp((np.asarray(scores[:-1]) - s_pos) / tau).sum())
            coef_pos = -w[:-1].sum() / tau
        else:
            total += -s_pos / tau + lse
            coef_pos = -1.0 / tau
        d_anchor[i] += coef_pos * dpos_da
        d_positive[i] += coef_pos * dpos_dp
        for k, (_, dneg_da, dneg_dn) in enumerate(neg_data):
            d_anchor[i] += w[k] / tau * dneg_da
            d_negatives[i][k] += w[k] / tau * dneg_dn
    return total / B, d_anchor / B, d_positive / B, [dn / B for dn in d_negatives]


def exact_kmeanspp_init(points, k, rng):
    """k-means++ seeding with every D^2 weight an exact sum((x - c)^2).

    Each next center is drawn by the inverse CDF: one rng.random() searched
    (side="right") in the cumulative sum of D^2 / sum(D^2), renormalized so
    its last entry is 1.  When every weight is 0 the draw is uniform.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(0, n)]
    diff = points - centers[0]
    closest = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        centers[c] = points[idx]
        diff = points - centers[c]
        closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
    return centers


def farthest_window(centers, assignments, own, m):
    """The negative window of cluster `own`: of the clusters some utterance is
    assigned to, the m other than `own` whose centers lie farthest from its
    center, each distance the square root of an explicit sum of squares, ties
    broken by ascending cluster index."""
    dist = {
        c: math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(centers[own], centers[c])))
        for c in set(assignments.values())
        if c != own
    }
    return sorted(dist, key=lambda c: (-dist[c], c))[:m]


def tuple_pool(tuples, corpus):
    """The training pool a ContrastiveTuple list describes, built tuple by
    tuple: anchor rows, positive rows, the (T, M) negative rows with each
    tuple's negatives left-aligned, and each tuple's negative count.  Each
    anchor's speaker is its corpus row's, as pretraining reads it."""
    width = max(len(t.negatives) for t in tuples)
    negatives = np.zeros((len(tuples), width), dtype=np.intp)
    mask = np.zeros((len(tuples), width), dtype=bool)
    for i, t in enumerate(tuples):
        for j, negative in enumerate(t.negatives):
            negatives[i, j] = corpus.row_of[negative.utt_id]
            mask[i, j] = True
    anchors = np.array([corpus.row_of[t.anchor] for t in tuples], dtype=np.intp)
    positives = np.array([corpus.row_of[t.positive] for t in tuples], dtype=np.intp)
    assert [corpus.spk_ids[row] for row in anchors] == [t.spk_id for t in tuples]
    return anchors, positives, negatives, mask.sum(axis=1)
