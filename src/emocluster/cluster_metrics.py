"""Agreement and cohesion metrics between intra-speaker clusters and emotion labels.

NMI, ARI, and purity compare the cluster assignment of each utterance with
its emotion label via the contingency table; silhouette measures geometric
cohesion/separation of the clusters themselves.  All four are reported per
speaker and averaged uniformly over speakers.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import GRAM_RECHECK, ClusteringRun, speaker_rows
from .corpus import Corpus
from .parallel import fork_map
from .serialize import aligned_table

METRIC_NAMES = ("nmi", "ari", "purity", "silhouette")

SILHOUETTE_BLOCK = 1 << 20  # floats of silhouette temporaries at once (8 MB)


@dataclass
class ClusterMetricsReport:
    per_speaker: dict[str, dict[str, float | None]]
    averages: dict[str, float | None]  # None when no speaker contributes


def _check_pair(cluster_labels, true_labels):
    if len(cluster_labels) != len(true_labels):
        raise ValueError(
            f"length mismatch: {len(cluster_labels)} cluster labels vs {len(true_labels)} true labels"
        )
    if len(cluster_labels) < 1:
        raise ValueError("empty partition pair")


def contingency_table(cluster_labels, true_labels) -> np.ndarray:
    """Counts matrix, rows = clusters, cols = true labels (sorted value order)."""
    _check_pair(cluster_labels, true_labels)
    rows = {v: i for i, v in enumerate(sorted(set(cluster_labels), key=str))}
    cols = {v: i for i, v in enumerate(sorted(set(true_labels), key=str))}
    table = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for c, t in zip(cluster_labels, true_labels):
        table[rows[c], cols[t]] += 1
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(cluster_labels, true_labels) -> float:
    """Normalized mutual information in [0, 1], over the arithmetic mean of
    the two entropies.

    Single-class convention: 1 if both partitions are single-class, 0 if
    only one of them is (avoids 0/0 in the normalizer).
    """
    table = contingency_table(cluster_labels, true_labels)
    n = int(table.sum())
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_c = _entropy(a, n)
    h_t = _entropy(b, n)
    if h_c == 0.0 or h_t == 0.0:
        return 1.0 if h_c == 0.0 and h_t == 0.0 else 0.0

    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                mi += (nij / n) * np.log(nij * n / (a[i] * b[j]))
    return float(min(1.0, max(0.0, mi / (0.5 * (h_c + h_t)))))


def _comb2(m: int) -> int:
    return m * (m - 1) // 2


def ari(cluster_labels, true_labels) -> float:
    """Adjusted Rand index via the pair-counting contingency formula."""
    _check_pair(cluster_labels, true_labels)
    if len(cluster_labels) < 2:
        raise ValueError("ari needs at least 2 items")
    table = contingency_table(cluster_labels, true_labels)
    n = int(table.sum())
    sum_ij = sum(_comb2(int(v)) for v in table.flat)
    sum_a = sum(_comb2(int(v)) for v in table.sum(axis=1))
    sum_b = sum(_comb2(int(v)) for v in table.sum(axis=0))
    total = _comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # both partitions trivial (one class, or all singletons): perfect agreement
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def purity(cluster_labels, true_labels) -> float:
    """Fraction of items in their cluster's majority emotion."""
    table = contingency_table(cluster_labels, true_labels)
    return float(table.max(axis=1).sum() / table.sum())


def silhouette(points, cluster_labels) -> float:
    """Mean silhouette with Euclidean distances.

    Points in singleton clusters score 0, as do points where both the
    intra- and nearest-other-cluster mean distances vanish.

    Squared distances come from the Gram form |x|^2 + |y|^2 - 2 x.y, one
    matrix product per row block.  Pairs whose value falls below
    GRAM_RECHECK * (|x|^2 + |y|^2) -- always the diagonal and any
    duplicates -- are recomputed exactly as sum((x - y)^2), so identical
    points are at distance exactly 0 and any other pair loses at most about
    two decimal digits to cancellation.  The row blocks and the recheck
    chunks keep all temporaries within ~SILHOUETTE_BLOCK floats.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = list(cluster_labels)
    if len(labels) != points.shape[0]:
        raise ValueError("points and cluster_labels are misaligned")
    uniq = sorted(set(labels), key=str)
    if len(uniq) < 2:
        raise ValueError("silhouette undefined: fewer than 2 clusters")

    code = {c: i for i, c in enumerate(uniq)}
    codes = np.array([code[l] for l in labels])
    order = np.argsort(codes, kind="stable")
    pts, codes = points[order], codes[order]
    counts = np.bincount(codes)
    starts = np.searchsorted(codes, np.arange(len(uniq)))
    n, dim = pts.shape
    sq = np.einsum("ij,ij->i", pts, pts)
    # each (rows, n) block takes 1/8 of the budget, each (pairs, dim) recheck gather 1/4
    rows = max(1, (SILHOUETTE_BLOCK >> 3) // n)
    pairs = max(1, (SILHOUETTE_BLOCK >> 2) // max(dim, 1))

    sorted_scores = np.zeros(n)
    for lo in range(0, n, rows):
        blk = pts[lo : lo + rows]
        dist = blk @ pts.T
        dist *= -2.0
        scale = np.add.outer(sq[lo : lo + rows], sq)
        dist += scale
        scale *= GRAM_RECHECK
        near_i, near_j = np.nonzero(dist <= scale)
        del scale  # freed before the recheck gathers
        for c in range(0, len(near_i), pairs):
            i, j = near_i[c : c + pairs], near_j[c : c + pairs]
            diff = blk[i]
            diff -= pts[j]
            dist[i, j] = np.einsum("ij,ij->i", diff, diff)
        sums = np.add.reduceat(np.sqrt(dist, out=dist), starts, axis=1)
        own = codes[lo : lo + rows]
        local = np.arange(len(own))
        size = counts[own]
        a = sums[local, own] / np.maximum(size - 1, 1)
        means = sums / counts
        means[local, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        np.divide(b - a, denom, out=sorted_scores[lo : lo + rows], where=(size > 1) & (denom > 0.0))
    return float(sorted_scores[np.argsort(order)].mean())  # mean in input order


def _score_speaker(run: ClusteringRun, spk: str, corpus: Corpus) -> dict[str, float | None] | None:
    """One speaker's four metrics over its labeled utterances; None when
    fewer than 2 remain.  Warns as evaluate_run says."""
    rows, clusters = speaker_rows(run.per_speaker[spk], spk, corpus)
    labeled = [i for i, row in enumerate(rows) if corpus.emotions[row] is not None]
    unlabeled = len(rows) - len(labeled)
    if unlabeled:
        warnings.warn(f"speaker {spk!r}: {unlabeled} utterance(s) without an emotion label excluded", stacklevel=2)
    rows, clusters = [rows[i] for i in labeled], [clusters[i] for i in labeled]
    emotions = [corpus.emotions[row] for row in rows]
    if len(clusters) < 2:
        warnings.warn(f"speaker {spk!r} has < 2 labeled utterances; dropped", stacklevel=2)
        return None
    entry: dict[str, float | None] = {
        "nmi": nmi(clusters, emotions),
        "ari": ari(clusters, emotions),
        "purity": purity(clusters, emotions),
    }
    if len(set(clusters)) >= 2:
        entry["silhouette"] = silhouette(corpus.vectors[rows], clusters)
    else:
        warnings.warn(f"speaker {spk!r}: single cluster in labeled subset; silhouette omitted", stacklevel=2)
        entry["silhouette"] = None
    return entry


def evaluate_run(run: ClusteringRun, corpus: Corpus) -> ClusterMetricsReport:
    """All four metrics per speaker plus unweighted speaker averages.  A
    clustering that does not fit the corpus raises speaker_rows' ValueError.

    Utterances without an emotion label are excluded, with one warning per
    speaker that counts them; a speaker left with fewer than 2 labeled
    utterances is dropped from the averages.  Silhouette is omitted for
    speakers whose labeled subset covers fewer than 2 clusters.  An average
    no speaker contributes to (e.g. on an unlabeled corpus) is None.  Each
    speaker is one fork_map job, so the report and its warnings are the same
    for any worker count.
    """
    speakers = sorted(run.per_speaker)
    # the lambda shares the fork_map call's line, so a warning names that line from either path
    entries = fork_map(lambda spk: _score_speaker(run, spk, corpus), speakers)
    per_speaker = {spk: entry for spk, entry in zip(speakers, entries) if entry is not None}

    averages = {}
    for name in METRIC_NAMES:
        values = [m[name] for m in per_speaker.values() if m[name] is not None]
        averages[name] = float(np.mean(values)) if values else None
    return ClusterMetricsReport(per_speaker=per_speaker, averages=averages)


def report_to_dict(report: ClusterMetricsReport) -> dict:
    return {
        "per_speaker": {
            spk: {k: (None if v is None else float(v)) for k, v in metrics.items()}
            for spk, metrics in report.per_speaker.items()
        },
        "averages": {k: (None if v is None else float(v)) for k, v in report.averages.items()},
        "speakers_averaged": {
            name: sum(m[name] is not None for m in report.per_speaker.values()) for name in METRIC_NAMES
        },
    }


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def report_to_table(report: ClusterMetricsReport) -> str:
    """Aligned plain-text table, columns NMI / ARI / Purity / Silhouette."""
    header = ["speaker", "NMI", "ARI", "Purity", "Silhouette"]
    rows = []
    for spk in sorted(report.per_speaker):
        m = report.per_speaker[spk]
        rows.append([spk] + [_cell(m[name]) for name in METRIC_NAMES])
    rows.append(["average"] + [_cell(report.averages[name]) for name in METRIC_NAMES])
    return aligned_table(header, rows)
