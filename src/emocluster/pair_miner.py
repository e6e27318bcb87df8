"""Contrastive tuple mining from intra-speaker clusters.

For every anchor utterance: one positive drawn from the anchor's own
cluster, and one negative from each of the N/2 intra-speaker clusters
whose centers lie farthest from the anchor's cluster center.  Empty
clusters in that window are replaced by the next-farthest populated ones.
"""

import dataclasses
import sys
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .clustering import ClusteringRun, SpeakerClustering, center_distances, speaker_rows
from .corpus import Corpus
from .serialize import json_typed, read_jsonl, stable_seed, write_jsonl


@dataclass
class Negative:
    utt_id: str
    cluster: int


@dataclass
class ContrastiveTuple:
    anchor: str
    positive: str
    negatives: list[Negative]
    spk_id: str


@dataclass(frozen=True)
class MiningConfig:
    n_clusters_N: int = 20
    seed: int = 0
    allow_fewer_negatives: bool = True

    def __post_init__(self) -> None:
        if self.n_clusters_N < 2:
            raise ValueError("n_clusters_N must be >= 2")
        if self.n_clusters_N % 2:
            # name the caller's line: past the generated __init__, and past
            # dataclasses.replace when the config came from it
            frame, level = sys._getframe(2), 3
            while frame.f_code.co_filename == dataclasses.__file__:
                frame, level = frame.f_back, level + 1
            warnings.warn(f"n_clusters_N={self.n_clusters_N} is odd; using floor(N/2) negatives", stacklevel=level)

    @property
    def negatives_per_anchor(self) -> int:
        return self.n_clusters_N // 2


def ranked_negative_clusters(dist_row: np.ndarray, own_cluster: int, populated: set[int]) -> list[int]:
    """Populated clusters other than the anchor's, farthest center first.

    Ties in distance break by ascending cluster index so the ranking is
    deterministic.
    """
    others = [c for c in range(len(dist_row)) if c != own_cluster and c in populated]
    return sorted(others, key=lambda c: (-dist_row[c], c))


def mine_speaker(sc: SpeakerClustering, spk_id: str, corpus: Corpus, config: MiningConfig, counts: Counter):
    """One speaker's tuples as corpus-row columns, anchors in utt_id order.

    Returns the anchor rows (T,), the positive rows (T,), and the (T, W)
    negative rows with their (T, W) source clusters: every anchor of a
    speaker has a window of W = min(N/2, populated clusters - 1).  Skipped
    anchors are added to `counts` under the keys `mine_tuples` reports.  A
    clustering that does not fit the corpus raises speaker_rows' ValueError.
    """
    rows, clusters = speaker_rows(sc, spk_id, corpus)
    rows, clusters = np.array(rows, dtype=np.intp), np.array(clusters, dtype=np.intp)
    sizes = np.bincount(clusters, minlength=len(sc.centers))
    populated = set(np.flatnonzero(sizes).tolist())
    if len(populated) < 2:
        counts["skipped_too_few_clusters"] += len(rows)
        none = np.empty(0, dtype=np.intp)
        return none, none, none.reshape(0, 0), none.reshape(0, 0)
    # table[c, p]: corpus row of cluster c's p-th member in utt_id order (-1 pads)
    order = np.argsort(clusters, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[clusters[order]]
    table = np.full((len(sizes), sizes.max()), -1, dtype=np.intp)
    table[clusters, rank] = rows
    # the negative window depends only on the anchor's cluster; every window has the same width
    width = min(config.negatives_per_anchor, len(populated) - 1)
    dists = center_distances(sc)
    window = np.zeros((len(sizes), width), dtype=np.intp)
    for c in populated:
        window[c] = ranked_negative_clusters(dists[c], c, populated)[: config.negatives_per_anchor]
    window_sizes = sizes[window]

    eligible = sizes[clusters] > 1
    counts["skipped_singleton"] += len(rows) - int(eligible.sum())
    if not config.allow_fewer_negatives and width < config.negatives_per_anchor:
        counts["skipped_short_window"] += int(eligible.sum())
        eligible[:] = False
    anchors, own = rows[eligible], clusters[eligible]
    # per anchor: a uniform draw over its cluster's other members, skipping the
    # anchor's slot; then one member of each window cluster, in a single call
    draws = np.empty((len(anchors), 1 + width), dtype=np.intp)
    ids = corpus.utt_ids
    for t, (row, c, others) in enumerate(zip(anchors.tolist(), own.tolist(), (sizes[own] - 1).tolist())):
        rng = np.random.default_rng(stable_seed(config.seed, "mine", ids[row]))
        draws[t, 0] = rng.integers(others)
        draws[t, 1:] = rng.integers(window_sizes[c])
    draws[:, 0] += draws[:, 0] >= rank[eligible]
    sources = window[own]
    picked = table[np.column_stack([own, sources]), draws]
    return anchors, picked[:, 0], picked[:, 1:], sources


def mine_tuples(
    run: ClusteringRun,
    corpus: Corpus,
    config: MiningConfig,
    report: dict | None = None,
) -> list[ContrastiveTuple]:
    """Build one tuple per eligible anchor, ordered by (spk_id, utt_id).

    Anchors in singleton clusters (no valid positive) are skipped, as are
    all anchors of speakers with fewer than 2 populated clusters; counts
    land in `report` when a dict is supplied.
    """
    if run.config.k != config.n_clusters_N:
        warnings.warn(
            f"clustering used k={run.config.k} but mining expects N={config.n_clusters_N}",
            stacklevel=2,
        )
    counts = Counter(emitted=0, skipped_singleton=0, skipped_too_few_clusters=0, skipped_short_window=0)
    ids = corpus.utt_ids
    tuples: list[ContrastiveTuple] = []
    for spk in sorted(run.per_speaker):
        columns = mine_speaker(run.per_speaker[spk], spk, corpus, config, counts)
        for anchor, positive, negatives, clusters in zip(*(c.tolist() for c in columns)):
            tuples.append(
                ContrastiveTuple(
                    anchor=ids[anchor],
                    positive=ids[positive],
                    negatives=[Negative(utt_id=ids[n], cluster=c) for n, c in zip(negatives, clusters)],
                    spk_id=spk,
                )
            )
    counts["emitted"] = len(tuples)
    if report is not None:
        report.update(counts)
    return tuples


def _validate_tuple(t: ContrastiveTuple, where: str) -> None:
    if t.anchor == t.positive:
        raise ValueError(f"{where}: anchor equals positive ({t.anchor!r})")
    if not t.negatives:
        raise ValueError(f"{where}: tuple has no negatives")
    clusters = [n.cluster for n in t.negatives]
    if len(set(clusters)) != len(clusters):
        raise ValueError(f"{where}: negative source clusters are not pairwise distinct")


def save_tuples(tuples: list[ContrastiveTuple], path: str) -> None:
    write_jsonl(
        path,
        (
            {
                "anchor": t.anchor,
                "positive": t.positive,
                "negatives": [{"utt_id": n.utt_id, "cluster": n.cluster} for n in t.negatives],
                "spk": t.spk_id,
            }
            for t in tuples
        ),
    )


def load_tuples(path: str) -> list[ContrastiveTuple]:
    tuples = []
    for lineno, obj in read_jsonl(path):
        try:
            t = ContrastiveTuple(
                anchor=json_typed(obj["anchor"], str),
                positive=json_typed(obj["positive"], str),
                negatives=[
                    Negative(utt_id=json_typed(n["utt_id"], str), cluster=json_typed(n["cluster"], int))
                    for n in json_typed(obj["negatives"], list)
                ],
                spk_id=json_typed(obj["spk"], str),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed tuple line ({exc})") from exc
        _validate_tuple(t, f"{path}:{lineno}")
        tuples.append(t)
    return tuples
