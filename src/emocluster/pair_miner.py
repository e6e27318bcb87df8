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


def mine_speaker(sc: SpeakerClustering, spk_id: str, corpus: Corpus, config: MiningConfig):
    """One speaker's tuples as corpus-row columns, anchors in utt_id order.

    Returns the anchor rows (T,), the positive rows (T,), the (T, W)
    negative rows with their (T, W) source clusters, and a Counter of the
    anchors skipped, under the keys `mine_tuples` reports.  One stable sort
    ranks every cluster's window: the populated clusters other than its own,
    farthest center first, ties by ascending index, cut to W = min(N/2,
    populated clusters - 1).  Each anchor draws its positive's and negatives'
    member indices with one `integers` call, seeded by its utt_id alone.  A
    clustering that does not fit the corpus raises speaker_rows' ValueError.
    """
    rows, clusters = speaker_rows(sc, spk_id, corpus)
    rows, clusters = np.array(rows, dtype=np.intp), np.array(clusters, dtype=np.intp)
    sizes = np.bincount(clusters, minlength=len(sc.centers))
    populated = np.count_nonzero(sizes)
    skips = Counter()
    if populated < 2:
        skips["skipped_too_few_clusters"] = len(rows)
        none = np.empty(0, dtype=np.intp)
        return none, none, none.reshape(0, 0), none.reshape(0, 0), skips
    # table[c, p]: corpus row of cluster c's p-th member in utt_id order (-1 pads)
    order = np.argsort(clusters, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[clusters[order]]
    table = np.full((len(sizes), sizes.max()), -1, dtype=np.intp)
    table[clusters, rank] = rows
    # window[c]: farthest first, with the own and the empty clusters sorted last
    key = -center_distances(sc)
    key[:, sizes == 0] = np.inf
    np.fill_diagonal(key, np.inf)
    window = np.argsort(key, axis=1, kind="stable")[:, : min(config.negatives_per_anchor, populated - 1)]

    eligible = sizes[clusters] > 1
    skips["skipped_singleton"] = len(rows) - int(eligible.sum())
    if not config.allow_fewer_negatives and window.shape[1] < config.negatives_per_anchor:
        skips["skipped_short_window"] = int(eligible.sum())
        eligible[:] = False
    anchors, own = rows[eligible], clusters[eligible]
    # per anchor, one seeded call draws a member index under each of its bounds:
    # its cluster's other members (the positive skips the anchor's slot), then
    # each window cluster's size
    sources = window[own]
    members = np.column_stack([own, sources])
    bounds = sizes[members]
    bounds[:, 0] -= 1
    draws = np.empty_like(bounds)
    ids = corpus.utt_ids
    for t, row in enumerate(anchors.tolist()):
        draws[t] = np.random.default_rng(stable_seed(config.seed, "mine", ids[row])).integers(bounds[t])
    draws[:, 0] += draws[:, 0] >= rank[eligible]
    picked = table[members, draws]
    return anchors, picked[:, 0], picked[:, 1:], sources, skips


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
        *columns, skips = mine_speaker(run.per_speaker[spk], spk, corpus, config)
        counts.update(skips)
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
