"""Contrastive tuple mining from intra-speaker clusters.

For every anchor utterance: one positive drawn from the anchor's own
cluster, and one negative from each of the N/2 intra-speaker clusters
whose centers lie farthest from the anchor's cluster center.  Empty
clusters in that window are replaced by the next-farthest populated ones.
"""

import json
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .clustering import ClusteringRun, SpeakerClustering, center_distances
from .corpus import Corpus
from .serialize import canonical_dumps, stable_seed


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


@dataclass
class MiningConfig:
    n_clusters_N: int = 20
    seed: int = 0
    allow_fewer_negatives: bool = True

    def validate(self) -> None:
        if self.n_clusters_N < 2:
            raise ValueError("n_clusters_N must be >= 2")
        if self.n_clusters_N % 2:
            warnings.warn(
                f"n_clusters_N={self.n_clusters_N} is odd; using floor(N/2) negatives",
                stacklevel=3,
            )

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


def mine_speaker(sc: SpeakerClustering, corpus: Corpus, config: MiningConfig, counts: Counter):
    """One speaker's tuples as corpus-row columns, anchors in utt_id order.

    Returns the anchor rows (T,), the positive rows (T,), and the (T, W)
    negative rows with their (T, W) source clusters: every anchor of a
    speaker has a window of W = min(N/2, populated clusters - 1).  Skipped
    anchors are added to `counts` under the keys `mine_tuples` reports.  An
    assignment outside [0, len(centers)) raises ValueError naming the first.
    """
    missing = [u for u in sc.assignments if u not in corpus.row_of]
    if missing:
        raise ValueError(f"clustered utterances missing from corpus: {missing[:3]}")
    utts = sorted(sc.assignments)
    members: dict[int, list[int]] = {}  # cluster -> its utterances' corpus rows, in utt_id order
    for utt_id in utts:
        cluster = sc.assignments[utt_id]
        if not 0 <= cluster < len(sc.centers):
            raise ValueError(f"utterance {utt_id!r} has cluster {cluster}, not one of the {len(sc.centers)} centers")
        members.setdefault(cluster, []).append(corpus.row_of[utt_id])
    populated = set(members)
    if len(populated) < 2:
        counts["skipped_too_few_clusters"] += len(utts)
        none = np.empty(0, dtype=np.intp)
        return none, none, none.reshape(0, 0), none.reshape(0, 0)
    # the negative window depends only on the anchor's cluster
    dists = center_distances(sc)
    window = {c: ranked_negative_clusters(dists[c], c, populated)[: config.negatives_per_anchor] for c in populated}
    window_sizes = {c: np.array([len(members[d]) for d in window[c]]) for c in populated}
    width = min(config.negatives_per_anchor, len(populated) - 1)
    position = {row: p for group in members.values() for p, row in enumerate(group)}

    anchors, positives, negatives, clusters = [], [], [], []
    for utt_id in utts:
        own = sc.assignments[utt_id]
        group = members[own]
        if len(group) == 1:
            counts["skipped_singleton"] += 1
            continue
        if not config.allow_fewer_negatives and width < config.negatives_per_anchor:
            counts["skipped_short_window"] += 1
            continue
        row = corpus.row_of[utt_id]
        rng = np.random.default_rng(stable_seed(config.seed, "mine", utt_id))
        # a uniform draw over the cluster's other members, skipping the anchor's
        # slot; then one member of each window cluster, drawn in a single call
        j = int(rng.integers(len(group) - 1))
        picks = rng.integers(window_sizes[own]).tolist()
        anchors.append(row)
        positives.append(group[j + (j >= position[row])])
        negatives.append([members[c][k] for c, k in zip(window[own], picks)])
        clusters.append(window[own])
    shape = (len(anchors), width)
    return (
        np.array(anchors, dtype=np.intp),
        np.array(positives, dtype=np.intp),
        np.array(negatives, dtype=np.intp).reshape(shape),
        np.array(clusters, dtype=np.intp).reshape(shape),
    )


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
    config.validate()
    if run.config.k != config.n_clusters_N:
        warnings.warn(
            f"clustering used k={run.config.k} but mining expects N={config.n_clusters_N}",
            stacklevel=2,
        )
    counts = Counter(emitted=0, skipped_singleton=0, skipped_too_few_clusters=0, skipped_short_window=0)
    ids = corpus.utt_ids
    tuples: list[ContrastiveTuple] = []
    for spk in sorted(run.per_speaker):
        columns = mine_speaker(run.per_speaker[spk], corpus, config, counts)
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
    with open(path, "w", encoding="utf-8") as fh:
        for t in tuples:
            fh.write(
                canonical_dumps(
                    {
                        "anchor": t.anchor,
                        "positive": t.positive,
                        "negatives": [{"utt_id": n.utt_id, "cluster": n.cluster} for n in t.negatives],
                        "spk": t.spk_id,
                    }
                )
            )
            fh.write("\n")


def load_tuples(path: str) -> list[ContrastiveTuple]:
    tuples = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8 at byte {exc.start}") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
                t = ContrastiveTuple(
                    anchor=str(obj["anchor"]),
                    positive=str(obj["positive"]),
                    negatives=[
                        Negative(utt_id=str(n["utt_id"]), cluster=int(n["cluster"]))
                        for n in obj["negatives"]
                    ],
                    spk_id=str(obj["spk"]),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed tuple line ({exc})") from exc
            _validate_tuple(t, f"{path}:{lineno}")
            tuples.append(t)
    return tuples
