"""Contrastive tuple mining from intra-speaker clusters.

For every anchor utterance: one positive drawn from the anchor's own
cluster, and one negative from each of the N/2 intra-speaker clusters
whose centers lie farthest from the anchor's cluster center.  Empty
clusters in that window are replaced by the next-farthest populated ones.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusteringRun, center_distances
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
    counts = {"emitted": 0, "skipped_singleton": 0, "skipped_too_few_clusters": 0, "skipped_short_window": 0}
    m_target = config.negatives_per_anchor

    tuples: list[ContrastiveTuple] = []
    for spk in sorted(run.per_speaker):
        sc = run.per_speaker[spk]
        missing = [u for u in sc.assignments if u not in corpus.row_of]
        if missing:
            raise ValueError(f"clustered utterances missing from corpus: {missing[:3]}")
        utts = sorted(sc.assignments)
        members: dict[int, list[str]] = {}
        for utt_id in utts:
            members.setdefault(sc.assignments[utt_id], []).append(utt_id)
        populated = set(members)
        if len(populated) < 2:
            counts["skipped_too_few_clusters"] += len(utts)
            continue
        # the negative window depends only on the anchor's cluster
        dists = center_distances(sc)
        window = {c: ranked_negative_clusters(dists[c], c, populated)[:m_target] for c in populated}
        position = {u: p for group in members.values() for p, u in enumerate(group)}
        for utt_id in utts:
            own = sc.assignments[utt_id]
            if len(members[own]) == 1:
                counts["skipped_singleton"] += 1
                continue
            selected = window[own]
            if not config.allow_fewer_negatives and len(selected) < m_target:
                counts["skipped_short_window"] += 1
                continue
            rng = np.random.default_rng(stable_seed(config.seed, "mine", utt_id))
            # a uniform draw over the cluster's other members, skipping the anchor's slot
            j = int(rng.integers(len(members[own]) - 1))
            positive = members[own][j + (j >= position[utt_id])]
            negatives = [
                Negative(utt_id=members[c][int(rng.integers(len(members[c])))], cluster=c)
                for c in selected
            ]
            tuples.append(ContrastiveTuple(anchor=utt_id, positive=positive, negatives=negatives, spk_id=spk))
            counts["emitted"] += 1
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
