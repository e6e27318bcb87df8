"""Per-speaker k-means over length-normalized embeddings.

Lloyd iterations with k-means++ seeding and multiple restarts; squared
Euclidean distance, which on unit-norm vectors orders pairs identically to
cosine distance.  All randomness is derived from explicit seeds so results
are reproducible and independent of speaker iteration order.

The kernel costs little beyond its matrix products.  Distances take the
Gram form |x|^2 - 2 x.c + |c|^2, with the points' squared norms computed
once for the seeding and once for the Lloyd run of each restart: one
matrix product per Lloyd iteration, one matrix-vector product per
seeding center.  The seeding's D^2 weights recompute every value at or
below GRAM_RECHECK * (|x|^2 + |c|^2) exactly, so chosen points and their
duplicates weigh exactly 0.  The center update sorts the points by
cluster once per iteration and averages contiguous slices, which is bit
for bit the masked per-cluster mean.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import Corpus, warn_if_unnormalized
from .serialize import stable_seed

# Gram-form squared distances at or below this fraction of |x|^2 + |y|^2 may
# have lost most of their digits to cancellation; they are recomputed exactly.
GRAM_RECHECK = 1e-2


@dataclass
class KMeansConfig:
    k: int = 4
    max_iters: int = 300
    tol: float = 1e-6
    n_restarts: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1 or self.n_restarts < 1:
            raise ValueError("max_iters and n_restarts must be >= 1")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


@dataclass
class SpeakerClustering:
    assignments: dict[str, int]  # utt_id -> cluster index
    centers: np.ndarray  # (effective_k, dim)
    inertia: float
    effective_k: int
    seed_used: int


@dataclass
class ClusteringRun:
    per_speaker: dict[str, SpeakerClustering]
    config: KMeansConfig = field(default_factory=KMeansConfig)


def _row_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _gram_sq_dists(points: np.ndarray, points_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centers), as |x|^2 - 2 x.c + |c|^2,
    given the points' squared norms.

    The Gram form needs no (n, k, dim) tensor; clamping at 0 undoes cancellation.
    """
    d = points_sq[:, None] - 2.0 * (points @ centers.T)
    d += _row_sq(centers)[None, :]
    return np.maximum(d, 0.0, out=d)


def _sq_dists_to_row(points: np.ndarray, points_sq: np.ndarray, i: int) -> np.ndarray:
    """Squared distances from every point to points[i]: Gram form, with each
    value at or below GRAM_RECHECK * (|x|^2 + |c|^2) recomputed exactly as
    sum((x - c)^2).  That set always holds row i and its duplicates, which
    therefore come out exactly 0."""
    center = points[i]
    d = points @ center
    d *= -2.0
    d += points_sq
    d += points_sq[i]
    near = np.flatnonzero(d <= GRAM_RECHECK * (points_sq + points_sq[i]))
    diff = points[near] - center
    d[near] = _row_sq(diff)
    return d


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center is a point drawn with probability
    proportional to its squared distance to the nearest center so far (D^2).

    The draw is the inverse CDF that Generator.choice(n, p=D^2 / sum) takes,
    one rng.random() against the normalized cumulative sum, without
    choice's per-call validation.
    """
    n = points.shape[0]
    points_sq = _row_sq(points)
    chosen = [int(rng.integers(0, n))]
    closest = np.full(n, np.inf)
    for _ in range(1, k):
        np.minimum(closest, _sq_dists_to_row(points, points_sq, chosen[-1]), out=closest)
        total = closest.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(0, n)))
            continue
        cdf = np.cumsum(closest / total)
        cdf /= cdf[-1]
        chosen.append(int(cdf.searchsorted(rng.random(), side="right")))
    return points[chosen]


def _lloyd(points: np.ndarray, init_centers: np.ndarray, max_iters: int, tol: float):
    centers = init_centers.copy()
    k = centers.shape[0]
    points_sq = _row_sq(points)
    assign = np.argmin(_gram_sq_dists(points, points_sq, centers), axis=1)
    for _ in range(max_iters):
        # each cluster's members as one contiguous slice, in point order, so
        # slice.sum / count is bit for bit the masked members.mean(axis=0)
        counts = np.bincount(assign, minlength=k)
        ends = np.cumsum(counts)
        grouped = points[np.argsort(assign, kind="stable")]
        new_centers = centers.copy()
        for c in np.flatnonzero(counts):
            new_centers[c] = grouped[ends[c] - counts[c] : ends[c]].sum(axis=0) / counts[c]
        # empty-cluster repair: farthest point from its center becomes a singleton
        if not counts.all():
            # one ranking serves every empty cluster: a repair only moves the
            # picked point, which `taken` already excludes
            diff = points - new_centers[assign]
            order = np.argsort(-_row_sq(diff), kind="stable")
            taken: set[int] = set()
            for c in np.flatnonzero(counts == 0):
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                new_centers[c] = points[pick]
                assign[pick] = c
        shift = np.linalg.norm(new_centers - centers, axis=1)
        scale = 1.0 + np.linalg.norm(centers, axis=1)
        converged = bool(np.all(shift < tol * scale))
        centers = new_centers
        assign = np.argmin(_gram_sq_dists(points, points_sq, centers), axis=1)
        if converged:
            break
    residual = points - centers[assign]
    inertia = float(_row_sq(residual).sum())
    return assign, centers, inertia


def kmeans(points, config: KMeansConfig):
    """Best-of-restarts k-means.

    Returns (assignments, centers, inertia); assignments map each point to
    its nearest returned center.  When k exceeds the number of distinct
    points, runs with that smaller count instead (degrade rule).
    """
    config.validate()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    n_distinct = len(np.unique(points, axis=0))
    k = min(config.k, n_distinct)

    if k == 1:
        center = points.mean(axis=0, keepdims=True)
        assign = np.zeros(len(points), dtype=np.intp)
        inertia = float(((points - center) ** 2).sum())
        return assign, center, inertia

    best = None
    for restart in range(config.n_restarts):
        rng = np.random.default_rng(stable_seed(config.seed, "kmeans", restart))
        init = _kmeanspp_init(points, k, rng)
        assign, centers, inertia = _lloyd(points, init, config.max_iters, config.tol)
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia)
    return best


def cluster_speaker(spk_id: str, utt_ids: list[str], points: np.ndarray, config: KMeansConfig) -> SpeakerClustering:
    seed = stable_seed(config.seed, "speaker", spk_id)
    assign, centers, inertia = kmeans(points, replace(config, seed=seed))
    # kmeans runs with min(k, distinct points) centers
    if len(centers) < config.k:
        warnings.warn(
            f"speaker {spk_id!r}: k={config.k} exceeds its {len(centers)} distinct points"
            f" (of {len(points)}); degrading",
            stacklevel=3,
        )
    effective_k = int(len(np.unique(assign)))
    return SpeakerClustering(
        assignments={u: int(a) for u, a in zip(utt_ids, assign)},
        centers=centers,
        inertia=inertia,
        effective_k=effective_k,
        seed_used=seed,
    )


def cluster_speakers(corpus: Corpus, config: KMeansConfig) -> ClusteringRun:
    """Independent k-means per speaker; results keyed by speaker id."""
    config.validate()
    warn_if_unnormalized(corpus, "cluster_speakers")
    per_speaker = {}
    for spk_id, indices in corpus.speakers.items():
        # canonical utt_id order makes results independent of record order
        ordered = sorted(indices, key=corpus.utt_ids.__getitem__)
        utt_ids = [corpus.utt_ids[i] for i in ordered]
        per_speaker[spk_id] = cluster_speaker(spk_id, utt_ids, corpus.vectors[ordered], config)
    return ClusteringRun(per_speaker=per_speaker, config=config)


def center_distances(clustering: SpeakerClustering) -> np.ndarray:
    """Symmetric matrix of Euclidean distances between cluster centers."""
    diff = clustering.centers[:, None, :] - clustering.centers[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


# ---------------------------------------------------------------- serialization

def run_to_dict(run: ClusteringRun) -> dict:
    return {
        "config": asdict(run.config),
        "per_speaker": {
            spk: {
                "assignments": dict(sorted(sc.assignments.items())),
                "centers": [[float(v) for v in row] for row in sc.centers],
                "inertia": float(sc.inertia),
                "effective_k": sc.effective_k,
                "seed_used": sc.seed_used,
            }
            for spk, sc in run.per_speaker.items()
        },
    }


_CONFIG_FIELDS = (("k", int), ("max_iters", int), ("tol", float), ("n_restarts", int), ("seed", int))
_SPEAKER_FIELDS = (
    ("assignments", lambda v: {u: int(c) for u, c in v.items()}),
    ("centers", lambda v: np.asarray(v, dtype=np.float64)),
    ("inertia", float), ("effective_k", int), ("seed_used", int),
)


def _typed_fields(obj, fields, where: str) -> dict:
    values = {}
    for key, convert in fields:
        try:
            values[key] = convert(obj[key])
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}, key {key!r}: {exc}") from exc
    return values


def run_from_dict(obj: dict) -> ClusteringRun:
    """Inverse of run_to_dict.  A missing key raises KeyError; a value of the
    wrong type raises ValueError naming its speaker (or the config) and key."""
    config = KMeansConfig(**_typed_fields(obj["config"], _CONFIG_FIELDS, "config"))
    per_speaker = {
        spk: SpeakerClustering(**_typed_fields(payload, _SPEAKER_FIELDS, f"speaker {spk!r}"))
        for spk, payload in obj["per_speaker"].items()
    }
    return ClusteringRun(per_speaker=per_speaker, config=config)
