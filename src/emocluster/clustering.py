"""Per-speaker k-means over length-normalized embeddings.

Lloyd iterations with k-means++ seeding and multiple restarts; squared
Euclidean distance, which on unit-norm vectors orders pairs identically to
cosine distance.  All randomness is derived from explicit seeds so results
are reproducible and independent of speaker iteration order.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, warn_if_unnormalized
from .serialize import stable_seed


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
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass
class SpeakerClustering:
    spk_id: str
    assignments: dict[str, int]  # utt_id -> cluster index
    centers: np.ndarray  # (effective_k, dim)
    inertia: float
    effective_k: int
    seed_used: int


@dataclass
class ClusteringRun:
    per_speaker: dict[str, SpeakerClustering]
    config: KMeansConfig = field(default_factory=KMeansConfig)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centers), as |x|^2 - 2 x.c + |c|^2.

    The Gram form needs no (n, k, dim) tensor; clamping at 0 undoes cancellation.
    """
    d = np.einsum("ij,ij->i", points, points)[:, None] - 2.0 * (points @ centers.T)
    d += np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(d, 0.0, out=d)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(0, n)]
    diff = points - centers[0]
    closest = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[c] = points[idx]
        diff = points - centers[c]
        closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
    return centers


def _lloyd(points: np.ndarray, init_centers: np.ndarray, max_iters: int, tol: float):
    centers = init_centers.copy()
    k = centers.shape[0]
    assign = np.argmin(_sq_dists(points, centers), axis=1)
    for _ in range(max_iters):
        new_centers = centers.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
        # empty-cluster repair: farthest point from its center becomes a singleton
        counts = np.bincount(assign, minlength=k)
        if np.any(counts == 0):
            # one ranking serves every empty cluster: a repair only moves the
            # picked point, which `taken` already excludes
            diff = points - new_centers[assign]
            order = np.argsort(-np.einsum("ij,ij->i", diff, diff), kind="stable")
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
        assign = np.argmin(_sq_dists(points, centers), axis=1)
        if converged:
            break
    residual = points - centers[assign]
    inertia = float(np.einsum("ij,ij->i", residual, residual).sum())
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
    local = KMeansConfig(
        k=config.k,
        max_iters=config.max_iters,
        tol=config.tol,
        n_restarts=config.n_restarts,
        seed=seed,
    )
    if config.k > len(points):
        warnings.warn(
            f"speaker {spk_id!r}: k={config.k} exceeds {len(points)} points; degrading",
            stacklevel=3,
        )
    assign, centers, inertia = kmeans(points, local)
    effective_k = int(len(np.unique(assign)))
    return SpeakerClustering(
        spk_id=spk_id,
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
        "config": {
            "k": run.config.k,
            "max_iters": run.config.max_iters,
            "tol": run.config.tol,
            "n_restarts": run.config.n_restarts,
            "seed": run.config.seed,
        },
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
        spk: SpeakerClustering(spk_id=spk, **_typed_fields(payload, _SPEAKER_FIELDS, f"speaker {spk!r}"))
        for spk, payload in obj["per_speaker"].items()
    }
    return ClusteringRun(per_speaker=per_speaker, config=config)
