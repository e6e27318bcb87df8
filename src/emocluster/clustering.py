"""Per-speaker k-means over length-normalized embeddings.

Lloyd iterations with k-means++ seeding and multiple restarts; squared
Euclidean distance, which on unit-norm vectors orders pairs identically to
cosine distance.  All randomness is derived from explicit seeds so results
are reproducible and independent of speaker iteration order.

The restarts of one call run in lockstep, and cost little beyond their
matrix products.  Distances take the Gram form |x|^2 - 2 x.c + |c|^2, with
the points' squared norms computed once for the seeding and once for the
Lloyd run of each block of restarts.  Each seeding step takes every
restart's D^2 update in one matmul call, and each Lloyd iteration assigns
every active restart in another; a stacked matmul makes, for each restart,
the matrix product a lone restart would, so batching changes no bit.  The
seeding's D^2 weights recompute every value at or below GRAM_RECHECK *
(|x|^2 + |c|^2) exactly, so chosen points and their duplicates weigh
exactly 0.  A restart leaves the active set when it converges.  The center
update re-sums only the clusters whose member set changed since their mean
was taken, each from its members in point order, which is bit for bit the
masked per-cluster mean.  Restarts run in blocks whose (n, block * k)
distances take at most KMEANS_BLOCK floats, so memory does not grow with
the restart count.

speaker_rows is the one check that a speaker's clustering fits a corpus;
mining, the cluster metrics and load_run, the CLI's run reader, use it.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import Corpus, warn_if_unnormalized
from .parallel import fork_map
from .serialize import CorpusError, json_typed, read_json, stable_seed

# Gram-form squared distances at or below this fraction of |x|^2 + |y|^2 may
# have lost most of their digits to cancellation; they are recomputed exactly.
GRAM_RECHECK = 1e-2

KMEANS_BLOCK = 1 << 20  # floats of one block of restarts' (n, block * k) distances (8 MB)


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
    centers: np.ndarray  # one row per center, min(k, distinct points) of them; effective_k counts those with a member
    inertia: float

    @property
    def effective_k(self) -> int:
        return len(set(self.assignments.values()))


@dataclass
class ClusteringRun:
    per_speaker: dict[str, SpeakerClustering]
    config: KMeansConfig = field(default_factory=KMeansConfig)


def _row_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", x, x)


def _gram_sq_dists(points: np.ndarray, points_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances as |x|^2 - 2 x.c + |c|^2, given the points'
    squared norms: (n_points, n_centers), or (R, n_points, k) for an (R, k, dim)
    stack of centers, each restart's from the matrix product a lone one makes.

    The Gram form needs no (n, k, dim) tensor; clamping at 0 undoes cancellation.
    """
    d = points @ np.swapaxes(centers, -1, -2)
    d *= -2.0
    d += points_sq[:, None]
    d += _row_sq(centers)[..., None, :]
    return np.maximum(d, 0.0, out=d)


def _sq_dists_to_rows(points: np.ndarray, points_sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances from every point to each points[rows[r]], (len(rows), n),
    in Gram form, with each value at or below GRAM_RECHECK * (|x|^2 + |c|^2)
    recomputed exactly as sum((x - c)^2).  That set always holds row rows[r]
    and its duplicates, which therefore come out exactly 0.  Each row's
    products come from the matrix-vector product a lone row makes."""
    d = np.matmul(points, points[rows, :, None])[..., 0]
    d *= -2.0
    d += points_sq
    d += points_sq[rows, None]
    r, i = np.nonzero(d <= GRAM_RECHECK * (points_sq + points_sq[rows, None]))
    d[r, i] = _row_sq(points[i] - points[rows[r]])
    return d


def _kmeanspp_init(points: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """k-means++ seeding of one restart per Generator, (len(rngs), k, dim):
    each next center is a point drawn with probability proportional to its
    squared distance to the nearest center so far (D^2).

    The restarts advance together, one Gram product per step, and each draws
    from its own Generator in the order a lone restart would.  The draw is
    the inverse CDF that Generator.choice(n, p=D^2 / sum) takes, one
    rng.random() against the normalized cumulative sum, without choice's
    per-call validation.
    """
    n = points.shape[0]
    points_sq = _row_sq(points)
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(0, n) for rng in rngs]
    closest = np.full((len(rngs), n), np.inf)
    for j in range(1, k):
        np.minimum(closest, _sq_dists_to_rows(points, points_sq, chosen[:, j - 1]), out=closest)
        totals = closest.sum(axis=1)
        live = totals > 0.0  # a restart whose weights are all 0 draws uniformly
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(closest / totals[:, None], axis=1)
            cdf /= cdf[:, -1:]
        draws = np.array([rng.random() if ok else rng.integers(0, n) for rng, ok in zip(rngs, live)])
        # on a nondecreasing cdf, the count of entries <= u is searchsorted(u, side="right")
        chosen[:, j] = np.where(live, (cdf <= draws[:, None]).sum(axis=1), draws)
    return points[chosen]


def _lloyd(points: np.ndarray, init_centers: np.ndarray, max_iters: int, tol: float):
    """Lloyd iterations of R restarts in lockstep, from (R, k, dim) initial centers.

    Returns (assign (R, n), centers (R, k, dim), inertia (R,)), each restart as
    if run alone.  A restart leaves the active set once it converges.  A
    cluster whose member set is the one its mean was taken over keeps that
    mean; the others are re-summed from their members in point order, so
    every center is bit for bit the masked members.mean(axis=0).
    """
    n_restarts, k, dim = init_centers.shape
    points_sq = _row_sq(points)
    out_assign = np.empty((n_restarts, len(points)), dtype=np.intp)
    out_centers = np.empty_like(init_centers)
    # state of the active restarts: their indices, centers, assignments, the
    # assignment their means were taken over, and which centers are such means
    ids = np.arange(n_restarts)
    centers = init_centers.copy()
    assign = _gram_sq_dists(points, points_sq, centers).argmin(axis=2)
    taken_over = assign
    is_mean = np.zeros((n_restarts, k), dtype=bool)
    for _ in range(max_iters):
        moved_r, moved_i = np.nonzero(assign != taken_over)
        dirty = ~is_mean
        dirty[moved_r, assign[moved_r, moved_i]] = True
        dirty[moved_r, taken_over[moved_r, moved_i]] = True
        # cluster c of active restart j is key j * k + c; the members of the
        # re-summed keys, grouped by key, each key's in point order
        keys = (assign + k * np.arange(len(ids))[:, None]).ravel()
        counts = np.bincount(keys, minlength=len(ids) * k)
        resum = dirty.ravel() & (counts > 0)
        members = np.flatnonzero(resum[keys])
        members = members[np.argsort(keys[members], kind="stable")] % len(points)
        ends = np.cumsum(counts * resum)
        lo, hi = (ends - counts).tolist(), ends.tolist()
        new_centers = centers.copy()
        flat = new_centers.reshape(-1, dim)
        for key in np.flatnonzero(resum).tolist():
            flat[key] = points[members[lo[key] : hi[key]]].sum(axis=0)
        flat[resum] /= counts[resum, None]
        is_mean = (counts > 0).reshape(-1, k)
        # empty-cluster repair: the farthest points from their centers become
        # singletons, in descending order of distance
        for j in np.flatnonzero(~is_mean.all(axis=1)):
            empty = np.flatnonzero(~is_mean[j])
            diff = points - new_centers[j][assign[j]]
            new_centers[j, empty] = points[np.argsort(-_row_sq(diff), kind="stable")[: len(empty)]]
        shift = np.linalg.norm(new_centers - centers, axis=2)
        scale = 1.0 + np.linalg.norm(centers, axis=2)
        converged = np.all(shift < tol * scale, axis=1)
        centers, taken_over = new_centers, assign
        assign = _gram_sq_dists(points, points_sq, centers).argmin(axis=2)
        if converged.any():
            done, keep = ids[converged], ~converged
            out_assign[done], out_centers[done] = assign[converged], centers[converged]
            ids, centers, assign, taken_over, is_mean = (
                ids[keep], centers[keep], assign[keep], taken_over[keep], is_mean[keep]
            )
            if not len(ids):
                break
    out_assign[ids], out_centers[ids] = assign, centers
    inertia = np.array([float(_row_sq(points - c[a]).sum()) for a, c in zip(out_assign, out_centers)])
    return out_assign, out_centers, inertia


def kmeans(points, config: KMeansConfig):
    """Best-of-restarts k-means.

    Returns (assignments, centers, inertia) of the first restart with the
    lowest inertia; assignments map each point to its nearest returned
    center.  When k exceeds the number of distinct points, runs with that
    smaller count instead (degrade rule).
    """
    config.validate()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    # + 0.0 turns -0.0 into 0.0, so equal rows have equal bytes
    k = min(config.k, len({row.tobytes() for row in points + 0.0}))

    if k == 1:
        center = points.mean(axis=0, keepdims=True)
        assign = np.zeros(len(points), dtype=np.intp)
        inertia = float(((points - center) ** 2).sum())
        return assign, center, inertia

    block = max(1, KMEANS_BLOCK // (len(points) * k))
    best = None
    for lo in range(0, config.n_restarts, block):
        rngs = [
            np.random.default_rng(stable_seed(config.seed, "kmeans", restart))
            for restart in range(lo, min(lo + block, config.n_restarts))
        ]
        assign, centers, inertia = _lloyd(points, _kmeanspp_init(points, k, rngs), config.max_iters, config.tol)
        r = int(np.argmin(inertia))
        if best is None or inertia[r] < best[2]:
            best = (assign[r].copy(), centers[r].copy(), float(inertia[r]))
    return best


def cluster_speaker(corpus: Corpus, spk_id: str, config: KMeansConfig) -> SpeakerClustering:
    """k-means over one speaker's utterances, taken in utt_id order so the
    result does not depend on record order, with a seed derived from the speaker."""
    rows = sorted(corpus.speakers[spk_id], key=corpus.utt_ids.__getitem__)
    seed = stable_seed(config.seed, "speaker", spk_id)
    assign, centers, inertia = kmeans(corpus.vectors[rows], replace(config, seed=seed))
    # kmeans runs with min(k, distinct points) centers
    if len(centers) < config.k:
        warnings.warn(
            f"speaker {spk_id!r}: k={config.k} exceeds its {len(centers)} distinct points"
            f" (of {len(rows)}); degrading",
            stacklevel=2,
        )
    return SpeakerClustering(
        assignments={corpus.utt_ids[i]: int(a) for i, a in zip(rows, assign)},
        centers=centers,
        inertia=inertia,
    )


def cluster_speakers(corpus: Corpus, config: KMeansConfig) -> ClusteringRun:
    """Independent k-means per speaker; results keyed by speaker id."""
    config.validate()
    warn_if_unnormalized(corpus, "cluster_speakers")
    speakers = list(corpus.speakers)
    clusterings = fork_map(lambda spk_id: cluster_speaker(corpus, spk_id, config), speakers)
    return ClusteringRun(per_speaker=dict(zip(speakers, clusterings)), config=config)


def speaker_rows(sc: SpeakerClustering, spk_id: str, corpus: Corpus) -> tuple[list[int], list[int]]:
    """The corpus rows of one speaker's clustered utterances, in utt_id order,
    and their clusters.  Raises ValueError("speaker '<id>': ...") at the first
    misfit: centers that are not finite rows of the corpus's dimension; then,
    utterance by utterance, a cluster outside [0, len(centers)), an utterance
    the corpus lacks or one of another speaker; last, one left unclustered."""
    where = f"speaker {spk_id!r}"
    centers = sc.centers
    if centers.ndim != 2 or centers.shape[1] != corpus.dim:
        raise ValueError(f"{where}: centers have shape {centers.shape}, not (k, {corpus.dim})")
    bad = np.flatnonzero(~np.isfinite(centers).all(axis=1))
    if bad.size:
        raise ValueError(f"{where}: center {bad[0]} is not finite")
    rows, clusters = [], []
    for utt_id in sorted(sc.assignments):
        cluster = sc.assignments[utt_id]
        if not 0 <= cluster < len(centers):
            raise ValueError(
                f"{where}: utterance {utt_id!r} has cluster {cluster}, not one of its {len(centers)} centers"
            )
        row = corpus.row_of.get(utt_id)
        if row is None:
            raise ValueError(f"{where}: clustered utterance {utt_id!r} missing from corpus")
        if corpus.spk_ids[row] != spk_id:
            raise ValueError(
                f"{where}: clustered utterance {utt_id!r} is not one of the speaker's utterances in the corpus"
            )
        rows.append(row)
        clusters.append(cluster)
    own = corpus.speakers.get(spk_id, ())
    if len(rows) != len(own):  # the rows are distinct rows of the speaker's, so equal counts mean all
        missing = min(corpus.utt_ids[row] for row in own if corpus.utt_ids[row] not in sc.assignments)
        raise ValueError(f"{where}: the speaker's utterance {missing!r} is not clustered")
    return rows, clusters


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
                "centers": sc.centers.tolist(),
                "inertia": float(sc.inertia),
            }
            for spk, sc in run.per_speaker.items()
        },
    }


def _int(value) -> int:
    return json_typed(value, int)


def _number(value) -> float:
    return float(json_typed(value, int, float))


def _matrix(value) -> np.ndarray:
    if not all(set(map(type, json_typed(row, list))) <= {int, float} for row in json_typed(value, list)):
        raise TypeError("expected a list of lists of numbers")
    return np.asarray(value, dtype=np.float64)


_RUN_FIELDS = (("config", lambda v: json_typed(v, dict)), ("per_speaker", lambda v: json_typed(v, dict)))
_CONFIG_FIELDS = (("k", _int), ("max_iters", _int), ("tol", _number), ("n_restarts", _int), ("seed", _int))
_SPEAKER_FIELDS = (
    ("assignments", lambda v: {u: _int(c) for u, c in v.items()}),
    ("centers", _matrix),
    ("inertia", _number),
)


def _typed_fields(obj, fields, where: str) -> dict:
    """The converted `fields` of the run's json object at `where`, else ValueError naming `where`."""
    if type(obj) is not dict:
        raise ValueError(f"ill-typed value in clustering run ({where}: expected dict, got {type(obj).__name__})")
    values = {}
    for key, convert in fields:
        if key not in obj:
            raise ValueError(f"clustering run is missing key {key!r} ({where})")
        try:
            values[key] = convert(obj[key])
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"ill-typed value in clustering run ({where}, key {key!r}: {exc})") from exc
    return values


def run_from_dict(obj: dict) -> ClusteringRun:
    """Inverse of run_to_dict; keys it does not read, such as older runs'
    effective_k and seed_used, are ignored.  A non-object, a missing key or a
    wrong type raises ValueError naming its speaker (or the config) and key."""
    top = _typed_fields(obj, _RUN_FIELDS, "top level")
    config = KMeansConfig(**_typed_fields(top["config"], _CONFIG_FIELDS, "config"))
    per_speaker = {
        spk: SpeakerClustering(**_typed_fields(payload, _SPEAKER_FIELDS, f"speaker {spk!r}"))
        for spk, payload in top["per_speaker"].items()
    }
    return ClusteringRun(per_speaker=per_speaker, config=config)


def load_run(path: str, corpus: Corpus) -> ClusteringRun:
    """The run in the json file at `path`, with a valid config and a fitting
    clustering (speaker_rows) of each corpus speaker; else CorpusError naming the file."""
    obj = read_json(path, "clustering run")
    try:
        run = run_from_dict(obj)
        run.config.validate()
        for spk_id in sorted(run.per_speaker):
            speaker_rows(run.per_speaker[spk_id], spk_id, corpus)
        missing = sorted(set(corpus.speakers) - set(run.per_speaker))
        if missing:
            raise ValueError(f"speaker {missing[0]!r}: the corpus speaker is not in the run")
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
    return run
