"""Training orchestration: contrastive / speaker / multi-task pretraining,
supervised emotion fine-tuning with early stopping, and the multi-seed
evaluation protocol reporting mean UAR per pretraining mode.

Inputs are utterance-level embedding vectors, so the desk-scale encoder is
a small dense trunk whose output feeds each head directly.
"""

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .clustering import KMeansConfig, cluster_speaker
from .corpus import Corpus, is_normalized, length_normalize, strip_labels, warn_if_unnormalized
from .nn_core import (
    ModelParams,
    adamw_step,
    backward,
    clone_params,
    flatten_params,
    forward,
    init_optimizer,
    make_mlp,
    param_count,
)
from .objectives import MtlWeights, cross_entropy, mtl_combine, ntxent_variant
from .pair_miner import MiningConfig, mine_speaker
from .parallel import fork_map
from .serialize import aligned_table, stable_seed

MODES = ("none", "spk_cls", "contrastive", "mtl_adversarial", "mtl")
CONTRASTIVE_MODES = ("contrastive", "mtl_adversarial", "mtl")

MODE_LABELS = {
    "none": "no pretraining",
    "spk_cls": "speaker classification",
    "contrastive": "cluster contrastive",
    "mtl_adversarial": "speaker-adversarial MTL",
    "mtl": "contrastive + speaker MTL",
}

PATIENCE = 5  # SER early stopping: epochs without a better val accuracy


@dataclass
class TrainConfig:
    mode: str = "contrastive"
    steps: int = 5000
    batch_size: int = 8
    lr: float = 1e-5  # supervised SER learning rate
    pretrain_lr: float = 1e-4
    epochs_ser: int = 30
    tau: float = 0.1
    n_clusters_N: int = 20
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    mtl_weights: MtlWeights = field(default_factory=MtlWeights)
    include_positive_in_denominator: bool = False
    trunk_hidden: int = 32
    contrastive_hidden: int | None = None  # default: trunk output dim
    contrastive_out: int = 128
    head_hidden: int | None = None  # classifier heads; default: trunk output dim
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    pretrain_speaker_fraction: float = 0.0  # protocol: speakers reserved for the unlabeled pool
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.steps < 0 or self.batch_size < 1 or self.epochs_ser < 1:
            raise ValueError("steps must be >= 0; batch_size, epochs_ser >= 1")
        for name in ("lr", "pretrain_lr", "tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        if self.n_clusters_N < 2:
            raise ValueError("n_clusters_N must be >= 2")
        if not self.seeds:
            raise ValueError("at least one seed required")
        for i, seed in enumerate(self.seeds):
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed} given twice")
        if len(self.split_fractions) != 3 or not all(0.0 <= f <= 1.0 for f in self.split_fractions):
            raise ValueError("split_fractions must be 3 values in [0, 1]")
        if not abs(sum(self.split_fractions) - 1.0) <= 1e-9:
            raise ValueError("split_fractions must sum to 1")
        if not 0.0 <= self.pretrain_speaker_fraction < 1.0:
            raise ValueError("pretrain_speaker_fraction must lie in [0, 1)")
        for name in ("trunk_hidden", "contrastive_out", "contrastive_hidden", "head_hidden"):
            width = getattr(self, name)
            if width is None and name in ("contrastive_hidden", "head_hidden"):
                continue  # the trunk output width
            if width < 1:
                raise ValueError(f"{name} must be >= 1, got {width}")
        self.mtl_weights.validate()


# TrainConfig fields that only the SER stage and the protocol read
_SER_ONLY_FIELDS = ("lr", "epochs_ser", "seeds", "split_fractions", "pretrain_speaker_fraction")


def pretrain_config_to_dict(config: TrainConfig) -> dict:
    """asdict(config) restricted to the fields `pretrain` reads."""
    return {k: v for k, v in asdict(config).items() if k not in _SER_ONLY_FIELDS}


@dataclass
class Checkpoint:
    components: dict[str, ModelParams]  # "encoder" plus the heads used by the mode
    history: dict[str, list[float]]

    @property
    def encoder(self) -> ModelParams:
        return self.components["encoder"]


@dataclass
class SerModel:
    encoder: ModelParams
    head: ModelParams
    emotions: list[str]
    train_speakers: set[str]


@dataclass
class EvalResult:
    uar: float
    per_class_recall: dict[str, float]
    confusion: np.ndarray  # (C, C) over the model's emotions, rows true / cols predicted


# ------------------------------------------------------------- model building

def build_encoder(dim: int, config: TrainConfig, seed: int) -> ModelParams:
    rng = np.random.default_rng(stable_seed(seed, "encoder"))
    h = config.trunk_hidden
    return make_mlp(rng, [dim, h, h], ["relu", "relu"])


def build_contrastive_head(in_dim: int, config: TrainConfig, seed: int) -> ModelParams:
    rng = np.random.default_rng(stable_seed(seed, "contrastive_head"))
    hidden = config.contrastive_hidden or in_dim
    return make_mlp(rng, [in_dim, hidden, config.contrastive_out], ["relu", "tanh"])


def build_classifier_head(in_dim: int, n_classes: int, kind: str, config: TrainConfig, seed: int) -> ModelParams:
    rng = np.random.default_rng(stable_seed(seed, kind))
    hidden = config.head_hidden or in_dim
    return make_mlp(rng, [in_dim, hidden, n_classes], ["relu", "identity"])


# ----------------------------------------------------------------- pretraining

def _shuffled_batches(n_items: int, batch_size: int, rng: np.random.Generator):
    """Yield index batches forever, reshuffling at each pass boundary."""
    while True:
        order = rng.permutation(n_items)
        for start in range(0, n_items, batch_size):
            yield order[start : start + batch_size]


def _contrastive_step(encoder, con_head, spk_head, rows, neg_mask, spk_labels, config):
    """Forward/backward one contrastive batch; returns (l_con, l_spk, flat gradient).

    rows holds the B anchors, then their B positives, then the negatives:
    one per set slot of the (B, M) neg_mask, in row-major order.  The
    projections are scored by `ntxent_variant`.  The speaker head, when
    present, classifies the anchors; in mtl_adversarial mode its gradient
    reaches the trunk through gradient reversal.  The gradient vector is
    in `flatten_params(encoder, con_head, spk_head)` order.
    """
    weights = config.mtl_weights
    B = len(neg_mask)
    enc_out, enc_cache = forward(encoder, rows)
    proj, head_cache = forward(con_head, enc_out)
    loss_con, dproj = ntxent_variant(proj, neg_mask, config.tau, config.include_positive_in_denominator)
    con_grads, d_enc = backward(con_head, head_cache, dproj)

    loss_spk, spk_grads = 0.0, np.empty(0)
    if spk_head is not None:
        logits, spk_cache = forward(spk_head, enc_out[:B])
        loss_spk, dlogits = cross_entropy(logits, spk_labels)
        spk_grads, d_spk_in = backward(spk_head, spk_cache, weights.w_speaker * dlogits)
        if config.mode == "mtl_adversarial":
            d_spk_in *= -weights.grl_lambda  # gradient reversal: identity forward, -lambda backward
        d_enc[:B] += d_spk_in

    enc_grads, _ = backward(encoder, enc_cache, d_enc)
    return loss_con, loss_spk, np.concatenate([enc_grads, con_grads, spk_grads])


def _classifier_step(encoder, head, rows, labels):
    """Cross-entropy of a classifier head on the trunk; returns (loss, flat encoder + head gradient)."""
    enc_out, enc_cache = forward(encoder, rows)
    logits, head_cache = forward(head, enc_out)
    loss, dlogits = cross_entropy(logits, labels)
    head_grads, d_enc = backward(head, head_cache, dlogits)
    enc_grads, _ = backward(encoder, enc_cache, d_enc)
    return loss, np.concatenate([enc_grads, head_grads])


def _tuple_pools(corpus: Corpus, n_clusters: int, seeds: list[int]) -> list[tuple]:
    """One training pool per seed, from the intra-speaker clusters with
    k = n_clusters and seed stable_seed(seed, "pretrain_cluster"), mined with
    that seed.  Each (seed, speaker) is clustered and mined as one fork_map
    job, which returns row arrays only; the parts join in sorted-speaker
    order, so a pool lists what mine_tuples would for that seed.

    A pool holds the anchor and positive rows, the (T, M) negative rows and
    their mask (each tuple's negatives left-aligned), and each anchor's
    speaker index in sorted(corpus.speakers).
    """
    MiningConfig(n_clusters_N=n_clusters).validate()
    speakers = sorted(corpus.speakers)

    def job(key):
        seed, spk_id = key
        kmeans = KMeansConfig(k=n_clusters, seed=stable_seed(seed, "pretrain_cluster"))
        mining = MiningConfig(n_clusters_N=n_clusters, seed=seed)
        return mine_speaker(cluster_speaker(corpus, spk_id, kmeans), spk_id, corpus, mining, Counter())[:3]

    parts = fork_map(job, [(seed, spk_id) for seed in seeds for spk_id in speakers])
    pools = []
    for i in range(len(seeds)):
        anchors, positives, negatives = zip(*parts[i * len(speakers) : (i + 1) * len(speakers)])
        sizes = [len(a) for a in anchors]
        if not sum(sizes):
            raise ValueError("no mineable tuples: every anchor was skipped")
        widths = np.repeat([n.shape[1] for n in negatives], sizes)
        mask = np.arange(widths.max()) < widths[:, None]
        padded = np.zeros(mask.shape, dtype=np.intp)
        padded[mask] = np.concatenate([n.ravel() for n in negatives])
        labels = np.repeat(np.arange(len(speakers)), sizes)
        pools.append((np.concatenate(anchors), np.concatenate(positives), padded, mask, labels))
    return pools


def pretrain(corpus_unlabeled: Corpus, config: TrainConfig, tuples: tuple | None = None) -> Checkpoint:
    """Train the trunk (plus mode-specific heads) for config.steps steps.

    Contrastive modes train on a tuple pool as `_tuple_pools` builds it.
    When not given, it is built for config.seed with k = n_clusters_N; it
    depends on config.seed alone, so `run_protocol` builds one pool per
    seed and passes it to every contrastive mode.
    """
    config.validate()
    if config.mode == "none":
        raise ValueError("pretrain requires a mode other than 'none'")
    warn_if_unnormalized(corpus_unlabeled, "pretrain")

    dim = corpus_unlabeled.dim
    encoder = build_encoder(dim, config, config.seed)
    enc_out_dim = encoder.output_dim
    components: dict[str, ModelParams] = {"encoder": encoder}

    speakers = sorted(corpus_unlabeled.speakers)
    spk_index = {s: i for i, s in enumerate(speakers)}

    contrastive_on = config.mode in CONTRASTIVE_MODES
    speaker_on = config.mode in ("spk_cls", "mtl", "mtl_adversarial")

    if contrastive_on:
        components["contrastive"] = build_contrastive_head(enc_out_dim, config, config.seed)
    if speaker_on:
        components["speaker_cls"] = build_classifier_head(
            enc_out_dim, len(speakers), "speaker_cls", config, config.seed
        )

    history: dict[str, list[float]] = {"contrastive": [], "speaker": [], "total": []}
    params = flatten_params(*components.values())
    opt = init_optimizer(params, lr=config.pretrain_lr)
    # batch order is seeded independently of the mode so runs that share a
    # seed differ only in their loss composition (paired comparisons)
    rng = np.random.default_rng(stable_seed(config.seed, "pretrain_batches"))

    if config.steps == 0:
        return Checkpoint(components=components, history=history)

    X = corpus_unlabeled.vectors
    if contrastive_on:
        pool = tuples if tuples is not None else _tuple_pools(corpus_unlabeled, config.n_clusters_N, [config.seed])[0]
        batches = _shuffled_batches(len(pool[0]), config.batch_size, rng)
        for _ in range(config.steps):
            idx = next(batches)
            anchors, positives, negatives, mask, labels = (column[idx] for column in pool)
            # pad only to the batch's widest negative set: the loss's sums over
            # the slots would round differently at another width
            width = mask.sum(axis=1).max()
            mask = mask[:, :width]
            rows = np.concatenate([anchors, positives, negatives[:, :width][mask]])
            l_con, l_spk, flat = _contrastive_step(
                encoder, components["contrastive"], components.get("speaker_cls"), X[rows], mask, labels, config
            )
            adamw_step(opt, params, flat)
            history["contrastive"].append(l_con)
            history["speaker"].append(l_spk)
            history["total"].append(mtl_combine(l_con, l_spk, config.mtl_weights))
    else:  # speaker classification only
        labels = np.asarray([spk_index[s] for s in corpus_unlabeled.spk_ids])
        batches = _shuffled_batches(len(X), config.batch_size, rng)
        for _ in range(config.steps):
            idx = next(batches)
            loss, flat = _classifier_step(encoder, components["speaker_cls"], X[idx], labels[idx])
            adamw_step(opt, params, flat)
            history["speaker"].append(loss)
            history["contrastive"].append(0.0)
            history["total"].append(loss)

    return Checkpoint(components=components, history=history)


# ------------------------------------------------------------------ SER stage

def _speaker_rows(corpus: Corpus, speakers) -> list[int]:
    """The rows of the given speakers' utterances, in corpus order."""
    return sorted(i for spk in speakers for i in corpus.speakers[spk])


def _shuffled_speakers(corpus: Corpus, *salt) -> list[str]:
    """The corpus's speakers in an order seeded by stable_seed(*salt)."""
    speakers = sorted(corpus.speakers)
    rng = np.random.default_rng(stable_seed(*salt))
    return [speakers[i] for i in rng.permutation(len(speakers))]


def split_by_speaker(corpus: Corpus, fractions, seed: int):
    """Speaker-disjoint (train, val, test) split with seeded assignment."""
    if len(corpus.speakers) < 3:
        raise ValueError("need at least 3 speakers for a 3-way speaker split")
    order = _shuffled_speakers(corpus, seed, "split")
    n = len(order)
    n_val = max(1, round(fractions[1] * n))
    n_test = max(1, round(fractions[2] * n))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ValueError(f"split fractions leave no training speakers for {n} speakers")
    groups = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    return tuple(corpus.take(_speaker_rows(corpus, names)) for names in groups)


def check_speaker_disjoint(*corpora: Corpus) -> None:
    seen: dict[str, int] = {}
    for i, c in enumerate(corpora):
        for spk in c.speakers:
            if spk in seen and seen[spk] != i:
                raise ValueError(f"split leakage: speaker {spk!r} appears in multiple splits")
            seen[spk] = i


def _labeled_arrays(corpus: Corpus, emotions: list[str]):
    index = {e: i for i, e in enumerate(emotions)}
    rows, labels = [], []
    for row, emotion in enumerate(corpus.emotions):
        if emotion is None:
            continue
        if emotion not in index:
            warnings.warn(f"unknown emotion label {emotion!r}; record excluded", stacklevel=2)
            continue
        rows.append(row)
        labels.append(index[emotion])
    if not rows:
        raise ValueError("no labeled records available")
    return corpus.vectors[rows], np.asarray(labels)


def train_ser(
    checkpoint: Checkpoint | None,
    corpus_labeled: Corpus,
    config: TrainConfig,
    val_corpus: Corpus,
) -> SerModel:
    """Fine-tune (pretrained or fresh) encoder plus a new emotion head,
    seeded by config.seed.

    Stops after PATIENCE epochs without a better accuracy on the
    speaker-disjoint val_corpus and returns the best-epoch model.
    """
    config.validate()
    check_speaker_disjoint(corpus_labeled, val_corpus)

    emotions = sorted({e for e in corpus_labeled.emotions if e is not None})
    if len(emotions) < 2:
        raise ValueError(f"SER training needs >= 2 emotion classes, found {emotions}")

    if checkpoint is not None:
        encoder = clone_params(checkpoint.encoder)
    else:
        encoder = build_encoder(corpus_labeled.dim, config, stable_seed(config.seed, "ser_encoder"))
    head = build_classifier_head(encoder.output_dim, len(emotions), "emotion_cls", config, config.seed)

    train_rows, train_labels = _labeled_arrays(corpus_labeled, emotions)
    val_rows, val_labels = _labeled_arrays(val_corpus, emotions)

    params = flatten_params(encoder, head)
    opt = init_optimizer(params, lr=config.lr)

    best_acc, best = -1.0, params.copy()  # the best epoch's flat parameters
    since_best = 0
    for epoch in range(config.epochs_ser):
        rng = np.random.default_rng(stable_seed(config.seed, "ser_epoch", epoch))
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            _, flat = _classifier_step(encoder, head, train_rows[idx], train_labels[idx])
            adamw_step(opt, params, flat)
        acc = float((ser_predict(encoder, head, val_rows) == val_labels).mean())
        if acc > best_acc:
            best_acc = acc
            best[:] = params
            since_best = 0
        else:
            since_best += 1
            if since_best >= PATIENCE:
                break

    params[:] = best  # the layers view params
    return SerModel(encoder=encoder, head=head, emotions=emotions, train_speakers=set(corpus_labeled.speakers))


def ser_predict(encoder: ModelParams, head: ModelParams, rows: np.ndarray) -> np.ndarray:
    """Predicted class index per row: the argmax of the head's logits."""
    enc_out, _ = forward(encoder, rows)
    logits, _ = forward(head, enc_out)
    return logits.argmax(axis=1)


def evaluate_uar(model: SerModel, corpus_test: Corpus) -> EvalResult:
    """Unweighted average recall from the argmax confusion matrix.

    Test speakers must be disjoint from the model's training speakers.
    Emotion classes absent from the test set are excluded (with a warning)
    from the per-class recalls and the UAR average.
    """
    overlap = set(corpus_test.speakers) & model.train_speakers
    if overlap:
        raise ValueError(f"test speakers overlap training speakers: {sorted(overlap)[:3]}")
    rows, labels = _labeled_arrays(corpus_test, model.emotions)
    preds = ser_predict(model.encoder, model.head, rows)

    C = len(model.emotions)
    confusion = np.zeros((C, C), dtype=np.int64)
    for t, p in zip(labels, preds):
        confusion[t, p] += 1

    per_class: dict[str, float] = {}
    for ci, emotion in enumerate(model.emotions):
        support = confusion[ci].sum()
        if support == 0:
            warnings.warn(f"class {emotion!r} absent from test set; excluded from UAR", stacklevel=2)
            continue
        per_class[emotion] = float(confusion[ci, ci] / support)
    if not per_class:
        raise ValueError("no test class has support; UAR undefined")
    uar = float(np.mean(list(per_class.values())))
    return EvalResult(uar=uar, per_class_recall=per_class, confusion=confusion)


# ------------------------------------------------------------------- protocol

def labeled_fraction(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Seeded per-emotion subsample of labeled records (at least 1 per class)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return corpus
    by_emotion: dict[str, list[int]] = {}
    for i, emotion in enumerate(corpus.emotions):
        if emotion is not None:
            by_emotion.setdefault(emotion, []).append(i)
    keep: list[int] = []
    for emotion in sorted(by_emotion):
        indices = by_emotion[emotion]
        n_keep = max(1, round(fraction * len(indices)))
        rng = np.random.default_rng(stable_seed(seed, "label_budget", emotion))
        chosen = rng.choice(len(indices), size=n_keep, replace=False)
        keep.extend(indices[i] for i in chosen)
    return corpus.take(sorted(keep))


def run_protocol(
    corpus: Corpus,
    config: TrainConfig,
    modes: list[str] | None = None,
    label_fraction: float = 0.05,
) -> dict:
    """Pretrain per mode, fine-tune per seed, report mean UAR rows.

    The corpus is length-normalized and split by speaker.  When
    config.pretrain_speaker_fraction > 0 that share of speakers forms an
    exclusive unlabeled pretraining pool (the large-unlabeled-corpus
    setting) and the rest are split train/val/test for SER; otherwise
    pretraining reads the unlabeled SER train split.  SER training sees
    only a seeded label_fraction of its train labels.
    """
    config.validate()
    modes = list(MODES) if modes is None else modes
    if not modes:
        raise ValueError(f"no modes given; choose from {MODES}")
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in modes[:i]:
            raise ValueError(f"mode {mode!r} given twice")

    normalized = corpus if is_normalized(corpus) else length_normalize(corpus)
    if config.pretrain_speaker_fraction > 0.0:
        order = _shuffled_speakers(normalized, config.seed, "pretrain_pool")
        n_pool = max(1, round(config.pretrain_speaker_fraction * len(order)))
        if len(order) - n_pool < 3:
            raise ValueError("pretrain_speaker_fraction leaves too few speakers for SER splits")
        pretrain_base = normalized.take(_speaker_rows(normalized, order[:n_pool]))
        ser_base = normalized.take(_speaker_rows(normalized, order[n_pool:]))
    else:
        pretrain_base = None
        ser_base = normalized

    train_c, val_c, test_c = split_by_speaker(
        ser_base, config.split_fractions, stable_seed(config.seed, "protocol")
    )
    check_speaker_disjoint(train_c, val_c, test_c)
    ser_train = labeled_fraction(train_c, label_fraction, config.seed)
    pretrain_corpus = strip_labels(pretrain_base if pretrain_base is not None else train_c)

    # one pretraining run per (mode, seed); the derived seed is shared across
    # modes so their initializations pair up, and so is the tuple pool, which
    # depends on that seed alone
    run_configs = {s: replace(config, seed=stable_seed(config.seed, "protocol_run", s)) for s in config.seeds}
    pools = {}
    if any(mode in CONTRASTIVE_MODES for mode in modes):
        seeds = [cfg.seed for cfg in run_configs.values()]
        pools = dict(zip(config.seeds, _tuple_pools(pretrain_corpus, config.n_clusters_N, seeds)))

    def cell(job) -> float:
        mode, s = job
        ckpt = None
        if mode != "none":
            ckpt = pretrain(pretrain_corpus, replace(run_configs[s], mode=mode), tuples=pools.get(s))
        model = train_ser(ckpt, ser_train, replace(config, seed=s), val_corpus=val_c)
        return evaluate_uar(model, test_c).uar

    # the costliest modes (the last in MODES) go first, so no worker idles
    # behind a long cell at the end
    cells = [(m, s) for m in sorted(modes, key=MODES.index, reverse=True) for s in config.seeds]
    uar = dict(zip(cells, fork_map(cell, cells)))
    rows = []
    for mode in modes:
        per_seed = [{"seed": int(s), "uar": uar[mode, s]} for s in config.seeds]
        rows.append(
            {
                "mode": mode,
                "label": MODE_LABELS[mode],
                "mean_uar": float(np.mean([p["uar"] for p in per_seed])),
                "per_seed": per_seed,
            }
        )
    return {"rows": rows, "label_fraction": label_fraction, "config": asdict(config)}


# ------------------------------------------------------------ gradient checks

def _relu_margin(model, cache) -> float:
    margins = [
        float(np.abs(z).min())
        for layer, (_, z) in zip(model.layers, cache)
        if layer.activation == "relu" and z.size
    ]
    return min(margins) if margins else np.inf


def _grad_check_nets(kind: str, config: TrainConfig, attempt: int):
    """One candidate configuration of small nets plus an input batch.

    Inputs cluster around a common direction (as length-normalized
    embeddings do), which keeps the contrastive softmax weights away from
    underflow at small temperatures.  Returns None when any relu
    pre-activation sits within 1e-3 of its kink or a projection row is
    nearly zero: central differences need the loss differentiable (and the
    cosine defined) throughout the perturbation neighborhood.
    """
    dim, B, n_neg, margin = 5, 3, 3, 1e-3
    cfg = replace(config, trunk_hidden=6, contrastive_hidden=6, contrastive_out=4, head_hidden=6)
    salt = stable_seed(config.seed, "gradcheck", kind, attempt)
    rng = np.random.default_rng(salt)
    encoder = build_encoder(dim, cfg, salt)
    con_head = build_contrastive_head(encoder.output_dim, cfg, salt)
    spk_head = build_classifier_head(encoder.output_dim, 3, "speaker_cls", cfg, salt)
    emo_head = build_classifier_head(encoder.output_dim, 3, "emotion_cls", cfg, salt)

    # inputs cluster around one direction and are scaled up so pre-activations
    # sit well clear of the relu kinks (cosine geometry is scale-invariant)
    base = rng.normal(size=dim)
    base /= np.linalg.norm(base)
    draw = lambda *shape: 5.0 * (base + 0.35 * rng.normal(size=(*shape, dim)))
    anchors, positives, negatives = draw(B), draw(B), draw(B, n_neg)
    labels = rng.integers(0, 3, size=B)

    rows = np.concatenate([anchors, positives, negatives.reshape(B * n_neg, dim)])
    neg_mask = np.ones((B, n_neg), dtype=bool)
    enc_out, enc_cache = forward(encoder, rows)
    worst = _relu_margin(encoder, enc_cache)
    proj, con_cache = forward(con_head, enc_out)
    worst = min(worst, _relu_margin(con_head, con_cache))
    for head in (spk_head, emo_head):
        _, cache = forward(head, enc_out[:B])
        worst = min(worst, _relu_margin(head, cache))
    if worst <= margin:
        return None
    # cosine curvature scales like 1/row-norm^k: keep projections well away from 0
    if float(np.linalg.norm(proj, axis=1).min()) < 0.05:
        return None
    return cfg, encoder, con_head, spk_head, emo_head, rows, neg_mask, labels


def grad_check_cases(kind: str, config: TrainConfig):
    """Named (loss_fn, params) cases for finite-difference verification,
    sampled from config.seed.

    The mtl cases run in adversarial mode with config.mtl_weights; for the
    trunk the finite differences run against the effective objective
    L_con - lambda*w_spk*L_spk, whose gradient is what the reversal layer
    routes into the trunk.  Configurations whose smallest nonzero analytic
    gradient entry falls below what float64 central differences can
    resolve are resampled.
    """
    config.validate()
    for attempt in range(500):
        nets = _grad_check_nets(kind, config, attempt)
        if nets is None:
            continue
        cases = _assemble_grad_check_cases(kind, nets)
        floor = 3e-6
        ok = True
        for _, loss_fn, _params in cases:
            _, grads = loss_fn()
            nz = np.abs(grads[grads != 0.0])
            if nz.size and nz.min() < floor:
                ok = False
                break
        if ok:
            return cases
    raise RuntimeError("could not sample a well-conditioned gradient-check configuration")


def _flat_copies(*nets: ModelParams):
    """Copies of the nets whose parameters share one flat buffer, plus that buffer."""
    copies = [clone_params(net) for net in nets]
    return copies, flatten_params(*copies)


def _assemble_grad_check_cases(kind: str, nets):
    """Each case owns copies of the nets flattened as training flattens them,
    and passes the part of that buffer its gradient covers."""
    cfg, encoder, con_head, spk_head, emo_head, rows, neg_mask, labels = nets
    anchors = rows[: len(neg_mask)]
    cases = []
    if kind in ("contrastive", "all"):
        copies, flat = _flat_copies(encoder, con_head)
        for include_pos in (False, True):
            con_cfg = replace(cfg, include_positive_in_denominator=include_pos)

            def loss_fn(con_cfg=con_cfg, copies=copies):
                loss, _, grads = _contrastive_step(*copies, None, rows, neg_mask, labels, con_cfg)
                return loss, grads

            label = "denominator with positive" if include_pos else "denominator negatives-only"
            cases.append((f"contrastive ({label})", loss_fn, flat))
    if kind in ("speaker_cls", "emotion_cls", "all"):
        kinds = [kind] if kind != "all" else ["speaker_cls", "emotion_cls"]
        for hk in kinds:
            copies, flat = _flat_copies(encoder, spk_head if hk == "speaker_cls" else emo_head)
            loss_fn = lambda copies=copies: _classifier_step(*copies, anchors, labels)
            cases.append((f"{hk} cross-entropy", loss_fn, flat))
    if kind in ("mtl", "all"):
        mtl_cfg = replace(cfg, mode="mtl_adversarial")
        w = cfg.mtl_weights
        copies, flat = _flat_copies(encoder, con_head, spk_head)
        n_enc = param_count(encoder)

        def trunk_loss_fn(copies=copies):
            l_con, l_spk, grads = _contrastive_step(*copies, rows, neg_mask, labels, mtl_cfg)
            return l_con - w.grl_lambda * w.w_speaker * l_spk, grads[:n_enc]

        def head_loss_fn(copies=copies):
            l_con, l_spk, grads = _contrastive_step(*copies, rows, neg_mask, labels, mtl_cfg)
            return mtl_combine(l_con, l_spk, w), grads[n_enc:]

        cases.append((f"mtl trunk through GRL (lambda={w.grl_lambda})", trunk_loss_fn, flat[:n_enc]))
        cases.append((f"mtl heads (lambda={w.grl_lambda})", head_loss_fn, flat[n_enc:]))
    if not cases:
        raise ValueError(f"unknown grad-check kind {kind!r}")
    return cases


def protocol_to_table(report: dict) -> str:
    """Aligned text table of mean UAR per pretraining mode."""
    rows = [
        [row["label"], f"{row['mean_uar']:.4f}", " ".join(f"{p['uar']:.4f}" for p in row["per_seed"])]
        for row in report["rows"]
    ]
    return aligned_table(["pretraining", "mean UAR", "per-seed UAR"], rows)
