"""Training orchestration: contrastive / speaker / multi-task pretraining,
supervised emotion fine-tuning with early stopping, and the multi-seed
evaluation protocol reporting mean UAR per pretraining mode.

Inputs are utterance-level embedding vectors, so the desk-scale encoder is
a small dense trunk whose output feeds each head directly.
"""

import math
import warnings
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
    flat_buffer,
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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
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


def _contrastive_step(encoder, con_head, spk_head, rows, neg_mask, spk_labels, config, grads):
    """Forward/backward one contrastive batch; returns (l_con, l_spk).

    rows holds the B anchors, then their B positives, then the negatives:
    one per set slot of the (B, M) neg_mask, in row-major order.  The
    projections are scored by `ntxent_variant`.  The speaker head, when
    present, classifies the anchors; in mtl_adversarial mode its gradient
    reaches the trunk through gradient reversal.  The caller has checked
    the batch; the gradient goes into grads, the layer views of
    `flat_buffer(encoder, con_head, spk_head)`.
    """
    weights = config.mtl_weights
    B = len(neg_mask)
    enc_out, enc_cache = forward(encoder, rows)
    proj, head_cache = forward(con_head, enc_out)
    loss_con, dproj = ntxent_variant(proj, neg_mask, config.tau, config.include_positive_in_denominator)
    d_enc = backward(con_head, head_cache, dproj, grads[1])

    loss_spk = 0.0
    if spk_head is not None:
        logits, spk_cache = forward(spk_head, enc_out[:B])
        loss_spk, dlogits = cross_entropy(logits, spk_labels)
        dlogits *= weights.w_speaker
        d_spk_in = backward(spk_head, spk_cache, dlogits, grads[2])
        if config.mode == "mtl_adversarial":
            d_spk_in *= -weights.grl_lambda  # gradient reversal: identity forward, -lambda backward
        d_enc[:B] += d_spk_in

    backward(encoder, enc_cache, d_enc, grads[0], input_grad=False)
    return loss_con, loss_spk


def _classifier_step(encoder, head, rows, labels, grads):
    """Cross-entropy of a classifier head on the trunk, its gradient into grads as above; returns the loss."""
    enc_out, enc_cache = forward(encoder, rows)
    logits, head_cache = forward(head, enc_out)
    loss, dlogits = cross_entropy(logits, labels)
    backward(encoder, enc_cache, backward(head, head_cache, dlogits, grads[1]), grads[0], input_grad=False)
    return loss


def _tuple_pools(corpus: Corpus, n_clusters: int, seeds: list[int]) -> list[tuple]:
    """One training pool per seed, from the intra-speaker clusters with
    k = n_clusters and seed stable_seed(seed, "pretrain_cluster"), mined with
    that seed.  Each (seed, speaker) is clustered and mined as one fork_map
    job, which returns row arrays only; the parts join in sorted-speaker
    order, so a pool lists what mine_tuples would for that seed.

    A pool holds the anchor and positive rows, the (T, M) negative rows and
    each tuple's negative count: tuple i's negatives are the first widths[i]
    slots of its row.
    """
    speakers = sorted(corpus.speakers)
    minings = {seed: MiningConfig(n_clusters_N=n_clusters, seed=seed) for seed in seeds}

    def job(key):
        seed, spk_id = key
        kmeans = KMeansConfig(k=n_clusters, seed=stable_seed(seed, "pretrain_cluster"))
        return mine_speaker(cluster_speaker(corpus, spk_id, kmeans), spk_id, corpus, minings[seed])[:3]

    parts = fork_map(job, [(seed, spk_id) for seed in seeds for spk_id in speakers])
    pools = []
    for i in range(len(seeds)):
        anchors, positives, negatives = zip(*parts[i * len(speakers) : (i + 1) * len(speakers)])
        sizes = [len(a) for a in anchors]
        if not sum(sizes):
            raise ValueError("no mineable tuples: every anchor was skipped")
        widths = np.repeat([n.shape[1] for n in negatives], sizes)
        padded = np.zeros((len(widths), widths.max()), dtype=np.intp)
        padded[np.arange(widths.max()) < widths[:, None]] = np.concatenate([n.ravel() for n in negatives])
        pools.append((np.concatenate(anchors), np.concatenate(positives), padded, widths))
    return pools


def pretrain(corpus_unlabeled: Corpus, config: TrainConfig, tuples: tuple | None = None) -> Checkpoint:
    """Train the trunk (plus mode-specific heads) for config.steps steps.

    Contrastive modes train on a tuple pool as `_tuple_pools` builds it.
    When not given, it is built for config.seed with k = n_clusters_N; it
    depends on config.seed alone, so `run_protocol` builds one pool per
    seed and passes it to every contrastive mode.  The speaker head's label
    of a row is its speaker's index in sorted(corpus.speakers).
    """
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
    flat, grads = flat_buffer(*components.values())
    opt = init_optimizer(params, lr=config.pretrain_lr)
    # batch order is seeded independently of the mode so runs that share a
    # seed differ only in their loss composition (paired comparisons)
    rng = np.random.default_rng(stable_seed(config.seed, "pretrain_batches"))

    if config.steps == 0:
        return Checkpoint(components=components, history=history)

    X = corpus_unlabeled.vectors
    labels = np.asarray([spk_index[s] for s in corpus_unlabeled.spk_ids])  # each row's speaker index
    if contrastive_on:
        pool = tuples if tuples is not None else _tuple_pools(corpus_unlabeled, config.n_clusters_N, [config.seed])[0]
        anchors, positives, negatives, widths = pool
        # the steps read the pool unchecked: check it here, once
        if [column.ndim for column in pool] != [1, 1, 2, 1] or {len(column) for column in pool} != {len(anchors)}:
            raise ValueError("tuple pool columns must have shapes (T,), (T,), (T, M) and (T,)")
        if not all(np.issubdtype(column.dtype, np.integer) for column in pool):
            raise ValueError("tuple pool columns must be integer arrays")
        if not len(anchors):
            raise ValueError("tuple pool is empty")
        M = negatives.shape[1]
        pool_mask = np.arange(M) < widths[:, None]
        outside = lambda values: (values < 0) | (values >= len(X))
        misfit = outside(anchors) | outside(positives) | (outside(negatives) & pool_mask).any(axis=1)
        bad = np.flatnonzero((widths < 1) | (widths > M) | misfit)
        if bad.size:
            raise ValueError(f"tuple {bad[0]}: needs 1 to {M} negatives, and rows in [0, {len(X)})")
        labels = labels[anchors]  # the speaker head classifies the anchors
        con_head, spk_head = components["contrastive"], components.get("speaker_cls")
        batches = _shuffled_batches(len(anchors), config.batch_size, rng)
        for _ in range(config.steps):
            idx = next(batches)
            # pad only to the batch's widest negative set: the loss's sums over
            # the slots would round differently at another width
            width = widths[idx].max()
            mask = pool_mask[idx, :width]
            rows = np.concatenate([anchors[idx], positives[idx], negatives[idx, :width][mask]])
            l_con, l_spk = _contrastive_step(encoder, con_head, spk_head, X[rows], mask, labels[idx], config, grads)
            adamw_step(opt, params, flat)
            history["contrastive"].append(l_con)
            history["speaker"].append(l_spk)
            history["total"].append(mtl_combine(l_con, l_spk, config.mtl_weights))
    else:  # speaker classification only
        batches = _shuffled_batches(len(X), config.batch_size, rng)
        for _ in range(config.steps):
            idx = next(batches)
            loss = _classifier_step(encoder, components["speaker_cls"], X[idx], labels[idx], grads)
            adamw_step(opt, params, flat)
            history["speaker"].append(loss)
            history["contrastive"].append(0.0)
            history["total"].append(loss)

    return Checkpoint(components=components, history=history)


# ------------------------------------------------------------------ SER stage

def _cut_speakers(corpus: Corpus, sizes, *salt) -> list[Corpus]:
    """One corpus per consecutive group of sizes[i] speakers, in a speaker
    order seeded by stable_seed(*salt); each keeps its rows in corpus order."""
    speakers = sorted(corpus.speakers)
    order = [speakers[i] for i in np.random.default_rng(stable_seed(*salt)).permutation(len(speakers))]
    cuts = np.cumsum([0, *sizes])
    return [
        corpus.take(sorted(i for spk in order[lo:hi] for i in corpus.speakers[spk])) for lo, hi in zip(cuts, cuts[1:])
    ]


def split_by_speaker(corpus: Corpus, fractions, seed: int):
    """Speaker-disjoint (train, val, test) split with seeded assignment."""
    n = len(corpus.speakers)
    if n < 3:
        raise ValueError("need at least 3 speakers for a 3-way speaker split")
    n_val = max(1, round(fractions[1] * n))
    n_test = max(1, round(fractions[2] * n))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ValueError(f"split fractions leave no training speakers for {n} speakers")
    return tuple(_cut_speakers(corpus, (n_train, n_val, n_test), seed, "split"))


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


def _check_input_dim(encoder: ModelParams, corpus: Corpus, name: str) -> None:
    """The steps and `ser_predict` run the encoder on the corpus's vectors unchecked."""
    if corpus.dim != encoder.input_dim:
        raise ValueError(f"{name} has {corpus.dim}-d vectors, the encoder takes {encoder.input_dim}-d input")


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
    check_speaker_disjoint(corpus_labeled, val_corpus)

    emotions = sorted({e for e in corpus_labeled.emotions if e is not None})
    if len(emotions) < 2:
        raise ValueError(f"SER training needs >= 2 emotion classes, found {emotions}")

    if checkpoint is not None:
        encoder = clone_params(checkpoint.encoder)
    else:
        encoder = build_encoder(corpus_labeled.dim, config, stable_seed(config.seed, "ser_encoder"))
    _check_input_dim(encoder, corpus_labeled, "corpus_labeled")
    _check_input_dim(encoder, val_corpus, "val_corpus")
    head = build_classifier_head(encoder.output_dim, len(emotions), "emotion_cls", config, config.seed)

    train_rows, train_labels = _labeled_arrays(corpus_labeled, emotions)
    val_rows, val_labels = _labeled_arrays(val_corpus, emotions)

    params = flatten_params(encoder, head)
    flat, grads = flat_buffer(encoder, head)
    opt = init_optimizer(params, lr=config.lr)

    best_acc, best = -1.0, params.copy()  # the best epoch's flat parameters
    since_best = 0
    for epoch in range(config.epochs_ser):
        rng = np.random.default_rng(stable_seed(config.seed, "ser_epoch", epoch))
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            _classifier_step(encoder, head, train_rows[idx], train_labels[idx], grads)
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
    _check_input_dim(model.encoder, corpus_test, "corpus_test")
    rows, labels = _labeled_arrays(corpus_test, model.emotions)
    preds = ser_predict(model.encoder, model.head, rows)

    C = len(model.emotions)
    confusion = np.bincount(labels * C + preds, minlength=C * C).reshape(C, C)

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
        n = len(normalized.speakers)
        n_pool = max(1, round(config.pretrain_speaker_fraction * n))
        if n - n_pool < 3:
            raise ValueError("pretrain_speaker_fraction leaves too few speakers for SER splits")
        pretrain_base, ser_base = _cut_speakers(normalized, (n_pool, n - n_pool), config.seed, "pretrain_pool")
    else:
        pretrain_base = None
        ser_base = normalized

    train_c, val_c, test_c = split_by_speaker(
        ser_base, config.split_fractions, stable_seed(config.seed, "protocol")
    )
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

GRAD_CHECK_KINDS = ("contrastive", "speaker_cls", "emotion_cls", "mtl", "all")


def _grad_check_attempt(kind: str, config: TrainConfig, attempt: int):
    """The cases of one sampled configuration, or None when it fails a screen.

    A configuration is small nets plus an input batch whose rows cluster
    around a common direction (as length-normalized embeddings do), which
    keeps the contrastive softmax weights away from underflow at small
    temperatures.  Central differences need the loss differentiable (and
    the cosine defined) throughout the perturbation neighborhood, and
    gradients they can resolve in float64, so a configuration fails when a
    relu pre-activation sits within 1e-3 of its kink, a projection row has
    norm below 0.05, or a case's smallest nonzero analytic gradient entry
    is below 3e-6.  Each case owns copies of its nets flattened as training
    flattens them, and checks the part of that buffer its gradient covers.
    """
    dim, B, n_neg = 5, 3, 3
    cfg = replace(config, trunk_hidden=6, contrastive_out=4)
    salt = stable_seed(config.seed, "gradcheck", kind, attempt)
    rng = np.random.default_rng(salt)
    encoder = build_encoder(dim, cfg, salt)
    con_head = build_contrastive_head(encoder.output_dim, cfg, salt)
    heads = {hk: build_classifier_head(encoder.output_dim, 3, hk, cfg, salt) for hk in GRAD_CHECK_KINDS if "_cls" in hk}

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
    proj, con_cache = forward(con_head, enc_out)
    caches = [(encoder, enc_cache), (con_head, con_cache)] + [(h, forward(h, enc_out[:B])[1]) for h in heads.values()]
    margin = min(
        np.abs(x @ layer.W.T + layer.b).min()
        for net, cache in caches
        for layer, x in zip(net.layers, cache)
        if layer.activation == "relu"
    )
    # cosine curvature scales like 1/row-norm^k: keep projections well away from 0
    if margin <= 1e-3 or np.linalg.norm(proj, axis=1).min() < 0.05:
        return None

    cases = []

    def add(name, nets, loss, part=slice(None)):
        copies = [clone_params(net) for net in nets]
        flat = flatten_params(*copies)
        grad, grads = flat_buffer(*copies)
        cases.append((name, lambda: (loss(copies, grads), grad[part]), flat[part]))

    if kind in ("contrastive", "all"):
        for include_pos, label in ((False, "negatives-only"), (True, "with positive")):
            con_cfg = replace(cfg, include_positive_in_denominator=include_pos)
            loss = lambda nets, grads, c=con_cfg: _contrastive_step(*nets, None, rows, neg_mask, labels, c, grads)[0]
            add(f"contrastive (denominator {label})", (encoder, con_head), loss)
    for hk, head in heads.items():
        if kind in (hk, "all"):
            loss = lambda nets, grads: _classifier_step(*nets, anchors, labels, grads)
            add(f"{hk} cross-entropy", (encoder, head), loss)
    if kind in ("mtl", "all"):
        mtl_cfg, w, n_enc = replace(cfg, mode="mtl_adversarial"), cfg.mtl_weights, param_count(encoder)
        # the trunk checks L_con - lambda*w_spk*L_spk, the heads the trained L_con + w_spk*L_spk
        parts = (("trunk through GRL", -w.grl_lambda, slice(n_enc)), ("heads", 1.0, slice(n_enc, None)))
        for name, scale, part in parts:

            def loss(nets, grads, scale=scale):
                l_con, l_spk = _contrastive_step(*nets, rows, neg_mask, labels, mtl_cfg, grads)
                return l_con + scale * w.w_speaker * l_spk

            add(f"mtl {name} (lambda={w.grl_lambda})", (encoder, con_head, heads["speaker_cls"]), loss, part)

    for _, loss_fn, _ in cases:
        grad = loss_fn()[1]
        if (np.abs(grad[grad != 0.0]) < 3e-6).any():
            return None
    return cases


def grad_check_cases(kind: str, config: TrainConfig):
    """Named (loss_fn, params) cases of `kind` (one of GRAD_CHECK_KINDS) for
    finite-difference verification, sampled from config.seed.

    The mtl cases run in adversarial mode with config.mtl_weights; for the
    trunk the finite differences run against the effective objective
    L_con - lambda*w_spk*L_spk, whose gradient is what the reversal layer
    routes into the trunk.  Up to 500 configurations are sampled, and the
    first that passes every screen of `_grad_check_attempt` gives the
    cases; if none does, FloatingPointError is raised.
    """
    if kind not in GRAD_CHECK_KINDS:
        raise ValueError(f"unknown grad-check kind {kind!r}; expected one of {', '.join(GRAD_CHECK_KINDS)}")
    for attempt in range(500):
        cases = _grad_check_attempt(kind, config, attempt)
        if cases is not None:
            return cases
    raise FloatingPointError(f"no well-conditioned {kind!r} gradient-check configuration in 500 attempts")


def protocol_to_table(report: dict) -> str:
    """Aligned text table of mean UAR per pretraining mode."""
    rows = [
        [row["label"], f"{row['mean_uar']:.4f}", " ".join(f"{p['uar']:.4f}" for p in row["per_seed"])]
        for row in report["rows"]
    ]
    return aligned_table(["pretraining", "mean UAR", "per-seed UAR"], rows)
