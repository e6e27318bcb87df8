import hashlib
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from emocluster.corpus import (
    Corpus,
    SynthSpec,
    generate_synthetic,
    length_normalize,
    strip_labels,
)
from emocluster import parallel, trainer
from emocluster.clustering import KMeansConfig, cluster_speakers
from emocluster.nn_core import forward, save_checkpoint
from emocluster.objectives import MtlWeights
from emocluster.pair_miner import MiningConfig, mine_tuples
from emocluster.serialize import stable_seed
from emocluster.trainer import (
    MODES,
    Checkpoint,
    EvalResult,
    SerModel,
    TrainConfig,
    build_classifier_head,
    build_encoder,
    check_speaker_disjoint,
    evaluate_uar,
    grad_check_cases,
    labeled_fraction,
    pretrain,
    protocol_to_table,
    run_protocol,
    split_by_speaker,
    train_ser,
)
from oracles import tuple_pool

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _corpus(seed=3, n_speakers=8, upc=12, dim=8, delta=2.0, noise=0.4):
    spec = SynthSpec(
        n_speakers=n_speakers, n_emotions=4, utts_per_cell=upc, dim=dim,
        speaker_spread=1.0, emotion_offset_norm=delta, within_noise=noise, seed=seed,
    )
    return length_normalize(generate_synthetic(spec))


def _small_config(**overrides):
    defaults = dict(
        mode="contrastive", steps=60, batch_size=8, lr=1e-3, pretrain_lr=1e-3,
        epochs_ser=8, tau=0.1, n_clusters_N=4, seeds=(0, 1),
        trunk_hidden=16, contrastive_out=8, seed=2,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_split_by_speaker_disjoint_and_deterministic():
    corpus = _corpus()
    a = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=7)
    b = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=7)
    for c1, c2 in zip(a, b):
        assert c1.utt_ids == c2.utt_ids
    check_speaker_disjoint(*a)
    assert sum(len(c.speakers) for c in a) == len(corpus.speakers)


def test_split_leakage_detected():
    corpus = _corpus(n_speakers=4)
    with pytest.raises(ValueError, match="split leakage"):
        check_speaker_disjoint(corpus, corpus)


def test_evaluate_uar_all_correct_is_one():
    corpus = _corpus(n_speakers=4)
    config = _small_config()
    encoder = build_encoder(corpus.dim, config, 0)
    head = build_classifier_head(encoder[-1].W.shape[0], 4, "emotion_cls", config, 0)
    emotions = sorted(set(corpus.emotions))
    model = SerModel(encoder, head, emotions, train_speakers=set())
    preds_emotions = []  # force perfect predictions by relabeling the corpus
    from emocluster.trainer import ser_predict

    rows = corpus.vectors
    preds = ser_predict(encoder, head, rows)
    relabeled = Corpus(corpus.vectors, corpus.utt_ids, corpus.spk_ids, [emotions[p] for p in preds])
    result = evaluate_uar(model, relabeled)
    assert result.uar == pytest.approx(1.0)
    assert all(v == 1.0 for v in result.per_class_recall.values())


def _stub_model_for(emotions, dim, config):
    encoder = build_encoder(dim, config, 1)
    head = build_classifier_head(encoder[-1].W.shape[0], len(emotions), "emotion_cls", config, 1)
    return SerModel(encoder, head, list(emotions), train_speakers={"trainspk"})


def _argmax_passthrough_model(emotions):
    """Identity encoder + identity-logit head: prediction = argmax coordinate."""
    from emocluster.nn_core import DenseLayer

    dim = len(emotions)
    encoder = [DenseLayer(np.eye(dim), np.zeros(dim), "identity")]
    head = [DenseLayer(np.eye(dim), np.zeros(dim), "identity")]
    return SerModel(encoder, head, list(emotions), train_speakers=set())


def test_evaluate_uar_direct_recall_average():
    # recalls 1.0 and 0.5 -> UAR 0.75, verified against the confusion matrix
    model = _argmax_passthrough_model(["a", "b"])
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    vectors = np.stack([e0, e0, e1, e0])  # b1 is misclassified as "a"
    result = evaluate_uar(model, Corpus(vectors, ["a0", "a1", "b0", "b1"], ["s_test"] * 4, ["a", "a", "b", "b"]))
    assert result.per_class_recall["a"] == pytest.approx(1.0)
    assert result.per_class_recall["b"] == pytest.approx(0.5)
    assert result.uar == pytest.approx(0.75)
    recomputed = np.mean([result.confusion[i, i] / result.confusion[i].sum() for i in range(2)])
    assert result.uar == pytest.approx(float(recomputed), abs=1e-12)
    assert result.confusion.tolist() == [[2, 0], [1, 1]]


def test_evaluate_uar_majority_predictor_balanced_classes():
    config = _small_config()
    emotions = ["a", "b", "c", "d"]
    encoder = build_encoder(4, config, 1)
    head = build_classifier_head(encoder[-1].W.shape[0], 4, "emotion_cls", config, 1)
    # force the head to always pick class 0
    head[-1].b[:] = np.array([100.0, 0.0, 0.0, 0.0])
    model = SerModel(encoder, head, emotions, train_speakers=set())
    rng = np.random.default_rng(1)
    corpus = Corpus(rng.normal(size=(40, 4)), [f"u{i}" for i in range(40)], ["spkX"] * 40, emotions * 10)
    result = evaluate_uar(model, corpus)
    assert result.uar == pytest.approx(0.25)


def test_evaluate_uar_rejects_speaker_overlap():
    config = _small_config()
    model = _stub_model_for(["a", "b"], 4, config)
    corpus = Corpus([np.ones(4), np.ones(4) * 2], ["u", "u2"], ["trainspk"] * 2, ["a", "b"])
    with pytest.raises(ValueError, match="overlap"):
        evaluate_uar(model, corpus)


def test_evaluate_uar_warns_on_absent_class():
    config = _small_config()
    model = _stub_model_for(["a", "b", "c"], 4, config)
    rng = np.random.default_rng(2)
    corpus = Corpus(rng.normal(size=(6, 4)), [f"u{i}" for i in range(6)], ["s"] * 6, ["a", "b"] * 3)
    with pytest.warns(UserWarning, match="absent"):
        result = evaluate_uar(model, corpus)
    assert set(result.per_class_recall) == {"a", "b"}


def test_evaluate_uar_rejects_a_test_corpus_of_another_dim():
    model = _stub_model_for(["a", "b"], 4, _small_config())
    corpus = Corpus(np.ones((4, 3)), [f"u{i}" for i in range(4)], ["s"] * 4, ["a", "b"] * 2)
    with pytest.raises(ValueError, match="corpus_test has 3-d vectors, the encoder takes 4-d input"):
        evaluate_uar(model, corpus)


def test_pretrain_steps_zero_keeps_initialization():
    corpus = strip_labels(_corpus(n_speakers=4))
    config = _small_config(steps=0)
    ckpt = pretrain(corpus, config)
    fresh_encoder = build_encoder(corpus.dim, config, config.seed)
    for la, lb in zip(ckpt.encoder, fresh_encoder):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)


def test_pretrain_mode_none_rejected():
    corpus = strip_labels(_corpus(n_speakers=4))
    with pytest.raises(ValueError, match="mode"):
        pretrain(corpus, _small_config(mode="none"))


def test_pretrain_contrastive_loss_decreases():
    corpus = strip_labels(_corpus(n_speakers=6, upc=16))
    config = _small_config(steps=400)
    ckpt = pretrain(corpus, config)
    losses = ckpt.history["contrastive"]
    head = np.mean(losses[:100])
    tail = np.mean(losses[-100:])
    # losses of the printed form can be negative; compare against the
    # anchored floor of -log over the denominator terms
    assert tail < head
    assert (head - tail) >= 0.5 * abs(head) or tail < 0


def test_pretrain_speaker_classification_learns():
    corpus = strip_labels(_corpus(n_speakers=5, upc=16))
    config = _small_config(mode="spk_cls", steps=500)
    ckpt = pretrain(corpus, config)
    speakers = sorted(corpus.speakers)
    rows = corpus.vectors
    labels = np.array([speakers.index(spk_id) for spk_id in corpus.spk_ids])
    enc_out, _ = forward(ckpt.encoder, rows)
    probs, _ = forward(ckpt.components["speaker_cls"], enc_out)
    acc = float((probs.argmax(axis=1) == labels).mean())
    assert acc >= 0.9


def test_pretrain_deterministic():
    corpus = strip_labels(_corpus(n_speakers=4))
    config = _small_config(steps=40)
    a = pretrain(corpus, config)
    b = pretrain(corpus, config)
    for la, lb in zip(a.encoder, b.encoder):
        assert np.array_equal(la.W, lb.W)
    assert a.history == b.history


def test_adversarial_lambda_zero_trunk_matches_contrastive_only():
    corpus = strip_labels(_corpus(n_speakers=4))
    base = _small_config(steps=25)
    contrastive = pretrain(corpus, base)
    adv = pretrain(
        corpus,
        _small_config(
            steps=25, mode="mtl_adversarial",
            mtl_weights=MtlWeights(w_speaker=1.0, grl_lambda=0.0),
        ),
    )
    # lambda=0 blocks the speaker gradient at the reversal layer, so the
    # trunk follows exactly the contrastive-only trajectory
    for la, lb in zip(contrastive.encoder, adv.encoder):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)


def test_adversarial_reversal_changes_trunk_not_head_first_step():
    corpus = strip_labels(_corpus(n_speakers=4))
    mtl = pretrain(corpus, _small_config(steps=1, mode="mtl"))
    adv = pretrain(
        corpus,
        _small_config(
            steps=1, mode="mtl_adversarial",
            mtl_weights=MtlWeights(w_speaker=1.0, grl_lambda=1.0),
        ),
    )
    # heads receive identical gradients on the first step (reversal only
    # affects what flows into the trunk)
    for la, lb in zip(mtl.components["speaker_cls"], adv.components["speaker_cls"]):
        assert np.array_equal(la.W, lb.W)
    assert any(
        not np.array_equal(la.W, lb.W)
        for la, lb in zip(mtl.encoder, adv.encoder)
    )


def _weights_and_history(ckpt):
    arrays = [a for name in sorted(ckpt.components) for l in ckpt.components[name] for a in (l.W, l.b)]
    return b"".join(a.tobytes() for a in arrays), ckpt.history


def test_pretrain_given_run_and_tuples_matches_internal():
    # the pool pretrain builds depends on config.seed alone, so a pool built
    # outside from a clustering run and its mined tuples must change nothing
    corpus = strip_labels(_corpus(n_speakers=4, upc=8))
    config = _small_config(steps=80, mode="mtl_adversarial")
    run = cluster_speakers(
        corpus, KMeansConfig(k=config.n_clusters_N, seed=stable_seed(config.seed, "pretrain_cluster"))
    )
    tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=config.n_clusters_N, seed=config.seed))
    given = pretrain(corpus, config, tuples=tuple_pool(tuples, corpus))
    assert _weights_and_history(given) == _weights_and_history(pretrain(corpus, config))


def test_run_protocol_clusters_and_mines_once_per_seed(monkeypatch):
    # each (seed, speaker) is clustered and mined exactly once, however many
    # contrastive modes share its pool; the counters live in this process
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    calls = {"cluster": [], "mine": []}
    cluster_speaker, mine_speaker = trainer.cluster_speaker, trainer.mine_speaker

    def clustering(corpus, spk_id, config):
        calls["cluster"].append((config.seed, spk_id))
        return cluster_speaker(corpus, spk_id, config)

    def mining(sc, spk_id, corpus, config):
        calls["mine"].append((config.seed, spk_id))
        return mine_speaker(sc, spk_id, corpus, config)

    monkeypatch.setattr(trainer, "cluster_speaker", clustering)
    monkeypatch.setattr(trainer, "mine_speaker", mining)
    corpus = _corpus(n_speakers=8, upc=8)
    config = _small_config(steps=20, seeds=(0, 1), epochs_ser=2, split_fractions=(0.5, 0.25, 0.25))
    report = run_protocol(corpus, config, label_fraction=0.5)
    assert [row["mode"] for row in report["rows"]] == list(MODES)
    for name, keys in calls.items():
        seeds, speakers = {s for s, _ in keys}, {spk for _, spk in keys}
        assert len(seeds) == 2 and len(speakers) == 4, (name, keys)
        assert sorted(keys) == sorted({(s, spk) for s in seeds for spk in speakers}), (name, keys)


def test_train_ser_requires_two_classes():
    corpus = _corpus(n_speakers=4)
    single = Corpus(corpus.vectors, corpus.utt_ids, corpus.spk_ids, ["only"] * len(corpus))
    train_c, val_c, _ = split_by_speaker(single, (0.5, 0.25, 0.25), seed=1)
    with pytest.raises(ValueError, match=">= 2 emotion classes"):
        train_ser(None, train_c, _small_config(), val_corpus=val_c)


def test_train_ser_rejects_leaky_val():
    corpus = _corpus(n_speakers=4)
    with pytest.raises(ValueError, match="split leakage"):
        train_ser(None, corpus, _small_config(), val_corpus=corpus)


def test_train_ser_rejects_a_checkpoint_of_another_dim():
    train_c, val_c, _ = split_by_speaker(_corpus(n_speakers=6, dim=5), (0.5, 0.25, 0.25), seed=1)
    ckpt = Checkpoint(components={"encoder": build_encoder(8, _small_config(), 0)}, history={})
    with pytest.raises(ValueError, match="corpus_labeled has 5-d vectors, the encoder takes 8-d input"):
        train_ser(ckpt, train_c, _small_config(), val_corpus=val_c)


def test_train_ser_rejects_a_val_corpus_of_another_dim():
    # the same speaker count and split seed put the same speakers in each split
    train_c, _, _ = split_by_speaker(_corpus(n_speakers=6), (0.5, 0.25, 0.25), seed=1)
    _, val_5d, _ = split_by_speaker(_corpus(n_speakers=6, dim=5), (0.5, 0.25, 0.25), seed=1)
    with pytest.raises(ValueError, match="val_corpus has 5-d vectors, the encoder takes 8-d input"):
        train_ser(None, train_c, _small_config(), val_corpus=val_5d)


def test_training_steps_call_forward_backward_and_cross_entropy_by_name(monkeypatch):
    # a tracer that swaps these module attributes for wrappers sees every step
    train_c, val_c, _ = split_by_speaker(_corpus(n_speakers=6, upc=7), (0.5, 0.25, 0.25), seed=1)
    config = _small_config(mode="mtl", steps=2, epochs_ser=1)

    def run():
        ckpt = pretrain(strip_labels(train_c), config)
        model = train_ser(ckpt, train_c, config, val_corpus=val_c)
        nets = (*ckpt.components.values(), model.encoder, model.head)
        params = [a.tobytes() for net in nets for l in net for a in (l.W, l.b)]
        return params + [np.array(ckpt.history[k]).tobytes() for k in ("contrastive", "speaker", "total")]

    unpatched = run()
    calls = Counter()
    for name in ("forward", "backward", "cross_entropy"):

        def counting(*args, _name=name, _fn=getattr(trainer, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counting)
    assert run() == unpatched
    assert set(calls) == {"forward", "backward", "cross_entropy"}


def test_train_ser_seeded_determinism():
    corpus = _corpus(n_speakers=6)
    train_c, val_c, _ = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=1)
    config = _small_config(epochs_ser=4)
    m1 = train_ser(None, train_c, replace(config, seed=5), val_corpus=val_c)
    m2 = train_ser(None, train_c, replace(config, seed=5), val_corpus=val_c)
    r1, r2 = evaluate_uar(m1, val_c), evaluate_uar(m2, val_c)
    assert r1.uar == r2.uar
    assert r1.per_class_recall == r2.per_class_recall
    assert np.array_equal(r1.confusion, r2.confusion)
    for la, lb in zip(m1.encoder, m2.encoder):
        assert np.array_equal(la.W, lb.W)


def test_labeled_fraction_budget_and_determinism():
    corpus = _corpus(n_speakers=6, upc=10)
    subset = labeled_fraction(corpus, 0.1, seed=3)
    per_class = {}
    for emotion in subset.emotions:
        per_class[emotion] = per_class.get(emotion, 0) + 1
    assert set(per_class) == {"neutral", "happy", "sad", "angry"}
    for count in per_class.values():
        assert count == max(1, round(0.1 * 6 * 10))
    again = labeled_fraction(corpus, 0.1, seed=3)
    assert subset.utt_ids == again.utt_ids
    assert len(labeled_fraction(corpus, 1.0, seed=0)) == len(corpus)
    with pytest.raises(ValueError):
        labeled_fraction(corpus, 0.0, seed=0)


def test_run_protocol_counts_and_rows():
    corpus = _corpus(n_speakers=8, upc=8)
    config = _small_config(steps=30, seeds=(0, 1), epochs_ser=3, split_fractions=(0.5, 0.25, 0.25))
    report = run_protocol(corpus, config, modes=["none", "contrastive"], label_fraction=0.5)
    assert [row["mode"] for row in report["rows"]] == ["none", "contrastive"]
    for row in report["rows"]:
        assert len(row["per_seed"]) == 2
        assert row["mean_uar"] == pytest.approx(np.mean([p["uar"] for p in row["per_seed"]]))
    table = protocol_to_table(report)
    assert "no pretraining" in table
    assert "mean UAR" in table


def test_run_protocol_single_none_mode():
    corpus = _corpus(n_speakers=6, upc=8)
    config = _small_config(seeds=(0,), epochs_ser=3, split_fractions=(0.5, 0.25, 0.25))
    report = run_protocol(corpus, config, modes=["none"], label_fraction=0.5)
    assert len(report["rows"]) == 1
    assert report["rows"][0]["mode"] == "none"


def test_run_protocol_rejects_unknown_mode():
    corpus = _corpus(n_speakers=6, upc=8)
    with pytest.raises(ValueError, match="unknown mode"):
        run_protocol(corpus, _small_config(), modes=["fancy"], label_fraction=0.5)


def test_grad_check_cases_rejects_unknown_kind_before_sampling(monkeypatch):
    def no_net(*args):
        raise AssertionError("a net was built")

    monkeypatch.setattr(trainer, "build_encoder", no_net)
    with pytest.raises(ValueError, match="unknown grad-check kind 'bogus'"):
        grad_check_cases("bogus", TrainConfig())


def test_config_validation_and_serialization():
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0)
    with pytest.raises(ValueError):
        TrainConfig(split_fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        TrainConfig(seeds=())
    payload = asdict(_small_config())
    assert payload["mode"] == "contrastive"
    assert payload["mtl_weights"]["w_speaker"] == 1.0


@pytest.mark.parametrize(
    "make, field, bad, message",
    [
        (KMeansConfig, "k", 0, "k must be >= 1"),
        (MiningConfig, "n_clusters_N", 1, "n_clusters_N must be >= 2"),
        (lambda **kw: SynthSpec(2, 2, 2, 4, **kw), "within_noise", 0.0, "within_noise must be > 0"),
        (MtlWeights, "grl_lambda", -1.0, "grl_lambda must be >= 0"),
        (TrainConfig, "tau", 0.0, "tau must be > 0"),
    ],
)
def test_configs_check_themselves_when_made_and_are_frozen(make, field, bad, message):
    config = make()
    with pytest.raises(ValueError, match=message):
        make(**{field: bad})
    with pytest.raises(ValueError, match=message):
        replace(config, **{field: bad})
    with pytest.raises(FrozenInstanceError):
        setattr(config, field, bad)


def test_config_rejects_repeated_seed():
    with pytest.raises(ValueError, match="seed 3 given twice"):
        TrainConfig(seeds=(3, 0, 3))


def test_ntxent_rows_drops_zero_projections():
    from emocluster.objectives import ntxent_variant

    tau = _small_config().tau
    rng = np.random.default_rng(40)
    mask = np.array([[True, True], [True, True], [True, False]])
    proj = rng.normal(size=(3 + 3 + 5, 4))
    loss, dproj = ntxent_variant(proj, mask, tau)
    assert np.isfinite(loss) and dproj.any(axis=1).all()

    # anchor 0 is zero; so is anchor 1's first negative (row 8): anchors 1 and 2 remain
    proj[0] = 0.0
    proj[8] = 0.0
    loss, dproj = ntxent_variant(proj, mask, tau)
    live = np.array([[False, True], [True, False]])
    ref_loss, ref = ntxent_variant(proj[[1, 2, 4, 5, 9, 10]], live, tau)
    assert loss == ref_loss
    assert not dproj[[0, 3, 6, 7, 8]].any()
    assert np.array_equal(dproj[[1, 2, 4, 5, 9, 10]], ref)

    # a row of entries whose squares underflow has norm 0 and leaves too, as an exact zero would
    proj[9] = 1e-170
    loss, dproj = ntxent_variant(proj, mask, tau)
    ref_loss, _ = ntxent_variant(proj[[2, 5, 10]], live[1:], tau)
    assert loss == ref_loss and not dproj[[1, 4, 9]].any()

    # no anchor left: the loss and its gradient are 0
    proj[4:6] = 0.0
    loss, dproj = ntxent_variant(proj, mask, tau)
    assert loss == 0.0 and not dproj.any()

    # an anchor mined with no negative is still rejected, zero rows elsewhere or not
    empty = mask.copy()
    empty[2] = False
    for rows in (rng.normal(size=(3 + 3 + 4, 4)), proj[:10]):
        with pytest.raises(ValueError, match="needs at least one negative"):
            ntxent_variant(rows, empty, tau)


def test_run_protocol_survives_zero_projections(monkeypatch):
    # a narrow trunk whose ReLUs die sends some contrastive projections to exactly 0
    zero_rows = []
    ntxent_variant = trainer.ntxent_variant

    def counting(proj, neg_mask, tau, include_positive_in_denominator):
        zero_rows.append(int((~proj.any(axis=1)).sum()))
        return ntxent_variant(proj, neg_mask, tau, include_positive_in_denominator)

    monkeypatch.setattr(trainer, "ntxent_variant", counting)
    # the counter lives in this process, so the cells must run here too
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    spec = SynthSpec(
        n_speakers=12, n_emotions=4, utts_per_cell=10, dim=12, emotion_offset_norm=2.0, within_noise=0.8, seed=5
    )
    config = TrainConfig(
        steps=60, batch_size=8, lr=1e-3, pretrain_lr=1e-3, epochs_ser=5, n_clusters_N=6, seeds=(0, 1),
        trunk_hidden=8, contrastive_out=8, seed=2, split_fractions=(0.5, 0.25, 0.25), pretrain_speaker_fraction=0.34,
    )
    report = run_protocol(generate_synthetic(spec), config, label_fraction=0.3)
    assert sum(zero_rows) > 0
    assert [row["mode"] for row in report["rows"]] == list(MODES)
    assert all(0.0 <= p["uar"] <= 1.0 for row in report["rows"] for p in row["per_seed"])


def test_pretrain_checks_the_pool_before_the_first_step(monkeypatch):
    # the steps run unchecked, so a bad row anywhere in a given pool stops
    # pretrain before the first step, not when a batch first draws it
    corpus = strip_labels(_corpus(n_speakers=4, upc=8))
    config = _small_config(mode="mtl", steps=5)
    anchors, positives, negatives, widths = trainer._tuple_pools(corpus, config.n_clusters_N, [config.seed])[0]
    monkeypatch.setattr(trainer, "_contrastive_step", lambda *args: pytest.fail("a step ran"))
    last, M = len(widths) - 1, negatives.shape[1]
    # a tuple needs a negative, and can hold no more than its row has slots
    for width in (0, M + 1):
        bad_width = widths.copy()
        bad_width[last] = width
        with pytest.raises(ValueError, match=f"tuple {last}: needs 1 to {M} negatives"):
            pretrain(corpus, config, tuples=(anchors, positives, negatives, bad_width))
    with pytest.raises(ValueError, match="columns must have shapes"):
        pretrain(corpus, config, tuples=(anchors, positives, negatives, widths[:-1]))
    with pytest.raises(ValueError, match="columns must have shapes"):
        pretrain(corpus, config, tuples=(anchors, positives, negatives[:, 0], widths))
    # rows outside the corpus: anchors of -1 would wrap to its last row, and one of len(corpus) would
    # raise a bare IndexError only when a batch drew it
    rows = rf"tuple {{}}: .* rows in \[0, {len(corpus)}\)"
    with pytest.raises(ValueError, match=rows.format(0)):
        pretrain(corpus, config, tuples=(np.full_like(anchors, -1), positives, negatives, widths))
    past_end = positives.copy()
    past_end[last] = len(corpus)
    with pytest.raises(ValueError, match=rows.format(last)):
        pretrain(corpus, config, tuples=(anchors, past_end, negatives, widths))
    stray = negatives.copy()
    stray[last, 0] = len(corpus)
    with pytest.raises(ValueError, match=rows.format(last)):
        pretrain(corpus, config, tuples=(anchors, positives, stray, widths))
    with pytest.raises(ValueError, match="must be integer arrays"):
        pretrain(corpus, config, tuples=(anchors, positives, negatives.astype(float), widths))
    with pytest.raises(ValueError, match="must be integer arrays"):
        pretrain(corpus, config, tuples=(anchors, positives, negatives, widths.astype(float)))
    # an empty pool would leave the batch generator looping without yielding
    with pytest.raises(ValueError, match="tuple pool is empty"):
        pretrain(corpus, config, tuples=(anchors[:0], positives[:0], negatives[:0], widths[:0]))


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _padded_corpus():
    # spk000's utterances repeat two vectors, so it has 2 populated clusters and
    # a window of 1 beside the other speakers' N/2 = 2: a batch that mixes it
    # with another speaker has padded negative slots
    corpus = strip_labels(_corpus(n_speakers=4, upc=8))
    vectors = corpus.vectors.copy()
    rows = corpus.speakers["spk000"]
    vectors[rows] = vectors[rows[:2] * (len(rows) // 2)]
    return Corpus(vectors, corpus.utt_ids, corpus.spk_ids, corpus.emotions)


_PINNED_CORPORA = {"full": lambda: strip_labels(_corpus(n_speakers=4, upc=8)), "padded": _padded_corpus}


def _pinned_config(**overrides):
    return _small_config(steps=40, mtl_weights=MtlWeights(w_speaker=0.5, grl_lambda=2.0), **overrides)


@pytest.mark.parametrize("name, full", [("full", True), ("padded", False)])
def test_pinned_corpora_cover_both_loss_paths(name, full):
    corpus = _PINNED_CORPORA[name]()
    config = _pinned_config()
    widths = trainer._tuple_pools(corpus, config.n_clusters_N, [config.seed])[0][3]
    assert bool((widths == widths.max()).all()) == full


# sha256 of each checkpoint's .bin followed by its contrastive, speaker and
# total loss histories as float64 bytes
# (the with_positive ones since that loss is taken as softplus of the
# negatives-only loss, which moved their last bits)
PRETRAIN_DIGESTS = {
    "full/spk_cls/negatives_only": "3989a1824af89cbeb3611645751c859fdc43f7d232ea37a4b1b5f42b50f05169",
    "full/spk_cls/with_positive": "3989a1824af89cbeb3611645751c859fdc43f7d232ea37a4b1b5f42b50f05169",
    "full/contrastive/negatives_only": "23d3deb17540dca6e0c01a5a5f61026bc188da549f325c2ed5ba3aaecf20a0f4",
    "full/contrastive/with_positive": "9761659613b7c0322737cd4cd9e57e3a913418401886833aa9f189c0eb03a558",
    "full/mtl_adversarial/negatives_only": "ef6d0cb260abda4a14169540aa5d293f20cb40099309b23b49f13c19ce548a54",
    "full/mtl_adversarial/with_positive": "da722d07b95be6071be4bed6fbfdc11398b25ad9d32eddd1b7ee7ac05c4dee39",
    "full/mtl/negatives_only": "0451eb1f939360f45b121c802c3713eb2e0dd04d8f13b9d2ef2a40882b5de5d1",
    "full/mtl/with_positive": "fe39a50bc97e06c7bbba17d64c9f2e98c55c542a69fb6ece8cfe9a68c5eeb054",
    "padded/spk_cls/negatives_only": "edb62279e89bc6912bd84d6f8fba154862e63013c718d46b8d3f1f788d3e982d",
    "padded/spk_cls/with_positive": "edb62279e89bc6912bd84d6f8fba154862e63013c718d46b8d3f1f788d3e982d",
    "padded/contrastive/negatives_only": "a71e70fd21e81fa2c980c7f10b0d938cd4050460eb4a6859e0d6cc1560bc6497",
    "padded/contrastive/with_positive": "13c1f0fd855e984eaf409c59ddf4a21adbdcddbcbe0947e9ad3d48f5c352a0fc",
    "padded/mtl_adversarial/negatives_only": "e7b32b64acc1bfe5558444e7de6669303b23c8b95e074f48b97e5e1e1f63ffec",
    "padded/mtl_adversarial/with_positive": "3da6c55f22fe71c13cb8603f3b27824723d28fccae3f535de1dd3e688f318b9c",
    "padded/mtl/negatives_only": "6e0546a3f27d26f7a9c0cd01aa57bd6519e4c3698a3c38e8905b223cca2359c0",
    "padded/mtl/with_positive": "a1fefc653d73be1e6810ae6f9d7ff068c792fb783cb91253f9d7c591e9d53e6d",
}


@pytest.mark.parametrize("case", sorted(PRETRAIN_DIGESTS))
def test_pretrain_output_is_pinned(tmp_path, case):
    # every step is pinned to the bit: weights, and every loss it reported
    name, mode, denominator = case.split("/")
    config = _pinned_config(mode=mode, include_positive_in_denominator=denominator == "with_positive")
    ckpt = pretrain(_PINNED_CORPORA[name](), config)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, ckpt.components, {})
    with open(path + ".bin", "rb") as fh:
        blob = fh.read()
    histories = [np.array(ckpt.history[k], dtype=np.float64).tobytes() for k in ("contrastive", "speaker", "total")]
    assert _sha256(blob, *histories) == PRETRAIN_DIGESTS[case]


@pytest.mark.parametrize(
    "pretrained, digest",
    [
        (False, "770ccd14fae51f89310ac7bd74162e826d5b6d5260c95c38ba0705eb41bd5d08"),
        (True, "3790be35e5845d0cf9c4209844eb60c923f470fb748a46166a3499f106049db7"),
    ],
    ids=["fresh", "pretrained"],
)
def test_train_ser_output_is_pinned(pretrained, digest):
    # the fine-tuned parameters; 3 training speakers give 84 rows, so each epoch ends on a batch of 4
    corpus = _corpus(n_speakers=7, upc=7)
    train_c, val_c, _ = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=1)
    config = _pinned_config(mode="mtl", epochs_ser=8)
    ckpt = pretrain(strip_labels(train_c), config) if pretrained else None
    model = train_ser(ckpt, train_c, config, val_corpus=val_c)
    params = [a.tobytes() for net in (model.encoder, model.head) for l in net for a in (l.W, l.b)]
    assert _sha256(*params) == digest
