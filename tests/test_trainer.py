from dataclasses import asdict, replace

import numpy as np
import pytest

from emocluster.corpus import (
    EmbeddingRecord,
    SynthSpec,
    build_corpus,
    generate_synthetic,
    length_normalize,
    strip_labels,
)
from emocluster import parallel, trainer
from emocluster.clustering import KMeansConfig, cluster_speakers
from emocluster.nn_core import forward
from emocluster.objectives import MtlWeights
from emocluster.pair_miner import MiningConfig, mine_tuples
from emocluster.serialize import stable_seed
from emocluster.trainer import (
    MODES,
    EvalResult,
    SerModel,
    TrainConfig,
    build_classifier_head,
    build_encoder,
    check_speaker_disjoint,
    evaluate_uar,
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
        trunk_hidden=16, contrastive_hidden=16, contrastive_out=8, head_hidden=16, seed=2,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_split_by_speaker_disjoint_and_deterministic():
    corpus = _corpus()
    a = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=7)
    b = split_by_speaker(corpus, (0.5, 0.25, 0.25), seed=7)
    for c1, c2 in zip(a, b):
        assert [r.utt_id for r in c1.records] == [r.utt_id for r in c2.records]
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
    head = build_classifier_head(encoder.output_dim, 4, "emotion_cls", config, 0)
    emotions = sorted({r.emotion for r in corpus.records})
    model = SerModel(encoder, head, emotions, train_speakers=set())
    preds_emotions = []  # force perfect predictions by relabeling the corpus
    from emocluster.trainer import ser_predict

    rows = np.stack([r.vec for r in corpus.records])
    preds = ser_predict(encoder, head, rows)
    relabeled = build_corpus(
        [
            EmbeddingRecord(r.utt_id, r.spk_id, emotions[p], r.vec)
            for r, p in zip(corpus.records, preds)
        ]
    )
    result = evaluate_uar(model, relabeled)
    assert result.uar == pytest.approx(1.0)
    assert all(v == 1.0 for v in result.per_class_recall.values())


def _stub_model_for(emotions, dim, config):
    encoder = build_encoder(dim, config, 1)
    head = build_classifier_head(encoder.output_dim, len(emotions), "emotion_cls", config, 1)
    return SerModel(encoder, head, list(emotions), train_speakers={"trainspk"})


def _argmax_passthrough_model(emotions):
    """Identity encoder + identity-logit head: prediction = argmax coordinate."""
    from emocluster.nn_core import DenseLayer, ModelParams

    dim = len(emotions)
    encoder = ModelParams([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])
    head = ModelParams([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])
    return SerModel(encoder, head, list(emotions), train_speakers=set())


def test_evaluate_uar_direct_recall_average():
    # recalls 1.0 and 0.5 -> UAR 0.75, verified against the confusion matrix
    model = _argmax_passthrough_model(["a", "b"])
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    records = [
        EmbeddingRecord("a0", "s_test", "a", e0),
        EmbeddingRecord("a1", "s_test", "a", e0),
        EmbeddingRecord("b0", "s_test", "b", e1),
        EmbeddingRecord("b1", "s_test", "b", e0),  # misclassified as "a"
    ]
    result = evaluate_uar(model, build_corpus(records))
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
    head = build_classifier_head(encoder.output_dim, 4, "emotion_cls", config, 1)
    # force the head to always pick class 0
    head.layers[-1].b[:] = np.array([100.0, 0.0, 0.0, 0.0])
    model = SerModel(encoder, head, emotions, train_speakers=set())
    rng = np.random.default_rng(1)
    records = [
        EmbeddingRecord(f"u{i}", "spkX", emotions[i % 4], rng.normal(size=4)) for i in range(40)
    ]
    result = evaluate_uar(model, build_corpus(records))
    assert result.uar == pytest.approx(0.25)


def test_evaluate_uar_rejects_speaker_overlap():
    config = _small_config()
    model = _stub_model_for(["a", "b"], 4, config)
    records = [EmbeddingRecord("u", "trainspk", "a", np.ones(4))]
    records.append(EmbeddingRecord("u2", "trainspk", "b", np.ones(4) * 2))
    with pytest.raises(ValueError, match="overlap"):
        evaluate_uar(model, build_corpus(records))


def test_evaluate_uar_warns_on_absent_class():
    config = _small_config()
    model = _stub_model_for(["a", "b", "c"], 4, config)
    rng = np.random.default_rng(2)
    records = [EmbeddingRecord(f"u{i}", "s", ["a", "b"][i % 2], rng.normal(size=4)) for i in range(6)]
    with pytest.warns(UserWarning, match="absent"):
        result = evaluate_uar(model, build_corpus(records))
    assert set(result.per_class_recall) == {"a", "b"}


def test_pretrain_steps_zero_keeps_initialization():
    corpus = strip_labels(_corpus(n_speakers=4))
    config = _small_config(steps=0)
    ckpt = pretrain(corpus, config)
    fresh_encoder = build_encoder(corpus.dim, config, config.seed)
    for la, lb in zip(ckpt.encoder.layers, fresh_encoder.layers):
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
    rows = corpus.matrix()
    labels = np.array([speakers.index(r.spk_id) for r in corpus.records])
    enc_out, _ = forward(ckpt.encoder, rows)
    probs, _ = forward(ckpt.components["speaker_cls"], enc_out)
    acc = float((probs.argmax(axis=1) == labels).mean())
    assert acc >= 0.9


def test_pretrain_deterministic():
    corpus = strip_labels(_corpus(n_speakers=4))
    config = _small_config(steps=40)
    a = pretrain(corpus, config)
    b = pretrain(corpus, config)
    for la, lb in zip(a.encoder.layers, b.encoder.layers):
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
    for la, lb in zip(contrastive.encoder.layers, adv.encoder.layers):
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
    for la, lb in zip(mtl.components["speaker_cls"].layers, adv.components["speaker_cls"].layers):
        assert np.array_equal(la.W, lb.W)
    assert any(
        not np.array_equal(la.W, lb.W)
        for la, lb in zip(mtl.encoder.layers, adv.encoder.layers)
    )


def _weights_and_history(ckpt):
    arrays = [a for name in sorted(ckpt.components) for l in ckpt.components[name].layers for a in (l.W, l.b)]
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

    def mining(sc, spk_id, corpus, config, counts):
        calls["mine"].append((config.seed, spk_id))
        return mine_speaker(sc, spk_id, corpus, config, counts)

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
    single = build_corpus(
        [EmbeddingRecord(r.utt_id, r.spk_id, "only", r.vec) for r in corpus.records]
    )
    train_c, val_c, _ = split_by_speaker(single, (0.5, 0.25, 0.25), seed=1)
    with pytest.raises(ValueError, match=">= 2 emotion classes"):
        train_ser(None, train_c, _small_config(), val_corpus=val_c)


def test_train_ser_rejects_leaky_val():
    corpus = _corpus(n_speakers=4)
    with pytest.raises(ValueError, match="split leakage"):
        train_ser(None, corpus, _small_config(), val_corpus=corpus)


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
    for la, lb in zip(m1.encoder.layers, m2.encoder.layers):
        assert np.array_equal(la.W, lb.W)


def test_labeled_fraction_budget_and_determinism():
    corpus = _corpus(n_speakers=6, upc=10)
    subset = labeled_fraction(corpus, 0.1, seed=3)
    per_class = {}
    for r in subset.records:
        per_class[r.emotion] = per_class.get(r.emotion, 0) + 1
    assert set(per_class) == {"neutral", "happy", "sad", "angry"}
    for count in per_class.values():
        assert count == max(1, round(0.1 * 6 * 10))
    again = labeled_fraction(corpus, 0.1, seed=3)
    assert [r.utt_id for r in subset.records] == [r.utt_id for r in again.records]
    assert len(labeled_fraction(corpus, 1.0, seed=0).records) == len(corpus.records)
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


def test_config_validation_and_serialization():
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus").validate()
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(split_fractions=(0.5, 0.5, 0.5)).validate()
    with pytest.raises(ValueError):
        TrainConfig(seeds=()).validate()
    payload = asdict(_small_config())
    assert payload["mode"] == "contrastive"
    assert payload["mtl_weights"]["w_speaker"] == 1.0


def test_config_rejects_repeated_seed():
    with pytest.raises(ValueError, match="seed 3 given twice"):
        TrainConfig(seeds=(3, 0, 3)).validate()


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
