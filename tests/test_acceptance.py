"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every tolerance is pinned here; the synthetic corpora and every training
seed are frozen so reruns reproduce these numbers exactly.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from emocluster.cli import main as cli_main
from emocluster.cluster_metrics import ari, evaluate_run, nmi, purity, silhouette
from emocluster.clustering import KMeansConfig, cluster_speakers
from emocluster.corpus import SynthSpec, generate_synthetic, length_normalize
from emocluster.nn_core import grad_check
from emocluster.objectives import MtlWeights, ntxent_variant
from emocluster.pair_miner import MiningConfig, mine_tuples
from emocluster.trainer import TrainConfig, grad_check_cases, run_protocol

from oracles import (
    brute_ari,
    brute_nmi,
    brute_purity,
    brute_silhouette,
    enumerate_contingency_tables,
    longdouble_ntxent,
    table_to_pair,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def high_separation_corpus(ratio: float = 4.0, seed: int = 20):
    spec = SynthSpec(
        n_speakers=10, n_emotions=4, utts_per_cell=80, dim=32,
        speaker_spread=1.0, emotion_offset_norm=0.25 * ratio, within_noise=0.25, seed=seed,
    )
    return length_normalize(generate_synthetic(spec))


def test_criterion_1_metric_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for n in range(1, 9):
        for table in enumerate_contingency_tables(n):
            clusters, labels = table_to_pair(table)
            worst = max(worst, abs(nmi(clusters, labels) - brute_nmi(clusters, labels)))
            worst = max(worst, abs(purity(clusters, labels) - brute_purity(clusters, labels)))
            if n >= 2:
                worst = max(worst, abs(ari(clusters, labels) - brute_ari(clusters, labels)))
            checked += 1

    rng = np.random.default_rng(100)
    sil_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 12))
        points = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n).tolist()
        if len(set(labels)) < 2:
            labels[0] = (labels[0] + 1) % 3
        sil_worst = max(sil_worst, abs(silhouette(points, labels) - brute_silhouette(points, labels)))

    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and sil_worst <= 1e-12 and elapsed < 60.0
    assert report(
        "criterion 1 metric-oracle equivalence",
        ok,
        f"{checked} contingency tables, max err {worst:.2e}; silhouette max err {sil_worst:.2e}; {elapsed:.1f}s",
    )


def test_criterion_2_clustering_regime_and_monotonic_sweep():
    started = time.monotonic()
    corpus = high_separation_corpus(4.0)
    run = cluster_speakers(corpus, KMeansConfig(k=4, seed=21))
    report_high = evaluate_run(run, corpus)
    nmi_high = report_high.averages["nmi"]
    purity_high = report_high.averages["purity"]

    sweep = []
    for ratio in (0, 1, 2, 4):
        c = high_separation_corpus(float(ratio))
        r = cluster_speakers(c, KMeansConfig(k=4, seed=21))
        sweep.append(evaluate_run(r, c).averages["nmi"])
    inversions = [max(0.0, sweep[i] - sweep[i + 1]) for i in range(len(sweep) - 1)]
    n_inversions = sum(1 for v in inversions if v > 0)
    worst_inversion = max(inversions)

    elapsed = time.monotonic() - started
    ok = (
        nmi_high >= 0.9
        and purity_high >= 0.95
        and sweep[0] <= 0.1  # no emotion structure at ratio 0
        and n_inversions <= 1
        and worst_inversion <= 0.02
        and elapsed < 120.0
    )
    assert report(
        "criterion 2 clustering regime recovery",
        ok,
        f"high-separation NMI {nmi_high:.4f} purity {purity_high:.4f}; sweep "
        + "->".join(f"{v:.3f}" for v in sweep)
        + f"; {elapsed:.1f}s",
    )


def test_criterion_3_gradient_correctness():
    started = time.monotonic()
    tol = 1e-5
    worst = 0.0
    details = {}
    config = TrainConfig()
    for name, loss_fn, params in grad_check_cases("contrastive", config):
        err = grad_check(loss_fn, params, eps=1e-5)
        details[name] = err
        worst = max(worst, err)
    for name, loss_fn, params in grad_check_cases("speaker_cls", config):
        err = grad_check(loss_fn, params, eps=1e-5)
        details[name] = err
        worst = max(worst, err)
    for lam in (0.0, 0.5, 1.0):
        for name, loss_fn, params in grad_check_cases("mtl", replace(config, mtl_weights=MtlWeights(grl_lambda=lam))):
            err = grad_check(loss_fn, params, eps=1e-5)
            details[name] = err
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    ok = worst <= tol and elapsed < 30.0
    assert report(
        "criterion 3 gradient correctness",
        ok,
        f"{len(details)} cases, max relative error {worst:.2e} (tol {tol:.0e}); {elapsed:.1f}s",
    )


def test_criterion_4_negative_window_invariant():
    started = time.monotonic()
    corpus = high_separation_corpus(4.0)
    run = cluster_speakers(corpus, KMeansConfig(k=4, seed=33))
    emotion_of = dict(zip(corpus.utt_ids, corpus.emotions))

    violations = 0
    emitted = 0
    for mining_seed in range(50):
        tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=4, seed=mining_seed))
        for t in tuples:
            sc = run.per_speaker[t.spk_id]
            own = sc.assignments[t.anchor]
            populated = sorted(set(sc.assignments.values()))
            # independent recomputation of the farthest-cluster window
            dists = {
                c: float(np.sqrt(((sc.centers[own] - sc.centers[c]) ** 2).sum()))
                for c in populated
                if c != own
            }
            ranked = sorted(dists, key=lambda c: (-dists[c], c))[:2]  # N/2 = 2
            for neg in t.negatives:
                emitted += 1
                if neg.cluster not in ranked:
                    violations += 1

    tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=4, seed=0))
    pos_same = np.mean([emotion_of[t.anchor] == emotion_of[t.positive] for t in tuples])
    neg_diff = np.mean(
        [emotion_of[t.anchor] != emotion_of[n.utt_id] for t in tuples for n in t.negatives]
    )
    elapsed = time.monotonic() - started
    ok = violations == 0 and pos_same >= 0.95 and neg_diff >= 0.95 and elapsed < 60.0
    assert report(
        "criterion 4 negative-window invariant",
        ok,
        f"{emitted} negatives across 50 runs, {violations} outside window; "
        f"positive emotion match {pos_same:.3f}, negative mismatch {neg_diff:.3f}; {elapsed:.1f}s",
    )


def test_criterion_5_pretraining_benefit_trends():
    started = time.monotonic()
    spec = SynthSpec(
        n_speakers=48, n_emotions=4, utts_per_cell=24, dim=48,
        speaker_spread=1.0, emotion_offset_norm=3.0, within_noise=1.0, seed=13,
    )
    corpus = generate_synthetic(spec)
    config = TrainConfig(
        steps=3000, batch_size=8, lr=1e-3, pretrain_lr=1e-3, epochs_ser=30,
        tau=0.1, n_clusters_N=20, seeds=(0, 1, 2, 3, 4), trunk_hidden=32,
        contrastive_out=16, seed=5,
        split_fractions=(0.25, 0.25, 0.5), pretrain_speaker_fraction=0.5,
        mtl_weights=MtlWeights(grl_lambda=4.0),
    )
    result = run_protocol(corpus, config, label_fraction=0.05)
    rows = {row["mode"]: row for row in result["rows"]}

    gap = rows["contrastive"]["mean_uar"] - rows["none"]["mean_uar"]
    mtl_margin = rows["mtl"]["mean_uar"] - rows["contrastive"]["mean_uar"]
    wins = sum(
        1
        for pm, pc in zip(rows["mtl"]["per_seed"], rows["contrastive"]["per_seed"])
        if pm["uar"] > pc["uar"]
    )
    adv_delta = rows["mtl_adversarial"]["mean_uar"] - rows["mtl"]["mean_uar"]
    elapsed = time.monotonic() - started
    ok = (
        gap >= 0.10
        and mtl_margin >= -0.01
        and wins >= 3
        and adv_delta <= 0.0
        and elapsed < 600.0
    )
    assert report(
        "criterion 5 pretraining benefit",
        ok,
        f"contrastive-none {gap:+.4f} (need >= +0.10); mtl-contrastive {mtl_margin:+.4f} "
        f"(need >= -0.01) with {wins}/5 strict wins (need >= 3); adversarial-mtl {adv_delta:+.4f} "
        f"(need <= 0); {elapsed:.0f}s",
    )


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_criterion_6_cli_determinism(tmp_path):
    started = time.monotonic()
    hashes = {}
    for round_name in ("one", "two"):
        base = tmp_path / round_name
        base.mkdir()
        corpus = base / "corpus.jsonl"
        assert cli_main(
            ["gen-synth", "--n-speakers", "6", "--n-emotions", "4", "--utts-per-cell", "10",
             "--dim", "8", "--within-noise", "0.25", "--seed", "7", "--out", str(corpus)]
        ) == 0
        run = base / "run.json"
        assert cli_main(
            ["cluster", "--corpus", str(corpus), "--k", "4", "--seed", "1", "--out", str(run)]
        ) == 0
        rep = base / "report.json"
        tab = base / "report.txt"
        assert cli_main(
            ["eval-clusters", "--corpus", str(corpus), "--run", str(run),
             "--out", str(rep), "--table", str(tab)]
        ) == 0
        tuples = base / "tuples.jsonl"
        assert cli_main(
            ["mine-pairs", "--corpus", str(corpus), "--run", str(run),
             "--n-clusters", "4", "--seed", "2", "--out", str(tuples)]
        ) == 0
        ckpt = base / "ckpt.json"
        assert cli_main(
            ["pretrain", "--corpus", str(corpus), "--mode", "mtl_adversarial", "--steps", "50",
             "--n-clusters", "4", "--trunk-hidden", "8", "--contrastive-out", "8",
             "--seed", "3", "--out", str(ckpt)]
        ) == 0
        probe = base / "probe.json"
        probe_tab = base / "probe.txt"
        assert cli_main(
            ["probe", "--corpus", str(corpus), "--modes", "none,spk_cls,contrastive,mtl_adversarial,mtl",
             "--steps", "40", "--epochs", "3", "--seeds", "0,1", "--label-fraction", "0.5",
             "--n-clusters", "4", "--trunk-hidden", "8", "--contrastive-out", "8",
             "--lr", "1e-3", "--seed", "4", "--out", str(probe), "--table", str(probe_tab)]
        ) == 0
        csv = base / "scatter.csv"
        svg = base / "scatter.svg"
        assert cli_main(
            ["project", "--corpus", str(corpus), "--run", str(run),
             "--out", str(csv), "--svg", str(svg)]
        ) == 0
        gc = base / "gc.json"
        assert cli_main(["grad-check", "--head", "all", "--tol", "1e-5", "--seed", "0", "--out", str(gc)]) == 0
        hashes[round_name] = [
            _sha(p)
            for p in (corpus, run, rep, tab, tuples, ckpt, str(ckpt) + ".bin", probe, probe_tab, csv, svg, gc)
        ]
    elapsed = time.monotonic() - started
    ok = hashes["one"] == hashes["two"]
    assert report(
        "criterion 6 CLI determinism",
        ok,
        f"12 artifacts per round byte-identical across reruns; {elapsed:.0f}s",
    )


def test_criterion_7_contrastive_scalar_conformance():
    def batch_for(sim_pos, sim_negs, tau):
        anchor = np.array([[1.0, 0.0]])
        positive = np.array([[sim_pos, np.sqrt(1.0 - sim_pos**2)]])
        negs = np.stack([[s, np.sqrt(1.0 - s**2)] for s in sim_negs])
        return np.concatenate([anchor, positive, negs]), np.ones((1, len(negs)), dtype=bool), tau

    cases = [
        ("equal sims, one negative, negatives-only", 0.5, [0.5], 0.7, False),
        ("tau=0.5 sims 0.8 vs {0.2,0.4}, negatives-only", 0.8, [0.2, 0.4], 0.5, False),
        ("tau=0.5 sims 0.8 vs {0.2,0.4}, with positive", 0.8, [0.2, 0.4], 0.5, True),
    ]
    worst = 0.0
    for _, sp, sn, tau, include in cases:
        loss, _ = ntxent_variant(*batch_for(sp, sn, tau), include)
        reference = longdouble_ntxent(sp, sn, tau, include)
        worst = max(worst, abs(loss - reference))
    ok = worst <= 1e-9
    assert report(
        "criterion 7 contrastive scalar conformance",
        ok,
        f"3 worked examples vs extended-precision evaluation, max |diff| {worst:.2e}",
    )
