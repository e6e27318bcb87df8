import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.objectives import MtlWeights, cross_entropy, mtl_combine, ntxent_variant

from oracles import longdouble_ntxent, loop_ntxent


def _batch(anchor, positive, negs, tau):
    """(proj, neg_mask, tau) for per-anchor negative sets: the anchors, the
    positives and the negatives as rows, each anchor's negatives left-aligned
    in its mask row."""
    counts = np.array([len(n) for n in negs])
    mask = np.arange(counts.max()) < counts[:, None]
    return np.concatenate([anchor, positive, *negs]), mask, tau


def _batch_with_sims(sim_pos, sim_negs, tau):
    """Build 2-D unit vectors realizing the requested cosine similarities."""
    anchor = np.array([[1.0, 0.0]])
    positive = np.array([[sim_pos, np.sqrt(1.0 - sim_pos**2)]])
    negs = np.stack([[s, np.sqrt(1.0 - s**2)] for s in sim_negs])
    return _batch(anchor, positive, [negs], tau)


def test_ntxent_equal_sims_single_negative_is_zero():
    batch = _batch_with_sims(0.5, [0.5], tau=0.7)
    loss, _ = ntxent_variant(*batch, include_positive_in_denominator=False)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ntxent_worked_example_negatives_only():
    batch = _batch_with_sims(0.8, [0.2, 0.4], tau=0.5)
    loss, _ = ntxent_variant(*batch, include_positive_in_denominator=False)
    expected = longdouble_ntxent(0.8, [0.2, 0.4], 0.5, include_positive=False)
    assert loss == pytest.approx(expected, abs=1e-9)
    assert loss == pytest.approx(-0.287, abs=5e-4)  # scalar evaluation of the printed form


def test_ntxent_worked_example_with_positive():
    batch = _batch_with_sims(0.8, [0.2, 0.4], tau=0.5)
    loss, _ = ntxent_variant(*batch, include_positive_in_denominator=True)
    expected = longdouble_ntxent(0.8, [0.2, 0.4], 0.5, include_positive=True)
    assert loss == pytest.approx(expected, abs=1e-9)
    assert loss > 0.0


def test_ntxent_equal_sims_with_positive_closed_form():
    for m in (1, 2, 4):
        batch = _batch_with_sims(0.3, [0.3] * m, tau=0.9)
        loss, _ = ntxent_variant(*batch, include_positive_in_denominator=True)
        assert loss == pytest.approx(np.log(1 + m), abs=1e-12)


def test_ntxent_directional_sensitivity():
    rng = np.random.default_rng(0)
    anchor = rng.normal(size=(1, 4))
    positive = rng.normal(size=(1, 4))
    negatives = rng.normal(size=(1, 3, 4))

    def loss_for(pos, negs):
        batch = _batch(anchor, pos, [negs[0]], tau=0.5)
        return ntxent_variant(*batch, False)[0]

    base = loss_for(positive, negatives)
    # moving the positive toward the anchor decreases the loss
    closer = positive + 0.2 * (anchor - positive)
    assert loss_for(closer, negatives) < base
    # moving one negative toward the anchor increases the loss
    harder = negatives.copy()
    harder[0, 0] += 0.3 * (anchor[0] - harder[0, 0])
    assert loss_for(positive, harder) > base


def test_ntxent_negative_permutation_invariance():
    rng = np.random.default_rng(1)
    anchor = rng.normal(size=(2, 5))
    positive = rng.normal(size=(2, 5))
    negs = [rng.normal(size=(4, 5)) for _ in range(2)]
    loss_a, grads_a = ntxent_variant(*_batch(anchor, positive, negs, 0.3), False)
    perm = [3, 0, 2, 1]
    negs_p = [n[perm] for n in negs]
    loss_b, grads_b = ntxent_variant(*_batch(anchor, positive, negs_p, 0.3), False)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)
    assert np.allclose(grads_a[:2], grads_b[:2])
    for da, db in zip(grads_a[4:].reshape(2, 4, 5), grads_b[4:].reshape(2, 4, 5)):
        assert np.allclose(da[perm], db)


def test_ntxent_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    anchor = rng.normal(size=(2, 4))
    positive = rng.normal(size=(2, 4))
    negs = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
    for include in (False, True):
        loss, grads = ntxent_variant(*_batch(anchor, positive, negs, 0.4), include)
        eps = 1e-6
        for arr, g in ((anchor, grads[:2]), (positive, grads[2:4])):
            flat, gflat = arr.reshape(-1), np.asarray(g).reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                lp = ntxent_variant(*_batch(anchor, positive, negs, 0.4), include)[0]
                flat[j] = orig - eps
                lm = ntxent_variant(*_batch(anchor, positive, negs, 0.4), include)[0]
                flat[j] = orig
                assert gflat[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)


@pytest.mark.parametrize("include_positive", [False, True])
def test_ntxent_matches_per_anchor_loop_on_ragged_negatives(include_positive):
    # mined negative sets are ragged: 1..10 negatives per anchor in one batch
    rng = np.random.default_rng(21)
    B, P = 10, 6
    anchor = rng.normal(size=(B, P))
    positive = anchor + 0.5 * rng.normal(size=(B, P))
    negs = [rng.normal(size=(m, P)) for m in rng.permutation(np.arange(1, B + 1))]
    batch = _batch(anchor, positive, negs, 0.1)
    loss, grads = ntxent_variant(*batch, include_positive)
    ref_loss, ref_da, ref_dp, ref_dn = loop_ntxent(anchor, positive, negs, 0.1, include_positive)

    def close(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        return got.shape == ref.shape and np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert close(grads[:B], ref_da) and close(grads[B : 2 * B], ref_dp)
    assert grads.shape == batch[0].shape
    d_negatives = np.split(grads[2 * B :], np.cumsum([len(n) for n in negs])[:-1])
    assert all(close(g, r) for g, r in zip(d_negatives, ref_dn))


def test_ntxent_rejects_bad_batches():
    proj, mask, _ = _batch_with_sims(0.5, [0.1], tau=0.5)
    with pytest.raises(ValueError, match="temperature"):
        ntxent_variant(proj, mask, 0.0)
    with pytest.raises(ValueError, match="negative"):
        ntxent_variant(proj[:2], np.zeros((1, 0), bool), 0.5)
    with pytest.raises(ValueError, match="negative"):
        ntxent_variant(proj[:2], ~mask, 0.5)


def test_ntxent_rejects_a_row_count_off_the_mask():
    proj, mask, tau = _batch_with_sims(0.5, [0.1, 0.2], tau=0.5)
    with pytest.raises(ValueError, match="need 3 projection rows"):
        ntxent_variant(proj, mask[:, :1], tau)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ntxent_zero_rows_leave_the_loss_like_the_loop_on_the_rest(counts, dim, seed, data):
    # ragged batches with a random subset of rows set to zero: the loss and the
    # kept rows' gradients are the loop's on the compacted per-anchor lists
    rng = np.random.default_rng(seed)
    B = len(counts)
    anchor = rng.normal(size=(B, dim))
    positive = anchor + 0.5 * rng.normal(size=(B, dim))
    negs = [rng.normal(size=(m, dim)) for m in counts]
    proj, mask, tau = _batch(anchor, positive, negs, 0.1)
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=len(proj), max_size=len(proj))))
    proj[zero] = 0.0

    starts = 2 * B + np.cumsum([0, *counts[:-1]])
    live = [np.flatnonzero(~zero[start : start + m]) for start, m in zip(starts, counts)]
    kept = [i for i in range(B) if not zero[i] and not zero[B + i] and len(live[i])]
    kept_rows = np.zeros(len(proj), dtype=bool)
    kept_rows[kept] = kept_rows[[B + i for i in kept]] = True
    for i in kept:
        kept_rows[starts[i] + live[i]] = True
    for include in (False, True):
        loss, dproj = ntxent_variant(proj, mask, tau, include)
        assert dproj.shape == proj.shape and not dproj[~kept_rows].any()
        if not kept:
            assert loss == 0.0
            continue
        ref_loss, ref_da, ref_dp, ref_dn = loop_ntxent(
            anchor[kept], positive[kept], [negs[i][live[i]] for i in kept], tau, include
        )
        ref = np.zeros_like(proj)
        ref[kept], ref[[B + i for i in kept]] = ref_da, ref_dp
        for i, dn in zip(kept, ref_dn):
            ref[starts[i] + live[i]] = dn
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(dproj - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 4))
    loss, grad = cross_entropy(logits, np.array([0, 1, 2]))
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    assert grad.shape == (3, 4)


def test_cross_entropy_margin_limit():
    losses = []
    for margin in (2.0, 10.0, 40.0):
        logits = np.zeros((1, 3))
        logits[0, 1] = margin
        losses.append(cross_entropy(logits, np.array([1]))[0])
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-12


def test_cross_entropy_matches_naive_formula():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    loss, grad = cross_entropy(logits, labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    naive = float(-np.log(probs[np.arange(6), labels]).mean())
    assert loss == pytest.approx(naive, abs=1e-12)
    onehot = np.zeros_like(logits)
    onehot[np.arange(6), labels] = 1.0
    assert np.allclose(grad, (probs - onehot) / 6.0, atol=1e-12)


def test_cross_entropy_extreme_logits_stable():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss, grad = cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_mtl_combine_reductions():
    assert mtl_combine(0.7, 9.9, MtlWeights(0.0)) == pytest.approx(0.7)
    assert mtl_combine(0.5, 1.0, MtlWeights(1.0)) == pytest.approx(1.5)
    assert mtl_combine(0.5, 1.0, MtlWeights(0.25)) == pytest.approx(0.75)


def test_mtl_weights_validation():
    with pytest.raises(ValueError):
        MtlWeights(1.0, grl_lambda=-1.0)
    with pytest.raises(ValueError):
        MtlWeights(-0.5, 1.0)
