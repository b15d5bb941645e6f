"""Scoring and loss against scalar oracles, plus the SGD step algebra."""

import math

import numpy as np
import pytest

import gradcheck
from oracles import WeightedTriplet, scalar_loss, score_backward, two_pass_batch_loss_and_grad
from walkaug import (
    ConfigError,
    ModelConfig,
    NewRelationRegistry,
    NumericError,
    SharingStrategy,
    SparseGrads,
    Triplet,
    TripletBatch,
    apply_update,
    batch_loss_and_grad,
    draw_negatives,
    init_state,
    loss_and_grad,
    negative_sample,
    relation_vector,
    score,
    score_and_grad,
)
from walkaug.models import BLOCK_VALUES, default_margin
from walkaug.sharing import RnnParams

SCORINGS = ("transe_l2", "transe_l1", "distmult")


def test_score_hand_values():
    h = np.array([1.0, 2.0])
    r = np.array([0.5, -1.0])
    t = np.array([1.0, 0.0])
    assert score(h, r, t, "transe_l2") == -math.sqrt(1.25)
    assert score(h, r, t, "transe_l1") == -1.5
    assert score(h, r, t, "distmult") == 0.5


def test_score_rejects_bad_input():
    h = np.zeros(3)
    with pytest.raises(ValueError):
        score(h, np.zeros(2), h, "transe_l2")
    with pytest.raises(ValueError):
        score(h, h, h, "rotate")
    with pytest.raises(ValueError):
        score_and_grad(h, h, h, "rotate")
    with pytest.raises(ValueError):
        score_and_grad(h, np.zeros(2), h, "transe_l2")


def test_distmult_symmetric_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(300):
        h, r, t = rng.normal(size=(3, 16))
        assert score(h, r, t, "distmult") == score(t, r, h, "distmult")


def test_transe_is_directional():
    h = np.array([1.0])
    r = np.array([1.0])
    t = np.array([2.0])
    assert score(h, r, t, "transe_l2") == 0.0
    assert score(t, r, h, "transe_l2") == -2.0


def test_score_and_grad_matches_finite_differences():
    from oracles import numeric_gradient

    rng = np.random.default_rng(4)
    for scoring in SCORINGS:
        while True:
            h, r, t = (rng.uniform(0.1, 1.0, size=6) for _ in range(3))
            if np.abs(h + r - t).min() > 0.05:  # keep |.| kinks out of reach
                break
        s, dh, dr, dt = score_and_grad(h, r, t, scoring)
        fn = lambda: score(h, r, t, scoring)
        assert s == fn()
        for analytic, arr in ((dh, h), (dr, r), (dt, t)):
            np.testing.assert_allclose(analytic, numeric_gradient(fn, arr), rtol=1e-5, atol=1e-8)


def test_score_and_grad_zero_norm_guard():
    h = np.array([1.0, -2.0])
    r = np.array([0.5, 0.5])
    t = h + r
    s, dh, dr, dt = score_and_grad(h, r, t, "transe_l2")
    assert s == 0.0
    assert np.all(dh == 0) and np.all(dr == 0) and np.all(dt == 0)
    # a translation whose squares underflow has a zero norm too
    tiny = np.array([1e-200, -3e-200])
    s, dh, dr, dt = score_and_grad(tiny, np.zeros(2), np.zeros(2), "transe_l2")
    assert s == 0.0
    assert np.all(dh == 0) and np.all(dr == 0) and np.all(dt == 0)


@pytest.mark.parametrize("scoring", SCORINGS)
def test_score_and_grad_score_is_score_bit_for_bit(scoring):
    """Every shape `score` takes: single vectors, training blocks with a
    broadcast relation block, and the entity table on either side."""
    rng = np.random.default_rng(11)
    table = rng.normal(size=(40, 7))
    h, r, t = rng.normal(size=(3, 7))
    blocks = rng.normal(size=(2, 5, 4, 7))
    rows = rng.normal(size=(5, 1, 7))
    for args in ((h, r, t), (blocks[0], rows, blocks[1]), (blocks[0, :, 0], rows[:, 0],
                 blocks[1, :, 0]), (table, r, t), (h, r, table)):
        s, *_ = score_and_grad(*args, scoring)
        want = score(*args, scoring)
        assert np.shape(s) == np.shape(want) and np.asarray(s).tobytes() == want.tobytes()
    # equal-size operands, as in training, give the two-pass gradients exactly
    _, *grads = score_and_grad(blocks[0], rows, blocks[1], scoring)
    for got, want in zip(grads, score_backward(blocks[0], rows, blocks[1], scoring)):
        assert np.array_equal(np.broadcast_to(got, blocks[0].shape),
                              np.broadcast_to(want, blocks[0].shape))


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    strategy = SharingStrategy()
    for scoring in ("transe_l2", "transe_l1", "distmult"):
        config = ModelConfig(scoring=scoring, dim=4, margin=1.5, negatives=3, seed=0)
        state = init_state(6, NewRelationRegistry(2), config, strategy, rng)
        positive = WeightedTriplet(0, 1, 3, 0.7)
        negatives = [Triplet(4, 1, 3), Triplet(0, 1, 5), Triplet(2, 1, 3)]
        got, _ = loss_and_grad(positive, negatives, state, config)
        want = scalar_loss(
            positive,
            negatives,
            {i: [float(v) for v in state.entity_emb[i]] for i in range(6)},
            [float(v) for v in state.relation_emb[1]],
            scoring,
            1.5,
            0.7,
        )
        assert math.isclose(got, want, rel_tol=1e-12)


def test_loss_scales_linearly_with_weight():
    rng = np.random.default_rng(2)
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l2", dim=5, margin=1.0, negatives=2, seed=0)
    state = init_state(7, NewRelationRegistry(2), config, strategy, rng)
    negatives = [Triplet(5, 0, 2), Triplet(1, 0, 6)]
    base_loss, base_grads = loss_and_grad(
        WeightedTriplet(1, 0, 2, 1.0), negatives, state, config
    )
    w = 2.3
    loss_w, grads_w = loss_and_grad(
        WeightedTriplet(1, 0, 2, w), negatives, state, config
    )
    assert loss_w == w * base_loss  # identical float product
    assert np.array_equal(grads_w.entity_rows, base_grads.entity_rows)
    np.testing.assert_allclose(grads_w.entity_grad, w * base_grads.entity_grad, rtol=1e-12)
    assert np.array_equal(grads_w.relation_rows, base_grads.relation_rows)
    np.testing.assert_allclose(grads_w.relation_grad, w * base_grads.relation_grad, rtol=1e-12)


def test_zero_weight_short_circuits():
    rng = np.random.default_rng(2)
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l2", dim=5, negatives=1, seed=0)
    state = init_state(4, NewRelationRegistry(1), config, strategy, rng)
    loss, grads = loss_and_grad(
        WeightedTriplet(0, 0, 1, 0.0), [Triplet(2, 0, 1)], state, config
    )
    assert loss == 0.0
    assert grads.entity_rows.size == 0 and grads.relation_rows.size == 0


def test_negatives_must_share_relation():
    rng = np.random.default_rng(2)
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l2", dim=3, negatives=1, seed=0)
    state = init_state(4, NewRelationRegistry(2), config, strategy, rng)
    with pytest.raises(ValueError):
        loss_and_grad(Triplet(0, 0, 1), [Triplet(2, 1, 1)], state, config)


def test_negative_sampling_balances_sides():
    rng = np.random.default_rng(6)
    positive = Triplet(17, 2, 305)
    draws = 4000
    negatives = negative_sample(positive, 10_000, draws, rng)
    assert all(n.relation == 2 for n in negatives)
    assert all(n.head == 17 or n.tail == 305 for n in negatives)
    heads_changed = sum(n.head != positive.head for n in negatives)
    sigma = 0.5 / math.sqrt(draws)
    assert abs(heads_changed / draws - 0.5) < 3 * sigma + 1e-3


def test_negative_sampling_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        negative_sample(Triplet(0, 0, 1), 5, 0, rng)
    with pytest.raises(ValueError):
        negative_sample(Triplet(0, 0, 1), 0, 2, rng)


def test_apply_update_row_algebra():
    rng = np.random.default_rng(8)
    strategy = SharingStrategy()
    config = ModelConfig(
        scoring="transe_l2", dim=3, lr=0.05, regularization=0.2, negatives=1, seed=0
    )
    state = init_state(3, NewRelationRegistry(2), config, strategy, rng)
    before_e = state.entity_emb.copy()
    before_r = state.relation_emb.copy()
    grads = SparseGrads()
    ge = np.array([1.0, -2.0, 0.5])
    gr = np.array([0.25, 0.0, -1.0])
    grads.entity_rows, grads.entity_grad = np.array([1]), ge[None]
    grads.relation_rows, grads.relation_grad = np.array([0]), gr[None]
    apply_update(state, grads, config)

    want_e1 = before_e[1] - 0.05 * (ge + 0.2 * before_e[1])
    want_r0 = before_r[0] - 0.05 * (gr + 0.2 * before_r[0])
    assert np.array_equal(state.entity_emb[1], want_e1)
    assert np.array_equal(state.relation_emb[0], want_r0)
    assert np.array_equal(state.entity_emb[0], before_e[0])  # untouched rows stay
    assert np.array_equal(state.entity_emb[2], before_e[2])
    assert np.array_equal(state.relation_emb[1], before_r[1])


def test_init_state_is_deterministic():
    for kind in ("none", "model", "rnn", "basis"):
        strategy = SharingStrategy(kind=kind, basis_count=2 if kind == "basis" else None)
        config = ModelConfig(scoring="transe_l2", dim=4, seed=0)
        minted = NewRelationRegistry(2, [(0, 1)])
        a = init_state(5, minted, config, strategy, np.random.default_rng(42))
        b = init_state(5, minted, config, strategy, np.random.default_rng(42))
        assert np.array_equal(a.entity_emb, b.entity_emb)
        assert np.array_equal(a.relation_emb, b.relation_emb)
        if kind == "rnn":
            assert np.array_equal(a.rnn.w_in, b.rnn.w_in)
            assert np.array_equal(a.rnn.w_rec, b.rnn.w_rec)
        if kind == "basis":
            assert np.array_equal(a.basis.vectors, b.basis.vectors)
            assert np.array_equal(a.basis.coefficients, b.basis.coefficients)


def test_init_state_bound_scales_with_dimension():
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l2", dim=36, seed=0)
    state = init_state(200, NewRelationRegistry(3), config, strategy, np.random.default_rng(0))
    assert np.abs(state.entity_emb).max() <= 1.0  # 6 / sqrt(36)
    assert np.abs(state.entity_emb).max() > 0.9


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(scoring="rotate").validate()
    with pytest.raises(ConfigError):
        ModelConfig(dim=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(negatives=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(margin=-1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(regularization=-0.1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(epochs=0).validate()
    ModelConfig().validate()


def test_default_margins():
    assert default_margin("distmult") == 0.0
    assert default_margin("transe_l2") == 12.0
    assert ModelConfig(scoring="distmult").margin == 0.0
    assert ModelConfig(scoring="transe_l1").margin == 12.0
    assert ModelConfig(scoring="transe_l1", margin=3.0).margin == 3.0


def test_gradients_match_finite_differences_across_strategies():
    worst, failures = gradcheck.run_random_cases(22, seed=1)
    assert not failures, failures
    assert worst < 1e-4


def test_score_broadcasts_over_leading_axes():
    rng = np.random.default_rng(5)
    h, t = rng.normal(size=(2, 4, 3, 6))
    r = rng.normal(size=(4, 1, 6))
    for scoring in SCORINGS:
        block, *grads = score_and_grad(h, r, t, scoring)
        assert block.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                one = (h[i, j], r[i, 0], t[i, j])
                assert math.isclose(block[i, j], score(*one, scoring), rel_tol=1e-12)
                for got, want in zip(grads, score_and_grad(*one, scoring)[1:]):
                    np.testing.assert_allclose(np.broadcast_to(got, h.shape)[i, j], want,
                                               rtol=1e-12)


def test_draw_negatives_order_and_shape():
    batch = TripletBatch.pack([Triplet(0, 1, 2), WeightedTriplet(3, 0, 4, 0.5)])
    heads, tails = draw_negatives(batch, 50, 6, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    corrupt_head = rng.random((2, 6)) < 0.5
    entity = rng.integers(50, size=(2, 6))
    assert np.array_equal(heads, np.where(corrupt_head, entity, [[0], [3]]))
    assert np.array_equal(tails, np.where(corrupt_head, [[2], [4]], entity))
    assert np.array_equal(batch.weights, [1.0, 0.5])
    assert list(batch) == [Triplet(0, 1, 2), Triplet(3, 0, 4)]
    assert all(type(t) is Triplet and type(t.head) is int for t in batch)


SHARING_CASES = [
    (scoring, kind, include_original)
    for scoring in ("transe_l2", "transe_l1", "distmult")
    for kind, include_original in (("none", False), ("model", False), ("rnn", False),
                                   ("basis", False), ("basis", True))
    if not (scoring == "distmult" and kind == "model")
]


def _assert_close(got, want, rtol, name=""):
    # A gradient summed in another order moves by rounding relative to its
    # terms, so entries that cancel to near zero are judged against the
    # scale of the whole array.
    want = np.asarray(want)
    atol = rtol * float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=name)


def _assert_grads_close(got: SparseGrads, want: SparseGrads, rtol=1e-12):
    for table in SparseGrads.TABLES:
        assert np.array_equal(getattr(got, f"{table}_rows"), getattr(want, f"{table}_rows"))
        _assert_close(getattr(got, f"{table}_grad"), getattr(want, f"{table}_grad"), rtol,
                      table)
    assert (got.rnn is None) == (want.rnn is None)
    if got.rnn is not None:
        for name in ("w_in", "w_rec", "bias"):
            _assert_close(getattr(got.rnn, name), getattr(want.rnn, name), rtol, f"rnn {name}")
    assert (got.basis_vectors is None) == (want.basis_vectors is None)
    if got.basis_vectors is not None:
        _assert_close(got.basis_vectors, want.basis_vectors, rtol, "basis_vectors")


@pytest.mark.parametrize("scoring,kind,include_original", SHARING_CASES)
def test_batch_kernel_equals_sum_of_single_positives(scoring, kind, include_original):
    """One minibatch through the kernel equals the per-positive losses and
    gradients summed, across chunks, relation kinds and weights."""
    rng = np.random.default_rng(17)
    minted = NewRelationRegistry(3, [(0, 1), (2, 1, 0)])
    strategy = SharingStrategy(kind=kind, basis_count=4 if kind == "basis" else None,
                               basis_include_original=include_original)
    config = ModelConfig(scoring=scoring, dim=64, margin=2.0, negatives=6, seed=0)
    num_entities = 10  # few entities, so rows repeat within and across positives
    state = init_state(num_entities, minted, config, strategy, rng)
    size = 200
    chunk = BLOCK_VALUES // ((2 + 2 * config.negatives) * config.dim)
    assert size > 2 * chunk  # the batch spans three chunks
    # 0..2 are original relations (raw edges or rule-mapped walk triplets),
    # 3 and 4 are minted metapaths
    relations = rng.integers(5, size=size)
    weights = rng.choice([0.0, 0.4, 1.0, 2.3], size=size)
    positives = [
        WeightedTriplet(int(h), int(r), int(t), float(w))
        for h, r, t, w in zip(rng.integers(num_entities, size=size), relations,
                              rng.integers(num_entities, size=size), weights)
    ]
    batch = TripletBatch.pack(positives)
    neg_heads, neg_tails = draw_negatives(batch, num_entities, config.negatives, rng)

    loss, grads = batch_loss_and_grad(batch, neg_heads, neg_tails, state, config)

    want_loss = 0.0
    want = SparseGrads()
    for i, positive in enumerate(positives):
        negatives = [Triplet(int(h), positive.relation, int(t))
                     for h, t in zip(neg_heads[i], neg_tails[i])]
        one_loss, one = loss_and_grad(positive, negatives, state, config)
        want_loss += one_loss
        want.update(one)
    assert math.isclose(loss, want_loss, rel_tol=1e-12)
    _assert_grads_close(grads, want)


def _assert_grads_equal(got: SparseGrads, want: SparseGrads):
    for table in SparseGrads.TABLES:
        for part in ("rows", "grad"):
            name = f"{table}_{part}"
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.rnn is None) == (want.rnn is None)
    if got.rnn is not None:
        for name in ("w_in", "w_rec", "bias"):
            assert np.array_equal(getattr(got.rnn, name), getattr(want.rnn, name)), name
    assert (got.basis_vectors is None) == (want.basis_vectors is None)
    if got.basis_vectors is not None:
        assert np.array_equal(got.basis_vectors, want.basis_vectors)


@pytest.mark.parametrize("scoring,kind,include_original", SHARING_CASES)
def test_batch_kernel_equals_the_two_pass_oracle_bit_for_bit(scoring, kind, include_original):
    """The fused chunk pass gives the loss and gradients of scoring and
    differentiating positives and corruptions in separate passes, exactly."""
    rng = np.random.default_rng(23)
    minted = NewRelationRegistry(3, [(0, 1), (2, 1, 0)])
    strategy = SharingStrategy(kind=kind, basis_count=4 if kind == "basis" else None,
                               basis_include_original=include_original)
    config = ModelConfig(scoring=scoring, dim=32, margin=2.0, negatives=5, seed=0)
    num_entities = 12  # few entities, so rows repeat within and across positives
    state = init_state(num_entities, minted, config, strategy, rng)
    chunk = BLOCK_VALUES // ((2 + 2 * config.negatives) * config.dim)
    size = 4 * chunk - 5
    heads = rng.integers(num_entities, size=size)
    tails = rng.integers(num_entities, size=size)
    relations = rng.integers(5, size=size)
    weights = rng.choice([0.4, 1.0, 2.3], size=size)
    heads[0], relations[0], tails[0] = 0, 0, 1
    # positive 0 translates exactly, h + r == t: a zero norm under TransE
    r0 = relation_vector(state, np.unique(relations))[0]
    state.entity_emb[1] = state.entity_emb[0] + r0
    assert not np.any(state.entity_emb[0] + r0 - state.entity_emb[1])
    weights[5::9] = 0.0
    kept = int(np.count_nonzero(weights))
    assert kept > 3 * chunk and kept % chunk  # four chunks, the last one ragged
    batch = TripletBatch(heads, relations, tails, weights)
    neg_heads, neg_tails = draw_negatives(batch, num_entities, config.negatives, rng)

    loss, grads = batch_loss_and_grad(batch, neg_heads, neg_tails, state, config)
    want_loss, want = two_pass_batch_loss_and_grad(batch, neg_heads, neg_tails, state, config)
    assert loss == want_loss
    _assert_grads_equal(grads, want)


def test_zero_weight_positives_contribute_nothing_to_a_batch():
    rng = np.random.default_rng(3)
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l1", dim=4, margin=1.0, negatives=2, seed=0)
    state = init_state(6, NewRelationRegistry(2), config, strategy, rng)
    kept = [WeightedTriplet(0, 0, 1, 0.4), WeightedTriplet(2, 1, 3, 2.3)]
    mixed = [kept[0], WeightedTriplet(4, 1, 5, 0.0), kept[1]]
    neg_heads = np.array([[1, 0], [5, 4], [3, 2]])
    neg_tails = np.array([[0, 1], [4, 5], [2, 3]])
    loss, grads = batch_loss_and_grad(TripletBatch.pack(mixed), neg_heads, neg_tails,
                                      state, config)
    rows = [0, 2]
    want_loss, want = batch_loss_and_grad(TripletBatch.pack(kept), neg_heads[rows],
                                          neg_tails[rows], state, config)
    assert loss == want_loss
    assert 4 not in grads.entity_rows and 5 not in grads.entity_rows
    _assert_grads_close(grads, want, rtol=0)


def test_non_finite_loss_names_the_first_offending_triplet():
    # raised before the backward pass, with no numpy warning, also for the
    # nan score (inf - inf) that an infinite row gives under distmult
    for scoring in SCORINGS:
        rng = np.random.default_rng(4)
        strategy = SharingStrategy()
        config = ModelConfig(scoring=scoring, dim=3, margin=1.0, negatives=1, seed=0)
        state = init_state(5, NewRelationRegistry(1), config, strategy, rng)
        state.entity_emb[3] = np.inf
        positives = [Triplet(0, 0, 1), WeightedTriplet(4, 0, 3, 0.0),  # weight 0: skipped
                     Triplet(2, 0, 4), Triplet(3, 0, 1)]
        neg = np.array([[1], [2], [0], [0]])
        with pytest.raises(NumericError) as info:
            batch_loss_and_grad(TripletBatch.pack(positives), neg, neg, state, config)
        assert info.value.triplet == Triplet(3, 0, 1)
        assert "(3, 0, 1)" in str(info.value)


def test_non_finite_corruption_raises_numeric_error_without_a_warning():
    # only the corruption touches the infinite row: the loss stays finite under
    # TransE, and the nan gradient (inf / inf under transe_l2) reaches apply_update
    for scoring in SCORINGS:
        rng = np.random.default_rng(4)
        strategy = SharingStrategy()
        config = ModelConfig(scoring=scoring, dim=3, margin=1.0, negatives=1, seed=0)
        state = init_state(5, NewRelationRegistry(1), config, strategy, rng)
        state.entity_emb[3] = np.inf
        with pytest.raises(NumericError):
            _, grads = batch_loss_and_grad(TripletBatch.pack([Triplet(0, 0, 1)]),
                                           np.array([[3]]), np.array([[1]]), state, config)
            apply_update(state, grads, config)


@pytest.mark.parametrize("bad", [-1, 5])
def test_batch_kernel_rejects_entity_ids_out_of_range(bad):
    rng = np.random.default_rng(4)
    strategy = SharingStrategy()
    config = ModelConfig(scoring="transe_l2", dim=3, margin=1.0, negatives=1, seed=0)
    state = init_state(5, NewRelationRegistry(1), config, strategy, rng)
    batch = TripletBatch.pack([Triplet(0, 0, 1), Triplet(2, 0, 4)])
    with pytest.raises(IndexError):
        batch_loss_and_grad(batch, np.array([[1], [bad]]), np.array([[1], [4]]), state, config)


def test_apply_update_rejects_non_finite_parameters():
    rng = np.random.default_rng(8)
    strategy = SharingStrategy(kind="rnn")
    config = ModelConfig(scoring="transe_l2", dim=3, lr=1e300, negatives=1, seed=0)
    state = init_state(4, NewRelationRegistry(1, [(0, 0)]), config, strategy, rng)
    grads = SparseGrads()
    grads.entity_rows, grads.entity_grad = np.array([2]), np.full((1, 3), 1e10)
    with pytest.raises(NumericError, match="entity_emb row 2"):
        apply_update(state, grads, config)

    grads = SparseGrads()
    grads.rnn = RnnParams(np.zeros((3, 3)), np.full((3, 3), np.nan), np.zeros(3))
    with pytest.raises(NumericError, match="rnn.w_rec"):
        apply_update(state, grads, config)
