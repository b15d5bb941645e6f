"""Sharing strategies: forwards against hand math, backwards against finite
differences."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import numeric_gradient
from walkaug import ConfigError, ModelConfig, SharingStrategy, init_state
from walkaug.sharing import (
    SparseGrads,
    compose_backward,
    compose_vectors,
    metapath_representation,
    relation_backward,
    relation_vector,
    rnn_backward,
    rnn_forward,
    strategy_backward,
)

MINTED = {3: (0, 1), 4: (2, 1, 0)}


def make_state(kind, seed=0, include_original=False, dim=4):
    strategy = SharingStrategy(
        kind=kind,
        basis_count=3 if kind == "basis" else None,
        basis_include_original=include_original,
    )
    config = ModelConfig(scoring="transe_l2", dim=dim, seed=seed)
    rng = np.random.default_rng(seed)
    state = init_state(6, 3, dict(MINTED), config, strategy, rng)
    return state, strategy


def test_validation_rejects_bad_settings():
    with pytest.raises(ConfigError):
        SharingStrategy(kind="model").validate("distmult")
    with pytest.raises(ConfigError):
        SharingStrategy(kind="conv").validate()
    with pytest.raises(ConfigError):
        SharingStrategy(kind="basis", basis_count=0).validate()
    SharingStrategy(kind="model").validate("transe_l1")  # fine


def test_parameter_shapes_per_strategy():
    state, _ = make_state("none")
    assert state.relation_emb.shape == (5, 4)  # 3 original + 2 minted rows
    assert state.rnn is None and state.basis is None

    state, _ = make_state("model")
    assert state.relation_emb.shape == (3, 4)

    state, _ = make_state("rnn")
    assert state.relation_emb.shape == (3, 4)
    assert state.rnn.w_in.shape == (4, 4)
    assert state.rnn.w_rec.shape == (4, 4)
    assert np.all(state.rnn.bias == 0.0)

    state, _ = make_state("basis")
    assert state.basis.vectors.shape == (3, 4)
    assert set(state.basis.coefficients) == {(0, 1), (2, 1, 0)}

    state, _ = make_state("basis", include_original=True)
    assert set(state.basis.coefficients) == {(0, 1), (2, 1, 0), (0,), (1,), (2,)}


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(-2, 2, allow_nan=False), min_size=d, max_size=d),
            min_size=1,
            max_size=4,
        )
    )
)
def test_compose_matches_left_fold_exactly(rows):
    vectors = np.array(rows, dtype=np.float64)
    want_sum = functools.reduce(np.add, list(vectors))
    assert np.array_equal(compose_vectors(vectors), want_sum)


def test_compose_sum_backward_broadcasts_grad():
    vectors = np.arange(12, dtype=np.float64).reshape(3, 4)
    grad = np.array([1.0, -2.0, 0.5, 3.0])
    per_row = compose_backward(vectors, grad)
    assert per_row.shape == vectors.shape
    assert np.array_equal(per_row, np.tile(grad, (3, 1)))


def test_rnn_forward_matches_manual_recurrence():
    state, _ = make_state("rnn", seed=3)
    inputs = state.relation_emb[[2, 1, 0]]
    final, states = rnn_forward(state.rnn, inputs)
    assert len(states) == 4
    assert np.all(states[0] == 0.0)
    h = np.zeros(4)
    for x in inputs:
        h = np.tanh(state.rnn.w_in @ x + state.rnn.w_rec @ h + state.rnn.bias)
    assert np.array_equal(final, h)
    assert final is states[-1]


def test_rnn_backward_matches_finite_differences():
    state, _ = make_state("rnn", seed=5)
    params = state.rnn
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=(3, 4))
    grad = rng.normal(size=4)
    _, states = rnn_forward(params, inputs)
    d_w_in, d_w_rec, d_bias, d_inputs = rnn_backward(params, inputs, states, grad)

    def fn():
        return float(grad @ rnn_forward(params, inputs)[0])

    np.testing.assert_allclose(d_w_in, numeric_gradient(fn, params.w_in), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(d_w_rec, numeric_gradient(fn, params.w_rec), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(d_bias, numeric_gradient(fn, params.bias), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(d_inputs, numeric_gradient(fn, inputs), rtol=1e-5, atol=1e-8)


def test_representation_none_reads_minted_row():
    state, strategy = make_state("none")
    rep = metapath_representation((0, 1), state, strategy)
    assert np.array_equal(rep, state.relation_emb[3])
    with pytest.raises(ValueError):
        metapath_representation((1, 2), state, strategy)  # never minted


def test_representation_model_is_vector_sum():
    state, strategy = make_state("model")
    rep = metapath_representation((2, 1, 0), state, strategy)
    want = state.relation_emb[2] + state.relation_emb[1] + state.relation_emb[0]
    assert np.array_equal(rep, want)


def test_representation_basis_is_linear_combination():
    state, strategy = make_state("basis")
    coef = state.basis.coefficients[(0, 1)]
    rep = metapath_representation((0, 1), state, strategy)
    assert np.array_equal(rep, state.basis.vectors.T @ coef)
    with pytest.raises(ValueError):
        metapath_representation((1, 2), state, strategy)  # no coefficients


def test_representation_requires_matching_parameters():
    state, _ = make_state("none")
    with pytest.raises(ValueError):
        metapath_representation((0, 1), state, SharingStrategy(kind="rnn"))
    with pytest.raises(ValueError):
        metapath_representation((0, 1), state, SharingStrategy(kind="basis"))


@pytest.mark.parametrize("kind", ["none", "model", "rnn", "basis"])
def test_strategy_backward_matches_finite_differences(kind):
    state, strategy = make_state(kind, seed=9)
    rng = np.random.default_rng(13)
    grad = rng.normal(size=4)
    metapath = (2, 1, 0)
    out = strategy_backward(metapath, grad, state, strategy)

    def fn():
        return float(grad @ metapath_representation(metapath, state, strategy))

    dense_rel = np.zeros_like(state.relation_emb)
    for rid, g in out.relation.items():
        dense_rel[rid] += g
    np.testing.assert_allclose(
        dense_rel, numeric_gradient(fn, state.relation_emb), rtol=1e-5, atol=1e-9
    )
    if kind == "rnn":
        np.testing.assert_allclose(
            out.rnn_w_in, numeric_gradient(fn, state.rnn.w_in), rtol=1e-5, atol=1e-9
        )
        np.testing.assert_allclose(
            out.rnn_w_rec, numeric_gradient(fn, state.rnn.w_rec), rtol=1e-5, atol=1e-9
        )
        np.testing.assert_allclose(
            out.rnn_bias, numeric_gradient(fn, state.rnn.bias), rtol=1e-5, atol=1e-9
        )
    if kind == "basis":
        np.testing.assert_allclose(
            out.basis_vectors,
            numeric_gradient(fn, state.basis.vectors),
            rtol=1e-5,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            out.basis_coef[metapath],
            numeric_gradient(fn, state.basis.coefficients[metapath]),
            rtol=1e-5,
            atol=1e-9,
        )


def test_relation_vector_routing():
    state, strategy = make_state("model")
    assert np.array_equal(relation_vector(state, strategy, 1), state.relation_emb[1])
    composed = relation_vector(state, strategy, 3)
    assert np.array_equal(composed, state.relation_emb[0] + state.relation_emb[1])

    state, strategy = make_state("basis", include_original=True)
    vec = relation_vector(state, strategy, 2)
    want = state.basis.vectors.T @ state.basis.coefficients[(2,)]
    assert np.array_equal(vec, want)

    state, strategy = make_state("none")
    assert np.array_equal(relation_vector(state, strategy, 4), state.relation_emb[4])


def test_relation_backward_splits_onto_constituents():
    state, strategy = make_state("model")
    grad = np.array([1.0, 0.0, -1.0, 2.0])
    out = SparseGrads()
    relation_backward(state, strategy, 4, grad, out)  # minted (2, 1, 0)
    assert set(out.relation) == {0, 1, 2}
    for rid in (0, 1, 2):
        assert np.array_equal(out.relation[rid], grad)

    out = SparseGrads()
    relation_backward(state, strategy, 1, grad, out)  # original: free row
    assert set(out.relation) == {1}


def test_sparse_grads_update_accumulates():
    a = SparseGrads()
    a.add_entities([0], np.ones((1, 3)))
    a.add_basis_coef((0, 1), np.array([1.0, 2.0]))
    b = SparseGrads()
    b.add_entities([5, 0], np.array([np.ones(3), np.full(3, 2.0)]))
    b.add_basis_coef((0, 1), np.array([10.0, 20.0]))
    b.add_rnn(np.eye(2), 2 * np.eye(2), np.ones(2))
    a.update(b)
    assert np.array_equal(a.entity[0], np.full(3, 3.0))
    assert np.array_equal(a.entity[5], np.ones(3))
    assert np.array_equal(a.basis_coef[(0, 1)], np.array([11.0, 22.0]))
    assert np.array_equal(a.rnn_w_rec, 2 * np.eye(2))
    a.update(b)
    assert np.array_equal(a.rnn_w_rec, 4 * np.eye(2))
