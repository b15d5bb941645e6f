"""Sharing strategies: forwards against hand math, backwards against finite
differences."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    loop_relation_backward,
    loop_relation_vector,
    numeric_gradient,
    rnn_forward,
)
from walkaug import ConfigError, ModelConfig, NewRelationRegistry, SharingStrategy, init_state
from walkaug.models import EmbeddingState
from walkaug.sharing import (
    RnnParams,
    SparseGrads,
    add_rows,
    basis_keys,
    basis_rows,
    relation_backward,
    relation_vector,
    sum_rows,
)

MINTED = NewRelationRegistry(3, [(0, 1), (2, 1, 0)])


def make_state(kind, seed=0, include_original=False, dim=4):
    strategy = SharingStrategy(
        kind=kind,
        basis_count=3 if kind == "basis" else None,
        basis_include_original=include_original,
    )
    config = ModelConfig(scoring="transe_l2", dim=dim, seed=seed)
    rng = np.random.default_rng(seed)
    return init_state(6, MINTED, config, strategy, rng)


def test_validation_rejects_bad_settings():
    with pytest.raises(ConfigError):
        SharingStrategy(kind="model").validate("distmult")
    with pytest.raises(ConfigError):
        SharingStrategy(kind="conv").validate()
    with pytest.raises(ConfigError):
        SharingStrategy(kind="basis", basis_count=0).validate()
    SharingStrategy(kind="model").validate("transe_l1")  # fine


def test_parameter_shapes_per_strategy():
    state = make_state("none")
    assert state.relation_emb.shape == (5, 4)  # 3 original + 2 minted rows
    assert state.rnn is None and state.basis is None

    state = make_state("model")
    assert state.relation_emb.shape == (3, 4)

    state = make_state("rnn")
    assert state.relation_emb.shape == (3, 4)
    assert state.rnn.w_in.shape == (4, 4)
    assert state.rnn.w_rec.shape == (4, 4)
    assert np.all(state.rnn.bias == 0.0)

    state = make_state("basis")
    assert state.basis.vectors.shape == (3, 4)
    assert state.basis.coefficients.shape == (2, 3)
    assert basis_keys(MINTED, state.strategy) == [(0, 1), (2, 1, 0)]

    state = make_state("basis", include_original=True)
    assert state.basis.coefficients.shape == (5, 3)
    assert basis_keys(MINTED, state.strategy) == [(0, 1), (2, 1, 0), (0,), (1,), (2,)]
    assert basis_rows(MINTED, state.strategy, np.arange(5)).tolist() == [2, 3, 4, 0, 1]


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
    # model sharing: a minted relation over relations 0..L-1 is their sum,
    # bit for bit the left fold
    vectors = np.array(rows, dtype=np.float64)
    registry = NewRelationRegistry(len(rows), [tuple(range(len(rows)))])
    state = EmbeddingState(np.zeros((1, vectors.shape[1])), vectors, registry,
                           SharingStrategy(kind="model"))
    want_sum = functools.reduce(np.add, list(vectors))
    got = relation_vector(state, [len(rows)])[0]
    assert np.array_equal(got, want_sum)


def test_compose_sum_backward_broadcasts_grad():
    # model sharing: each constituent gets the whole gradient, once per use
    registry = NewRelationRegistry(3, [(2, 0, 2)])
    state = EmbeddingState(np.zeros((1, 4)), np.arange(12.0).reshape(3, 4), registry,
                           SharingStrategy(kind="model"))
    grad = np.array([1.0, -2.0, 0.5, 3.0])
    out = SparseGrads()
    relation_backward(state, [3], grad[None], out)
    assert out.relation_rows.tolist() == [0, 2]
    assert np.array_equal(out.relation_grad[0], grad)
    assert np.array_equal(out.relation_grad[1], 2 * grad)


def test_rnn_forward_matches_manual_recurrence():
    state = make_state("rnn", seed=3)
    h = np.zeros(4)
    for x in state.relation_emb[[2, 1, 0]]:
        h = np.tanh(state.rnn.w_in @ x + state.rnn.w_rec @ h + state.rnn.bias)
    final = relation_vector(state, [4])[0]  # minted (2, 1, 0)
    assert final.tobytes() == h.tobytes()
    assert final.tobytes() == rnn_forward(state.rnn, state.relation_emb[[2, 1, 0]])[0].tobytes()


def test_rnn_backward_matches_finite_differences():
    # one stacked call over ids of both metapath lengths, a repeat and an original
    state = make_state("rnn", seed=5)
    rng = np.random.default_rng(11)
    state.rnn.bias[:] = rng.normal(scale=0.1, size=4)
    ids = np.array([4, 1, 3, 4])
    grads = rng.normal(size=(ids.size, 4))
    out = SparseGrads()
    relation_backward(state, ids, grads, out)

    def fn():
        return float((grads * relation_vector(state, ids)).sum())

    dense_rel = np.zeros_like(state.relation_emb)
    dense_rel[out.relation_rows] = out.relation_grad
    np.testing.assert_allclose(dense_rel, numeric_gradient(fn, state.relation_emb),
                               rtol=1e-5, atol=1e-8)
    for name in ("w_in", "w_rec", "bias"):
        np.testing.assert_allclose(getattr(out.rnn, name),
                                   numeric_gradient(fn, getattr(state.rnn, name)),
                                   rtol=1e-5, atol=1e-8)


def _assert_stacked_equals_loop(state, ids, grads):
    """Stacked `relation_vector` / `relation_backward` equal the per-relation
    oracle byte for byte. A second backward call into the same bundle adds
    onto what it holds, as the oracle over both id arrays does."""
    kind = state.strategy.kind
    got = relation_vector(state, ids)
    assert got.tobytes() == loop_relation_vector(state, kind, ids).tobytes()
    out = SparseGrads()
    calls = [(ids, grads), (ids[::-1], grads[::-1])]
    for n in (1, 2):
        relation_backward(state, *calls[n - 1], out)
        rows, total, rnn = loop_relation_backward(
            state, kind, np.concatenate([c[0] for c in calls[:n]]),
            np.concatenate([c[1] for c in calls[:n]]))
        assert out.relation_rows.tolist() == rows.tolist()
        assert out.relation_grad.tobytes() == total.tobytes()
        assert (out.rnn is None) == (rnn is None)
        if rnn is not None:
            for name, want in zip(("w_in", "w_rec", "bias"), rnn):
                assert getattr(out.rnn, name).tobytes() == want.tobytes(), (n, name)


# lengths 2 and 3 interleave in id order; (2, 0, 2) repeats a relation
INTERLEAVED = NewRelationRegistry(3, [(0, 1), (0, 1, 2), (1, 0), (2, 0, 2), (2, 2)])


@pytest.mark.parametrize("kind", ["model", "rnn"])
@pytest.mark.parametrize("dim", [1, 7, 32, 50])
def test_stacked_sharing_equals_the_per_relation_oracle(kind, dim):
    strategy = SharingStrategy(kind=kind)
    config = ModelConfig(scoring="transe_l2", dim=dim, seed=0)
    rng = np.random.default_rng(dim)
    state = init_state(6, INTERLEAVED, config, strategy, rng)
    if kind == "rnn":
        state.rnn.bias[:] = rng.normal(scale=0.1, size=dim)
    ids = np.array([6, 1, 3, 7, 4, 0, 6, 5, 2, 3])  # unsorted, repeats, originals mixed in
    _assert_stacked_equals_loop(state, ids, rng.normal(size=(ids.size, dim)))


_metapaths = st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=3).map(tuple),
                      min_size=1, max_size=8, unique=True)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["model", "rnn"]), dim=st.integers(1, 5), metapaths=_metapaths,
       picks=st.lists(st.integers(0, 10), min_size=1, max_size=12), seed=st.integers(0, 2**16))
def test_stacked_sharing_equals_the_oracle_on_any_registry(kind, dim, metapaths, picks, seed):
    registry = NewRelationRegistry(3, metapaths)
    strategy = SharingStrategy(kind=kind)
    rng = np.random.default_rng(seed)
    state = init_state(4, registry, ModelConfig(scoring="transe_l2", dim=dim), strategy, rng)
    if kind == "rnn":
        state.rnn.bias[:] = rng.normal(scale=0.1, size=dim)
    ids = np.array([pick % (3 + len(registry)) for pick in picks])
    _assert_stacked_equals_loop(state, ids, rng.normal(size=(ids.size, dim)))


def test_recurrence_backward_scratch_is_blocked():
    # 400 minted relations at d = 64: stacking every relation's two (d, d)
    # gradients at once would trace 400 * 64 * 64 * 8 * 2 bytes, about 26 MB
    dim, count = 64, 400
    rng = np.random.default_rng(0)
    metapaths = sorted({tuple(rng.integers(0, 10, size=int(rng.integers(2, 4))).tolist())
                        for _ in range(3 * count)})[:count]
    registry = NewRelationRegistry(10, metapaths)
    strategy = SharingStrategy(kind="rnn")
    state = init_state(4, registry, ModelConfig(scoring="transe_l2", dim=dim), strategy, rng)
    ids = rng.permutation(np.arange(10, 10 + count))
    grads = rng.normal(size=(count, dim))
    out = SparseGrads()
    tracemalloc.start()
    try:
        relation_backward(state, ids, grads, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.rnn is not None
    unblocked = count * dim * dim * 8 * 2
    assert peak < unblocked / 8, (peak, unblocked)


def test_representation_none_reads_minted_row():
    state = make_state("none")
    rep = relation_vector(state, [3])[0]  # minted (0, 1)
    assert np.array_equal(rep, state.relation_emb[3])


def test_representation_model_is_vector_sum():
    state = make_state("model")
    rep = relation_vector(state, [4])[0]  # minted (2, 1, 0)
    want = state.relation_emb[2] + state.relation_emb[1] + state.relation_emb[0]
    assert np.array_equal(rep, want)


def test_representation_basis_is_linear_combination():
    state = make_state("basis")
    coef = state.basis.coefficients[0]  # the row of the first minted metapath
    rep = relation_vector(state, [3])[0]  # minted (0, 1)
    assert np.array_equal(rep, state.basis.vectors.T @ coef)
    assert np.array_equal(relation_vector(state, [1])[0], state.relation_emb[1])


@pytest.mark.parametrize("kind", ["none", "model", "rnn", "basis"])
def test_strategy_backward_matches_finite_differences(kind):
    state = make_state(kind, seed=9)
    rng = np.random.default_rng(13)
    grad = rng.normal(size=4)
    metapath = (2, 1, 0)
    minted = MINTED.id_of(metapath)
    out = SparseGrads()
    relation_backward(state, [minted], grad[None], out)

    def fn():
        return float(grad @ relation_vector(state, [minted])[0])

    dense_rel = np.zeros_like(state.relation_emb)
    if out.relation_rows.size:  # none under basis: an untouched table is (0, 0)
        dense_rel[out.relation_rows] = out.relation_grad
    np.testing.assert_allclose(
        dense_rel, numeric_gradient(fn, state.relation_emb), rtol=1e-5, atol=1e-9
    )
    if kind == "rnn":
        np.testing.assert_allclose(
            out.rnn.w_in, numeric_gradient(fn, state.rnn.w_in), rtol=1e-5, atol=1e-9
        )
        np.testing.assert_allclose(
            out.rnn.w_rec, numeric_gradient(fn, state.rnn.w_rec), rtol=1e-5, atol=1e-9
        )
        np.testing.assert_allclose(
            out.rnn.bias, numeric_gradient(fn, state.rnn.bias), rtol=1e-5, atol=1e-9
        )
    if kind == "basis":
        np.testing.assert_allclose(
            out.basis_vectors,
            numeric_gradient(fn, state.basis.vectors),
            rtol=1e-5,
            atol=1e-9,
        )
        row = MINTED.metapaths.index(metapath)
        assert out.basis_coef_rows.tolist() == [row]
        np.testing.assert_allclose(
            out.basis_coef_grad[0],
            numeric_gradient(fn, state.basis.coefficients[row]),
            rtol=1e-5,
            atol=1e-9,
        )


def test_relation_vector_routing():
    state = make_state("model")
    assert np.array_equal(relation_vector(state, [1])[0], state.relation_emb[1])
    composed = relation_vector(state, [3])[0]
    assert np.array_equal(composed, state.relation_emb[0] + state.relation_emb[1])

    state = make_state("basis", include_original=True)
    vec = relation_vector(state, [2])[0]
    want = state.basis.vectors.T @ state.basis.coefficients[len(MINTED) + 2]  # the row of (2,)
    assert np.array_equal(vec, want)

    state = make_state("none")
    assert np.array_equal(relation_vector(state, [4])[0], state.relation_emb[4])


def test_relation_backward_splits_onto_constituents():
    state = make_state("model")
    grad = np.array([1.0, 0.0, -1.0, 2.0])
    out = SparseGrads()
    relation_backward(state, [4], grad[None], out)  # minted (2, 1, 0)
    assert out.relation_rows.tolist() == [0, 1, 2]
    for row_grad in out.relation_grad:
        assert np.array_equal(row_grad, grad)

    out = SparseGrads()
    relation_backward(state, [1], grad[None], out)  # original: free row
    assert out.relation_rows.tolist() == [1]


def test_sparse_grads_update_accumulates():
    a = SparseGrads()
    a.entity_rows, a.entity_grad = np.array([0]), np.ones((1, 3))
    a.basis_coef_rows, a.basis_coef_grad = np.array([0]), np.array([[1.0, 2.0]])
    b = SparseGrads()
    b.entity_rows, b.entity_grad = sum_rows(np.array([5, 0]), np.array([np.ones(3),
                                                                        np.full(3, 2.0)]))
    b.basis_coef_rows, b.basis_coef_grad = np.array([0]), np.array([[10.0, 20.0]])
    b.rnn = RnnParams(np.eye(2), 2 * np.eye(2), np.ones(2))
    a.update(b)
    assert a.entity_rows.tolist() == [0, 5]
    assert np.array_equal(a.entity_grad, [np.full(3, 3.0), np.ones(3)])
    assert np.array_equal(a.basis_coef_grad, [[11.0, 22.0]])
    assert np.array_equal(a.rnn.w_rec, 2 * np.eye(2))
    a.update(b)
    assert np.array_equal(a.rnn.w_rec, 4 * np.eye(2))


_cells = st.one_of(st.just(-0.0), st.just(0.0), st.just(np.inf), st.just(-np.inf),
                  st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cell=st.sampled_from([(3,), (1,), (2, 3), (4,), (2, 2)]),
       table_rows=st.integers(1, 4), count=st.sampled_from([0, 1, 2, 5, 12]))
def test_add_rows_and_sum_rows_equal_the_2d_add_at(data, cell, table_rows, count):
    # few table rows, so most rows repeat; -0.0 and +-inf (whose sum is nan) in
    # the values and in the table; odd widths add float64 cells and even ones
    # complex128 pairs
    values = np.array(data.draw(st.lists(_cells, min_size=count * int(np.prod(cell)),
                                         max_size=count * int(np.prod(cell)))),
                      dtype=np.float64).reshape(count, *cell)
    rows = np.array(data.draw(st.lists(st.integers(0, table_rows - 1), min_size=count,
                                       max_size=count)), dtype=np.int64)
    start = np.array(data.draw(st.lists(_cells, min_size=table_rows * int(np.prod(cell)),
                                        max_size=table_rows * int(np.prod(cell)))),
                     dtype=np.float64).reshape(table_rows, *cell)
    got, want = start.copy(), start.copy()
    with np.errstate(invalid="ignore"):  # inf + -inf
        add_rows(got, rows, values)
        np.add.at(want, rows, values)
    assert got.tobytes() == want.tobytes()

    want_unique, inverse = np.unique(rows, return_inverse=True)
    want_total = np.zeros((want_unique.size, *cell))
    with np.errstate(invalid="ignore"):
        unique, total = sum_rows(rows, values)
        np.add.at(want_total, inverse, values)
    assert unique.tolist() == want_unique.tolist()
    assert total.shape == want_total.shape and total.tobytes() == want_total.tobytes()


def test_add_rows_takes_a_row_index_block():
    # the kernel passes a (chunk, slots) block of rows with (chunk, slots, d) values
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 5, size=(4, 6))
    values = rng.normal(size=(4, 6, 3))
    got, want = np.zeros((5, 3)), np.zeros((5, 3))
    add_rows(got, rows, values)
    np.add.at(want, rows, values)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        add_rows(np.zeros((3, 5)).T, np.array([0]), np.ones((1, 3)))


def _bundle(tables):
    """A SparseGrads whose row tables sum the (rows, grads) contributions in `tables`."""
    out = SparseGrads()
    for table, (rows, grads) in tables.items():
        if rows:
            unique, total = sum_rows(np.array(rows), np.array(grads, dtype=np.float64))
            setattr(out, f"{table}_rows", unique)
            setattr(out, f"{table}_grad", total)
    return out


# integer-valued contributions, so every order of summation is exact
_contributions = st.lists(
    st.tuples(st.integers(0, 5), st.lists(st.integers(-50, 50), min_size=2, max_size=2)),
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fixed_dictionaries({table: _contributions for table in SparseGrads.TABLES}),
                min_size=1, max_size=4))
def test_update_equals_a_dense_sum_of_every_contribution(bundles):
    merged = SparseGrads()
    dense = {table: np.zeros((6, 2)) for table in SparseGrads.TABLES}
    for contributions in bundles:
        tables = {table: ([row for row, _ in c], [g for _, g in c])
                  for table, c in contributions.items()}
        merged.update(_bundle(tables))
        for table, (rows, grads) in tables.items():
            np.add.at(dense[table], np.array(rows, dtype=np.int64),
                      np.array(grads, dtype=np.float64).reshape(-1, 2))
    before = {table: (getattr(merged, f"{table}_rows").copy(),
                      getattr(merged, f"{table}_grad").copy()) for table in SparseGrads.TABLES}
    merged.update(SparseGrads())  # an empty bundle changes nothing
    for table in SparseGrads.TABLES:
        rows, grad = getattr(merged, f"{table}_rows"), getattr(merged, f"{table}_grad")
        assert np.array_equal(rows, before[table][0])
        assert np.array_equal(grad, before[table][1])
        assert rows.tolist() == sorted({row for b in bundles for row, _ in b[table]})
        if rows.size:
            assert np.array_equal(grad, dense[table][rows])
    assert merged.rnn is None and merged.basis_vectors is None


@pytest.mark.parametrize("kind,include_original", [
    ("none", False), ("model", False), ("rnn", False), ("basis", False), ("basis", True)])
def test_one_backward_call_equals_one_call_per_id(kind, include_original):
    # (2, 0, 2) repeats a relation, so a row gets two terms from one id
    registry = NewRelationRegistry(3, [(0, 1), (2, 1, 0), (2, 0, 2)])
    strategy = SharingStrategy(kind=kind, basis_count=3 if kind == "basis" else None,
                               basis_include_original=include_original)
    config = ModelConfig(scoring="transe_l2", dim=4, seed=0)
    rng = np.random.default_rng(23)
    state = init_state(6, registry, config, strategy, rng)
    ids = np.array([5, 1, 3, 5, 0, 4, 2])  # unsorted, originals and minted, one repeat
    grads = rng.normal(size=(ids.size, 4))

    whole = SparseGrads()
    relation_backward(state, ids, grads, whole)
    single = SparseGrads()
    for rel, grad in zip(ids, grads):
        relation_backward(state, [rel], grad[None], single)

    for table in SparseGrads.TABLES:
        for part in ("rows", "grad"):
            got, want = getattr(whole, f"{table}_{part}"), getattr(single, f"{table}_{part}")
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (table, part)
    assert (whole.rnn is None) == (kind != "rnn")
    if whole.rnn is not None:
        for name in ("w_in", "w_rec", "bias"):
            assert getattr(whole.rnn, name).tobytes() == getattr(single.rnn, name).tobytes()
    assert (whole.basis_vectors is None) == (kind != "basis")
    if whole.basis_vectors is not None:
        assert whole.basis_vectors.tobytes() == single.basis_vectors.tobytes()
    # and the forward of the whole array is the stack of single-id forwards
    want = np.stack([relation_vector(state, [rel])[0] for rel in ids])
    assert relation_vector(state, ids).tobytes() == want.tobytes()
