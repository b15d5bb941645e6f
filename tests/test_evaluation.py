"""Ranking against hand fixtures, a score-loop oracle and a set-based filter."""

from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph
from oracles import brute_force_rank, loop_ranks
from walkaug import (
    EvalFilter,
    ModelConfig,
    SharingStrategy,
    Triplet,
    compute_metrics,
    evaluate,
    init_state,
    rank_triplet,
    score,
)
from walkaug import evaluation
from walkaug.augment import NewRelationRegistry
from walkaug.models import EmbeddingState, side_scores, side_vector

STRATEGY = SharingStrategy()


def line_state(entities, relations):
    return EmbeddingState(
        np.array(entities, dtype=np.float64).reshape(len(entities), -1),
        np.array(relations, dtype=np.float64).reshape(len(relations), -1),
        NewRelationRegistry(len(relations)),
        STRATEGY,
    )


def test_rank_hand_computed_line_embedding():
    # tail candidates score -|e - (h + r)|: best is the entity at 1.0
    state = line_state([[0.0], [1.0], [2.0], [3.0]], [[1.0]])
    head_rank, tail_rank = rank_triplet(
        Triplet(0, 0, 1), state, "transe_l2", protocol="raw"
    )
    assert (head_rank, tail_rank) == (1, 1)
    head_rank, tail_rank = rank_triplet(
        Triplet(0, 0, 3), state, "transe_l2", protocol="raw"
    )
    # tail side: candidate 3 sits 2.0 away from h+r=1, beaten by 0, 1, 2
    assert tail_rank == 4
    # head side: candidate 0 sits 2.0 away from t-r=2, beaten by 2, 1, 3
    assert head_rank == 4


def test_tie_policies_differ_on_duplicates():
    state = line_state([[0.0], [1.0], [1.0], [5.0]], [[1.0]])
    positive = Triplet(0, 0, 1)
    _, optimistic = rank_triplet(
        positive, state, "transe_l2", protocol="raw", tie="optimistic"
    )
    _, pessimistic = rank_triplet(
        positive, state, "transe_l2", protocol="raw", tie="pessimistic"
    )
    assert optimistic == 1  # entity 2 ties, nothing strictly better
    assert pessimistic == 2

    # Exact duplicate rows of the true head (three copies) and tail (two)
    # tie with it on both sides, under every scorer and any row width.
    rng = np.random.default_rng(29)
    for scoring in ("transe_l1", "transe_l2", "distmult"):
        for dim in (1, 7, 16):
            emb = rng.normal(size=(40, dim))
            emb[[5, 17, 33]] = emb[2]
            emb[[9, 21]] = emb[30]
            state = EmbeddingState(emb, rng.normal(size=(1, dim)), NewRelationRegistry(1),
                                   STRATEGY)
            positive = Triplet(2, 0, 30)
            optimistic = rank_triplet(positive, state, scoring,
                                      protocol="raw", tie="optimistic")
            pessimistic = rank_triplet(positive, state, scoring,
                                       protocol="raw", tie="pessimistic")
            assert pessimistic[0] - optimistic[0] == 3, (scoring, dim)
            assert pessimistic[1] - optimistic[1] == 2, (scoring, dim)


def _rowdot(a, b):
    return np.einsum("...i,...i->...", a, b)


def test_score_keeps_training_and_table_expressions():
    rng = np.random.default_rng(37)
    # equal-size blocks, as in training: h + r - t and dot(h * t, r)
    h, t = rng.normal(size=(2, 5, 3, 16))
    r = rng.normal(size=(5, 1, 16))
    delta = h + r - t
    assert np.array_equal(score(h, r, t, "transe_l2"), -np.sqrt(_rowdot(delta, delta)))
    assert np.array_equal(score(h, r, t, "transe_l1"), -np.abs(delta).sum(axis=-1))
    assert np.array_equal(score(h, r, t, "distmult"), _rowdot(h * t, r))
    # the whole table on one side: r joins the (d,) vector first
    table = rng.normal(size=(50, 16))
    a, r = rng.normal(size=(2, 16))
    heads = table - (a - r)
    tails = (a + r) - table
    assert np.array_equal(score(table, r, a, "transe_l2"), -np.sqrt(_rowdot(heads, heads)))
    assert np.array_equal(score(a, r, table, "transe_l2"), -np.sqrt(_rowdot(tails, tails)))
    assert np.array_equal(score(table, r, a, "transe_l1"), -np.abs(heads).sum(axis=-1))
    assert np.array_equal(score(a, r, table, "transe_l1"), -np.abs(tails).sum(axis=-1))
    assert np.array_equal(score(table, r, a, "distmult"), _rowdot(table, a * r))
    assert np.array_equal(score(table, r, a, "distmult"), score(a, r, table, "distmult"))


def test_filtered_protocol_removes_known_candidates():
    state = line_state([[0.0], [1.0], [1.0], [5.0]], [[1.0]])
    graph = make_graph([(0, 0, 1), (0, 0, 2)], num_entities=4, num_relations=1)
    ef = EvalFilter.from_graphs([graph])
    _, tail_rank = rank_triplet(
        Triplet(0, 0, 1), state, "transe_l2",
        graph_filter=ef, protocol="filtered", tie="pessimistic",
    )
    assert tail_rank == 1  # the tying entity 2 is a known true tail


def test_rank_triplet_validation():
    state = line_state([[0.0], [1.0]], [[1.0]])
    with pytest.raises(ValueError):
        rank_triplet(Triplet(0, 0, 1), state, "transe_l2", protocol="both")
    with pytest.raises(ValueError):
        rank_triplet(Triplet(0, 0, 1), state, "transe_l2",
                     protocol="raw", tie="hopeful")
    with pytest.raises(ValueError):
        rank_triplet(Triplet(0, 0, 1), state, "transe_l2", protocol="filtered")


def test_eval_filter_lookup():
    graph = make_graph([(0, 0, 1), (0, 0, 3), (2, 0, 1)], num_entities=4, num_relations=1)
    ef = EvalFilter.from_graphs([graph])
    assert list(ef.known_tails(0, 0)) == [1, 3]
    assert list(ef.known_heads(0, 1)) == [0, 2]
    assert ef.known_tails(3, 0).size == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_filter_matches_set_oracle(data):
    triplet = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6))
    train = data.draw(st.lists(triplet, max_size=20))
    splits = [train]
    for _ in range(2):  # valid and test repeat some training triplets
        repeated = data.draw(st.lists(st.sampled_from(train), max_size=8)) if train else []
        splits.append(repeated + data.draw(st.lists(triplet, max_size=8)))
    ef = EvalFilter.from_graphs(make_graph(split, num_entities=7, num_relations=4)
                                for split in splits)
    tails, heads = defaultdict(set), defaultdict(set)
    for split in splits:
        for h, rel, t in split:
            tails[h, rel].add(t)
            heads[rel, t].add(h)
    # entity 7 and relation 4 never occur; -1 and 4 lie outside the filter's relations
    keys = [(entity, rel) for entity in range(8) for rel in range(-1, 5)]
    for entity, rel in keys:
        for got, want in ((ef.known_tails(entity, rel), tails.get((entity, rel), ())),
                          (ef.known_heads(rel, entity), heads.get((rel, entity), ()))):
            assert got.dtype == np.int64
            assert got.tolist() == sorted(want)
    # a block of keys, in any order and with repeats, finds what each key finds alone
    order = data.draw(st.lists(st.sampled_from(keys), max_size=30))
    entities = np.array([entity for entity, _ in order], dtype=np.int64)
    relations = np.array([rel for _, rel in order], dtype=np.int64)
    for (rows, got), single in ((ef.known_tails_block(entities, relations), ef.known_tails),
                                (ef.known_heads_block(relations, entities),
                                 lambda entity, rel: ef.known_heads(rel, entity))):
        assert rows.dtype == got.dtype == np.int64
        assert np.all(np.diff(rows) >= 0)
        for i, (entity, rel) in enumerate(order):
            assert got[rows == i].tolist() == single(entity, rel).tolist()


def test_eval_filter_of_zero_triplets_is_empty():
    ef = EvalFilter.from_graphs([make_graph([], num_entities=3, num_relations=2)])
    assert ef.known_tails(0, 0).size == 0 and ef.known_heads(1, 2).size == 0
    assert ef.known_tails(0, 0).dtype == np.int64


@pytest.mark.parametrize("kind,include_original", [
    ("none", False), ("model", False), ("rnn", False), ("basis", False), ("basis", True),
])
def test_evaluate_minted_relations_once_per_relation(monkeypatch, kind, include_original):
    rng = np.random.default_rng(41)
    n = 12
    minted = NewRelationRegistry(3, [(0, 1), (2, 1, 0)])
    strategy = SharingStrategy(kind=kind, basis_count=4 if kind == "basis" else None,
                               basis_include_original=include_original)
    # relations 0..2 are original, 3 and 4 minted metapaths
    edges = list(zip(rng.integers(n, size=30).tolist(), rng.integers(5, size=30).tolist(),
                     rng.integers(n, size=30).tolist()))
    graph = make_graph(edges, num_entities=n, num_relations=5)
    ef = EvalFilter.from_graphs([graph])
    calls = []
    build = evaluation.relation_vector

    def counted(state, rel_ids):
        calls.append(np.asarray(rel_ids).tolist())
        return build(state, rel_ids)

    for scoring in ("transe_l2", "transe_l1", "distmult"):
        if kind == "model" and scoring == "distmult":
            continue
        config = ModelConfig(scoring=scoring, dim=8, seed=0)
        state = init_state(n, minted, config, strategy, rng)
        for protocol, tie in (("filtered", "optimistic"), ("raw", "pessimistic")):
            monkeypatch.setattr(evaluation, "relation_vector", counted)
            calls.clear()
            result = evaluate(state, scoring, graph, ef, protocol, tie)
            assert calls == [sorted({rel for _, rel, _ in edges})]  # one call, each relation once
            monkeypatch.setattr(evaluation, "relation_vector", build)
            want = [rank_triplet(Triplet(*edge), state, scoring, ef, protocol, tie)
                    for edge in edges]
            assert result.head_ranks.tolist() == [head for head, _ in want]
            assert result.tail_ranks.tolist() == [tail for _, tail in want]


def test_ranks_match_score_loop_oracle():
    rng = np.random.default_rng(17)
    for case in range(30):
        n = int(rng.integers(5, 12))
        num_rels = int(rng.integers(1, 4))
        edges = sorted(
            {
                (int(rng.integers(n)), int(rng.integers(num_rels)), int(rng.integers(n)))
                for _ in range(rng.integers(4, 15))
            }
        )
        graph = make_graph(edges, num_entities=n, num_relations=num_rels)
        state = EmbeddingState(
            rng.normal(size=(n, 6)), rng.normal(size=(num_rels, 6)), NewRelationRegistry(num_rels),
            STRATEGY,
        )
        ef = EvalFilter.from_graphs([graph])
        scoring = ("transe_l2", "transe_l1", "distmult")[case % 3]
        tie = ("optimistic", "pessimistic")[case % 2]
        h, rel, t = edges[int(rng.integers(len(edges)))]
        for protocol in ("raw", "filtered"):
            head_rank, tail_rank = rank_triplet(
                Triplet(h, rel, t), state, scoring,
                graph_filter=ef, protocol=protocol, tie=tie,
            )
            r = state.relation_emb[rel]
            tail_scores = [score(state.entity_emb[h], r, state.entity_emb[i], scoring)
                           for i in range(n)]
            head_scores = [score(state.entity_emb[i], r, state.entity_emb[t], scoring)
                           for i in range(n)]
            if protocol == "filtered":
                known_t = set(map(int, ef.known_tails(h, rel)))
                known_h = set(map(int, ef.known_heads(rel, t)))
            else:
                known_t = known_h = set()
            assert tail_rank == brute_force_rank(tail_scores, t, known_t - {t}, tie)
            assert head_rank == brute_force_rank(head_scores, h, known_h - {h}, tie)


SCORINGS = ("transe_l2", "transe_l1", "distmult")
CASES = [(scoring, protocol, tie) for scoring in SCORINGS for protocol in ("raw", "filtered")
         for tie in ("optimistic", "pessimistic")]


def adversarial_table(rng, kind, n, d, scale):
    """(n, d) entity and (3, d) relation tables built to tie or nearly tie."""
    if kind == "one_decimal":  # dense exact ties, and sums that round
        return np.round(rng.normal(size=(n, d)), 1), np.round(rng.normal(size=(3, d)), 1)
    emb = rng.normal(size=(n, d)) * scale
    relations = rng.normal(size=(3, d)) * scale
    if kind == "duplicates":  # exact copies of a few rows
        emb = emb[rng.integers(max(1, n // 4), size=n)]
    elif kind == "ulps":  # copies moved a few ulps, so distances differ in the last bits
        emb = emb[rng.integers(max(1, n // 4), size=n)]
        emb += rng.integers(-3, 4, size=emb.shape) * np.spacing(emb)
    return emb, relations


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["scaled", "one_decimal", "duplicates", "ulps"]),
       n=st.integers(1, 40), d=st.integers(1, 80), m=st.integers(1, 12),
       scale_exp=st.integers(-3, 3), block=st.one_of(st.none(), st.integers(1, 120)),
       sides=st.one_of(st.none(), st.integers(1, 12)), seed=st.integers(0, 2 ** 32 - 1))
def test_block_ranks_equal_the_loop_oracle(kind, n, d, m, scale_exp, block, sides, seed):
    # small blocks and tiles put the positive, known and band candidates in
    # any tile of any block, a partial last tile included
    rng = np.random.default_rng(seed)
    emb, relations = adversarial_table(rng, kind, n, d, 10.0 ** scale_exp)
    state = EmbeddingState(emb, relations, NewRelationRegistry(3), STRATEGY)
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(3, size=m),
                             rng.integers(n, size=m)))
    graph = make_graph(edges, num_entities=n, num_relations=3)
    known = make_graph(np.column_stack((rng.integers(n, size=3 * n), rng.integers(3, size=3 * n),
                                        rng.integers(n, size=3 * n))), n, 3)
    ef = EvalFilter.from_graphs([graph, known])
    block = evaluation.RANK_BLOCK_VALUES if block is None else block
    sides = evaluation.RANK_BLOCK_SIDES if sides is None else sides
    with mock.patch.object(evaluation, "RANK_BLOCK_VALUES", block), \
            mock.patch.object(evaluation, "RANK_BLOCK_SIDES", sides):
        for scoring, protocol, tie in CASES:
            got = evaluate(state, scoring, graph, ef, protocol, tie)
            want = loop_ranks(graph, state, scoring, ef, protocol, tie)
            assert got.head_ranks.tolist() == want[0].tolist(), (scoring, protocol, tie)
            assert got.tail_ranks.tolist() == want[1].tolist(), (scoring, protocol, tie)


def _infinite_row(emb, relations):
    emb[4, 2] = np.inf


def _nan_relation(emb, relations):
    relations[1] = np.nan  # one relation of three: a block mixes both kinds of side


def _rows_near_overflow(emb, relations):
    emb[[2, 7]] *= 1e154  # |e|^2 overflows


def _scaled(exp):
    def scale(emb, relations):
        emb *= 10.0 ** exp
        relations *= 10.0 ** exp
    return scale


@pytest.mark.parametrize("spoil", [_infinite_row, _nan_relation, _rows_near_overflow,
                                   _scaled(153), _scaled(152), _scaled(100)],
                         ids=["inf row", "nan relation", "rows near 1e154", "scale 1e153",
                              "scale 1e152", "scale 1e100"])
def test_untrusted_sides_are_rescored_exactly(spoil):
    # `_band` step 14: a side whose screen could overflow or is not finite is
    # rescored in full. At scale 1e153 every side's band bound reaches
    # max / 16; at 1e152 (transe_l2) and 1e100 (distmult) the screen is
    # trusted, with a band as wide as the values demand.
    rng = np.random.default_rng(53)
    n, d, m = 30, 5, 16
    emb, relations = rng.normal(size=(n, d)), rng.normal(size=(3, d))
    spoil(emb, relations)
    state = EmbeddingState(emb, relations, NewRelationRegistry(3), STRATEGY)
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(3, size=m),
                             rng.integers(n, size=m)))
    edges[:3, 0] = 4  # the infinite row is a positive, an anchor and a candidate
    graph = make_graph(edges, num_entities=n, num_relations=3)
    known = make_graph(np.column_stack((rng.integers(n, size=3 * n), rng.integers(3, size=3 * n),
                                        rng.integers(n, size=3 * n))), n, 3)
    ef = EvalFilter.from_graphs([graph, known])
    for scoring, protocol, tie in CASES:
        got = evaluate(state, scoring, graph, ef, protocol, tie)
        with np.errstate(all="ignore"):
            want = loop_ranks(graph, state, scoring, ef, protocol, tie)
        assert got.head_ranks.tolist() == want[0].tolist(), (scoring, protocol, tie)
        assert got.tail_ranks.tolist() == want[1].tolist(), (scoring, protocol, tie)


def test_zero_band_misranks_a_tie_table(monkeypatch):
    # the screen alone, without its rounding band, gets near-ties wrong
    rng = np.random.default_rng(31)
    n, d, m = 3000, 8, 200
    emb, relations = adversarial_table(rng, "one_decimal", n, d, 1.0)
    state = EmbeddingState(emb, relations, NewRelationRegistry(3), STRATEGY)
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(3, size=m),
                             rng.integers(n, size=m)))
    graph = make_graph(edges, num_entities=n, num_relations=3)
    band = evaluation._band
    for scoring in ("transe_l2", "distmult"):
        for tie in ("optimistic", "pessimistic"):
            want = loop_ranks(graph, state, scoring, None, "raw", tie)
            got = evaluate(state, scoring, graph, None, "raw", tie)
            assert np.array_equal(np.stack((got.head_ranks, got.tail_ranks)), want)
            monkeypatch.setattr(evaluation, "_band", lambda *args: np.zeros(args[3].shape))
            got = evaluate(state, scoring, graph, None, "raw", tie)
            monkeypatch.setattr(evaluation, "_band", band)
            assert not np.array_equal(np.stack((got.head_ranks, got.tail_ranks)), want)


@pytest.mark.parametrize("scoring", SCORINGS)
def test_recheck_expression_is_the_table_score(scoring):
    # rows gathered in any order, or broadcast against a block of side
    # vectors, score under side_scores exactly as `score` scores the whole table
    rng = np.random.default_rng(43)
    for d in (1, 2, 7, 8, 9, 16, 33, 80, 200):
        table = rng.normal(size=(60, d)) * 10.0 ** rng.integers(-3, 4, size=(60, 1))
        anchors, r = rng.normal(size=(4, d)), rng.normal(size=d)
        order = rng.permutation(60)
        for side in ("head", "tail"):
            x = side_vector(anchors, r, scoring, side)
            want = np.stack([score(table, r, a, scoring) if side == "head"
                             else score(a, r, table, scoring) for a in anchors])
            for j in range(len(anchors)):
                gathered = side_scores(table[order], x[[j] * 60], scoring)
                assert np.array_equal(gathered, want[j][order]), (d, side)
            broadcast = side_scores(table[None], x[:, None], scoring)
            assert np.array_equal(broadcast, want), (d, side)


def test_filtered_rank_never_exceeds_raw():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        edges = sorted({(int(rng.integers(n)), 0, int(rng.integers(n))) for _ in range(8)})
        graph = make_graph(edges, num_entities=n, num_relations=1)
        state = EmbeddingState(rng.normal(size=(n, 4)), rng.normal(size=(1, 4)),
                               NewRelationRegistry(1), STRATEGY)
        ef = EvalFilter.from_graphs([graph])
        for h, rel, t in edges:
            for tie in ("optimistic", "pessimistic"):
                raw = rank_triplet(Triplet(h, rel, t), state, "transe_l2",
                                   graph_filter=ef, protocol="raw", tie=tie)
                filt = rank_triplet(Triplet(h, rel, t), state, "transe_l2",
                                    graph_filter=ef, protocol="filtered", tie=tie)
                assert filt[0] <= raw[0] and filt[1] <= raw[1]


def test_compute_metrics_hand_values():
    res = compute_metrics([3, 1, 2], ks=(1, 3, 10))
    assert res.mr == 2.0
    assert res.mrr == pytest.approx(11.0 / 18.0)
    assert res.hits[1] == pytest.approx(1.0 / 3.0)
    assert res.hits[3] == 1.0
    assert res.count == 3

    res = compute_metrics([1, 1, 1, 1])
    assert res.mr == 1.0 and res.mrr == 1.0 and res.hits[10] == 1.0

    res = compute_metrics([10, 100, 2, 1], ks=(1, 3, 10))
    assert res.mr == 28.25
    assert res.mrr == pytest.approx(0.4025)
    assert res.hits[1] == 0.25
    assert res.hits[3] == 0.5
    assert res.hits[10] == 0.75


def test_compute_metrics_rejects_empty():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_evaluate_pools_head_and_tail_ranks():
    state = line_state([[0.0], [1.0], [2.0], [3.0]], [[1.0]])
    graph = make_graph([(0, 0, 1), (1, 0, 2)], num_entities=4, num_relations=1)
    ef = EvalFilter.from_graphs([graph])
    res = evaluate(state, "transe_l2", graph, ef, protocol="filtered")
    assert res.count == 4
    assert res.head_ranks.shape == (2,) and res.tail_ranks.shape == (2,)
    pooled = compute_metrics(
        np.concatenate((res.head_ranks, res.tail_ranks)), protocol="filtered"
    )
    assert res.mr == pooled.mr and res.mrr == pooled.mrr and res.hits == pooled.hits


def test_result_serialization():
    res = compute_metrics([2, 4], ks=(1, 10), protocol="raw")
    d = res.to_json_dict()
    assert d == {"mr": 3.0, "mrr": 0.375, "protocol": "raw", "count": 2,
                 "hits1": 0.0, "hits10": 1.0}
    text = res.table()
    assert "hits@10" in text and "raw" in text and "3.0000" in text
