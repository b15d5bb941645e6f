import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import make_graph, random_multigraph
from oracles import (LexsortKeyIndex, dfs_association, dfs_metapath_stats, dfs_z,
                     materializing_mine)
from walkaug import (
    DataError,
    MiningLimitError,
    correction_residual,
    mine_informative_metapaths,
    read_metapath_report,
    solve_correction,
    write_metapath_report,
)
from walkaug import mining
from walkaug.graph import Dictionary
from walkaug.mining import KeyIndex

TINY = 1e-12  # threshold low enough that nothing is ever pruned


# ---------------------------------------------------------------- join table


def test_join_table_triangle_fixture():
    # r0: a->b, r1: b->c, r2: a->c; only r0|r1 composes
    g = make_graph([(0, 0, 1), (1, 1, 2), (0, 2, 2)])
    mined = mine_informative_metapaths(g, l_max=2, threshold=0.5)
    assert set(mined) == {(0, 1)}
    info = mined[(0, 1)]
    assert info.z == 1.0
    assert info.instance_count == 1
    assert [s.association for s in info.per_hop] == [1.0, 1.0]


def test_association_half_coverage_fixture():
    # r0 edges {a->b, d->e}, r1 edge {b->c}: hop 0 of (r0, r1) covers 1 of 2
    g = make_graph([(0, 0, 1), (3, 0, 4), (1, 1, 2)])
    first, second = mine_informative_metapaths(g, l_max=2, threshold=TINY)[(0, 1)].per_hop
    assert first.edges_total == 2
    assert first.edges_covered == 1
    assert first.association == 0.5
    assert second.association == 1.0


def test_extend_join_counts_duplicate_edges_separately():
    # two parallel r0 edges into the same node double the instance count
    g = make_graph([(0, 0, 1), (0, 0, 1), (1, 1, 2)])
    info = mine_informative_metapaths(g, l_max=2, threshold=TINY)[(0, 1)]
    assert info.instance_count == 2
    assert info.per_hop[0].edges_covered == 2


@pytest.mark.parametrize("size", [0, 1, 60, 500])
def test_key_index_matches_a_dict_of_sorted_sets(size):
    rng = np.random.default_rng(size)
    # few distinct keys and values, so (key, value) pairs repeat
    keys, values = rng.integers(5, 40, size=size), rng.integers(0, 6, size=size)
    oracle = defaultdict(set)
    for key, value in zip(keys.tolist(), values.tolist()):
        oracle[key].add(value)
    edges = [keys.min() - 1, keys.max() + 1] if size else [0]
    # absent keys, keys below the first and above the last, and the filter's -1 marker
    query = np.concatenate((rng.integers(0, 45, size=40), edges, [-1, 10**12]))
    rows, found = KeyIndex(keys, values).lookup(query)
    assert rows.shape == found.shape and np.all(np.diff(rows) >= 0)
    got = defaultdict(list)
    for row, value in zip(rows.tolist(), found.tolist()):
        got[row].append(value)
    assert got == {row: sorted(oracle[key]) for row, key in enumerate(query.tolist())
                   if key in oracle}
    rows, found = KeyIndex(keys, values).lookup(query[:0])
    assert rows.size == found.size == 0


@pytest.mark.parametrize("seed", range(6))
def test_key_index_lookup_packs_to_strictly_increasing_keys(seed):
    # ranking finds known candidates by a searchsorted over rows * n + values
    rng = np.random.default_rng(seed)
    n = 9
    keys, values = rng.integers(0, 15, size=120), rng.integers(0, n, size=120)
    # present keys repeated, absent ones, and the filter's -1 marker, in any order
    query = np.concatenate((rng.choice(keys, size=30), rng.integers(-1, 20, size=30), [-1, -1]))
    rng.shuffle(query)
    rows, found = KeyIndex(keys, values).lookup(query)
    packed = rows * n + found
    assert packed.size and np.all(np.diff(packed) > 0)


INT64_MAX = np.iinfo(np.int64).max


@st.composite
def key_value_pairs(draw):
    """Parallel int64 (keys, values): few distinct keys and values, so pairs
    repeat, with keys up to the largest that packs with the drawn values."""
    span = draw(st.sampled_from([1, 2, 7, 2**20, 2**62]))  # largest value + 1
    size = draw(st.integers(0, 30))
    values = draw(st.lists(st.integers(0, min(span - 1, 3)) | st.just(span - 1),
                           min_size=size, max_size=size))
    bound = (INT64_MAX - (max(values, default=0))) // (max(values, default=0) + 1)
    keys = draw(st.lists(st.integers(0, min(bound, 4)) | st.integers(max(bound - 2, 0), bound),
                         min_size=size, max_size=size))
    return np.array(keys, np.int64), np.array(values, np.int64)


@settings(max_examples=200, deadline=None)
@given(key_value_pairs(), st.data())
def test_key_index_equals_the_lexsort_oracle(pairs, data):
    keys, values = pairs
    index, oracle = KeyIndex(keys, values), LexsortKeyIndex(keys, values)
    for name in ("keys", "offsets", "values"):
        got, want = getattr(index, name), getattr(oracle, name)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    # unsorted, repeated, -1, absent and past-the-last query keys
    past = [min(int(keys.max()) + 1, INT64_MAX)] if keys.size else []
    query = np.array(data.draw(st.lists(
        st.sampled_from(keys.tolist() + past + [-1, INT64_MAX]) | st.integers(-1, 6),
        max_size=20)), np.int64)
    for got, want in zip(index.lookup(query), oracle.lookup(query)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def _presence_slots(distinct):
    """The presence table's size: the smallest power of two with at least 8
    slots per distinct key, and at least 64."""
    return max(64, 1 << (8 * distinct - 1).bit_length())


def _assert_lookup_matches_oracles(keys, values, query):
    index = KeyIndex(keys, values)
    rows, found = index.lookup(query)
    for got, want in zip((rows, found), LexsortKeyIndex(keys, values).lookup(query)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    oracle = defaultdict(set)
    for key, value in zip(keys.tolist(), values.tolist()):
        oracle[key].add(value)
    got = defaultdict(list)
    for row, value in zip(rows.tolist(), found.tolist()):
        got[row].append(value)
    assert got == {row: sorted(oracle[key]) for row, key in enumerate(query.tolist())
                   if key in oracle}
    return index


@pytest.mark.parametrize("distinct", [1, 5, 8, 9, 40, 300])
def test_key_index_tells_apart_keys_that_share_a_presence_slot(distinct):
    # absent keys equal to present ones modulo the table size pass the
    # presence test; only the search tells them apart. Some present keys
    # share a slot too, and -1, INT64_MAX and past-the-last keys map into
    # the table through the mask like any other query.
    rng = np.random.default_rng(distinct)
    slots, half = _presence_slots(distinct), distinct // 2
    residues = rng.choice(slots - 1, size=distinct, replace=False)
    residues[0] = slots - 1  # the slot of -1 and INT64_MAX is marked
    residues[distinct - half:] = residues[:half]  # the last half share the first half's slots
    multiples = rng.integers(0, 4, size=distinct)
    multiples[distinct - half:] = multiples[:half] + rng.integers(1, 4, size=half)
    keys = np.repeat(residues + slots * multiples, 3)  # each key with up to 3 values
    values = rng.integers(0, 4, size=keys.size)
    order = rng.permutation(keys.size)
    keys, values = keys[order], values[order]
    index = KeyIndex(keys, values)
    assert index.keys.size == distinct and index._present.size == slots
    assert np.count_nonzero(index._present) == distinct - half
    present = set(index.keys.tolist())
    near = (index.keys[:, None] + slots * np.array([-2, -1, 1, 2, 7])).ravel()
    absent = [key for key in near.tolist() if key not in present]
    assert len(absent) > distinct
    top = int(index.keys.max())
    query = np.array(absent + index.keys.tolist() + [-1, INT64_MAX, top + 1, top + slots,
                                                     INT64_MAX - slots + 1], np.int64)
    rng.shuffle(query)
    _assert_lookup_matches_oracles(keys, values, query)
    _assert_lookup_matches_oracles(keys, values, query[:0])


def test_key_index_lookup_of_an_empty_index():
    empty = np.empty(0, np.int64)
    for query in (empty, np.array([-1, 0, 1, 64, INT64_MAX], np.int64)):
        index = _assert_lookup_matches_oracles(empty, empty, query)
        assert index.keys.size == 0


@pytest.mark.parametrize("span", [1, 2, 3, 1000, 2**62, INT64_MAX])
def test_key_index_refuses_pairs_whose_packed_key_passes_int64(span):
    bound = (INT64_MAX - (span - 1)) // span  # the largest key that packs
    values = np.array([span - 1, 0], np.int64)
    index = KeyIndex(np.array([bound, bound], np.int64), values)
    np.testing.assert_array_equal(index.values, np.unique(values))
    if bound < INT64_MAX:
        with pytest.raises(ValueError, match="do not pack"):
            KeyIndex(np.array([bound + 1, 0], np.int64), values)
    with pytest.raises(ValueError, match="do not pack"):  # span 2**63 itself passes int64
        KeyIndex(np.array([0], np.int64), np.array([INT64_MAX], np.int64))
    for keys, values in (([0], [-1]), ([-1], [0])):
        with pytest.raises(ValueError, match="non-negative"):
            KeyIndex(np.array(keys, np.int64), np.array(values, np.int64))


# ------------------------------------------------------- exactness vs oracle


def _assert_matches_oracle(graph, l_max):
    mined = mine_informative_metapaths(graph, l_max=l_max, threshold=TINY)
    oracle = dfs_metapath_stats(graph.heads, graph.relations, graph.tails, l_max)
    oracle_multi = {m: s for m, s in oracle.items() if len(m) >= 2}
    assert set(mined) == set(oracle_multi)
    counts = graph.relation_counts
    for metapath, info in mined.items():
        ref = oracle_multi[metapath]
        assert info.instance_count == ref.count, metapath
        ref_assoc = dfs_association(ref, metapath, counts)
        assert [s.association for s in info.per_hop] == ref_assoc, metapath
        assert [s.edges_covered for s in info.per_hop] == [len(c) for c in ref.covered]
        assert info.z == dfs_z(ref, metapath, counts), metapath


def test_matches_dfs_oracle_small_corpus():
    rng = np.random.default_rng(42)
    for _ in range(15):
        g = random_multigraph(rng, int(rng.integers(4, 14)), int(rng.integers(1, 5)),
                              int(rng.integers(1, 80)))
        _assert_matches_oracle(g, l_max=3)


def test_matches_dfs_oracle_l_max_4():
    rng = np.random.default_rng(1234)
    for _ in range(5):
        g = random_multigraph(rng, 12, 3, 50)
        _assert_matches_oracle(g, l_max=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_dfs_oracle_property(data):
    num_nodes = data.draw(st.integers(2, 10))
    num_rels = data.draw(st.integers(1, 4))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_rels - 1),
                  st.integers(0, num_nodes - 1)),
        min_size=1, max_size=40))
    g = make_graph(edges, num_nodes, num_rels)
    _assert_matches_oracle(g, l_max=3)


# ------------------------------------------------------------ anti-monotone


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_z_never_exceeds_prefix_z(data):
    num_nodes = data.draw(st.integers(2, 12))
    num_rels = data.draw(st.integers(1, 4))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_rels - 1),
                  st.integers(0, num_nodes - 1)),
        min_size=2, max_size=60))
    g = make_graph(edges, num_nodes, num_rels)
    mined = mine_informative_metapaths(g, l_max=3, threshold=TINY)
    for metapath, info in mined.items():
        if len(metapath) < 3:
            continue
        prefix = mined.get(metapath[:-1])
        assert prefix is not None, "prefix missing despite unpruned mining"
        assert info.z <= prefix.z


def test_pruning_drops_only_low_z_groups():
    rng = np.random.default_rng(7)
    g = random_multigraph(rng, 10, 3, 60)
    full = mine_informative_metapaths(g, l_max=3, threshold=TINY)
    for threshold in (0.05, 0.2, 0.5):
        pruned = mine_informative_metapaths(g, l_max=3, threshold=threshold)
        expected = {m for m, info in full.items() if info.z >= threshold}
        assert set(pruned) == expected
        for m in pruned:
            assert pruned[m].z == full[m].z


def test_threshold_boundary_keeps_equal_z():
    # single chain: z of (0, 1) is exactly 1.0; threshold 1.0 must keep it
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    mined = mine_informative_metapaths(g, l_max=2, threshold=1.0)
    assert (0, 1) in mined


def test_memory_budget_enforced():
    # 30 edges into a hub and 30 out of it: 900 two-hop instances
    edges = [(i, 0, 50) for i in range(30)] + [(50, 0, 100 + j) for j in range(30)]
    g = make_graph(edges)
    with pytest.raises(MiningLimitError):
        mine_informative_metapaths(g, l_max=2, threshold=TINY, max_table_rows=100)
    # a budget that fits passes
    mine_informative_metapaths(g, l_max=2, threshold=TINY, max_table_rows=1000)


# ------------------------------------------------- materializing reference

REFERENCE_THRESHOLDS = (0.1, 0.3, 0.6)


def _reference_graph(seed):
    # sparse enough that coverage varies: the thresholds prune at every hop
    return random_multigraph(np.random.default_rng(seed), 30, 3, 80)


def _pruned_at(full, threshold):
    """Where candidates first fall below `threshold`: "first", "middle" or
    "last" hop, from an unpruned run's per-hop associations."""
    where = set()
    for metapath, info in full.items():
        if len(metapath) > 2 and full[metapath[:-1]].z < threshold:
            continue  # its parent is pruned, so it is never a candidate
        z = 1.0
        for hop, stats in enumerate(info.per_hop):
            z *= stats.association
            if z < threshold:
                where.add("first" if hop == 0 else "last" if hop == len(metapath) - 1
                          else "middle")
                break
    return where


def _assert_same_infos(got, expected):
    assert list(got) == list(expected)
    for metapath, ref in expected.items():
        info = got[metapath]
        for field in ("metapath", "z", "instance_count"):
            assert getattr(info, field) == getattr(ref, field), (metapath, field)
        assert len(info.per_hop) == len(ref.per_hop), metapath
        for stats, ref_stats in zip(info.per_hop, ref.per_hop):
            for field in dataclasses.fields(ref_stats):
                assert getattr(stats, field.name) == getattr(ref_stats, field.name), \
                    (metapath, stats.hop, field.name)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("l_max", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_matches_the_materializing_reference(seed, l_max, p):
    g = _reference_graph(seed)
    full = materializing_mine(g, l_max, TINY, p=p, seed=seed)
    pruned = set()
    for threshold in (TINY, *REFERENCE_THRESHOLDS):
        mined = mine_informative_metapaths(g, l_max=l_max, threshold=threshold, p=p, seed=seed)
        _assert_same_infos(mined, materializing_mine(g, l_max, threshold, p=p, seed=seed))
        pruned |= _pruned_at(full, threshold)
    assert pruned == ({"first", "middle", "last"} if l_max > 2 else {"first", "last"})


def test_matches_the_reference_where_the_correction_falls_back():
    # the command-line fixture: at p = 0.5 its (r0, r1) has no sign change to bracket
    edges = [(i, 0, 6 + i % 3) for i in range(6)]
    edges += [(6 + j, 1, 9 + j + k) for k in range(2) for j in range(3)]
    edges += [(i, 2, 9 + i % 3 + k) for k in range(2) for i in range(4)]
    g = make_graph(edges)
    mined = mine_informative_metapaths(g, l_max=3, threshold=0.2, p=0.5, seed=0)
    assert any(stats.fallback for info in mined.values() for stats in info.per_hop)
    _assert_same_infos(mined, materializing_mine(g, 3, 0.2, p=0.5, seed=0))


def _many_relation_sparse_graph(seed):
    """A typed graph of 60 relations over 12 entity types: each relation joins
    the entities of one type to those of another, so a group's end nodes
    have out-edges of only a few relations."""
    rng = np.random.default_rng(seed)
    types, per_type, relations = 12, 15, 60
    ends = rng.integers(types, size=(relations, 2))
    edges = []
    for rel, (head_type, tail_type) in enumerate(ends.tolist()):
        count = int(rng.integers(4, 20))
        heads = head_type * per_type + rng.integers(per_type, size=count)
        tails = tail_type * per_type + rng.integers(per_type, size=count)
        edges += [(h, rel, t) for h, t in zip(heads.tolist(), tails.tolist())]
    return make_graph(edges, num_entities=types * per_type, num_relations=relations)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_many_relation_sparse_graph_matches_the_reference(monkeypatch, seed, p):
    # only the relations that continue from a group's end nodes in the mined
    # graph are candidates: under sampling, a relation that continues only
    # through edges that were dropped reaches no correction
    g = _many_relation_sparse_graph(seed)
    calls = []
    solve = mining.solve_correction

    def recording(p, length, type_count, instances_sampled, *rest):
        calls.append(instances_sampled)
        return solve(p, length, type_count, instances_sampled, *rest)

    monkeypatch.setattr(mining, "solve_correction", recording)
    for threshold in (TINY, 0.05, 0.3):
        mined = mine_informative_metapaths(g, l_max=3, threshold=threshold, p=p, seed=seed)
        _assert_same_infos(mined, materializing_mine(g, 3, threshold, p=p, seed=seed))
        if threshold == TINY:  # most (group, relation) pairs never continue
            assert 0 < sum(len(m) == 2 for m in mined) < 60 * 60 // 10
    assert (min(calls) > 0) if p < 1 else not calls


def _level_rows(infos, length):
    return sum(info.instance_count for m, info in infos.items() if len(m) == length)


# thresholds at which the last level keeps more rows than the middle one
@pytest.mark.parametrize("p,threshold", [(1.0, 0.1), (0.5, TINY)])
@pytest.mark.parametrize("level", ["middle", "last"])
def test_row_budget_raises_at_the_reference_level_and_total(level, p, threshold):
    g = _reference_graph(0)
    full = materializing_mine(g, 3, threshold, p=p, seed=0)
    second, third = _level_rows(full, 2), _level_rows(full, 3)
    assert third > second > 0
    budget = second - 1 if level == "middle" else third - 1
    with pytest.raises(MiningLimitError) as expected:
        materializing_mine(g, 3, threshold, p=p, seed=0, max_table_rows=budget)
    with pytest.raises(MiningLimitError) as got:
        mine_informative_metapaths(g, l_max=3, threshold=threshold, p=p, seed=0,
                                   max_table_rows=budget)
    assert str(got.value) == str(expected.value)
    assert f"at length {2 if level == 'middle' else 3} " in str(got.value)
    # a budget that holds the largest level passes
    mine_informative_metapaths(g, l_max=3, threshold=threshold, p=p, seed=0,
                               max_table_rows=third)


@pytest.mark.parametrize("l_max", [2, 3, 4])
def test_builds_one_table_per_kept_metapath_shorter_than_l_max(monkeypatch, l_max):
    built = []
    extend = mining._extend_group

    def counting(group, idx):
        out = extend(group, idx)
        built.append(out.size)
        return out

    monkeypatch.setattr(mining, "_extend_group", counting)
    mined = mine_informative_metapaths(_reference_graph(1), l_max=l_max, threshold=0.1)
    shorter = [info.instance_count for m, info in mined.items() if len(m) < l_max]
    assert sorted(built) == sorted(shorter)


def test_argument_validation():
    g = make_graph([(0, 0, 1)])
    with pytest.raises(ValueError):
        mine_informative_metapaths(g, l_max=1)
    with pytest.raises(ValueError):
        mine_informative_metapaths(g, l_max=2, threshold=0.0)
    with pytest.raises(ValueError):
        mine_informative_metapaths(g, l_max=2, threshold=0.2, p=1.2)


# ------------------------------------------------------- correction residual


def test_residual_p1_reduces_to_exact_count():
    # at p=1 the residual is linear: N - x - zero_obs
    assert correction_residual(600.0, 1.0, 2, 1000, 600, 400) == 0.0
    assert correction_residual(500.0, 1.0, 2, 1000, 600, 400) == 100.0
    x, fallback = solve_correction(1.0, 2, 1000, 600, 400, 600)
    assert (x, fallback) == (600.0, False)


def test_residual_closed_form_point():
    # constructed so the expected-value balance is exactly zero at x=600:
    # p=0.5, L=2, N=1000, one instance per covered edge
    # at x=600: inst = p^2 * 600 = 150, zeros = p*(400 + 600*0.5) = 350
    assert correction_residual(600.0, 0.5, 2, 1000, 150, 350) == 0.0
    x, fallback = solve_correction(0.5, 2, 1000, 150, 350, 150)
    assert not fallback
    assert abs(x - 600.0) < 1e-6


def test_solve_correction_matches_scipy_root():
    # observation counts consistent with some true coverage, so a sign
    # change exists on the bracket
    cases = [
        (0.5, 2, 1000, 150, 350, 150),
        (0.3, 3, 5000, 108, 1397, 500),
        (0.7, 2, 800, 420, 180, 380),
    ]
    for p, length, n, inst, zeros, covered in cases:
        x, fallback = solve_correction(p, length, n, inst, zeros, covered)
        assert not fallback

        def f(v):
            return correction_residual(v, p, length, n, inst, zeros)

        ref = brentq(f, max(covered, 1), n)
        assert abs(x - ref) < 1e-6 * n


def test_solve_correction_fallback_flagged():
    # zero_obs so large that the residual is negative across the bracket
    x, fallback = solve_correction(0.5, 2, 100, 10, 99, 1)
    assert fallback
    assert x == pytest.approx(min(1 / 0.5, 100))


def test_solve_correction_full_coverage_short_circuit():
    x, fallback = solve_correction(0.5, 2, 50, 200, 0, 50)
    assert (x, fallback) == (50.0, False)


def test_corrected_estimate_recovers_planted_coverage():
    # 1000 r0 edges with distinct tails; exactly 600 tails continue with one
    # r1 edge; 3400 r2 filler edges keep everything else busy. The known
    # full-graph covered count of hop 0 of (r0, r1) is 600.
    edges = []
    for i in range(1000):
        edges.append((i, 0, 1000 + i))
    for i in range(600):
        edges.append((1000 + i, 1, 2000 + i))
    for i in range(3400):
        edges.append((3000 + i, 2, 3000 + i))
    g = make_graph(edges)
    assert g.num_triplets == 5000

    estimates = []
    naive = []
    for seed in range(20):
        mined = mine_informative_metapaths(g, l_max=2, threshold=TINY, p=0.5, seed=seed)
        if (0, 1) not in mined:
            continue
        stats = mined[(0, 1)].per_hop[0]
        estimates.append(stats.corrected_covered)
        naive.append(stats.edges_covered / 0.5)
    assert len(estimates) >= 19
    med = float(np.median(estimates))
    assert abs(med - 600) <= 0.15 * 600
    assert abs(float(np.median(naive)) - 600) > abs(med - 600)


def test_mining_with_sampling_is_deterministic():
    rng = np.random.default_rng(0)
    g = random_multigraph(rng, 30, 3, 300)
    a = mine_informative_metapaths(g, l_max=3, threshold=0.05, p=0.6, seed=4)
    b = mine_informative_metapaths(g, l_max=3, threshold=0.05, p=0.6, seed=4)
    assert list(a) == list(b)
    assert all(a[m].z == b[m].z for m in a)


# ------------------------------------------------------------------- report


def test_report_roundtrip_and_order(tmp_path):
    rng = np.random.default_rng(5)
    g = random_multigraph(rng, 12, 3, 70)
    mined = mine_informative_metapaths(g, l_max=3, threshold=0.1)
    assert mined, "fixture graph produced no metapaths"
    path = tmp_path / "metapaths.tsv"
    write_metapath_report(path, mined)
    lines = path.read_text().splitlines()
    zs = [float(line.split("\t")[1]) for line in lines]
    assert zs == sorted(zs, reverse=True)
    parsed = read_metapath_report(path)
    assert parsed == {m: info.z for m, info in mined.items()}


def test_report_uses_relation_names(tmp_path):
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    dct = Dictionary(["knows", "likes"])
    mined = mine_informative_metapaths(g, l_max=2, threshold=0.5)
    path = tmp_path / "metapaths.tsv"
    write_metapath_report(path, mined, dct)
    assert path.read_text().startswith("knows|likes\t")
    assert read_metapath_report(path, dct) == {(0, 1): 1.0}


@pytest.mark.parametrize("z", ["-0.9", "0.0", "7.5", "nan", "inf"])
def test_read_report_rejects_score_outside_unit_interval(tmp_path, z):
    path = tmp_path / "metapaths.tsv"
    path.write_text(f"0|1\t0.5\t3\n1|0\t{z}\t3\n")
    with pytest.raises(DataError, match=r"metapaths\.tsv:2: score must be in \(0, 1\]"):
        read_metapath_report(path)


@pytest.mark.parametrize("names", [None, ["knows", "likes"]])
def test_read_report_rejects_a_one_relation_metapath(tmp_path, names):
    # a one-relation "metapath" would be minted as a copy of that relation
    first, second = names or ["0", "1"]
    path = tmp_path / "metapaths.tsv"
    path.write_text(f"{first}|{second}\t0.5\t3\n{second}\t0.9\t5\n")
    with pytest.raises(DataError, match=rf"metapaths\.tsv:2: metapath '{second}' has fewer than 2"):
        read_metapath_report(path, names and Dictionary(names))


def test_read_report_names_the_line_of_an_unknown_relation(tmp_path):
    path = tmp_path / "metapaths.tsv"
    path.write_text("a|b\t0.5\t3\na|zz\t0.5\t3\n")
    with pytest.raises(DataError, match=r"metapaths\.tsv:2: unknown name 'zz'"):
        read_metapath_report(path, Dictionary(["a", "b"]))


def test_mining_builds_the_hop_index_of_the_continuing_relations_alone(monkeypatch):
    # only relation 1 continues a path (from node 1); 0 and 2 end where nothing starts
    g = make_graph([(0, 0, 1), (1, 1, 2), (3, 2, 4)])
    tables = []
    from_graph = mining.JoinTable.from_graph
    monkeypatch.setattr(mining.JoinTable, "from_graph",
                        staticmethod(lambda graph: tables.append(from_graph(graph)) or tables[-1]))
    assert list(mining.mine_informative_metapaths(g, l_max=3, threshold=0.1)) == [(0, 1)]
    (table,) = tables
    assert list(table._index) == [1]
