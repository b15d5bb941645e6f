import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import make_graph, random_multigraph
from oracles import dfs_association, dfs_metapath_stats, dfs_z
from walkaug import (
    DataError,
    MiningLimitError,
    correction_residual,
    mine_informative_metapaths,
    read_metapath_report,
    solve_correction,
    write_metapath_report,
)
from walkaug.graph import Dictionary

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
