import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_multigraph
from oracles import dfs_metapath_pairs, first_hop_metapath_pairs
from walkaug import (
    DataError,
    Dictionary,
    JoinTable,
    KnowledgeGraph,
    build_adjacency,
    build_rulemaps,
    metapath_pairs,
    mine_informative_metapaths,
    read_rules_report,
    rules,
    write_rules_report,
)
from walkaug.mining import sorted_unique


def decode_pairs(graph, keys):
    n = graph.num_entities
    return {(int(k) // n, int(k) % n) for k in keys}


def confidences(graph, metapath):
    """Every non-zero conf(metapath -> q), as build_rulemaps scores it."""
    return build_rulemaps(graph, [metapath], conf_threshold=1e-12)[metapath].entries


def oracle_confidences(graph, metapath, pairs=None):
    """Every non-zero conf(metapath -> q) over `pairs`, by default the
    recursively enumerated pairs of `metapath`."""
    if pairs is None:
        pairs = dfs_metapath_pairs(graph.heads, graph.relations, graph.tails, metapath)
    out = {}
    for q in range(graph.num_relations):
        q_pairs = {(int(h), int(t)) for h, r, t in
                   zip(graph.heads, graph.relations, graph.tails) if r == q}
        hits = len(pairs & q_pairs)
        if hits:
            out[q] = hits / len(pairs)
    return out


def test_family_fixture_perfect_confidence():
    # mother(a,b), husband(b,c), father(a,c): (mother|husband) -> father at 1.0
    mother, husband, father = 0, 1, 2
    a, b, c = 0, 1, 2
    g = make_graph([(a, mother, b), (b, husband, c), (a, father, c)])
    assert confidences(g, (mother, husband)) == {father: 1.0}
    assert oracle_confidences(g, (mother, husband)) == {father: 1.0}


def test_confidence_counts_distinct_pairs_only():
    # two parallel paths between the same pair count once
    g = make_graph([
        (0, 0, 1), (0, 0, 2), (1, 1, 3), (2, 1, 3),  # two routes 0 -> 3
        (0, 0, 4), (4, 1, 5),                        # route 0 -> 5
        (0, 2, 3),                                   # q edge only for 0 -> 3
    ])
    # pairs: (0,3) and (0,5); only (0,3) has the q edge
    assert metapath_pairs(JoinTable.from_graph(g), (0, 1)).size == 2
    assert confidences(g, (0, 1)) == {2: 0.5} == oracle_confidences(g, (0, 1))


def test_confidence_none_when_metapath_empty():
    g = make_graph([(0, 0, 1), (1, 2, 2)])
    assert metapath_pairs(JoinTable.from_graph(g), (0, 1)).size == 0
    assert dfs_metapath_pairs(g.heads, g.relations, g.tails, (0, 1)) == set()
    assert confidences(g, (0, 1)) == {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairs_match_dfs_oracle(data):
    num_nodes = data.draw(st.integers(2, 10))
    num_rels = data.draw(st.integers(1, 4))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_rels - 1),
                  st.integers(0, num_nodes - 1)),
        min_size=1, max_size=50))
    metapaths = data.draw(st.lists(
        st.lists(st.integers(0, num_rels - 1), min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=4))
    g = make_graph(edges, num_nodes, num_rels)
    base = JoinTable.from_graph(g)  # one table, hence one hop index, for every metapath
    for metapath in metapaths:
        ours = decode_pairs(g, metapath_pairs(base, metapath))
        ref = dfs_metapath_pairs(g.heads, g.relations, g.tails, metapath)
        assert ours == ref


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_confidence_matches_counting_oracle(data):
    num_nodes = data.draw(st.integers(3, 9))
    num_rels = data.draw(st.integers(2, 4))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_rels - 1),
                  st.integers(0, num_nodes - 1)),
        min_size=2, max_size=50))
    metapaths = data.draw(st.lists(
        st.lists(st.integers(0, num_rels - 1), min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=4))
    g = make_graph(edges, num_nodes, num_rels)
    # one call, so every metapath is scored against the same pair index
    maps = build_rulemaps(g, metapaths, conf_threshold=1e-12)
    for metapath in metapaths:
        assert maps[metapath].entries == oracle_confidences(g, metapath), metapath


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trie_matches_first_hop_oracle(data):
    num_nodes = data.draw(st.integers(2, 9))
    num_rels = data.draw(st.integers(1, 3))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_rels - 1),
                  st.integers(0, num_nodes - 1)),
        min_size=1, max_size=40))
    g = make_graph(edges, num_nodes, num_rels + 1)  # relation num_rels has no edge
    rel = st.integers(0, num_rels)
    # metapaths grown from a few stems share prefixes; a stem or its own
    # prefix is scored only when drawn, so some intermediate prefixes are not
    stems = data.draw(st.lists(st.lists(rel, min_size=1, max_size=2), min_size=1, max_size=3))
    metapaths = data.draw(st.lists(
        st.tuples(st.sampled_from(stems), st.lists(rel, max_size=2)).map(lambda s: tuple(s[0] + s[1])),
        min_size=1, max_size=8))
    metapaths.append(data.draw(st.sampled_from(metapaths)))  # a repeat
    mined = mine_informative_metapaths(g, l_max=3, threshold=1e-12)
    expected = {m: first_hop_metapath_pairs(g.heads, g.relations, g.tails, g.num_entities, m)
                for m in set(metapaths) | set(mined)}

    seen = []

    def recorded(*args):
        seen.append((args[1], metapath_pairs(*args)))
        return seen[-1][1]

    for given_paths in (metapaths, dict.fromkeys(metapaths), mined):
        seen.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rules, "metapath_pairs", recorded)
            maps = build_rulemaps(g, given_paths, conf_threshold=1e-12)
        assert sorted(maps) == sorted(set(given_paths))
        assert sorted(m for m, _ in seen) == sorted(maps)  # one join per distinct metapath
        for metapath, keys in seen:
            assert keys.dtype == np.int64
            np.testing.assert_array_equal(keys, expected[metapath])
        for metapath, rule in maps.items():
            pairs = decode_pairs(g, expected[metapath])
            assert rule.entries == oracle_confidences(g, metapath, pairs), metapath


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=40))
def test_sorted_unique_equals_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    for case in (keys, np.sort(keys), np.full(keys.size, 7, np.int64), np.empty(0, np.int64)):
        out = sorted_unique(case)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.unique(case))


def test_pair_keys_refuse_entity_counts_that_overflow_int64():
    # 3,037,000,499 is the largest n with n * n - 1 <= 2**63 - 1
    assert metapath_pairs(JoinTable({}, 3_037_000_499), (0,)).size == 0
    with pytest.raises(DataError, match="3037000500 entities do not fit in int64"):
        metapath_pairs(JoinTable({}, 3_037_000_500), (0,))
    stub = KnowledgeGraph.__new__(KnowledgeGraph)
    stub.num_entities, stub.heads, stub.tails = 3_037_000_500, np.zeros(1, np.int64), np.ones(1, np.int64)
    with pytest.raises(DataError, match="do not fit in int64"):
        stub.pair_keys()


def test_metapath_pairs_joins_last_hop_onto_prefix_keys():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 0, 3), (1, 1, 3)])
    base = JoinTable.from_graph(g)
    prefix = metapath_pairs(base, (0, 1))
    np.testing.assert_array_equal(metapath_pairs(base, (0, 1, 0), prefix),
                                  metapath_pairs(base, (0, 1, 0)))
    with pytest.raises(ValueError):
        metapath_pairs(base, (0,), prefix)
    with pytest.raises(ValueError):
        metapath_pairs(base, ())


def test_build_rulemaps_thresholds_and_covers_all_inputs():
    rng = np.random.default_rng(8)
    g = random_multigraph(rng, 10, 3, 60)
    metapaths = [(0, 1), (1, 2), (2, 0, 1)]
    maps = build_rulemaps(g, metapaths, conf_threshold=0.3)
    assert set(maps) == set(metapaths)
    for metapath, rule in maps.items():
        assert rule.threshold == 0.3
        ref = oracle_confidences(g, metapath)
        # exactly the oracle's confidences at or above the threshold
        assert rule.entries == {q: conf for q, conf in ref.items() if conf >= 0.3}


def test_build_rulemaps_empty_metapath_gets_empty_map():
    g = make_graph([(0, 0, 1)])
    maps = build_rulemaps(g, [(0, 0)])
    assert maps[(0, 0)].entries == {}


def test_build_rulemaps_validates_threshold():
    g = make_graph([(0, 0, 1)])
    with pytest.raises(ValueError):
        build_rulemaps(g, [], conf_threshold=0.0)
    with pytest.raises(ValueError):
        build_rulemaps(g, [], conf_threshold=1.5)


def test_rule_can_target_relation_inside_the_metapath():
    # transitive relation: r0 two-hop implies r0 itself
    g = make_graph([(0, 0, 1), (1, 0, 2), (0, 0, 2)])
    assert confidences(g, (0, 0)) == {0: 1.0} == oracle_confidences(g, (0, 0))


def test_confidence_keys_do_not_overflow_with_many_entities_and_relations():
    # relation * n^2 exceeds int64 here; the relation id must survive counting
    q = 599_999
    g = build_adjacency([(0, q, 1), (1, q, 2), (0, q, 2)], 4_000_000, 600_000)
    assert build_rulemaps(g, [(q, q)])[(q, q)].entries == {q: 1.0}


def test_report_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    g = random_multigraph(rng, 8, 3, 50)
    maps = build_rulemaps(g, [(0, 1), (2, 1)], conf_threshold=0.05)
    path = tmp_path / "rules.tsv"
    write_rules_report(path, maps)
    parsed = read_rules_report(path, conf_threshold=0.05)
    expected = {m: r.entries for m, r in maps.items() if r.entries}
    assert {m: r.entries for m, r in parsed.items()} == expected


def test_report_with_names(tmp_path):
    g = make_graph([(0, 0, 1), (1, 1, 2), (0, 2, 2)])
    dct = Dictionary(["mother", "husband", "father"])
    maps = build_rulemaps(g, [(0, 1)])
    path = tmp_path / "rules.tsv"
    write_rules_report(path, maps, dct)
    assert path.read_text() == "mother|husband\tfather\t1.0\n"
    parsed = read_rules_report(path, dct)
    assert parsed[(0, 1)].entries == {2: 1.0}


def test_read_report_drops_entries_under_threshold(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("0|1\t2\t0.95\n0|1\t0\t0.6\n2|1\t0\t0.4\n")
    parsed = read_rules_report(path, conf_threshold=0.9)
    assert {m: r.entries for m, r in parsed.items()} == {(0, 1): {2: 0.95}}
    assert (2, 1) not in parsed  # nothing survived, no empty map either


@pytest.mark.parametrize("conf", ["-0.5", "0", "1.5", "nan"])
def test_read_report_rejects_confidence_outside_unit_interval(tmp_path, conf):
    # checked before the threshold, which a nan would otherwise slip past
    path = tmp_path / "rules.tsv"
    path.write_text(f"0|1\t2\t0.95\n0|1\t0\t{conf}\n")
    with pytest.raises(DataError, match=r"rules\.tsv:2: confidence must be in \(0, 1\]"):
        read_rules_report(path, conf_threshold=0.9)


@pytest.mark.parametrize("line", ["a|zz\tb\t0.9", "a|b\tzz\t0.9"])
def test_read_report_names_the_line_of_an_unknown_relation(tmp_path, line):
    path = tmp_path / "rules.tsv"
    path.write_text(f"a|b\tb\t0.9\n{line}\n")
    with pytest.raises(DataError, match=r"rules\.tsv:2: unknown name 'zz'"):
        read_rules_report(path, Dictionary(["a", "b"]))
