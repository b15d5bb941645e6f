import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_multigraph
from walkaug import (
    DataError,
    Dictionary,
    build_adjacency,
    load_tsv_dataset,
    sample_edges,
)
from walkaug.graph import INVERSE_SUFFIX, read_triples_file


names = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=4), max_size=30)


@given(names)
def test_dictionary_bijective(name_list):
    dct = Dictionary(name_list)
    seen = list(dct)
    assert len(seen) == len(set(seen))
    for name in seen:
        assert dct.name_of(dct.id_of(name)) == name
    for idx in range(len(dct)):
        assert dct.id_of(dct.name_of(idx)) == idx


def test_dictionary_first_seen_order():
    dct = Dictionary(["b", "a", "b", "c", "a"])
    assert list(dct) == ["b", "a", "c"]
    assert dct.id_of("b") == 0 and dct.id_of("c") == 2


def test_dictionary_unknown_name():
    with pytest.raises(DataError):
        Dictionary(["x"]).id_of("y")


def test_dictionary_file_roundtrip(tmp_path):
    dct = Dictionary(["alpha", "beta", "gamma"])
    path = tmp_path / "d.dict"
    dct.write(path)
    assert Dictionary.from_file(path) == dct


def test_dictionary_file_rejects_gap(tmp_path):
    path = tmp_path / "d.dict"
    path.write_text("0\ta\n2\tb\n")
    with pytest.raises(DataError):
        Dictionary.from_file(path)


def test_adjacency_groups_out_edges():
    g = make_graph([(0, 0, 1), (0, 1, 2), (1, 0, 2), (0, 0, 1)])
    assert g.num_triplets == 4
    assert np.diff(g.offsets).tolist() == [3, 1, 0]  # out-degrees
    lo, hi = g.offsets[0], g.offsets[1]
    edge_ids = np.argsort(g.heads, kind="stable")[lo:hi]  # slot -> edge
    rels, tails = g.adj_relations[lo:hi], g.adj_tails[lo:hi]
    assert sorted(zip(rels.tolist(), tails.tolist())) == [(0, 1), (0, 1), (1, 2)]
    # edge ids recover the original triplets
    for rel, tail, eid in zip(rels, tails, edge_ids):
        assert (g.heads[eid], g.relations[eid], g.tails[eid]) == (0, rel, tail)


def test_adjacency_keeps_duplicates_and_counts():
    g = make_graph([(0, 1, 1)] * 3 + [(1, 0, 0)])
    assert g.num_triplets == 4
    assert list(g.relation_counts) == [1, 3]


def test_adjacency_covers_every_edge_once():
    rng = np.random.default_rng(3)
    g = random_multigraph(rng, 17, 4, 120)
    assert g.offsets[0] == 0 and g.offsets[-1] == 120
    edge_ids = np.argsort(g.heads, kind="stable")  # slot -> edge
    assert sorted(edge_ids.tolist()) == list(range(120))
    # slots offsets[v]:offsets[v + 1] hold exactly the out-edges of v
    owner = np.repeat(np.arange(g.num_entities), np.diff(g.offsets))
    assert np.array_equal(g.heads[edge_ids], owner)
    assert np.array_equal(g.relations[edge_ids], g.adj_relations)
    assert np.array_equal(g.tails[edge_ids], g.adj_tails)


def test_graph_arrays_are_frozen():
    g = make_graph([(0, 0, 1)])
    with pytest.raises(ValueError):
        g.heads[0] = 5
    with pytest.raises(ValueError):
        g.adj_tails[0] = 3


def test_out_of_range_ids_rejected():
    with pytest.raises(DataError):
        build_adjacency([(0, 0, 5)], num_entities=3, num_relations=1)
    with pytest.raises(DataError):
        build_adjacency([(0, 7, 1)], num_entities=3, num_relations=2)
    with pytest.raises(DataError):
        build_adjacency([(-1, 0, 1)], num_entities=3, num_relations=1)


def test_sample_edges_p1_is_identity():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 0, 0)])
    assert sample_edges(g, 1.0, seed=5) is g


def test_sample_edges_keeps_subset_deterministically():
    rng = np.random.default_rng(11)
    g = random_multigraph(rng, 20, 3, 400)
    s1 = sample_edges(g, 0.4, seed=9)
    s2 = sample_edges(g, 0.4, seed=9)
    assert np.array_equal(s1.heads, s2.heads)
    assert np.array_equal(s1.relations, s2.relations)
    assert s1.num_triplets < g.num_triplets
    kept = set(zip(s1.heads.tolist(), s1.relations.tolist(), s1.tails.tolist()))
    full = set(zip(g.heads.tolist(), g.relations.tolist(), g.tails.tolist()))
    assert kept <= full
    # binomial 5-sigma band
    mean = 400 * 0.4
    assert abs(s1.num_triplets - mean) < 5 * np.sqrt(400 * 0.4 * 0.6)


def test_sample_edges_rejects_bad_p():
    g = make_graph([(0, 0, 1)])
    for p in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            sample_edges(g, p)


def _write(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")


def _edge(g, edge_id):
    return int(g.heads[edge_id]), int(g.relations[edge_id]), int(g.tails[edge_id])


def test_load_tsv_dataset_roundtrip(tmp_path):
    _write(tmp_path / "train.tsv", [("a", "likes", "b"), ("b", "likes", "c"), ("a", "knows", "c")])
    _write(tmp_path / "valid.tsv", [("a", "likes", "c")])
    _write(tmp_path / "test.tsv", [("c", "knows", "a")])
    ds = load_tsv_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    assert ds.num_entities == 3 and ds.num_relations == 2
    assert ds.train.num_triplets == 3
    assert ds.valid.num_triplets == 1 and ds.test.num_triplets == 1
    ed, rd = ds.entity_dict, ds.relation_dict
    assert _edge(ds.train, 0) == (ed.id_of("a"), rd.id_of("likes"), ed.id_of("b"))
    # shared dictionaries across splits
    assert ds.valid.entity_dict is ed and ds.test.relation_dict is rd


def test_load_tsv_dataset_with_dict_files(tmp_path):
    _write(tmp_path / "train.tsv", [("a", "r", "b")])
    (tmp_path / "e.dict").write_text("0\tb\n1\ta\n")
    (tmp_path / "r.dict").write_text("0\tr\n")
    ds = load_tsv_dataset(tmp_path / "train.tsv", None, None,
                          dict_paths=(tmp_path / "e.dict", tmp_path / "r.dict"))
    assert _edge(ds.train, 0) == (1, 0, 0)


def test_load_tsv_dataset_unknown_name_with_dicts(tmp_path):
    _write(tmp_path / "train.tsv", [("a", "r", "zzz")])
    (tmp_path / "e.dict").write_text("0\ta\n")
    (tmp_path / "r.dict").write_text("0\tr\n")
    with pytest.raises(DataError):
        load_tsv_dataset(tmp_path / "train.tsv", None, None,
                         dict_paths=(tmp_path / "e.dict", tmp_path / "r.dict"))


def test_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tr\tb\nc d e\n")
    with pytest.raises(DataError, match="bad.tsv:2"):
        read_triples_file(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_triples_file(tmp_path / "nope.tsv")


def test_add_inverse_extends_train_only(tmp_path):
    _write(tmp_path / "train.tsv", [("a", "r", "b"), ("b", "s", "c")])
    _write(tmp_path / "valid.tsv", [("a", "r", "c")])
    ds = load_tsv_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", None, add_inverse=True)
    assert ds.num_relations == 4
    rd = ds.relation_dict
    assert rd.id_of("r" + INVERSE_SUFFIX) == 2 and rd.id_of("s" + INVERSE_SUFFIX) == 3
    assert ds.train.num_triplets == 4
    # the flipped twin of (a, r, b)
    a, b = ds.entity_dict.id_of("a"), ds.entity_dict.id_of("b")
    assert _edge(ds.train, 2) == (b, 2, a)
    # valid keeps only original triplets
    assert ds.valid.num_triplets == 1
    assert _edge(ds.valid, 0)[1] == rd.id_of("r")
