import struct
import tempfile
import zlib
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_dataset, csr_built, make_graph, random_multigraph
from oracles import line_loop_load_tsv
from walkaug import (
    DataError,
    Dictionary,
    build_adjacency,
    load_tsv_dataset,
    read_metapath_report,
    read_rules_report,
    sample_edges,
)
from walkaug.graph import INVERSE_SUFFIX
from walkaug.storage import DATASET_CACHE, dataset_key, read_dataset_cache, write_dataset_cache


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


def test_dictionary_builds_its_name_index_on_first_lookup(tmp_path):
    # a dataset-cache hit that never looks a name up never builds the dict
    train = tmp_path / "train.tsv"
    train.write_text("a\tr\tb\nb\ts\tc\n")
    key = dataset_key(train, None, None)
    write_dataset_cache(tmp_path / DATASET_CACHE, key, load_tsv_dataset(train, None, None))
    cached = read_dataset_cache(tmp_path / DATASET_CACHE, key)
    for dct, names in ((cached.entity_dict, ["a", "b", "c"]), (cached.relation_dict, ["r", "s"])):
        assert list(dct) == names and len(dct) == len(names) and dct.name_of(1) == names[1]
        assert "_index" not in vars(dct)
        assert names[-1] in dct and "x" not in dct
        assert "_index" in vars(dct)
        assert dct.id_of(names[0]) == 0 and dct.ids_of(names).tolist() == list(range(len(names)))
    lookups = (lambda dct: dct.id_of("a"), lambda dct: dct.ids_of(["a"]), lambda dct: "a" in dct)
    for lookup in lookups:
        dct = Dictionary(["b", "a", "b"])
        lookup(dct)
        assert vars(dct)["_index"] == {"b": 0, "a": 1}


CACHE_MAGIC = b"walkaug dataset cache 1\n"
CRC_AT, IDS_AT = 88, 152  # the CRC covers the file from CRC_AT + 4 on


def _with_crc(data: bytes) -> bytes:
    """`data`, a dataset cache file, with a CRC field that matches what it holds."""
    return data[:CRC_AT] + struct.pack("<I", zlib.crc32(data[CRC_AT + 4:])) + data[CRC_AT + 4:]


def _cache_bytes(key, counts, ids, entities: bytes, relations: bytes, magic=CACHE_MAGIC):
    """A dataset cache file, CRC included, of the five `counts` (entity and
    relation names, train, valid and test triplets), the ids section `ids`
    (its bytes, or int64 ids), and the two name texts: crafted so that the
    reader's checks behind the CRC are reached."""
    ids = ids if isinstance(ids, bytes) else np.asarray(ids, "<i8").tobytes()
    body = struct.pack("<4x7q", *counts, len(entities), len(relations)) + ids + entities + relations
    return _with_crc(magic + key.encode("ascii") + bytes(4) + body)


def test_a_dataset_cache_of_repeated_names_is_a_miss(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text("ab\tr\tac\n")
    key, cache = dataset_key(train, None, None), tmp_path / DATASET_CACHE
    write_dataset_cache(cache, key, load_tsv_dataset(train, None, None))
    assert cache.read_bytes() == _cache_bytes(key, [2, 1, 1, 0, 0], [0, 0, 1], b"ab\tac", b"r")
    cache.write_bytes(_cache_bytes(key, [2, 1, 1, 0, 0], [0, 0, 1], b"ab\tab", b"r"))
    assert read_dataset_cache(cache, key) is None  # two names, one of them twice


# the three-split dataset of `_write_cached_split`: its counts, ids and name texts
SPLIT_COUNTS = [3, 3, 3, 1, 1]
SPLIT_IDS = [0, 1, 2, 0, 1, 2, 1, 2, 0, 0, 1, 2, 1, 0, 2]
SPLIT_NAMES = (b"a\tb\tc", b"r\ts\tt")


def _write_cached_split(tmp_path):
    """(cache path, key, input paths) of a cached three-split dataset."""
    for split, text in (("train", "a\tr\tb\nb\ts\tc\nc\tt\ta\n"), ("valid", "a\ts\tc\n"),
                        ("test", "b\tr\tc\n")):
        (tmp_path / f"{split}.tsv").write_text(text)
    inputs = [tmp_path / f"{split}.tsv" for split in ("train", "valid", "test")]
    key, cache = dataset_key(*inputs), tmp_path / DATASET_CACHE
    write_dataset_cache(cache, key, load_tsv_dataset(*inputs))
    return cache, key, inputs


def test_the_dataset_cache_layout(tmp_path):
    cache, key, inputs = _write_cached_split(tmp_path)
    fixed_key = "0123456789abcdef" * 4
    write_dataset_cache(tmp_path / "fixed", fixed_key, load_tsv_dataset(*inputs))

    def words(values):
        return b"".join(v.to_bytes(8, "little") for v in values)

    # magic line, key, CRC and 4 zero bytes; the five counts and the two name
    # byte lengths; from byte 152 each split's heads, relations and tails; names
    assert (tmp_path / "fixed").read_bytes() == (
        b"walkaug dataset cache 1\n" + fixed_key.encode("ascii")
        + bytes.fromhex("1ede183e") + bytes(4)
        + words([3, 3, 3, 1, 1, 5, 5])
        + words([0, 1, 2, 0, 1, 2, 1, 2, 0]) + words([0, 1, 2]) + words([1, 0, 2])
        + b"a\tb\tc" + b"r\ts\tt")
    assert cache.read_bytes() == _cache_bytes(key, SPLIT_COUNTS, SPLIT_IDS, *SPLIT_NAMES)
    cached = read_dataset_cache(cache, key)
    assert_same_dataset(cached, load_tsv_dataset(*inputs))
    # a hit sorts nothing, and its graphs are read-only views of one buffer
    assert not any(csr_built(graph) for graph in cached.graphs())
    columns = [getattr(graph, name) for graph in cached.graphs()
               for name in ("heads", "relations", "tails")]
    assert all(column.base is columns[0].base is not None and not column.flags.writeable
               for column in columns)


# counts[k] += delta for each (k, delta): a header that disagrees with the names or
# with the length of the ids, too large, too small or negative. Every id of the
# cached dataset is below 3, a valid entity and relation id, so split sizes
# (3, -1, 3) have the length's sum and read in-range triplets from the wrong
# places: only their sign tells them apart. The CRC is recomputed, so each is
# refused by the checks behind it.
BAD_HEADERS = {
    "entities too many": [(0, 1)], "entities too few": [(0, -1)],
    "no entities": [(0, -3)], "entities negative": [(0, -4)],
    "relations too many": [(1, 1)], "relations too few": [(1, -1)],
    "no relations": [(1, -3)], "relations negative": [(1, -4)],
    "train too long": [(2, 1)], "train too short": [(2, -1)],
    "test too long": [(4, 1)], "test negative": [(4, -2), (2, 2)],
    "valid negative": [(3, -2), (4, 2)],
}


@pytest.mark.parametrize("damage", sorted(BAD_HEADERS))
def test_a_dataset_cache_whose_header_disagrees_is_a_miss(tmp_path, damage):
    cache, key, _ = _write_cached_split(tmp_path)
    counts = list(SPLIT_COUNTS)
    for k, delta in BAD_HEADERS[damage]:
        counts[k] += delta
    cache.write_bytes(_cache_bytes(key, counts, SPLIT_IDS, *SPLIT_NAMES))
    assert read_dataset_cache(cache, key) is None


# ids sections whose byte length is not 8 times the count the header gives
# (3 ids per triplet), under a CRC that matches them
IDS_BYTES = np.asarray(SPLIT_IDS, "<i8").tobytes()
MALFORMED_IDS = {
    "one more id": IDS_BYTES + bytes(8), "one id less": IDS_BYTES[:-8],
    "int32": np.asarray(SPLIT_IDS, "<i4").tobytes(), "half an id more": IDS_BYTES + bytes(4),
    "header cut": b"",
}


@pytest.mark.parametrize("ids", list(MALFORMED_IDS))
def test_a_dataset_cache_of_malformed_ids_is_a_miss(tmp_path, ids):
    cache, key, _ = _write_cached_split(tmp_path)
    whole = _cache_bytes(key, SPLIT_COUNTS, MALFORMED_IDS[ids], *SPLIT_NAMES)
    if ids == "header cut":  # the file ends inside the counts
        whole = _with_crc(whole[:IDS_AT - 16])
    cache.write_bytes(whole)
    assert read_dataset_cache(cache, key) is None


def test_a_dataset_cache_of_names_beside_no_count_is_a_miss(tmp_path):
    # empty names text with a count of 1 is the one empty name; a count of 0
    # with names in the text is no dictionary
    train = tmp_path / "train.tsv"
    train.write_text("")
    key, cache = dataset_key(train, None, None), tmp_path / DATASET_CACHE
    write_dataset_cache(cache, key, load_tsv_dataset(train, None, None))
    assert cache.read_bytes() == _cache_bytes(key, [0, 0, 0, 0, 0], b"", b"", b"")
    assert read_dataset_cache(cache, key) is not None
    cache.write_bytes(_cache_bytes(key, [0, 0, 0, 0, 0], b"", b"", b"r"))
    assert read_dataset_cache(cache, key) is None


# (section, offset of one byte whose lowest bit is flipped): under the CRC
# that was written, each file is a miss
NAMES_AT = IDS_AT + 8 * len(SPLIT_IDS)
STALE_CRC_FLIPS = {"crc": CRC_AT, "padding": CRC_AT + 4, "entity count": CRC_AT + 8,
                   "test count": CRC_AT + 40, "entity name bytes": CRC_AT + 48,
                   "ids": IDS_AT, "names": NAMES_AT}


@pytest.mark.parametrize("section", list(STALE_CRC_FLIPS))
def test_one_flipped_byte_under_a_stale_crc_is_a_miss(tmp_path, section):
    cache, key, _ = _write_cached_split(tmp_path)
    whole = bytearray(cache.read_bytes())
    whole[STALE_CRC_FLIPS[section]] ^= 1
    cache.write_bytes(whole)
    assert read_dataset_cache(cache, key) is None
    if section in ("ids", "names"):
        # these flips pass every other check: under their own CRC, the bytes
        # are the cache of another dataset, so only the CRC refuses them
        cache.write_bytes(_with_crc(bytes(whole)))
        cached = read_dataset_cache(cache, key)
        heads, entities = ([1, 1, 2], ["a", "b", "c"]) if section == "ids" else \
            ([0, 1, 2], ["`", "b", "c"])
        assert cached.train.heads.tolist() == heads and list(cached.entity_dict) == entities


# (magic line, stored key or None for the right one) of files that are
# whole, under a matching CRC, but of another layout version or key
OTHER_FORMATS = {
    "version 2": (b"walkaug dataset cache 2\n", None),
    "version 0": (b"walkaug dataset cache 0\n", None),
    "other magic": (b"walkaug dataset cachf 1\n", None),
    "other key": (CACHE_MAGIC, "f" * 64),
}


@pytest.mark.parametrize("other", list(OTHER_FORMATS))
def test_a_dataset_cache_of_another_format_or_key_is_a_miss(tmp_path, other):
    cache, key, _ = _write_cached_split(tmp_path)
    magic, stored_key = OTHER_FORMATS[other]
    cache.write_bytes(_cache_bytes(stored_key or key, SPLIT_COUNTS, SPLIT_IDS, *SPLIT_NAMES,
                                   magic=magic))
    assert read_dataset_cache(cache, key) is None


# every boundary between sections, and one byte short of the whole file
SECTION_ENDS = {"empty": 0, "magic": len(CACHE_MAGIC), "key": CRC_AT, "crc": CRC_AT + 4,
                "padding": CRC_AT + 8, "counts": IDS_AT, "ids": NAMES_AT,
                "entity names": NAMES_AT + 5, "last byte": NAMES_AT + 9}


@pytest.mark.parametrize("end", list(SECTION_ENDS))
def test_a_dataset_cache_cut_at_a_section_boundary_is_a_miss(tmp_path, end):
    cache, key, _ = _write_cached_split(tmp_path)
    whole = cache.read_bytes()
    assert len(whole) == NAMES_AT + 10
    cache.write_bytes(whole[:SECTION_ENDS[end]])
    assert read_dataset_cache(cache, key) is None


def test_a_dataset_cache_of_one_byte_more_is_a_miss(tmp_path):
    # under a matching CRC, the last name would read "tx": only the length refuses it
    cache, key, _ = _write_cached_split(tmp_path)
    cache.write_bytes(_with_crc(cache.read_bytes() + b"x"))
    assert read_dataset_cache(cache, key) is None


def test_a_graph_builds_its_adjacency_on_first_use(tmp_path):
    _, _, inputs = _write_cached_split(tmp_path)
    dataset = load_tsv_dataset(*inputs)
    assert not any(csr_built(graph) for graph in dataset.graphs())
    g = dataset.train
    assert g.relation_counts.tolist() == [1, 1, 1] and not csr_built(g)
    assert g.adj_tails.tolist() == [1, 2, 0]  # the first access builds all three arrays
    offsets, relations, tails = vars(g)["_csr"]
    assert g.offsets is offsets and g.adj_relations is relations and g.adj_tails is tails
    assert offsets.tolist() == [0, 1, 2, 3] and relations.tolist() == [0, 1, 2]
    for arr in (offsets, relations, tails):
        assert not arr.flags.writeable
    assert not csr_built(sample_edges(g, 0.5, seed=0))
    empty = make_graph([], num_entities=3, num_relations=1)
    assert empty.offsets.tolist() == [0, 0, 0, 0] and empty.adj_tails.size == 0


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


@pytest.mark.parametrize("text, message", [
    ("0\ta\n1\tb\n2\ta\n", "duplicate name 'a'"),
    ("0\ta\nx\tb\n", r"d\.dict:2: id 'x' is not an integer"),
])
def test_dictionary_file_rejects_bad_entries(tmp_path, text, message):
    path = tmp_path / "d.dict"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        Dictionary.from_file(path)


def test_adjacency_groups_out_edges():
    g = make_graph([(0, 0, 1), (0, 1, 2), (1, 0, 2), (0, 0, 1)])
    assert g.num_triplets == 4
    assert np.diff(g.offsets).tolist() == [3, 1, 0]  # out-degrees
    lo, hi = g.offsets[0], g.offsets[1]
    edge_ids = np.argsort(g.heads, kind="stable")[lo:hi]  # slot -> edge
    rels, tails = g.adj_relations[lo:hi], g.adj_tails[lo:hi]
    # slots keep the input order of the node's edges, which the walk draws by
    assert rels.tolist() == [0, 1, 0] and tails.tolist() == [1, 2, 1]
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
        load_tsv_dataset(path, None, None)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_tsv_dataset(tmp_path / "nope.tsv", None, None)


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


def test_load_rejects_relation_names_with_a_pipe(tmp_path):
    # reports join a metapath's relation names with "|"
    _write(tmp_path / "train.tsv", [("a", "r", "b"), ("b", "x|y", "c")])
    with pytest.raises(DataError, match=r"'x\|y'"):
        load_tsv_dataset(tmp_path / "train.tsv", None, None)
    _write(tmp_path / "train.tsv", [("a", "r", "b")])
    (tmp_path / "e.dict").write_text("0\ta\n1\tb\n")
    (tmp_path / "r.dict").write_text("0\tr\n1\tr|r\n")
    with pytest.raises(DataError, match=r"'r\|r'"):
        load_tsv_dataset(tmp_path / "train.tsv", None, None,
                         dict_paths=(tmp_path / "e.dict", tmp_path / "r.dict"))


# ------------------------------------------------------------------- readers

# Characters that str.splitlines breaks on but a file's lines do not.
UNICODE_BREAKS = ("\x0b", "\x1c", "\u2028")


def _triplet_names(path):
    ds = load_tsv_dataset(path, None, None)
    ed, rd = ds.entity_dict, ds.relation_dict
    return [(ed.name_of(h), rd.name_of(r), ed.name_of(t))
            for h, r, t in zip(ds.train.heads, ds.train.relations, ds.train.tails)]


def reader_case(reader, odd):
    """(parse, the lines of a valid file, what they parse to) with `odd` inside cells."""
    relations = Dictionary(["r" + odd, "s", "t"])
    return {
        "triplets": (_triplet_names,
                     ["a\tr\tb", f"b{odd}\ts\ta", "a\tr\tc"],
                     [("a", "r", "b"), (f"b{odd}", "s", "a"), ("a", "r", "c")]),
        "dictionary": (lambda path: list(Dictionary.from_file(path)),
                       ["1\tb", f"0\ta{odd}", "2\tc"],
                       [f"a{odd}", "b", "c"]),
        "metapaths": (lambda path: read_metapath_report(path, relations),
                      [f"r{odd}|s\t0.5\t3", "s|t|s\t0.25\t1", "t|t\t1.0\t2"],
                      {(0, 1): 0.5, (1, 2, 1): 0.25, (2, 2): 1.0}),
        "rules": (lambda path: {m: rule.entries for m, rule in read_rules_report(path, relations).items()},
                  [f"r{odd}|s\tt\t0.75", f"s|t\tr{odd}\t1.0", "s|t\ts\t0.5"],
                  {(0, 1): {2: 0.75}, (1, 2): {0: 1.0, 1: 0.5}}),
    }[reader]


READERS = ("triplets", "dictionary", "metapaths", "rules")
EMPTY = {"triplets": [], "dictionary": [], "metapaths": {}, "rules": {}}
each_reader = pytest.mark.parametrize("reader", READERS)


def _read(tmp_path, reader, text, odd=""):
    path = tmp_path / f"{reader}.tsv"
    path.write_bytes(text.encode("utf-8"))
    return reader_case(reader, odd)[0](path)


@each_reader
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_readers_take_universal_newlines(tmp_path, reader, newline, final_newline):
    _, lines, expected = reader_case(reader, "")
    text = newline.join(lines) + (newline if final_newline else "")
    assert _read(tmp_path, reader, text) == expected


@each_reader
@pytest.mark.parametrize("brk", UNICODE_BREAKS)
def test_readers_keep_unicode_line_breaks_inside_a_cell(tmp_path, reader, brk):
    _, lines, expected = reader_case(reader, brk)
    assert _read(tmp_path, reader, "\n".join(lines) + "\n", odd=brk) == expected


@each_reader
def test_readers_take_an_empty_file(tmp_path, reader):
    assert _read(tmp_path, reader, "") == EMPTY[reader]


@each_reader
def test_readers_drop_a_leading_byte_order_mark(tmp_path, reader):
    # only the leading one: a U+FEFF inside a cell is kept
    _, lines, expected = reader_case(reader, "\ufeff")
    assert _read(tmp_path, reader, "\ufeff" + "\n".join(lines) + "\n", odd="\ufeff") == expected


@each_reader
def test_readers_reject_a_blank_line_at_its_position(tmp_path, reader):
    lines = reader_case(reader, "")[1]
    with pytest.raises(DataError, match=rf"{reader}\.tsv:2: expected"):
        _read(tmp_path, reader, "\n".join([lines[0], "", *lines[1:]]) + "\n")


@each_reader
@pytest.mark.parametrize("damage", ["extra cell", "missing cell"])
def test_readers_reject_a_wrong_column_count_at_its_position(tmp_path, reader, damage):
    lines = list(reader_case(reader, "")[1])
    lines[2] = lines[2] + "\tx" if damage == "extra cell" else lines[2].rsplit("\t", 1)[0]
    with pytest.raises(DataError, match=rf"{reader}\.tsv:3: expected"):
        _read(tmp_path, reader, "\r\n".join(lines))


def _write_dicts(tmp, splits, drop, seed):
    """Entity and relation dictionary files of every name of `splits` in
    shuffled id order, plus one the splits never use; `drop` ("entity",
    "relation" or None) leaves out the last name of that file, which the
    splits may use."""
    rng = np.random.default_rng(seed)
    dict_paths = (Path(tmp, "e.dict"), Path(tmp, "r.dict"))
    used = {"entity": {name for rows in splits for h, _, t in rows for name in (h, t)},
            "relation": {r for rows in splits for _, r, _ in rows}}
    for kind, path in zip(("entity", "relation"), dict_paths):
        names = sorted(used[kind] | {"extra"})
        names = [names[i] for i in rng.permutation(len(names))]
        Dictionary(names[:-1] if drop == kind else names).write(path)
    return dict_paths


relation_names = st.sampled_from(["r", "s", "r" + INVERSE_SUFFIX, "t\x0b", "s\u2028", "u"])
entity_names = st.text(alphabet="ab|\x1c\u2028", min_size=1, max_size=3)
split_rows = st.lists(st.tuples(entity_names, relation_names, entity_names), max_size=12)


@settings(max_examples=80, deadline=None)
@given(splits=st.tuples(split_rows, split_rows, split_rows), with_dicts=st.booleans(),
       add_inverse=st.booleans(), drop=st.sampled_from([None, "entity", "relation"]),
       seed=st.integers(0, 2**16))
def test_loader_matches_the_line_loop_oracle(splits, with_dicts, add_inverse, drop, seed):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{split}.tsv") for split in ("train", "valid", "test")]
        for path, rows in zip(paths, splits):
            _write(path, rows)
        dict_paths = _write_dicts(tmp, splits, drop, seed) if with_dicts else None
        try:
            expected = line_loop_load_tsv(*paths, dict_paths=dict_paths, add_inverse=add_inverse)
        except DataError:
            with pytest.raises(DataError):
                load_tsv_dataset(*paths, dict_paths=dict_paths, add_inverse=add_inverse)
            return
        ds = load_tsv_dataset(*paths, dict_paths=dict_paths, add_inverse=add_inverse)
    *arrays, entities, relations = expected
    for graph, arr in zip(ds.graphs(), arrays):
        assert np.array_equal(np.column_stack((graph.heads, graph.relations, graph.tails)),
                              arr.reshape(-1, 3))
    assert list(ds.entity_dict) == entities and list(ds.relation_dict) == relations
    assert ds.num_entities == len(entities) and ds.num_relations == len(relations)


def _split_rows(only: str):
    """Rows over names shared between splits and one name no other split has."""
    name = st.text(alphabet="abc", min_size=1, max_size=2) | st.just(only)
    return st.lists(st.tuples(name, st.sampled_from(["r", "s", only]), name), max_size=10)


@settings(max_examples=80, deadline=None)
@given(splits=st.tuples(_split_rows("train only"), _split_rows("valid only"),
                        _split_rows("test only")))
def test_loader_dictionaries_equal_the_chained_first_seen_order(splits):
    # the loader's former build: each head before its tail, over train, then valid, then test
    columns = [list(zip(*rows)) or [(), (), ()] for rows in splits]
    entities = Dictionary(chain.from_iterable(
        chain.from_iterable(zip(heads, tails)) for heads, _, tails in columns))
    relations = Dictionary(chain.from_iterable(relations for _, relations, _ in columns))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{split}.tsv") for split in ("train", "valid", "test")]
        for path, rows in zip(paths, splits):
            _write(path, rows)
        dataset = load_tsv_dataset(*paths)
    assert list(dataset.entity_dict) == list(entities)
    assert list(dataset.relation_dict) == list(relations)


# the loader's names plus a NUL and the empty name, which a row like "a\t\tb" holds
cached_entity_names = entity_names | st.sampled_from(["", "a\x00"])
cached_relation_names = relation_names | st.sampled_from(["", "\x00"])
cached_rows = st.lists(st.tuples(cached_entity_names, cached_relation_names,
                                 cached_entity_names), max_size=12)


@settings(max_examples=80, deadline=None)
@given(splits=st.tuples(cached_rows, st.none() | cached_rows, st.none() | cached_rows),
       with_dicts=st.booleans(), add_inverse=st.booleans(), seed=st.integers(0, 2**16))
def test_a_cached_load_equals_the_parse(splits, with_dicts, add_inverse, seed):
    # the cache is written from one copy of the inputs and read for another copy
    # at other paths: it is keyed by content, so both load the same dataset
    with tempfile.TemporaryDirectory() as tmp:
        copies = []
        for copy in ("a", "b"):
            Path(tmp, copy).mkdir()
            paths = [None if rows is None else Path(tmp, copy, f"{split}.tsv")
                     for split, rows in zip(("train", "valid", "test"), splits)]
            for path, rows in zip(paths, splits):
                if path is not None:
                    _write(path, rows)
            dict_paths = (_write_dicts(Path(tmp, copy), [rows or [] for rows in splits],
                                       None, seed) if with_dicts else None)
            copies.append((*paths, dict_paths, add_inverse))
        try:
            expected = load_tsv_dataset(*copies[1])
        except DataError:  # an inverse twin that clashes with a name
            return
        cache = Path(tmp, DATASET_CACHE)
        key = dataset_key(*copies[0])
        assert key == dataset_key(*copies[1])
        write_dataset_cache(cache, key, load_tsv_dataset(*copies[0]))
        cached = read_dataset_cache(cache, key)
    assert cached is not None
    assert_same_dataset(cached, expected)
