import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_graph, random_multigraph
from walkaug import (
    DataError,
    NewRelationRegistry,
    RuleMap,
    SegmentTable,
    Triplet,
    build_minibatch,
    random_walk,
    walk_to_triplets,
)


class Uniforms:
    """A stand-in rng whose `random` hands out given values in order."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self, size=None):
        take = 1 if size is None else size
        out = self.values[self.used:self.used + take]
        assert len(out) == take, "ran out of uniforms"
        self.used += take
        return out[0] if size is None else np.array(out)


class Slots:
    """A stand-in rng whose `integers(degree)` picks slot `degree // 2`."""

    def integers(self, high):
        return np.asarray(high) // 2 if np.ndim(high) else int(high) // 2


def _triplets(walk_nodes, walk_rels, informative, rulemaps, registry, rng,
              rule_sampling="normalized"):
    """(h, r, t, weight) rows the array path emits for one given walk."""
    nodes = np.array([walk_nodes])
    table = SegmentTable(informative, rulemaps, registry, l_max=nodes.shape[1])
    batch = walk_to_triplets(nodes, np.array([walk_rels]).reshape(1, -1),
                             np.array([len(walk_nodes)]), table, rng, rule_sampling)
    return _rows(batch)


def _rows(batch):
    return list(zip(batch.heads.tolist(), batch.relations.tolist(), batch.tails.tolist(),
                    batch.weights.tolist()))


def test_walk_stops_at_sink():
    g = make_graph([(0, 0, 1), (1, 0, 2)])  # 2 is a sink
    nodes, rels, lengths = random_walk(g, [0, 2], l_max=10, rng=np.random.default_rng(0))
    assert nodes.shape == (2, 10) and rels.shape == (2, 9)
    assert lengths.tolist() == [3, 1]
    assert nodes[0, :3].tolist() == [0, 1, 2] and rels[0, :2].tolist() == [0, 0]
    assert (nodes[0, 3:] == -1).all() and (rels[0, 2:] == -1).all()
    assert nodes[1, 0] == 2 and (nodes[1, 1:] == -1).all() and (rels[1] == -1).all()


def test_walk_respects_l_max_nodes():
    g = make_graph([(0, 0, 0)])  # self loop walks forever
    nodes, rels, lengths = random_walk(g, [0, 0], l_max=4, rng=np.random.default_rng(0))
    assert nodes.tolist() == [[0] * 4] * 2
    assert rels.tolist() == [[0] * 3] * 2
    assert lengths.tolist() == [4, 4]
    with pytest.raises(ValueError):
        random_walk(g, [0], l_max=0, rng=np.random.default_rng(0))


def test_walk_uniform_over_out_edges():
    # star: node 0 with 4 out-edges; 10k one-step walks, 3-sigma band
    g = make_graph([(0, 0, 1), (0, 0, 2), (0, 1, 3), (0, 1, 4)])
    n = 10_000
    nodes, _, _ = random_walk(g, np.zeros(n, dtype=np.int64), l_max=2,
                              rng=np.random.default_rng(123))
    counts = np.bincount(nodes[:, 1], minlength=5)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for node in (1, 2, 3, 4):
        assert abs(counts[node] - n * 0.25) < 3 * sigma


def test_walk_parallel_edges_double_probability():
    # two parallel edges to node 1, one to node 2: expect 2:1
    g = make_graph([(0, 0, 1), (0, 0, 1), (0, 0, 2)])
    nodes, _, _ = random_walk(g, np.zeros(9000, dtype=np.int64), 2, np.random.default_rng(7))
    hits = int(np.count_nonzero(nodes[:, 1] == 1))
    sigma = math.sqrt(9000 * (2 / 3) * (1 / 3))
    assert abs(hits - 6000) < 3 * sigma


def test_batched_walks_take_the_oracle_steps():
    # with the slot choice fixed, every batched walk is the per-walk oracle's
    g = random_multigraph(np.random.default_rng(5), 12, 3, 30)
    starts = np.arange(12)
    nodes, rels, lengths = random_walk(g, starts, 6, Slots())
    for b, start in enumerate(starts):
        walk = oracles.random_walk(g, int(start), 6, Slots())
        assert lengths[b] == len(walk.nodes)
        assert tuple(nodes[b, :lengths[b]].tolist()) == walk.nodes
        assert tuple(rels[b, :lengths[b] - 1].tolist()) == walk.relations


def test_registry_mints_stable_ids():
    reg = NewRelationRegistry(first_id=10, metapaths=[(0, 1), (2, 2)])
    assert reg.id_of((0, 1)) == 10
    assert reg.id_of((2, 2)) == 11
    assert reg.id_of((1, 0)) is None
    assert reg.metapath_of(11) == (2, 2)
    assert reg.metapath_of(9) is None  # an original relation
    assert len(reg) == 2
    assert reg.items() == [(10, (0, 1)), (11, (2, 2))]
    assert reg == NewRelationRegistry(10, [(0, 1), (2, 2)])
    assert reg != NewRelationRegistry(10, [(2, 2), (0, 1)])
    assert reg != NewRelationRegistry(9, [(0, 1), (2, 2)])
    with pytest.raises(ValueError):
        NewRelationRegistry(10, [(0, 1), (0, 1)])


def test_walk_pairs_skip_adjacent_and_self():
    # walk a-r0-b-r1-a: pair (0, 2) is a self pair, nothing emitted
    reg = NewRelationRegistry(5, [(0, 1)])
    informative = {(0, 1): 0.8}
    assert _triplets([3, 4, 3], [0, 1], informative, {}, reg, np.random.default_rng(0)) == []
    # distinct endpoints emit
    out = _triplets([3, 4, 6], [0, 1], informative, {}, reg, np.random.default_rng(0))
    assert out == [(3, 5, 6, 0.8)]


def test_walk_emits_every_qualifying_pair():
    # l_max = 4 walk: pairs (0,2), (0,3), (1,3); all metapaths informative
    informative = {(0, 1): 0.5, (1, 2): 0.25, (0, 1, 2): 0.125}
    reg = NewRelationRegistry.rule_less(9, informative, {})
    out = _triplets([10, 11, 12, 13], [0, 1, 2], informative, {}, reg,
                    np.random.default_rng(0))
    # in (i, j) order, each pair under its metapath's minted id and z
    assert out == [(10, reg.id_of((0, 1)), 12, 0.5), (10, reg.id_of((0, 1, 2)), 13, 0.125),
                   (11, reg.id_of((1, 2)), 13, 0.25)]
    assert [reg.id_of(m) for m in ((0, 1), (0, 1, 2), (1, 2))] == [9, 10, 11]


def test_segment_keys_tell_lengths_apart():
    # (0, 0) and (0, 0, 0) differ only in length; relation 0 is digit 1, not 0
    informative = {(0, 0): 0.5, (0, 0, 0): 0.25}
    reg = NewRelationRegistry.rule_less(1, informative, {})
    out = _triplets([0, 1, 2, 3], [0, 0, 0], informative, {}, reg, np.random.default_rng(0))
    assert out == [(0, 1, 2, 0.5), (0, 2, 3, 0.25), (1, 1, 3, 0.5)]


def test_uninformative_metapaths_emit_nothing():
    reg = NewRelationRegistry(5)
    assert _triplets([0, 1, 2], [0, 1], {}, {}, reg, np.random.default_rng(0)) == []
    assert len(reg) == 0


def test_minting_disabled_skips_ruleless_metapaths():
    # with minting off the registry is empty: a rule-less metapath emits nothing
    reg = NewRelationRegistry(5)
    informative = {(0, 1): 0.9}
    assert len(SegmentTable(informative, {}, reg, 3)) == 0
    assert _triplets([0, 1, 2], [0, 1], informative, {}, reg, np.random.default_rng(0)) == []


def test_rule_mapped_emission_uses_confidence_weight():
    informative = {(0, 1): 0.8}
    rules = {(0, 1): RuleMap((0, 1), {7: 1.0})}
    reg = NewRelationRegistry(9)
    out = _triplets([0, 1, 2], [0, 1], informative, rules, reg, np.random.default_rng(0))
    assert out == [(0, 7, 2, 0.8 * 1.0)]


def _repeated_walk(n):
    """n copies of the walk 0 -r0-> 1 -r1-> 2, as walk arrays."""
    return (np.tile([0, 1, 2], (n, 1)), np.tile([0, 1], (n, 1)), np.full(n, 3))


def test_rule_sampling_normalized_frequencies():
    # confidences 0.6 / 0.4 over q1, q2: normalized draw matches those rates
    rules = {(0, 1): RuleMap((0, 1), {1: 0.6, 2: 0.4})}
    table = SegmentTable({(0, 1): 1.0}, rules, NewRelationRegistry(9), 3)
    n = 10_000
    batch = walk_to_triplets(*_repeated_walk(n), table, np.random.default_rng(5))
    assert len(batch) == n
    assert np.array_equal(batch.weights, np.where(batch.relations == 1, 0.6, 0.4))
    sigma = math.sqrt(n * 0.6 * 0.4)
    assert abs(np.count_nonzero(batch.relations == 1) - 0.6 * n) < 3 * sigma


def test_rule_sampling_raw_leaves_gap():
    # raw mode: total confidence 0.5 means half the draws emit nothing
    rules = {(0, 1): RuleMap((0, 1), {1: 0.3, 2: 0.2})}
    table = SegmentTable({(0, 1): 1.0}, rules, NewRelationRegistry(9), 3)
    n = 10_000
    batch = walk_to_triplets(*_repeated_walk(n), table, np.random.default_rng(6), "raw")
    assert abs(len(batch) - 0.5 * n) < 3 * math.sqrt(n * 0.25)
    hits = np.count_nonzero(batch.relations == 1)
    assert abs(hits - 0.3 * n) < 3 * math.sqrt(n * 0.3 * 0.7)


def test_rule_sampling_raw_over_unit_total_normalizes():
    rules = {(0, 1): RuleMap((0, 1), {1: 0.9, 2: 0.9})}
    table = SegmentTable({(0, 1): 1.0}, rules, NewRelationRegistry(9), 3)
    batch = walk_to_triplets(*_repeated_walk(2000), table, np.random.default_rng(7), "raw")
    assert len(batch) == 2000


def test_rule_totals_are_the_last_running_sums():
    # ten confidences of 0.1 sum to 0.9999999999999999 one by one, but to
    # 1.0 under a compensated sum (Python 3.12's `sum`): the normalized
    # draw's total is the running sums' own, whatever the Python version
    rules = {(0, 1): RuleMap((0, 1), {rel: 0.1 for rel in range(1, 11)})}
    table = SegmentTable({(0, 1): 1.0}, rules, NewRelationRegistry(12), 3)
    assert table.rule_acc[0, 9] == 0.9999999999999999
    assert table.rule_totals.tolist() == [0.9999999999999999]
    last = np.nextafter(1.0, 0.0)  # the largest uniform: u stays below the total
    assert _rows(walk_to_triplets(*_repeated_walk(1), table, Uniforms([last]))) == [(0, 10, 2, 0.1)]


def test_normalized_rounding_slack_takes_the_last_relation():
    # a u at or past the last running sum falls in the row's +inf padding,
    # which repeats the last relation; force that with a larger total
    rules = {(0, 1): RuleMap((0, 1), {1: 0.3, 2: 0.2})}
    table = SegmentTable({(0, 1): 1.0}, rules, NewRelationRegistry(9), 3)
    walks = _repeated_walk(1)
    table.rule_totals[:] = 1.0  # u = 1.0 * 1.0, past the running sums 0.3, 0.5
    assert _rows(walk_to_triplets(*walks, table, Uniforms([1.0]))) == [(0, 2, 2, 0.2)]
    assert _rows(walk_to_triplets(*walks, table, Uniforms([1.0]), "raw")) == []


def test_unknown_rule_sampling_mode_rejected():
    table = SegmentTable({(0, 1): 1.0}, {}, NewRelationRegistry(3, [(0, 1)]), 3)
    with pytest.raises(ValueError):
        walk_to_triplets(*_repeated_walk(1), table, np.random.default_rng(0),
                         rule_sampling="bogus")


def test_segment_keys_that_overflow_int64_are_a_data_error():
    # 601 ** 7 > 2 ** 63: keys of 7 relations over 600 cannot be packed
    informative = {(0, 1): 1.0}
    reg = NewRelationRegistry.rule_less(600, informative, {})
    with pytest.raises(DataError, match="int64"):
        SegmentTable(informative, {}, reg, l_max=8)
    assert len(SegmentTable(informative, {}, reg, l_max=7)) == 1  # 601 ** 6 fits


def test_walks_longer_than_the_table_are_rejected():
    table = SegmentTable({(0, 1): 1.0}, {}, NewRelationRegistry(2, [(0, 1)]), 3)
    walks = (np.zeros((1, 4), np.int64), np.zeros((1, 3), np.int64), np.array([4]))
    with pytest.raises(ValueError, match="l_max"):
        walk_to_triplets(*walks, table, np.random.default_rng(0))


CONFS = [0.1, 0.25, 0.3, 1 / 3, 0.5, 0.9, 1.0]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_nodes=st.integers(1, 8),
       num_relations=st.integers(1, 4), num_edges=st.integers(0, 60),
       l_max=st.integers(2, 5), rule_sampling=st.sampled_from(["normalized", "raw"]))
def test_array_path_equals_the_walk_oracle(seed, num_nodes, num_relations, num_edges, l_max,
                                           rule_sampling):
    """Given walks and uniforms, the array path emits the oracle's
    (h, r, t, weight) rows bit for bit, in the same order, and uses as many
    uniforms."""
    rng = np.random.default_rng(seed)
    g = random_multigraph(rng, num_nodes, num_relations, num_edges)
    nodes, rels, lengths = random_walk(g, rng.integers(num_nodes, size=24), l_max, rng)
    walks = [oracles.RandomWalk(tuple(nodes[b, :n].tolist()), tuple(rels[b, :n - 1].tolist()))
             for b, n in enumerate(lengths)]
    # informative: most walked segments plus a few metapaths no walk traces
    seen = {w.relations[i:j] for w in walks
            for i in range(len(w.nodes)) for j in range(i + 2, len(w.nodes))}
    candidates = sorted(seen) + [tuple(rng.integers(num_relations + 1, size=k).tolist())
                                 for k in rng.integers(1, 7, size=4)]
    informative = {m: float(rng.choice([rng.random(), 0.5, 1.0]))
                   for m in candidates if rng.random() < 0.8}
    rulemaps = {}
    for m in informative:
        kind = rng.integers(3)  # 0: no map, 1: empty map, 2: rules
        if kind:
            rels_of = rng.choice(num_relations, size=rng.integers(1, num_relations + 1),
                                 replace=False) if kind == 2 else []
            confs = [float(rng.choice(CONFS)) if rng.random() < 0.7 else float(rng.random())
                     for _ in rels_of]
            rulemaps[m] = RuleMap(m, {int(r): c for r, c in zip(rels_of, confs) if c > 0})
    # mint a random share of the metapaths, rule-less or not, so some rule-less ones are not
    minted = [m for m in sorted(informative) if rng.random() < 0.6]
    registry = NewRelationRegistry(num_relations, minted)
    # also 0, the largest double below 1, and values that land exactly on a
    # running sum of equal confidences
    uniforms = rng.random(24 * l_max * l_max)
    special = rng.random(uniforms.size) < 0.5
    uniforms[special] = rng.choice([0.0, 1 - 2**-53, 0.5, 0.25], size=np.count_nonzero(special))
    uniforms = uniforms.tolist()

    want_rng = Uniforms(uniforms)
    want = [tuple(t) for w in walks
            for t in oracles.walk_to_triplets(w, informative, rulemaps, registry, want_rng,
                                              rule_sampling)]
    got_rng = Uniforms(uniforms)
    table = SegmentTable(informative, rulemaps, registry, l_max)
    got = _rows(walk_to_triplets(nodes, rels, lengths, table, got_rng, rule_sampling))
    assert got == want
    assert got_rng.used == want_rng.used


def _table(graph, informative, rulemaps=None, l_max=3, mint=True):
    rulemaps = rulemaps or {}
    registry = NewRelationRegistry.rule_less(
        graph.num_relations, informative if mint else {}, rulemaps)
    return SegmentTable(informative, rulemaps, registry, l_max)


def test_minibatch_mixes_walks_and_originals():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 0)])
    informative = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0, (0, 1, 2): 1.0,
                   (1, 2, 0): 1.0, (2, 0, 1): 1.0}
    batch = build_minibatch(g, [0, 1, 2, 3], _table(g, informative), np.random.default_rng(2))
    synthetic = batch.relations >= 3
    assert synthetic.any(), "expected walk triplets from a fully informative cycle"
    assert np.count_nonzero(~synthetic) == np.count_nonzero(synthetic)
    assert synthetic[:np.count_nonzero(synthetic)].all()  # walk triplets come first
    assert (batch.weights[~synthetic] == 1.0).all()
    edges = set(zip(g.heads.tolist(), g.relations.tolist(), g.tails.tolist()))
    assert all(t in edges for t in batch if t.relation < 3)


def test_minibatch_explicit_original_sample_size():
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    batch = build_minibatch(g, [0, 1], _table(g, {}), np.random.default_rng(3),
                            original_edge_sample=7)
    assert len(batch) == 7
    assert (batch.weights == 1.0).all()


def test_minibatch_empty_informative_falls_back_to_originals():
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    batch = build_minibatch(g, [0, 1, 2], _table(g, {}), np.random.default_rng(0))
    assert len(batch) == 3  # one original per batch node
    assert (batch.relations < 2).all()


def test_minibatch_deterministic_for_seed():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 2)])
    informative = {(0, 1): 0.7, (1, 0): 0.5}
    rules = {(0, 1): RuleMap((0, 1), {1: 0.8})}

    def run():
        return build_minibatch(g, [0, 1, 2], _table(g, informative, rules),
                               np.random.default_rng(42))

    first, second = run(), run()
    assert list(first) == list(second)
    assert np.array_equal(first.weights, second.weights)
    assert all(isinstance(t, Triplet) for t in first)
