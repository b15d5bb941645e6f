import math

import numpy as np
import pytest

from conftest import make_graph
from walkaug import (
    AugmentedTriplet,
    NewRelationRegistry,
    RandomWalk,
    RuleMap,
    build_minibatch,
    random_walk,
    walk_to_triplets,
)


def test_walk_stops_at_sink():
    g = make_graph([(0, 0, 1), (1, 0, 2)])  # 2 is a sink
    walk = random_walk(g, 0, l_max=10, rng=np.random.default_rng(0))
    assert walk.nodes == (0, 1, 2)
    assert walk.relations == (0, 0)


def test_walk_respects_l_max_nodes():
    g = make_graph([(0, 0, 0)])  # self loop walks forever
    walk = random_walk(g, 0, l_max=4, rng=np.random.default_rng(0))
    assert len(walk.nodes) == 4
    assert len(walk.relations) == 3


def test_walk_uniform_over_out_edges():
    # star: node 0 with 4 out-edges; 10k one-step walks, 3-sigma band
    g = make_graph([(0, 0, 1), (0, 0, 2), (0, 1, 3), (0, 1, 4)])
    rng = np.random.default_rng(123)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    n = 10_000
    for _ in range(n):
        walk = random_walk(g, 0, l_max=2, rng=rng)
        counts[walk.nodes[1]] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for node in counts:
        assert abs(counts[node] - n * 0.25) < 3 * sigma


def test_walk_parallel_edges_double_probability():
    # two parallel edges to node 1, one to node 2: expect 2:1
    g = make_graph([(0, 0, 1), (0, 0, 1), (0, 0, 2)])
    rng = np.random.default_rng(7)
    hits = sum(random_walk(g, 0, 2, rng).nodes[1] == 1 for _ in range(9000))
    sigma = math.sqrt(9000 * (2 / 3) * (1 / 3))
    assert abs(hits - 6000) < 3 * sigma


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


def _walk(nodes, rels):
    return RandomWalk(tuple(nodes), tuple(rels))


def test_walk_pairs_skip_adjacent_and_self():
    # walk a-r0-b-r1-a: pair (0, 2) is a self pair, nothing emitted
    reg = NewRelationRegistry(5, [(0, 1)])
    informative = {(0, 1): 0.8}
    out = walk_to_triplets(_walk([3, 4, 3], [0, 1]), informative, {}, reg,
                           np.random.default_rng(0))
    assert out == []
    # distinct endpoints emit
    out = walk_to_triplets(_walk([3, 4, 6], [0, 1]), informative, {}, reg,
                           np.random.default_rng(0))
    assert out == [AugmentedTriplet(3, 5, 6, 0.8)]


def test_walk_emits_every_qualifying_pair():
    # l_max = 4 walk: pairs (0,2), (0,3), (1,3); all metapaths informative
    informative = {(0, 1): 0.5, (1, 2): 0.25, (0, 1, 2): 0.125}
    reg = NewRelationRegistry.rule_less(9, informative, {})
    out = walk_to_triplets(_walk([10, 11, 12, 13], [0, 1, 2]), informative, {}, reg,
                           np.random.default_rng(0))
    assert len(out) == 3
    by_pair = {(t.head, t.tail): t for t in out}
    assert by_pair[(10, 12)].weight == 0.5
    assert by_pair[(10, 13)].weight == 0.125
    assert by_pair[(11, 13)].weight == 0.25
    # each pair carries its metapath's minted id
    assert by_pair[(10, 12)].relation == reg.id_of((0, 1)) == 9
    assert by_pair[(10, 13)].relation == reg.id_of((0, 1, 2)) == 10
    assert by_pair[(11, 13)].relation == reg.id_of((1, 2)) == 11


def test_uninformative_metapaths_emit_nothing():
    reg = NewRelationRegistry(5)
    out = walk_to_triplets(_walk([0, 1, 2], [0, 1]), {}, {}, reg, np.random.default_rng(0))
    assert out == []
    assert len(reg) == 0


def test_minting_disabled_skips_ruleless_metapaths():
    # with minting off the registry is empty: a rule-less metapath emits nothing
    reg = NewRelationRegistry(5)
    informative = {(0, 1): 0.9}
    out = walk_to_triplets(_walk([0, 1, 2], [0, 1]), informative, {}, reg,
                           np.random.default_rng(0))
    assert out == []
    assert len(reg) == 0


def test_rule_mapped_emission_uses_confidence_weight():
    informative = {(0, 1): 0.8}
    rules = {(0, 1): RuleMap((0, 1), {7: 1.0})}
    reg = NewRelationRegistry(9)
    out = walk_to_triplets(_walk([0, 1, 2], [0, 1]), informative, rules, reg,
                           np.random.default_rng(0))
    assert out == [AugmentedTriplet(0, 7, 2, 0.8 * 1.0)]
    assert len(reg) == 0  # rule hit, nothing minted


def test_rule_sampling_normalized_frequencies():
    # confidences 0.6 / 0.4 over q1, q2: normalized draw matches those rates
    informative = {(0, 1): 1.0}
    rules = {(0, 1): RuleMap((0, 1), {1: 0.6, 2: 0.4})}
    reg = NewRelationRegistry(9)
    rng = np.random.default_rng(5)
    n = 10_000
    counts = {1: 0, 2: 0}
    for _ in range(n):
        (t,) = walk_to_triplets(_walk([0, 1, 2], [0, 1]), informative, rules, reg, rng)
        counts[t.relation] += 1
        assert t.weight == pytest.approx(0.6 if t.relation == 1 else 0.4)
    sigma = math.sqrt(n * 0.6 * 0.4)
    assert abs(counts[1] - 0.6 * n) < 3 * sigma


def test_rule_sampling_raw_leaves_gap():
    # raw mode: total confidence 0.5 means half the draws emit nothing
    informative = {(0, 1): 1.0}
    rules = {(0, 1): RuleMap((0, 1), {1: 0.3, 2: 0.2})}
    reg = NewRelationRegistry(9)
    rng = np.random.default_rng(6)
    n = 10_000
    emitted = 0
    counts = {1: 0, 2: 0}
    for _ in range(n):
        out = walk_to_triplets(_walk([0, 1, 2], [0, 1]), informative, rules, reg, rng,
                               rule_sampling="raw")
        if out:
            emitted += 1
            counts[out[0].relation] += 1
    assert abs(emitted - 0.5 * n) < 3 * math.sqrt(n * 0.25)
    assert abs(counts[1] - 0.3 * n) < 3 * math.sqrt(n * 0.3 * 0.7)


def test_rule_sampling_raw_over_unit_total_normalizes():
    informative = {(0, 1): 1.0}
    rules = {(0, 1): RuleMap((0, 1), {1: 0.9, 2: 0.9})}
    reg = NewRelationRegistry(9)
    rng = np.random.default_rng(7)
    outs = [walk_to_triplets(_walk([0, 1, 2], [0, 1]), informative, rules, reg, rng,
                             rule_sampling="raw") for _ in range(2000)]
    assert all(len(o) == 1 for o in outs)


def test_unknown_rule_sampling_mode_rejected():
    with pytest.raises(ValueError):
        walk_to_triplets(_walk([0, 1, 2], [0, 1]), {(0, 1): 1.0}, {},
                         NewRelationRegistry(3), np.random.default_rng(0),
                         rule_sampling="bogus")


def test_minibatch_mixes_walks_and_originals():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 0)])
    informative = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0, (0, 1, 2): 1.0,
                   (1, 2, 0): 1.0, (2, 0, 1): 1.0}
    reg = NewRelationRegistry.rule_less(3, informative, {})
    rng = np.random.default_rng(2)
    batch = build_minibatch(g, [0, 1, 2, 3], l_max=3, informative=informative,
                            rulemaps={}, registry=reg, rng=rng)
    synthetic = [t for t in batch if t.relation >= 3]
    originals = [t for t in batch if t.relation < 3]
    assert synthetic, "expected walk triplets from a fully informative cycle"
    assert len(originals) == len(synthetic)
    assert all(t.weight == 1.0 for t in originals)
    edges = set(zip(g.heads.tolist(), g.relations.tolist(), g.tails.tolist()))
    assert all((t.head, t.relation, t.tail) in edges for t in originals)


def test_minibatch_explicit_original_sample_size():
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    reg = NewRelationRegistry(2)
    rng = np.random.default_rng(3)
    batch = build_minibatch(g, [0, 1], l_max=3, informative={}, rulemaps={},
                            registry=reg, rng=rng, original_edge_sample=7)
    assert len(batch) == 7
    assert all(t.weight == 1.0 for t in batch)


def test_minibatch_empty_informative_falls_back_to_originals():
    g = make_graph([(0, 0, 1), (1, 1, 2)])
    reg = NewRelationRegistry(2)
    batch = build_minibatch(g, [0, 1, 2], l_max=3, informative={}, rulemaps={},
                            registry=reg, rng=np.random.default_rng(0))
    assert len(batch) == 3  # one original per batch node
    assert all(t.relation < 2 for t in batch)


def test_minibatch_deterministic_for_seed():
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 2)])
    informative = {(0, 1): 0.7, (1, 0): 0.5}
    rules = {(0, 1): RuleMap((0, 1), {1: 0.8})}

    def run():
        reg = NewRelationRegistry.rule_less(2, informative, rules)
        return build_minibatch(g, [0, 1, 2], l_max=3, informative=informative,
                               rulemaps=rules, registry=reg,
                               rng=np.random.default_rng(42))

    assert run() == run()
