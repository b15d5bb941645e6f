"""The benchmark's tracer can still wrap every function it names."""

import importlib
import os
import sys

import numpy as np
import pytest

from conftest import make_graph
from walkaug import (
    DatasetSplit,
    JoinTable,
    ModelConfig,
    NewRelationRegistry,
    RuleMap,
    SegmentTable,
    SharingStrategy,
    metapath_pairs,
    rules,
    training,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def test_tracer_patches_and_restores_every_hook(spans):
    def current():
        out = []
        for path, attr, _, _ in spans.PATCHES:
            owner = spans._resolve(path)  # raises when a patched name is gone
            out.append(vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr))
        return out

    before = current()
    with spans.Tracer().patched():
        during = current()
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))


def test_tracer_counts_one_minibatch(spans):
    # a fully informative 4-cycle: every walk segment maps through a rule or a minted id
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 0)])
    informative = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0, (0, 0): 1.0}
    rulemaps = {(0, 1): RuleMap((0, 1), {2: 0.9})}
    registry = NewRelationRegistry.rule_less(g.num_relations, informative, rulemaps)
    table = SegmentTable(informative, rulemaps, registry, l_max=3)
    tracer = spans.Tracer()
    with tracer.patched():
        training.build_minibatch(g, np.arange(4), table, np.random.default_rng(0))
    count = tracer.count
    assert count["augment.walk_triplets"] > 0
    assert count["augment.rule_mapped"] + count["augment.minted"] > 0
    assert count["augment.batch_triplets"] > 0
    assert spans.layer_metrics(tracer)["augment.walks"] == 1  # one batched walk call


def test_tracer_times_the_sharing_dispatch_of_a_training_run(spans):
    # the rule-less (0, 1) is minted, and rnn sharing builds its vector
    g = make_graph([(i, i % 2, (i + 1) % 6) for i in range(6)] + [(0, 2, 2)])
    valid = make_graph([(1, 0, 2)], num_entities=6, num_relations=3)
    config = ModelConfig(scoring="transe_l2", dim=4, margin=2.0, negatives=2, epochs=1,
                         batch_nodes=6, seed=0)
    tracer = spans.Tracer()
    with tracer.patched():
        result = training.train(DatasetSplit(g, valid, valid), {(0, 1): 0.9}, {}, config,
                                SharingStrategy(kind="rnn"))
    assert result.state.registry.metapaths == ((0, 1),)
    metrics = spans.layer_metrics(tracer)
    assert metrics["sharing.relation_vector_calls"] > 0
    assert metrics["sharing.relation_backward_s"] > 0


def test_tracer_counts_one_pairs_call_per_scored_metapath(spans):
    # shared prefixes, an unscored prefix (1,) and a relation with no edges
    g = make_graph([(0, 0, 1), (1, 1, 2), (2, 2, 0), (1, 1, 0), (0, 2, 2)], num_relations=4)
    metapaths = [(0,), (0, 1), (0, 1, 2), (0, 1, 1), (1, 2), (1, 2, 0), (3, 0)]
    tracer = spans.Tracer()
    with tracer.patched():
        rules.build_rulemaps(g, metapaths)
    metrics = spans.layer_metrics(tracer)
    assert metrics["rules.pairs_calls"] == len(metapaths)
    base = JoinTable.from_graph(g)
    assert metrics["rules.pairs"] == sum(metapath_pairs(base, m).size for m in metapaths) > 0
