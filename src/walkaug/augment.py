"""Training-set augmentation from random walks.

Each minibatch grows from a set of start nodes: one uniform random walk per
node, every node pair (i, j) with j - i >= 2 inspected for an informative
metapath between them. Pairs whose metapath carries rules emit one triplet
with a rule-sampled relation, weighted z * conf; pairs on a rule-less
metapath emit a triplet under its minted relation, weighted z. A sample of
original graph edges (weight 1) balances the synthetic ones.

The minted relations are fixed before training starts: `NewRelationRegistry`
gives every rule-less informative metapath an id after the original
relations, in sorted order, and walks only look ids up. A metapath the
registry does not hold (all of them when minting is off) emits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph
from .mining import Metapath
from .rules import RuleMap

RULE_SAMPLING_MODES = ("normalized", "raw")


@dataclass(frozen=True)
class RandomWalk:
    nodes: tuple[int, ...]
    relations: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class AugmentedTriplet:
    head: int
    relation: int
    tail: int
    weight: float = 1.0


class NewRelationRegistry:
    """The fixed id <-> metapath map of the minted relations.

    `metapaths[i]` gets id `first_id + i`, where `first_id` is the count of
    the graph's original relations. Two registries are equal when they mint
    the same metapaths under the same ids.
    """

    def __init__(self, first_id: int, metapaths=()):
        self.first_id = first_id
        self.metapaths: tuple[Metapath, ...] = tuple(tuple(m) for m in metapaths)
        self._ids = {m: first_id + i for i, m in enumerate(self.metapaths)}
        if len(self._ids) != len(self.metapaths):
            raise ValueError("a metapath is minted twice")

    @classmethod
    def rule_less(cls, first_id: int, informative, rulemaps: dict[Metapath, RuleMap]):
        """Every metapath of `informative` that carries no rule, in sorted order."""
        return cls(first_id, [m for m in sorted(informative)
                              if m not in rulemaps or not rulemaps[m].entries])

    def id_of(self, metapath: Metapath) -> int | None:
        return self._ids.get(metapath)

    def metapath_of(self, rid: int) -> Metapath | None:
        """The minted metapath of `rid`; None for an original relation."""
        return self.metapaths[rid - self.first_id] if rid >= self.first_id else None

    def __len__(self) -> int:
        return len(self.metapaths)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NewRelationRegistry) and self.first_id == other.first_id
                and self.metapaths == other.metapaths)

    def items(self) -> list[tuple[int, Metapath]]:
        """(id, metapath) pairs in id order."""
        return list(enumerate(self.metapaths, start=self.first_id))


def random_walk(graph: KnowledgeGraph, start: int, l_max: int, rng) -> RandomWalk:
    """Uniform out-edge walk from `start`, at most l_max nodes, stops at sinks."""
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    nodes = [start]
    rels: list[int] = []
    while len(nodes) < l_max:
        here = nodes[-1]
        degree = graph.out_degree(here)
        if degree == 0:
            break
        slot = int(rng.integers(degree))
        rel, nxt = graph.out_edge_at(here, slot)
        rels.append(rel)
        nodes.append(nxt)
    return RandomWalk(tuple(nodes), tuple(rels))


def _sample_rule(rule: RuleMap, rng, mode: str) -> tuple[int, float] | None:
    """Draw one (relation, confidence) from a rule map, or None for no emission.

    normalized: confidences renormalized to a distribution, always emits.
    raw: confidences taken as probabilities; leftover mass emits nothing
    (renormalized only when they sum above one).
    """
    entries = rule.sorted_entries()
    total = sum(conf for _, conf in entries)
    scale = total if mode == "normalized" else max(1.0, total)
    u = rng.random() * scale
    acc = 0.0
    for rel, conf in entries:
        acc += conf
        if u < acc:
            return rel, conf
    if mode == "normalized":
        return entries[-1]  # u landed on accumulated rounding slack
    return None


def walk_to_triplets(
    walk: RandomWalk,
    informative: dict[Metapath, float],
    rulemaps: dict[Metapath, RuleMap],
    registry: NewRelationRegistry,
    rng,
    rule_sampling: str = "normalized",
) -> list[AugmentedTriplet]:
    """Triplets for every informative metapath between walk node pairs.

    `informative` maps metapath -> z score. Pairs closer than two hops and
    self-pairs emit nothing.
    """
    if rule_sampling not in RULE_SAMPLING_MODES:
        raise ValueError(f"unknown rule sampling mode {rule_sampling!r}")
    out: list[AugmentedTriplet] = []
    nodes, rels = walk.nodes, walk.relations
    for i in range(len(nodes) - 2):
        for j in range(i + 2, len(nodes)):
            if nodes[i] == nodes[j]:
                continue
            metapath = tuple(rels[i:j])
            z = informative.get(metapath)
            if z is None:
                continue
            rule = rulemaps.get(metapath)
            if rule is not None and rule.entries:
                drawn = _sample_rule(rule, rng, rule_sampling)
                if drawn is None:
                    continue
                rel, conf = drawn
                out.append(AugmentedTriplet(nodes[i], rel, nodes[j], z * conf))
            else:
                rel = registry.id_of(metapath)
                if rel is not None:
                    out.append(AugmentedTriplet(nodes[i], rel, nodes[j], z))
    return out


def build_minibatch(
    graph: KnowledgeGraph,
    node_batch,
    l_max: int,
    informative: dict[Metapath, float],
    rulemaps: dict[Metapath, RuleMap],
    registry: NewRelationRegistry,
    rng,
    rule_sampling: str = "normalized",
    original_edge_sample: int | None = None,
) -> list[AugmentedTriplet]:
    """Walk triplets for a batch of start nodes plus sampled original edges.

    `original_edge_sample` defaults to the walk triplet count, keeping a 1:1
    mix; when no walk triplets arise (an empty `informative`, say) one
    original edge per batch node is drawn instead so training still sees
    signal.
    """
    out: list[AugmentedTriplet] = []
    if informative:
        for start in node_batch:
            walk = random_walk(graph, int(start), l_max, rng)
            out.extend(walk_to_triplets(
                walk, informative, rulemaps, registry, rng, rule_sampling=rule_sampling))
    count = original_edge_sample
    if count is None:
        count = len(out) if out else len(node_batch)
    if count > 0 and graph.num_triplets > 0:
        picks = rng.integers(graph.num_triplets, size=count)
        for edge in picks:
            h, r, t = graph.triplet(int(edge))
            out.append(AugmentedTriplet(h, r, t, 1.0))
    return out
