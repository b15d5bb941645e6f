"""Training-set augmentation from random walks.

A minibatch walks its start nodes together, one `rng.integers(degree)` draw
per step for the walkers still moving. Each node pair (i, j >= i + 2) of a
walk is a segment, keyed by its relations r as the base-(R+1) integer with
digits r + 1 (so (0, 1) and (0, 0, 1) differ; keys too wide for int64 are a
`DataError`). A segment on an informative metapath with rules emits one
triplet under a rule-sampled relation, weighted z * conf; one on a rule-less
metapath emits under its minted relation, weighted z; self-pairs emit
nothing. The rng draws the walk steps, one uniform per rule-mapped segment in
(walk, i, j) order, then the original edges (weight 1) that balance them.

The minted relations are fixed before training starts: `NewRelationRegistry`
gives every rule-less informative metapath an id after the original
relations, in sorted order, and walks only look ids up. A metapath the
registry does not hold (all of them when minting is off) emits nothing.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph
from .mining import Metapath
from .models import RULE_SAMPLING_MODES, TripletBatch
from .rules import RuleMap


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


class SegmentTable:
    """The sorted segment keys of the metapaths a walk of l_max nodes can emit under.

    Per key: the z score, the minted id or -1, and a rule row or -1. Rule row
    q holds its relations and confidences in relation order and `rule_acc`
    their running sums (`np.cumsum`); past the last entry the row repeats it
    under a running sum of +inf. `rule_totals` are the rules' last running
    sums, so a total and its running sums come from one summation.
    """

    def __init__(self, informative, rulemaps, registry: NewRelationRegistry, l_max: int):
        self.first_id, self.l_max, self.base = registry.first_id, l_max, registry.first_id + 1
        held, rules = [], []  # held: (key, z, minted id, rule row)
        for metapath, z in informative.items():
            if not (2 <= len(metapath) < l_max and all(0 <= r < self.first_id for r in metapath)):
                continue  # no walk segment traces it
            entries = sorted(rulemaps[metapath].entries.items()) if metapath in rulemaps else []
            minted = -1 if entries else registry.id_of(metapath)
            if minted is not None:
                key = sum((r + 1) * self.base ** k for k, r in enumerate(reversed(metapath)))
                held.append((key, z, minted, len(rules) if entries else -1))
                rules += [entries] if entries else []
        if held and self.base ** (l_max - 1) > np.iinfo(np.int64).max:
            raise DataError(f"segment keys of {l_max - 1} of {self.first_id} relations "
                            "do not fit in int64; lower l_max")
        keys, z, minted, rule = zip(*sorted(held)) if held else ((),) * 4
        self.keys, self.minted, self.rule = (np.array(c, np.int64) for c in (keys, minted, rule))
        self.z = np.array(z, dtype=np.float64)
        width = 1 + max(map(len, rules), default=0)
        padded = np.array([row + row[-1:] * (width - len(row)) for row in rules])
        padded = padded.reshape(len(rules), width, 2)  # (relation, confidence) pairs
        self.rule_relations, self.rule_confs = padded[..., 0].astype(np.int64), padded[..., 1]
        self.rule_acc = np.full((len(rules), width), np.inf)
        self.rule_totals = np.empty(len(rules))
        for q, row in enumerate(rules):
            self.rule_acc[q, :len(row)] = np.cumsum([conf for _, conf in row])
            self.rule_totals[q] = self.rule_acc[q, len(row) - 1]

    def __len__(self) -> int:
        return int(self.keys.size)

    def digest(self) -> str:
        """SHA-256 of what walks can emit under this table: the segment keys,
        z scores, minted ids, rule relations and confidences, with shapes."""
        sha = hashlib.sha256()
        for arr in (self.keys, self.z, self.minted, self.rule_relations, self.rule_confs):
            sha.update(repr(arr.shape).encode())
            sha.update(np.ascontiguousarray(arr).tobytes())
        return sha.hexdigest()


def random_walk(graph: KnowledgeGraph, starts, l_max: int, rng):
    """Uniform out-edge walks of at most l_max nodes from each node of `starts`:
    (nodes (B, l_max), relations (B, l_max - 1), lengths (B,)), padded with -1."""
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    here = np.asarray(starts, dtype=np.int64)
    nodes = np.full((here.size, l_max), -1, dtype=np.int64)
    relations = np.full((here.size, l_max - 1), -1, dtype=np.int64)
    lengths = np.ones(here.size, dtype=np.int64)
    nodes[:, 0] = here
    walkers = np.arange(here.size)
    for step in range(1, l_max):
        lo = graph.offsets[here]
        degree = graph.offsets[here + 1] - lo
        moving = degree > 0  # the others stopped at a sink
        walkers, lo, degree = walkers[moving], lo[moving], degree[moving]
        slot = lo + rng.integers(degree)
        relations[walkers, step - 1] = graph.adj_relations[slot]
        here = nodes[walkers, step] = graph.adj_tails[slot]
        lengths[walkers] = step + 1
    return nodes, relations, lengths


def walk_to_triplets(nodes, relations, lengths, table: SegmentTable, rng,
                     rule_sampling: str = "normalized") -> TripletBatch:
    """Triplets for every segment of `random_walk`'s walks that `table` holds.

    A rule-mapped segment draws u = rng.random() times its rule's total
    (`normalized`) or max(1, total) (`raw`) and takes the first relation whose
    running sum exceeds u; past the last one, `normalized` takes the last
    relation (u fell on rounding slack) and `raw` emits nothing.
    """
    if rule_sampling not in RULE_SAMPLING_MODES:
        raise ValueError(f"unknown rule sampling mode {rule_sampling!r}")
    width = nodes.shape[1]
    if width > table.l_max:
        raise ValueError(f"walks of {width} nodes exceed the table's l_max {table.l_max}")
    if not len(table):
        return TripletBatch.pack([])
    prefix = np.zeros(nodes.shape, dtype=np.int64)  # prefix[:, k]: key of relations[:, :k]
    for k in range(1, width):
        prefix[:, k] = prefix[:, k - 1] * table.base + relations[:, k - 1] + 1
    starts, ends = np.triu_indices(width, 2)  # every (i, j >= i + 2), in (i, j) order
    heads, tails = nodes[:, starts], nodes[:, ends]
    keep = (ends < lengths[:, None]) & (heads != tails)
    keys = (prefix[:, ends] - prefix[:, starts] * table.base ** (ends - starts))[keep]
    pos = np.minimum(np.searchsorted(table.keys, keys), len(table) - 1)
    hit = table.keys[pos] == keys
    heads, tails, pos = heads[keep][hit], tails[keep][hit], pos[hit]

    relation, weight, emit = table.minted[pos], table.z[pos], np.ones(pos.size, dtype=bool)
    mapped = np.flatnonzero(table.rule[pos] >= 0)
    q = table.rule[pos[mapped]]
    total = table.rule_totals[q]
    scale = total if rule_sampling == "normalized" else np.maximum(1.0, total)
    u = rng.random(mapped.size) * scale
    slot = np.argmax(u[:, None] < table.rule_acc[q], axis=1)
    if rule_sampling == "raw":
        emit[mapped] = np.isfinite(table.rule_acc[q, slot])
    relation[mapped] = table.rule_relations[q, slot]
    weight[mapped] *= table.rule_confs[q, slot]
    return TripletBatch(heads[emit], relation[emit], tails[emit], weight[emit])


def build_minibatch(graph: KnowledgeGraph, node_batch, table: SegmentTable, rng,
                    rule_sampling: str = "normalized",
                    original_edge_sample: int | None = None) -> TripletBatch:
    """Walk triplets for a batch of start nodes plus sampled original edges.

    Nodes are walked only when `table` holds a metapath. `original_edge_sample`
    defaults to the walk triplet count, keeping a 1:1 mix; when no walk
    triplets arise one original edge per batch node is drawn instead, so
    training still sees signal.
    """
    walked = TripletBatch.pack([])
    if len(table):
        walked = walk_to_triplets(*random_walk(graph, node_batch, table.l_max, rng), table, rng,
                                  rule_sampling)
    count = original_edge_sample
    if count is None:
        count = len(walked) or len(node_batch)
    edges = []
    if count > 0 and graph.num_triplets:
        edges = rng.integers(graph.num_triplets, size=count)
    return TripletBatch(np.concatenate((walked.heads, graph.heads[edges])),
                        np.concatenate((walked.relations, graph.relations[edges])),
                        np.concatenate((walked.tails, graph.tails[edges])),
                        np.concatenate((walked.weights, np.ones(len(edges)))))
