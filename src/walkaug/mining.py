"""Metapath mining over relational self-joins.

A metapath is a tuple of relation ids. The miner grows metapaths one hop at
a time, scoring each metapath m by

    z_m = prod_i  (edges of type m_i covered by instances of m at hop i)
                  / (all edges of type m_i)

and dropping any candidate whose partial product already falls below the
threshold. The per-hop ratio can only shrink when a metapath is extended,
because every instance of the extension embeds an instance of the prefix,
so the pruning never discards a metapath that could still qualify.

When the graph is edge-sampled with probability p < 1, covered-edge counts
are corrected back to full-graph scale by solving for the root of an
occupancy residual (see `correction_residual`).

This module is the one join layer. A candidate, a kept group of path
instances extended by one relation, is scored before it is built: the
relation's out-degree at the node each parent row ends on gives the
candidate's instance count and says which parent rows continue. A group's
candidates are only the relations that continue it, read in ascending
order from the mined graph's CSR (`offsets`, `adj_relations`) over the
distinct nodes its rows end on, so a level loops over the candidates that
have instances rather than over every relation for every group. A hop
before the last covers the distinct edges of the continuing rows, counted
by marking their ids in one boolean array over the mined graph's edges;
the last hop covers every out-edge of each distinct continuing node. Only
a kept candidate that a later level extends gets its instance table,
joined through `_RelIndex.follow`, a range join over the relation's
out-edges sorted by source (`JoinTable.hop_index`, which sorts a relation
the first time it is a candidate). The range expansion (`expand_ranges`)
and the sort-based dedupe (`sorted_unique`) are shared with rule scoring, and
`KeyIndex` is the one key-to-values lookup: the eval filter and the rule
pair index each find the values of many keys in it with one `searchsorted`,
and only the keys that hit have their value ranges expanded. A presence
table of one byte per slot, indexed by the key's low bits, drops most
absent keys before the search. It is built by
one sort of packed int64 keys key * span + value (span the largest value
+ 1); a pair whose packed key would pass the int64 maximum is refused
before anything is multiplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MiningLimitError, NumericError
from .graph import KnowledgeGraph, atomic_write, read_tsv, sample_edges
from .rootfind import brent

Metapath = tuple[int, ...]

DEFAULT_MAX_TABLE_ROWS = 200_000_000


@dataclass(frozen=True)
class PathGroup:
    """All instances of one metapath: parallel (src, dst) plus per-hop edge ids."""

    src: np.ndarray    # (n,)
    dst: np.ndarray    # (n,)
    edges: np.ndarray  # (n, length)

    @property
    def size(self) -> int:
        return int(self.src.size)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the ranges [starts[i], starts[i] + counts[i]).

    Returns parallel (rows, slots): rows index the ranges (ascending) and
    slots are the positions, in order within each range.
    """
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    first = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    slots = starts[rows] + (np.arange(rows.size, dtype=np.int64) - first[rows])
    return rows, slots


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` by one sort and a mask (numpy >= 2.3 hashes first, then sorts)."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


class KeyIndex:
    """The sorted unique values of each key of parallel (key, value) arrays:
    the distinct keys sorted, per-key offsets, and the values sorted by key
    then value with duplicate pairs dropped.

    Keys and values are non-negative int64. The build packs each pair into
    one int64 key * span + value, span the largest value + 1, sorts those
    once, drops repeats with a mask and splits them back with one `divmod`.
    A pair whose packed key would pass the int64 maximum is a ValueError,
    raised before anything is multiplied; the eval filter and rule scoring
    report it as a DataError naming their entity and relation counts.

    A presence table of one byte per slot marks the slot key & (slots - 1)
    of every distinct key; slots is the smallest power of two with at least
    8 slots per key, and at least 64. A lookup searches only the query keys
    whose slot is marked, so most absent keys (nearly all of rule scoring's
    pair keys) cost one masked read; a key that shares a slot with a present
    one is still told apart by the search.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys, values = np.asarray(keys, np.int64), np.asarray(values, np.int64)
        span, top = int(values.max()) + 1 if values.size else 1, np.iinfo(np.int64).max
        if keys.size and (min(keys.min(), values.min()) < 0 or span > top
                          or keys.max() > (top - (span - 1)) // span):
            raise ValueError(f"(key, value) pairs up to ({keys.max()}, {span - 1}) do not pack "
                             "into int64 keys; keys and values must be non-negative")
        packed = np.sort(keys * span + values)
        new = np.ones(packed.size, dtype=bool)
        new[1:] = packed[1:] != packed[:-1]
        keys, self.values = np.divmod(packed[new], span)
        new = np.ones(keys.size, dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        self.keys, self.offsets = keys[new], np.append(np.flatnonzero(new), keys.size)
        self._mask = max(64, 1 << (8 * self.keys.size - 1).bit_length()) - 1
        self._present = np.zeros(self._mask + 1, dtype=bool)
        self._present[self.keys & self._mask] = True

    def lookup(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values): the values of each key in `query`, found by one
        `searchsorted` over the keys whose presence slot is marked; rows
        index `query` (ascending), absent keys have none. Only the keys that
        hit have their offset ranges expanded."""
        if not self.keys.size:
            return np.empty(0, dtype=np.int64), self.values
        maybe = np.flatnonzero(self._present[query & self._mask])
        query = query[maybe]
        pos = np.minimum(self.keys.searchsorted(query), self.keys.size - 1)
        hit = np.flatnonzero(self.keys[pos] == query)
        pos = pos[hit]
        starts = self.offsets[pos]
        rows, slots = expand_ranges(starts, self.offsets[pos + 1] - starts)
        return maybe[hit[rows]], self.values[slots]


@dataclass(frozen=True)
class _RelIndex:
    """Edges of one relation sorted by source node, for range joins."""

    offsets: np.ndarray  # (num_entities + 1,)
    dst: np.ndarray      # (count,)
    edge: np.ndarray     # (count,)

    def follow(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Range join of `nodes` with this relation's out-edges.

        Returns parallel (rows, slots): one entry per (node, out-edge) match,
        where rows index `nodes` (ascending) and slots index `dst` / `edge`.
        """
        starts = self.offsets[nodes]
        counts = self.offsets[nodes + 1] - starts
        if not counts.any():  # the common case on typed graphs; skip the index arithmetic
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return expand_ranges(starts, counts)


class JoinTable:
    """Path instances grouped by metapath."""

    def __init__(self, groups: dict[Metapath, PathGroup], num_entities: int):
        self.groups = groups
        self.num_entities = num_entities
        self._index: dict[int, _RelIndex | None] = {}

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph) -> "JoinTable":
        """One group per relation that has at least one edge."""
        order = np.argsort(graph.relations, kind="stable")
        rels = graph.relations[order]
        groups: dict[Metapath, PathGroup] = {}
        bounds = np.searchsorted(rels, np.arange(graph.num_relations + 1))
        for rel in range(graph.num_relations):
            lo, hi = bounds[rel], bounds[rel + 1]
            if lo == hi:
                continue
            ids = order[lo:hi]
            groups[(rel,)] = PathGroup(graph.heads[ids], graph.tails[ids], ids[:, None])
        return cls(groups, graph.num_entities)

    def hop_index(self, rel: int) -> _RelIndex | None:
        """The source index of relation `rel`, None when it has no edges; only
        valid for a 1-hop table. Each relation's index is built the first time
        it is asked for and cached, so a caller that joins a few relations
        never sorts the others."""
        if rel in self._index:
            return self._index[rel]
        if not self._index and any(len(key) != 1 for key in self.groups):  # on the first miss
            raise ValueError("hop index requires a table of single-relation groups")
        group = self.groups.get((rel,))
        idx = None
        if group is not None:
            order = np.argsort(group.src, kind="stable")
            counts = np.bincount(group.src, minlength=self.num_entities)
            offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            idx = _RelIndex(offsets, group.dst[order], group.edges[order, 0])
        self._index[rel] = idx
        return idx


def _extend_group(group: PathGroup, idx: _RelIndex) -> PathGroup:
    """Join every instance in `group` with the indexed relation's out-edges."""
    rows, take = idx.follow(group.dst)
    edges = np.concatenate((group.edges[rows], idx.edge[take][:, None]), axis=1)
    return PathGroup(group.src[rows], idx.dst[take], edges)


@dataclass(frozen=True)
class AssociationStats:
    """Per-hop coverage of one metapath."""

    metapath: Metapath
    hop: int
    edges_total: int          # edges of this hop's relation in the mined graph
    edges_covered: int        # of those, distinct edges used at this hop
    corrected_covered: float  # estimate at full-graph scale (== covered when p=1)
    association: float
    fallback: bool = False


@dataclass(frozen=True)
class MetapathInfo:
    metapath: Metapath
    z: float
    per_hop: tuple[AssociationStats, ...]
    instance_count: int


def correction_residual(
    x: float, p: float, length: int, type_count: int,
    instances_sampled: int, zero_observed: int,
) -> float:
    """Residual of the sampled-coverage balance at candidate coverage x.

    x plays the number of hop edges that would be covered on the full graph.
    Each of those survives sampling of its own hop with probability p but
    shows zero instances when all its continuations are lost, which happens
    with probability (1 - p^(length-1)) per continuation; the instance mass
    spreads as instances_sampled / (p^length * x) continuations per edge.
    The residual compares the implied number of observed zero-instance edges
    of this type against the actual count.
    """
    expected_zero = float(type_count) - x
    if x > 0.0:
        a = 1.0 - p ** (length - 1)
        if a <= 0.0:
            a = 0.0
        c = instances_sampled / (p ** length * x)
        expected_zero += x * a ** c  # 0^0 == 1 covers the p=1, no-instances case
    return p * expected_zero - zero_observed


def solve_correction(
    p: float, length: int, type_count: int,
    instances_sampled: int, zero_observed: int, covered_observed: int,
) -> tuple[float, bool]:
    """Estimate full-graph covered-edge count from sampled observations.

    Returns (estimate, fallback). With p=1 the balance is exact and the
    estimate is type_count - zero_observed. Otherwise the residual is
    bracketed on [max(covered_observed, 1), type_count] and solved with
    Brent's method; when no sign change exists the naive rescale
    covered_observed / p (clipped to type_count) is returned with
    fallback=True.
    """
    if p == 1.0:
        return float(type_count - zero_observed), False
    if covered_observed >= type_count:
        return float(type_count), False
    lo = float(max(covered_observed, 1))
    hi = float(type_count)
    if lo >= hi:
        return hi, False

    def f(x):
        return correction_residual(x, p, length, type_count, instances_sampled, zero_observed)

    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NumericError(
            f"correction residual is not finite on [{lo}, {hi}] "
            f"(p={p}, length={length}, type_count={type_count})"
        )
    if flo == 0.0:
        return lo, False
    if fhi == 0.0:
        return hi, False
    if (flo > 0) == (fhi > 0):
        return min(covered_observed / p, hi), True
    return brent(f, lo, hi, fa=flo, fb=fhi, ftol=1e-9, max_iter=200), False


def _hop_association(
    graph: KnowledgeGraph, metapath: Metapath, hop: int, covered: int, instances: int,
    p: float, full_type_counts: np.ndarray,
) -> AssociationStats:
    """Coverage of hop `hop`, from its count of distinct covered edges and
    the metapath's instance count."""
    rel = metapath[hop]
    sampled_total = int(graph.relation_counts[rel])
    full_total = int(full_type_counts[rel])
    if p == 1.0:
        return AssociationStats(metapath, hop, sampled_total, covered,
                                float(covered), covered / full_total)
    estimate, fallback = solve_correction(
        p, len(metapath), full_total, instances, sampled_total - covered, covered,
    )
    return AssociationStats(metapath, hop, sampled_total, covered,
                            estimate, min(estimate / full_total, 1.0), fallback)


def _covered_edges(ids: np.ndarray, mark: np.ndarray) -> int:
    """Distinct ids in `ids`; `mark` is an all-False scratch array with one
    entry per edge of the mined graph and is left all-False again."""
    mark[ids] = True
    covered = int(np.count_nonzero(mark))
    mark[ids] = False
    return covered


def mine_informative_metapaths(
    graph: KnowledgeGraph,
    l_max: int = 3,
    threshold: float = 0.2,
    p: float = 1.0,
    seed: int = 0,
    max_table_rows: int = DEFAULT_MAX_TABLE_ROWS,
) -> dict[Metapath, MetapathInfo]:
    """All metapaths of length 2..l_max whose score z_m reaches `threshold`.

    Edge sampling (p < 1) mines on a Bernoulli subgraph and corrects the
    coverage counts back to full-graph scale. Each candidate (a kept group
    extended by one relation) is scored from its parent's rows and the
    relation's out-degrees, hop by hop, and dropped as soon as its partial
    score falls below the threshold. Instance tables are built only for
    kept candidates shorter than `l_max`, the ones the next level extends.
    The instances of every kept candidate still count against
    `max_table_rows` per level, and the limit raises before the table that
    would exceed it is built.
    """
    if l_max < 2:
        raise ValueError(f"l_max must be at least 2, got {l_max}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must be in (0, 1], got {p}")

    mined = sample_edges(graph, p, seed)
    full_counts = graph.relation_counts
    base = JoinTable.from_graph(mined)
    mark = np.zeros(mined.num_triplets, dtype=bool)
    rank = np.empty(mined.num_entities, dtype=np.int64)
    current = dict(sorted(base.groups.items()))
    result: dict[Metapath, MetapathInfo] = {}

    for length in range(2, l_max + 1):
        nxt: dict[Metapath, PathGroup] = {}
        level_rows = 0
        for m, group in current.items():
            # candidates are scored on the distinct nodes the parent's rows end
            # on: `repeats` counts the rows ending on each, `inverse` maps each
            # row to its node
            repeats = np.bincount(group.dst, minlength=mined.num_entities)
            nodes = np.flatnonzero(repeats)
            rank[nodes] = np.arange(nodes.size)
            repeats, inverse = repeats[nodes], rank[group.dst]
            # the candidates: the relations of the nodes' out-edges in the mined graph
            starts = mined.offsets[nodes]
            _, slots = expand_ranges(starts, mined.offsets[nodes + 1] - starts)
            for rel in sorted_unique(mined.adj_relations[slots]).tolist():
                idx = base.hop_index(rel)
                counts = idx.offsets[nodes + 1] - idx.offsets[nodes]  # out-degree of each node
                instances = int(counts @ repeats)
                candidate = m + (rel,)
                rows = np.flatnonzero(counts[inverse])  # the parent's rows that continue
                z = 1.0
                per_hop = []
                for hop in range(length):
                    if hop < length - 1:
                        covered = _covered_edges(group.edges[rows, hop], mark)
                    else:  # every out-edge of a distinct continuing node ends an instance
                        covered = int(counts.sum())
                    stats = _hop_association(mined, candidate, hop, covered, instances, p,
                                             full_counts)
                    z *= stats.association
                    per_hop.append(stats)
                    if z < threshold:
                        break
                if z < threshold:
                    continue
                level_rows += instances
                if level_rows > max_table_rows:
                    raise MiningLimitError(
                        f"metapath table exceeds {max_table_rows} rows at length {length} "
                        f"({level_rows} rows)"
                    )
                result[candidate] = MetapathInfo(candidate, z, tuple(per_hop), instances)
                if length < l_max:
                    nxt[candidate] = _extend_group(group, idx)
        current = nxt
        if not current:
            break
    return result


def metapath_name(metapath: Metapath, relation_dict=None) -> str:
    if relation_dict is None:
        return "|".join(str(r) for r in metapath)
    return "|".join(relation_dict.name_of(r) for r in metapath)


def write_metapath_report(path, infos: dict[Metapath, MetapathInfo], relation_dict=None) -> None:
    """TSV rows `metapath<TAB>z<TAB>instance_count`, z descending then by name."""
    rows = [
        (metapath_name(info.metapath, relation_dict), info.z, info.instance_count)
        for info in infos.values()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    with atomic_write(path) as fh:
        for name, z, count in rows:
            fh.write(f"{name}\t{z!r}\t{count}\n")


def read_metapath_report(path, relation_dict=None) -> dict[Metapath, float]:
    """Parse a report written by `write_metapath_report` into {metapath: z}."""
    out: dict[Metapath, float] = {}
    for lineno, (metapath_text, score, _) in enumerate(zip(*read_tsv(path, 3)), start=1):
        names = metapath_text.split("|")
        if len(names) < 2:
            raise DataError(f"{path}:{lineno}: metapath {metapath_text!r} has fewer than 2 relations")
        try:
            if relation_dict is None:
                metapath = tuple(int(n) for n in names)
            else:
                metapath = tuple(relation_dict.id_of(n) for n in names)
            z = float(score)
        except (ValueError, DataError) as exc:  # a bad number, or a name not in the dictionary
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not 0.0 < z <= 1.0:
            raise DataError(f"{path}:{lineno}: score must be in (0, 1], got {score!r}")
        out[metapath] = z
    return out
