"""Metapath mining over relational self-joins.

A metapath is a tuple of relation ids. The miner grows a table of path
instances one hop at a time, scoring each metapath m by

    z_m = prod_i  (edges of type m_i covered by instances of m at hop i)
                  / (all edges of type m_i)

and deleting any group whose partial product already falls below the
threshold. The per-hop ratio can only shrink when a metapath is extended,
because every instance of the extension embeds an instance of the prefix,
so the pruning never discards a metapath that could still qualify.

When the graph is edge-sampled with probability p < 1, covered-edge counts
are corrected back to full-graph scale by solving for the root of an
occupancy residual (see `correction_residual`).

This module is the one join layer. Each level extends every group by every
relation through `_RelIndex.follow`, a range join over the relation's
out-edges sorted by source, and counts a hop's covered edges by marking
their ids in one boolean array over the mined graph's edges. The range
expansion (`expand_ranges`), the sort-based dedupe (`sorted_unique`) and
the sorted, deduplicated (key, value) arrays (`sorted_pairs`) are shared
with rule scoring and the eval filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MiningLimitError, NumericError
from .graph import KnowledgeGraph, read_tsv, sample_edges
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


def sorted_pairs(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, value) pairs sorted by key then value, duplicates dropped."""
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    new = np.ones(keys.size, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (values[1:] != values[:-1])
    return keys[new], values[new]


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
        self._index: dict[int, _RelIndex] | None = None

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

    def hop_index(self) -> dict[int, _RelIndex]:
        """Per-relation source index; only valid for a 1-hop table."""
        if self._index is None:
            index: dict[int, _RelIndex] = {}
            for key, group in self.groups.items():
                if len(key) != 1:
                    raise ValueError("hop index requires a table of single-relation groups")
                order = np.argsort(group.src, kind="stable")
                counts = np.bincount(group.src, minlength=self.num_entities)
                offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                index[key[0]] = _RelIndex(offsets, group.dst[order], group.edges[order, 0])
            self._index = dict(sorted(index.items()))
        return self._index


def _extend_group(group: PathGroup, idx: _RelIndex) -> PathGroup | None:
    """Join every instance in `group` with the indexed relation's out-edges."""
    rows, take = idx.follow(group.dst)
    if rows.size == 0:
        return None
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


def _group_association(
    graph: KnowledgeGraph, metapath: Metapath, group: PathGroup, hop: int,
    p: float, full_type_counts: np.ndarray, mark: np.ndarray,
) -> AssociationStats:
    """Coverage of hop `hop`; `mark` is an all-False scratch array with one
    entry per edge of `graph` and is left all-False again."""
    rel = metapath[hop]
    sampled_total = int(graph.relation_counts[rel])
    ids = group.edges[:, hop]
    mark[ids] = True
    covered = int(np.count_nonzero(mark))
    mark[ids] = False
    full_total = int(full_type_counts[rel])
    if p == 1.0:
        return AssociationStats(metapath, hop, sampled_total, covered,
                                float(covered), covered / full_total)
    estimate, fallback = solve_correction(
        p, len(metapath), full_total, group.size, sampled_total - covered, covered,
    )
    return AssociationStats(metapath, hop, sampled_total, covered,
                            estimate, min(estimate / full_total, 1.0), fallback)


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
    coverage counts back to full-graph scale. Groups are dropped as soon as
    their partial score falls below the threshold; the working table may
    hold at most `max_table_rows` instances per level.
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
    index = base.hop_index()
    mark = np.zeros(mined.num_triplets, dtype=bool)
    current = dict(sorted(base.groups.items()))
    result: dict[Metapath, MetapathInfo] = {}

    for length in range(2, l_max + 1):
        nxt: dict[Metapath, PathGroup] = {}
        level_rows = 0
        for m, group in current.items():
            for rel, idx in index.items():
                extended = _extend_group(group, idx)
                if extended is None:
                    continue
                candidate = m + (rel,)
                z = 1.0
                per_hop = []
                keep = True
                for hop in range(length):
                    stats = _group_association(mined, candidate, extended, hop, p, full_counts,
                                               mark)
                    z *= stats.association
                    per_hop.append(stats)
                    if z < threshold:
                        keep = False
                        break
                if not keep:
                    continue
                level_rows += extended.size
                if level_rows > max_table_rows:
                    raise MiningLimitError(
                        f"metapath table exceeds {max_table_rows} rows at length {length}"
                    )
                result[candidate] = MetapathInfo(candidate, z, tuple(per_hop), extended.size)
                nxt[candidate] = extended
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
    with open(path, "w", encoding="utf-8") as fh:
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
