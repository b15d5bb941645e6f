"""Metapath-to-relation rules scored by pair confidence.

A metapath m implies a relation q with confidence

    conf(m -> q) = |{(h, t) : m connects h to t and (h, q, t) is an edge}|
                   / |{(h, t) : m connects h to t}|

where both sides count distinct entity pairs. A rule map keeps, per
metapath, every relation whose confidence reaches the threshold.

Rules run on the miner's join: `build_rulemaps` builds one 1-hop
`JoinTable` (and so one hop index) per call, and every metapath walks it
with the same `follow` range join the miner extends its groups with,
deduplicating the connected pairs after each hop. Confidences come from a
pair index built once per call: the graph's distinct (pair key, relation)
arrays, sorted by key. A metapath's pairs find their `searchsorted` ranges
in it, and one `bincount` of the relations in those ranges counts every
rule's support at once (AMIE's support/confidence counting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph, read_lines
from .mining import JoinTable, Metapath, expand_ranges, metapath_name, sorted_pairs


@dataclass
class RuleMap:
    """Relations implied by one metapath, with their confidences."""

    metapath: Metapath
    entries: dict[int, float] = field(default_factory=dict)
    threshold: float = 0.5


def metapath_pairs(base: JoinTable, metapath: Metapath) -> np.ndarray:
    """Sorted unique keys head * num_entities + tail of pairs `metapath` connects.

    `base` is the 1-hop table of the graph (`JoinTable.from_graph`); its hop
    index is built on first use and reused by later calls.
    """
    if not metapath:
        raise ValueError("metapath must contain at least one relation")
    n = np.int64(base.num_entities)
    group = base.groups.get((metapath[0],))
    if group is None:
        return np.empty(0, np.int64)
    keys = np.unique(group.src * n + group.dst)
    index = base.hop_index()
    for rel in metapath[1:]:
        idx = index.get(rel)
        if idx is None:
            return np.empty(0, np.int64)
        src, dst = np.divmod(keys, n)
        rows, slots = idx.follow(dst)
        keys = np.unique(src[rows] * n + idx.dst[slots])
    return keys


def build_rulemaps(
    graph: KnowledgeGraph,
    metapaths,
    conf_threshold: float = 0.5,
) -> dict[Metapath, RuleMap]:
    """One RuleMap per metapath, keeping relations with conf >= conf_threshold.

    `metapaths` is any iterable of metapaths (a mined {metapath: info} dict
    works as-is). Metapaths that connect no pairs get an empty map.
    """
    if not 0.0 < conf_threshold <= 1.0:
        raise ValueError(f"confidence threshold must be in (0, 1], got {conf_threshold}")
    base = JoinTable.from_graph(graph)
    pair_keys, pair_relations = sorted_pairs(graph.pair_keys(), graph.relations)
    out: dict[Metapath, RuleMap] = {}
    for metapath in sorted(metapaths):
        keys = metapath_pairs(base, metapath)
        starts = np.searchsorted(pair_keys, keys)
        _, slots = expand_ranges(starts, np.searchsorted(pair_keys, keys, "right") - starts)
        support = np.bincount(pair_relations[slots])
        entries: dict[int, float] = {}
        for rel in np.flatnonzero(support):
            conf = support[rel] / keys.size
            if conf >= conf_threshold:
                entries[int(rel)] = float(conf)
        out[metapath] = RuleMap(metapath, entries, conf_threshold)
    return out


def write_rules_report(path, rulemaps: dict[Metapath, RuleMap], relation_dict=None) -> None:
    """TSV rows `metapath<TAB>relation<TAB>confidence`, sorted for stable diffs."""

    def rel_name(rel):
        return str(rel) if relation_dict is None else relation_dict.name_of(rel)

    rows = []
    for metapath, rule in rulemaps.items():
        for rel, conf in rule.entries.items():
            rows.append((metapath_name(metapath, relation_dict), -conf, rel_name(rel), conf))
    rows.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for name, _, rel, conf in rows:
            fh.write(f"{name}\t{rel}\t{conf!r}\n")


def read_rules_report(path, relation_dict=None, conf_threshold: float = 0.5) -> dict[Metapath, RuleMap]:
    """Parse a report written by `write_rules_report`."""
    out: dict[Metapath, RuleMap] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        names = parts[0].split("|")
        try:
            if relation_dict is None:
                metapath = tuple(int(x) for x in names)
                rel = int(parts[1])
            else:
                metapath = tuple(relation_dict.id_of(x) for x in names)
                rel = relation_dict.id_of(parts[1])
            conf = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not 0.0 < conf <= 1.0:
            raise DataError(f"{path}:{lineno}: confidence must be in (0, 1], got {parts[2]!r}")
        if conf < conf_threshold:
            continue
        rule = out.setdefault(metapath, RuleMap(metapath, {}, conf_threshold))
        rule.entries[rel] = conf
    return out
