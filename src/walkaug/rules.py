"""Metapath-to-relation rules scored by pair confidence.

A metapath m implies a relation q with confidence

    conf(m -> q) = |{(h, t) : m connects h to t and (h, q, t) is an edge}|
                   / |{(h, t) : m connects h to t}|

where both sides count distinct entity pairs. A rule map keeps, per
metapath, every relation whose confidence reaches the threshold.

Rules run on the miner's join: `build_rulemaps` builds one 1-hop
`JoinTable` (and so one hop index) per call and visits the metapaths in
sorted order as a trie, as AMIE refines a rule by one atom. A stack holds
the connected pairs of each prefix of the current metapath, so every
distinct prefix is joined once (prefixes that are not inputs too), and
each metapath joins only its last hop onto its parent's pairs, with the
same `follow` range join the miner extends its groups with. Pairs are kept
as sorted unique int64 keys head * num_entities + tail, deduplicated by
one sort and a mask (`mining.sorted_unique`). Confidences come from a
pair index built once per call: the graph's distinct (pair key, relation)
arrays, sorted by key. A metapath's pairs find their `searchsorted` ranges
in it, and one `bincount` of the relations in those ranges counts every
rule's support at once (AMIE's support/confidence counting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph, check_pair_keys, read_tsv
from .mining import (JoinTable, Metapath, expand_ranges, metapath_name, sorted_pairs,
                     sorted_unique)


@dataclass
class RuleMap:
    """Relations implied by one metapath, with their confidences."""

    metapath: Metapath
    entries: dict[int, float] = field(default_factory=dict)
    threshold: float = 0.5


def _extend(base: JoinTable, keys: np.ndarray | None, rel: int) -> np.ndarray:
    """Sorted unique pair keys of a path with keys `keys` followed by `rel`.

    `keys` None stands for the empty path, so the result is `rel`'s own pairs.
    """
    n = np.int64(base.num_entities)
    if keys is None:
        group = base.groups.get((rel,))
        return np.empty(0, np.int64) if group is None else sorted_unique(group.src * n + group.dst)
    idx = base.hop_index().get(rel)
    if idx is None:
        return np.empty(0, np.int64)
    src, dst = np.divmod(keys, n)
    rows, slots = idx.follow(dst)
    return sorted_unique(src[rows] * n + idx.dst[slots])


def metapath_pairs(base: JoinTable, metapath: Metapath,
                   prefix_keys: np.ndarray | None = None) -> np.ndarray:
    """Sorted unique keys head * num_entities + tail of pairs `metapath` connects.

    `base` is the 1-hop table of the graph (`JoinTable.from_graph`); its hop
    index is built on first use and reused by later calls. A caller that
    holds the keys of `metapath[:-1]` passes them as `prefix_keys`, and only
    the last hop is joined onto them; otherwise every hop is.
    """
    if len(metapath) < (1 if prefix_keys is None else 2):
        raise ValueError(f"metapath {metapath} has no relation after its prefix")
    check_pair_keys(base.num_entities)
    keys, hops = (None, metapath) if prefix_keys is None else (prefix_keys, metapath[-1:])
    for rel in hops:
        keys = _extend(base, keys, rel)
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
    # stack[i]: the length-i prefix of the last metapath and its keys (None for the empty path)
    stack: list[tuple[Metapath, np.ndarray | None]] = [((), None)]
    for metapath in sorted(set(metapaths)):
        while metapath[:len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        for depth in range(len(stack), len(metapath)):  # prefixes that are not inputs
            stack.append((metapath[:depth], _extend(base, stack[-1][1], metapath[depth - 1])))
        keys = metapath_pairs(base, metapath, stack[-1][1])
        stack.append((metapath, keys))
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
    for lineno, (metapath_text, rel_text, conf_text) in enumerate(zip(*read_tsv(path, 3)), start=1):
        names = metapath_text.split("|")
        try:
            if relation_dict is None:
                metapath = tuple(int(x) for x in names)
                rel = int(rel_text)
            else:
                metapath = tuple(relation_dict.id_of(x) for x in names)
                rel = relation_dict.id_of(rel_text)
            conf = float(conf_text)
        except (ValueError, DataError) as exc:  # a bad number, or a name not in the dictionary
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not 0.0 < conf <= 1.0:
            raise DataError(f"{path}:{lineno}: confidence must be in (0, 1], got {conf_text!r}")
        if conf < conf_threshold:
            continue
        rule = out.setdefault(metapath, RuleMap(metapath, {}, conf_threshold))
        rule.entries[rel] = conf
    return out
