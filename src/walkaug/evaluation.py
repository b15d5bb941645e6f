"""Link prediction evaluation: per-triplet ranks pooled into MR/MRR/Hits@k.

For each evaluation triplet the true head (then tail) competes against
every entity as a replacement candidate. The filtered protocol removes
candidates that form a known true triplet in any split, except the positive
itself. Ties resolve optimistically (rank = 1 + number of strictly better
candidates) or pessimistically (1 + number of candidates at least as good,
the positive excluded).

Candidates are scored by training's `models.score` on the whole entity table
E: score(E, r, E[t]) and score(E[h], r, E) add r to the (d,) side first, so
each side is one pass over E, and the positive is scored in the same array
as its rivals, so ties are exact. Relation vectors are built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph
from .mining import sorted_pairs
from .models import EmbeddingState, TripletBatch, score
from .sharing import SharingStrategy, relation_vector

PROTOCOLS = ("raw", "filtered")
TIE_POLICIES = ("optimistic", "pessimistic")

_EMPTY = np.empty(0, dtype=np.int64)


class EvalFilter:
    """Known-true candidates per (head, relation) and (relation, tail): sorted
    unique (key, candidate) arrays per side, keyed entity * num_relations +
    relation, looked up as a `searchsorted` range."""

    def __init__(self):
        self._num_relations = 1
        self._by_head = self._by_tail = (_EMPTY, _EMPTY)

    @classmethod
    def from_graphs(cls, graphs) -> "EvalFilter":
        graphs = list(graphs)
        heads, relations, tails = (np.concatenate([_EMPTY] + [getattr(g, side) for g in graphs])
                                   for side in ("heads", "relations", "tails"))
        out = cls()
        if relations.size:
            num_relations = out._num_relations = int(relations.max()) + 1
            if max(heads.max(), tails.max()) >= np.iinfo(np.int64).max // num_relations:
                raise ValueError("entity ids too large to pack with relation ids into int64")
            out._by_head = sorted_pairs(heads * num_relations + relations, tails)
            out._by_tail = sorted_pairs(tails * num_relations + relations, heads)
        return out

    def _lookup(self, side, entity: int, relation: int) -> np.ndarray:
        if not 0 <= relation < self._num_relations:
            return _EMPTY
        keys, values = side
        key = entity * self._num_relations + relation
        return values[keys.searchsorted(key):keys.searchsorted(key, "right")]

    def known_tails(self, head: int, relation: int) -> np.ndarray:
        return self._lookup(self._by_head, head, relation)

    def known_heads(self, relation: int, tail: int) -> np.ndarray:
        return self._lookup(self._by_tail, tail, relation)


@dataclass
class RankingResult:
    mr: float
    mrr: float
    hits: dict[int, float]
    protocol: str
    count: int
    head_ranks: np.ndarray | None = field(default=None, repr=False)
    tail_ranks: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        out = {"mr": self.mr, "mrr": self.mrr, "protocol": self.protocol, "count": self.count}
        for k, v in sorted(self.hits.items()):
            out[f"hits{k}"] = v
        return out

    def table(self) -> str:
        lines = [
            f"{'metric':<10}{'value':>12}",
            f"{'mr':<10}{self.mr:>12.4f}",
            f"{'mrr':<10}{self.mrr:>12.4f}",
        ]
        for k, v in sorted(self.hits.items()):
            lines.append(f"{f'hits@{k}':<10}{v:>12.4f}")
        lines.append(f"{'ranked':<10}{self.count:>12d}")
        lines.append(f"{'protocol':<10}{self.protocol:>12}")
        return "\n".join(lines)


def _rank(scores: np.ndarray, true_idx: int, known: np.ndarray, tie: str) -> int:
    pos = scores[true_idx]
    better = scores > pos if tie == "optimistic" else scores >= pos
    better[known] = False
    better[true_idx] = False
    return 1 + int(np.count_nonzero(better))


def _rank_triplets(triplets, state: EmbeddingState, strategy: SharingStrategy, scoring: str,
                   graph_filter: EvalFilter | None, protocol: str, tie: str):
    """(2, n) head- and tail-corruption ranks of the id arrays of `triplets`."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if tie not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie!r}")
    filtered = protocol == "filtered"
    if filtered and graph_filter is None:
        raise ValueError("filtered protocol needs an EvalFilter")
    distinct, relation_of = np.unique(triplets.relations, return_inverse=True)
    vectors = [relation_vector(state, strategy, rel) for rel in distinct.tolist()]
    emb = state.entity_emb
    ranks = np.empty((2, len(triplets.heads)), dtype=np.int64)
    for i, (h, rel, t, j) in enumerate(zip(triplets.heads.tolist(), triplets.relations.tolist(),
                                           triplets.tails.tolist(), relation_of.tolist())):
        known = graph_filter.known_heads(rel, t) if filtered else _EMPTY
        ranks[0, i] = _rank(score(emb, vectors[j], emb[t], scoring), h, known, tie)
        known = graph_filter.known_tails(h, rel) if filtered else _EMPTY
        ranks[1, i] = _rank(score(emb[h], vectors[j], emb, scoring), t, known, tie)
    return ranks


def rank_triplet(
    triplet,
    state: EmbeddingState,
    strategy: SharingStrategy,
    scoring: str,
    graph_filter: EvalFilter | None = None,
    protocol: str = "filtered",
    tie: str = "optimistic",
) -> tuple[int, int]:
    """(head-corruption rank, tail-corruption rank) of one triplet: the
    ranking `evaluate` runs, on a batch of one."""
    ranks = _rank_triplets(TripletBatch.pack([triplet]), state, strategy, scoring,
                           graph_filter, protocol, tie)
    return int(ranks[0, 0]), int(ranks[1, 0])


def compute_metrics(ranks, ks=(1, 3, 10), protocol: str = "filtered") -> RankingResult:
    """Aggregate a pool of ranks into MR, MRR and Hits@k."""
    arr = np.asarray(ranks, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty rank pool")
    hits = {int(k): float(np.mean(arr <= k)) for k in ks}
    return RankingResult(
        mr=float(arr.mean()),
        mrr=float((1.0 / arr).mean()),
        hits=hits,
        protocol=protocol,
        count=int(arr.size),
    )


def evaluate(
    state: EmbeddingState,
    strategy: SharingStrategy,
    scoring: str,
    graph: KnowledgeGraph,
    graph_filter: EvalFilter | None = None,
    protocol: str = "filtered",
    tie: str = "optimistic",
    ks=(1, 3, 10),
) -> RankingResult:
    """Rank every triplet of `graph` in both directions and pool the ranks."""
    ranks = _rank_triplets(graph, state, strategy, scoring, graph_filter, protocol, tie)
    result = compute_metrics(ranks.ravel(), ks, protocol)
    result.head_ranks, result.tail_ranks = ranks
    return result
