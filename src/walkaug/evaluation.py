"""Link prediction evaluation: per-triplet ranks pooled into MR/MRR/Hits@k.

For each evaluation triplet the true head (then tail) competes against
every entity as a replacement candidate. The filtered protocol removes
candidates that form a known true triplet in any split, except the positive
itself. Ties resolve optimistically (rank = 1 + number of strictly better
candidates) or pessimistically (1 + number of candidates at least as good,
the positive excluded).

The ranks are those of training's `models.score` on the whole entity table
E, bit for bit: score(E, r, E[t]) and score(E[h], r, E) compare each
candidate's table value with the positive's. Both are the scorer's own
table form, `models.side_scores(E, x)` against the side vector
x = `models.side_vector(...)`: t - r or h + r under TransE, t * r or h * r
under DistMult. Ranks are computed for a block of b = RANK_BLOCK_VALUES // n
triplet sides at once. One matmul screens every candidate of the block:
|e|^2 - 2 e.x + |x|^2 under TransE-L2, e.x under DistMult. A candidate
whose screen value lies outside a derived rounding band around the
positive's (`_band`) is counted as better or worse directly; the few inside
it are rescored with `side_scores` and compared under the tie policy, so
the ranks stay exact. TransE-L1 has no matmul form: its screen is
`side_scores` itself, and only exact ties are rescored. Relation vectors
are built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph
from .mining import KeyIndex
from .models import SCORINGS, EmbeddingState, TripletBatch, _rowdot, side_scores, side_vector
from .sharing import SharingStrategy, relation_vector

PROTOCOLS = ("raw", "filtered")
TIE_POLICIES = ("optimistic", "pessimistic")

_EMPTY = np.empty(0, dtype=np.int64)


class EvalFilter:
    """Known-true candidates per (head, relation) and (relation, tail): one
    `KeyIndex` per side, keyed entity * num_relations + relation."""

    def __init__(self):
        self._num_relations = 1
        self._by_head = self._by_tail = KeyIndex(_EMPTY, _EMPTY)

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
            out._by_head = KeyIndex(heads * num_relations + relations, tails)
            out._by_tail = KeyIndex(tails * num_relations + relations, heads)
        return out

    def _lookup(self, side: KeyIndex, entities: np.ndarray, relations: np.ndarray):
        """(rows, candidates): the known candidates of each (entity, relation)
        pair, rows indexing the pairs; relations outside the filter have none."""
        outside = (relations < 0) | (relations >= self._num_relations)
        return side.lookup(np.where(outside, -1, entities * self._num_relations + relations))

    def known_tails_block(self, heads: np.ndarray, relations: np.ndarray):
        return self._lookup(self._by_head, heads, relations)

    def known_heads_block(self, relations: np.ndarray, tails: np.ndarray):
        return self._lookup(self._by_tail, tails, relations)

    def known_tails(self, head: int, relation: int) -> np.ndarray:
        return self.known_tails_block(np.array([head]), np.array([relation]))[1]

    def known_heads(self, relation: int, tail: int) -> np.ndarray:
        return self.known_heads_block(np.array([relation]), np.array([tail]))[1]


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


# Values in the screen buffer (1 MB of float64): a table of n entities
# ranks triplet sides in blocks of b = RANK_BLOCK_VALUES // n, screened into
# one (b, n) buffer, and rescores band candidates in chunks of
# RANK_BLOCK_VALUES // d pairs.
RANK_BLOCK_VALUES = 1 << 17


def _band(scoring: str, d: int, max_sq_norm, side_sq_norms: np.ndarray) -> np.ndarray:
    """Width W of each triplet side's screen band: inf where the screen is not trusted.

    A candidate whose screen value diff lies below -W surely beats the
    positive, one above W surely does not, under either tie policy; the
    rest are rescored. The derivation follows Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3.

    1. Model. u is the unit roundoff (2^-53 in float64), g(k) = k u / (1 - k u)
       and eta the smallest subnormal. A rounded product or sum is
       (a op b)(1 + delta) with |delta| <= u, and a product that underflows
       is off by at most eta more. g(j) + g(k) + g(j) g(k) <= g(j + k).
    2. Inner products. fl(a . b) of length d, summed in any order, with or
       without FMA, is within g(d) |a|.|b| + 2d eta of a . b: each term
       passes through at most d roundings. So the bound holds for whatever
       order BLAS picks, at any thread count or numpy version.
    3. One side. x is its side vector (the same floats in the screen and
       the table), X = |x|, N is the largest row norm of the table, so every
       candidate row e has |e| <= N, and M = (N + X)^2 under transe_l2,
       N X under distmult.

    transe_l2:

    4. Table. a = fl(sum fl(e_i - x_i)^2) adds two roundings per term to an
       inner product, so |a - A| <= g(d + 2) A + 2d eta with A = |e - x|^2
       <= M. The positive's a_p obeys the same, so a_p <= (1 + g(d + 2)) M
       + 2d eta.
    5. Screen. n = fl(|e|^2), G = fl(e . (-2x)) (the matmul; -2x is exact),
       q = fl(|x|^2), c = fl(q - a_p), diff = fl(fl(G + n) + c). By step 2
       n, G and q together are within g(d) M + 6d eta of |e|^2 - 2 e.x +
       |x|^2 = A; the two other roundings add u |G + n| + u |q - a_p| <=
       2u (1 + g(d + 2)) M + d eta. So s = fl(G + n) + c is within
       g(d + 4) M + 7d eta of A - a_p, and diff = s (1 + delta) has the sign
       of s with |s| <= (1 + u) |diff|.
    6. Together. diff < -W gives a - a_p < -W / (1 + u) + g(2d + 6) M +
       9d eta; diff > W gives a - a_p > W / (1 + u) - g(2d + 6) M - 9d eta.
    7. Square root. The score is -fl(sqrt(a)) and fl(sqrt(a)) =
       sqrt(a)(1 + delta), so two squared distances apart by less than a
       few ulps can tie after the root. a < (1 - 4u) a_p gives
       fl(sqrt(a)) <= sqrt(a)(1 + u) < sqrt(a_p)(1 - u) <= fl(sqrt(a_p)): a
       strictly higher score, which beats the positive under both tie
       policies. a > (1 + 8u) a_p >= ((1 + u) / (1 - u))^2 a_p gives a
       strictly lower one, which beats it under neither.
    8. Width. With 8u a_p <= g(8)(1 + g(2d + 6)) M from step 4, steps 6
       and 7 hold once W / (1 + u) >= R = g(2d + 14) M + 10d eta.

    distmult:

    9. The matmul G = fl(e . x) and the table score s = fl(sum e_i x_i) are
       two summation orders of one inner product (x = t * r or h * r), so
       |G - s| <= 2 g(d) N X + 4d eta <= g(2d) M + 4d eta by step 2. The
       screen is diff = fl(s_p - G): diff < -W gives G - s_p > W / (1 + u)
       and so s > s_p, diff > W gives s < s_p, once
       W / (1 + u) >= R = g(2d) M + 4d eta. No root intervenes.

    Evaluation:

    10. M is evaluated from computed norms: M' = (sqrt(n_max) + sqrt(q))^2
        under transe_l2 and sqrt(n_max) sqrt(q) under distmult, with n_max
        the largest computed |e|^2. By step 2 and 2 sqrt(ab) <= u a + b / u,
        M <= (1 + g(d + 8)) M' + 32d eta / u.
    11. W = 2 (g(k) M' + d tau) with k = 2d + 14 or 2d and tau = 2^22 tiny
        (2^-1000 in float64) >= 32 eta / u + 10 eta. Its evaluation rounds
        at most eight times, so while (2d + 24) u <= 1/2 the factor 2 covers
        step 10, those roundings and the division by 1 + u: W / (1 + u) >= R.
    12. A side whose M' is not finite or reaches max / 16 (so that no
        screen value can overflow) gets W = inf, and a NaN positive value
        makes its diff NaN. Either fails every comparison, so each
        candidate of that side falls in the band and is rescored exactly.
    """
    info = np.finfo(side_sq_norms.dtype)
    u = info.eps / 2
    if scoring == "transe_l2":
        k = 2 * d + 14
        magnitude = (np.sqrt(max_sq_norm) + np.sqrt(side_sq_norms)) ** 2
    else:
        k = 2 * d
        magnitude = np.sqrt(max_sq_norm) * np.sqrt(side_sq_norms)
    width = 2 * (k * u / (1 - k * u) * magnitude + d * info.tiny * 2.0 ** 22)
    width[~(magnitude < info.max / 16)] = np.inf
    return width


def _rank_block(emb: np.ndarray, sq_norms: np.ndarray | None, x: np.ndarray,
                positives: np.ndarray, known: tuple[np.ndarray, np.ndarray], scoring: str,
                tie: str, buf: np.ndarray) -> np.ndarray:
    """Ranks of a block of b triplet sides. Side j's positive is entity
    `positives[j]` and its side vector is `x[j]`; `known` holds parallel
    (side, entity) arrays of candidates that do not compete.

    One matmul screens the n candidates of every side into a (b, n) view of
    `buf`, as the positive's value minus the candidate's, oriented so that a
    negative difference favours the candidate. Outside the band of `_band`
    the sign decides: the surely better are counted, less the known ones.
    Band candidates other than the positive and the known ones are rescored
    with `models.side_scores` in chunks of RANK_BLOCK_VALUES // d and
    compared with the positive under `tie`.
    """
    (n, d), b = emb.shape, x.shape[0]
    known_sides, known_cands = known
    pos_scores = side_scores(emb[positives], x, scoring)
    screen = buf[:b * n].reshape(b, n)
    if scoring == "transe_l2":
        # |e|^2 - 2 e.x + (|x|^2 - a_p): the candidate's squared distance less the
        # positive's a_p, the sum side_scores takes the root of
        side_sq_norms, pos_delta = _rowdot(x, x), emb[positives] - x
        np.matmul(-2.0 * x, emb.T, out=screen)
        screen += sq_norms
        screen += (side_sq_norms - _rowdot(pos_delta, pos_delta))[:, None]
        width = _band(scoring, d, sq_norms.max(), side_sq_norms)
    elif scoring == "distmult":
        # s_p - e.y: the positive's score less the candidate's
        np.matmul(x, emb.T, out=screen)
        np.subtract(pos_scores[:, None], screen, out=screen)
        width = _band(scoring, d, sq_norms.max(), _rowdot(x, x))
    else:
        # no matmul form: the screen is s_p - s itself, exact, and a zero
        # band holds the ties (fl(s_p - s) = 0 exactly when s = s_p) and NaN
        chunk = max(1, RANK_BLOCK_VALUES // (b * d))
        for lo in range(0, n, chunk):
            scores = side_scores(emb[None, lo:lo + chunk], x[:, None], scoring)
            np.subtract(pos_scores[:, None], scores, out=screen[:, lo:lo + chunk])
        width = np.zeros(b)
    width = width[:, None]
    mask = screen < -width  # surely better
    better = np.count_nonzero(mask, axis=1)
    if known_cands.size:
        better -= np.bincount(known_sides[mask[known_sides, known_cands]], minlength=b)
    np.abs(screen, out=screen)
    np.greater(screen, width, out=mask)
    np.logical_not(mask, out=mask)  # inside the band, NaN included
    sides, cands = np.divmod(np.flatnonzero(mask), n)
    keep = cands != positives[sides]
    if known_cands.size:
        keep &= ~np.isin(sides * n + cands, known_sides * n + known_cands)
    sides, cands = sides[keep], cands[keep]
    step = max(1, RANK_BLOCK_VALUES // d)
    for lo in range(0, sides.size, step):
        side, cand = sides[lo:lo + step], cands[lo:lo + step]
        scores, pos = side_scores(emb[cand], x[side], scoring), pos_scores[side]
        beats = scores > pos if tie == "optimistic" else scores >= pos
        better += np.bincount(side[beats], minlength=b)
    return better + 1


def _rank_triplets(triplets, state: EmbeddingState, strategy: SharingStrategy, scoring: str,
                   graph_filter: EvalFilter | None, protocol: str, tie: str):
    """(2, m) head- and tail-corruption ranks of the id arrays of `triplets`,
    in blocks of b = RANK_BLOCK_VALUES // n sides per side."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if tie not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie!r}")
    if scoring not in SCORINGS:
        raise ValueError(f"unknown scoring {scoring!r}")
    filtered = protocol == "filtered"
    if filtered and graph_filter is None:
        raise ValueError("filtered protocol needs an EvalFilter")
    distinct, relation_of = np.unique(triplets.relations, return_inverse=True)
    vectors = relation_vector(state, strategy, distinct)
    heads, relations, tails = triplets.heads, triplets.relations, triplets.tails
    ranks = np.empty((2, heads.size), dtype=np.int64)
    if heads.size == 0:
        return ranks
    emb = state.entity_emb
    n = emb.shape[0]
    sq_norms = None if scoring == "transe_l1" else _rowdot(emb, emb)
    size = max(1, RANK_BLOCK_VALUES // max(n, 1))
    buf = np.empty(min(size, heads.size) * n)
    for side, (replaced, positives, anchors) in enumerate((("head", heads, tails),
                                                           ("tail", tails, heads))):
        for lo in range(0, heads.size, size):
            part = slice(lo, lo + size)
            x = side_vector(emb[anchors[part]], vectors[relation_of[part]], scoring, replaced)
            if not filtered:
                known = (_EMPTY, _EMPTY)
            elif side == 0:
                known = graph_filter.known_heads_block(relations[part], tails[part])
            else:
                known = graph_filter.known_tails_block(heads[part], relations[part])
            ranks[side, part] = _rank_block(emb, sq_norms, x, positives[part], known,
                                            scoring, tie, buf)
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
