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
under DistMult. Ranks are computed for a block of b <= RANK_BLOCK_SIDES
(128) triplet sides at once, against tiles of the table of
RANK_BLOCK_VALUES // b candidates (1,024 at b = 128), so each matmul reuses
one packed tile across the whole block. The matmul screens every candidate
of the tile, in float32, as its value less the positive's: |e|^2 - 2 e.x -
(a_p - |x|^2) under TransE-L2, a_p the positive's squared distance, and
s_p - e.x under DistMult. The table is rounded to float32 once per call,
with |e|^2 and 1 as extra columns (`_screen_table`), and each tile is a
slice of it; each side's row, with the positive's term as its last column,
is rounded once per block. A candidate whose screen value lies below -W
surely beats the positive and one above W surely does not, W a rounding
band derived for the float32 screen (`_band`). In each tile the cells of a
side whose screen could overflow or is not finite are set to 0, and then
the cells of the positives and the known candidates to NaN. One rule then
covers every cell: D < -W counts as better, |D| <= W is rescored in float64
with `side_scores` and compared under the tie policy, and NaN, which fails
every comparison, is ignored. So the ranks stay exact, and an untrusted
side is rescored in full. TransE-L1 has no matmul form: its screen is
s_p - s from `side_scores` itself, in float64 and narrower tiles, and only
exact ties are rescored. Relation vectors are built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph, check_pair_keys
from .mining import KeyIndex
from .models import SCORINGS, EmbeddingState, TripletBatch, _rowdot, side_scores, side_vector
from .sharing import relation_vector

PROTOCOLS = ("raw", "filtered")
TIE_POLICIES = ("optimistic", "pessimistic")

_EMPTY = np.empty(0, dtype=np.int64)


class EvalFilter:
    """Known-true candidates per (head, relation) and (relation, tail): one
    `KeyIndex` per side, keyed entity * num_relations + relation. A filter
    whose packed keys do not fit in int64 is a DataError."""

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
            check_pair_keys(max(heads.max(), tails.max()) + 1, num_relations)
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


# Ranking works in blocks of up to RANK_BLOCK_SIDES triplet sides, screened
# against the entity table in tiles of rows, so that one (tile, b) screen of
# at most RANK_BLOCK_VALUES float32 values (512 KB) is reused for every tile
# and each matmul reuses one packed table tile across the whole block.
# TransE-L1 screens in float64, in tiles of RANK_BLOCK_VALUES // (b d)
# candidates. Band candidates are rescored in chunks of RANK_BLOCK_VALUES // d
# pairs.
RANK_BLOCK_SIDES = 128
RANK_BLOCK_VALUES = 1 << 17

_SCREEN = np.finfo(np.float32)  # the precision of the matmul screen


def _band(scoring: str, d: int, max_sq_norm, side_sq_norms: np.ndarray) -> np.ndarray:
    """Width W of each triplet side's float32 screen band: inf where the screen is not trusted.

    The screen value D of a candidate is its value less the positive's,
    oriented so that a negative D favours the candidate. D < -W surely beats
    the positive, D > W surely does not, under either tie policy; the rest
    are rescored in float64. A block of sides is screened with one W, the
    largest of its trusted sides', rounded up to float32 (`_float32_width`):
    a wider band only rescores more. The derivation follows Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3.

    1. Model. u64 = 2^-53 and u32 = 2^-24 are the unit roundoffs, g(k) =
       k u / (1 - k u) with the u of the precision at hand, and eta64, eta32
       the smallest subnormals. A rounded product or sum is (a op b)(1 +
       delta) with |delta| <= u, and a product that underflows is off by at
       most eta more. Rounding a float64 to float32 gives a(1 + delta) + eps,
       |delta| <= u32, |eps| <= eta32. g(j) + g(k) + g(j) g(k) <= g(j + k)
       and 2 g(k) <= g(2k).
    2. Inner products. fl(a . b) of length d, summed in any order, with or
       without FMA, is within g(d) sum|a_i b_i| + 2d eta of a . b: each term
       passes through at most d roundings. So the bound holds for whatever
       order BLAS picks, at any thread count, tile shape, kernel or numpy
       version.
    3. Float32 operands. If float64 vectors a, b of length d are rounded to
       float32 and their inner product taken in float32, each product of the
       rounded operands is within g32(2)|a_i b_i| + eta32 (1 + u32)(|a_i| +
       |b_i|) + eta32^2 of a_i b_i, so by step 2 the result is within g32(d +
       2) sum|a_i b_i| + 2 eta32 (|a|_1 + |b|_1) + 3d eta32 of a . b.
    4. One side. x is its side vector (the same floats in the screen and
       the table), X = |x|, N is the largest row norm of the table, so every
       candidate row e has |e| <= N, S = N + X, and M = S^2 under transe_l2,
       N X under distmult.
    5. Screen. D = fl32(t . y) is one inner product of the matmul: t is the
       candidate's row of the float32 table, extended with constant columns,
       and y the side's row, which carries the positive's term P; both are
       rounded once from float64. So the comparisons with the float32 -W and
       W need no further rounding.

    transe_l2:

    6. Table. a = fl(sum fl(e_i - x_i)^2) adds two roundings per term to an
       inner product, so |a - A| <= g64(d + 2) A + 2d eta64 with A = |e -
       x|^2 <= M. The positive's a_p obeys the same, so a_p <= (1 + g64(d +
       2)) M + 2d eta64.
    7. Terms. n = fl(|e|^2), q = fl(|x|^2) and P = fl(a_p - q), in float64.
       n - 2 e.x - P is within g64(d + 2) M + 5d eta64 of A - a_p, and |P|
       <= (1 + g64(d + 3)) M + 3d eta64.
    8. Screen. t = (e, n, 1) and y = (-2x, 1, -P): sum|t_i y_i| <= 2 N X + n
       + |P| <= 2 (1 + g64(d + 3)) M + 5d eta64, and |t|_1 + |y|_1 <=
       sqrt(d) (N + 2X) + n + |P| + 2 <= 2 sqrt(d) S + 3M + 2. By step 3 on
       length d + 2, D is within g32(2d + 10) M + 4 sqrt(d) eta32 S + (3d +
       12) eta32 of n - 2 e.x - P (6 eta32 M <= u32 M, and eta64 < eta32).
    9. Square root. The score is -fl(sqrt(a)), and fl(sqrt(a)) = sqrt(a)(1
       + delta), so two squared distances apart by less than a few ulps can
       tie after the root. a < (1 - 4u64) a_p gives a strictly higher score,
       which beats the positive under both tie policies, and a > (1 + 8u64)
       a_p a strictly lower one, which beats it under neither.
    10. Float64 part. Steps 6, 7 and 9 add g64(d + 2) A, g64(d + 2) M and
        8 u64 a_p: at most g64(2d + 13) M + 15d eta64 <= u32 M + eta32 while
        d <= 2^27. With step 8, D < -W and D > W decide a against a_p after
        the root once W >= R = g32(2d + 11) M + 4 sqrt(d) eta32 S + (3d + 13)
        eta32.

    distmult:

    11. s = fl(sum e_i x_i) is the float64 table score (x = t * r or h * r),
        within g64(d) N X + 2d eta64 of e.x, and |s_p| <= (1 + g64(d)) M +
        2d eta64. t = (e, 1) and y = (-x, s_p): sum|t_i y_i| <= N X + |s_p|
        and |t|_1 + |y|_1 <= sqrt(d) S + 1 + |s_p|. By step 3 on length d +
        1, D is within g32(2d + 7) M + 2 sqrt(d) eta32 S + (3d + 6) eta32 of
        s_p - e.x, and s is within u32 M + eta32 of e.x. So s beats s_p, or
        loses to it, strictly once W >= R = g32(2d + 8) M + 2 sqrt(d) eta32 S
        + (3d + 7) eta32. No root intervenes.

    Evaluation:

    12. M and S are evaluated from computed float64 norms: S' = sqrt(n_max)
        + sqrt(q), with n_max the largest computed |e|^2, and M' = S'^2
        under transe_l2, sqrt(n_max) sqrt(q) under distmult. By step 2 and
        2 sqrt(ab) <= u a + b / u, M <= (1 + g64(d + 8)) M' + 32d eta64 / u64
        and S <= (1 + g64(d)) S' + 4 sqrt(d eta64).
    13. W = 2 (g32(k) M' + tau (d + sqrt(d) S')) with k = 2d + 11 or 2d + 8
        and tau = tiny32 = 2^23 eta32. Its evaluation rounds at most ten
        times, so while k u32 <= 1/2 the factor 2 covers step 12 and those
        roundings, and tau covers the eta32 terms: W >= R. Beyond that d
        (about 2^21) every side is untrusted.
    14. A side whose M' or S' is not finite or reaches max32 / 16 gets W =
        inf here; below that, no float32 operand, product or partial sum of
        its screen can overflow. Such a side, and one whose P is not finite,
        is untrusted: its screen column is set to 0, which lies inside any
        band, so it counts no candidate as better and every one of its
        candidates is rescored exactly.
    """
    u = float(_SCREEN.eps) / 2
    k = 2 * d + 11 if scoring == "transe_l2" else 2 * d + 8
    if k * u > 0.5:
        return np.full(side_sq_norms.shape, np.inf)
    table_norm, side_norms = np.sqrt(max_sq_norm), np.sqrt(side_sq_norms)
    norms = table_norm + side_norms
    magnitude = norms ** 2 if scoring == "transe_l2" else table_norm * side_norms
    width = 2 * (k * u / (1 - k * u) * magnitude + float(_SCREEN.tiny) * (d + np.sqrt(d) * norms))
    limit = float(_SCREEN.max) / 16
    width[~((magnitude < limit) & (norms < limit))] = np.inf
    return width


def _float32_width(width: float) -> np.float32:
    """The least float32 at or above `width`. `np.float32(width)` rounds to
    nearest and could narrow the band by half an ulp; a float64 W would make
    the comparisons float64 under NEP 50 and float32 under older numpy."""
    rounded = np.float32(width)
    return np.nextafter(rounded, np.float32(np.inf)) if float(rounded) < width else rounded


def _screen_table(emb: np.ndarray, sq_norms: np.ndarray, scoring: str) -> np.ndarray:
    """The entity table as the matmul screen reads it, in float32: each row e
    extended with |e|^2 and 1 under transe_l2, with 1 under distmult (see
    `_band`). A tile of it is a slice of rows."""
    n, d = emb.shape
    table = np.empty((n, d + 2 if scoring == "transe_l2" else d + 1), dtype=np.float32)
    table[:, :d] = emb
    if scoring == "transe_l2":
        table[:, d] = sq_norms
    table[:, -1] = 1
    return table


def _rank_block(emb: np.ndarray, table: np.ndarray | None, max_sq_norm, x: np.ndarray,
                positives: np.ndarray, known: tuple[np.ndarray, np.ndarray], scoring: str,
                tie: str, scratch: tuple[np.ndarray, np.ndarray, int]) -> np.ndarray:
    """Ranks of a block of b triplet sides. Side j's positive is entity
    `positives[j]` and its side vector is `x[j]`; `known` holds (side,
    entity) arrays of candidates that do not compete, in any order.

    `scratch` is (buf, flags, tile): the table is screened in tiles of
    `tile` candidates, each into a (tile, b) view of `buf`, by one matmul
    of a slice of `table` (`_screen_table`; None under transe_l1), whose
    largest |e|^2 is `max_sq_norm`, with the sides' float32 rows. That
    orientation is about a quarter faster than (b, tile) in OpenBLAS's
    sgemm at 128 x 1,024. An untrusted side's cells are set to 0, and the
    positives' and known candidates' cells to NaN. Then one rule covers
    every cell: D < -W counts as better, and the band members, |D| <= W, are
    found in one pass and rescored with `models.side_scores`, in chunks of
    RANK_BLOCK_VALUES // d, and compared with the positive under `tie`.
    """
    (n, d), b = emb.shape, x.shape[0]
    buf, flags, tile = scratch
    pos_scores = side_scores(emb[positives], x, scoring)
    if scoring == "transe_l2":
        side_sq_norms, pos_delta = _rowdot(x, x), emb[positives] - x
        ref = _rowdot(pos_delta, pos_delta) - side_sq_norms  # P = a_p - |x|^2
        y = np.column_stack((-2.0 * x, np.ones(b), -ref)).astype(np.float32)
    elif scoring == "distmult":
        side_sq_norms, ref = _rowdot(x, x), -pos_scores
        y = np.column_stack((-x, pos_scores)).astype(np.float32)
    else:
        # no matmul form: the screen is s_p - s itself, exact in float64, and
        # a zero band holds the ties (fl(s_p - s) = 0 exactly when s = s_p)
        ref, y, width = -pos_scores, None, np.zeros(b)
    if y is not None:
        width = _band(scoring, d, max_sq_norm, side_sq_norms)
    trusted = np.isfinite(width) & np.isfinite(ref)
    untrusted = np.flatnonzero(~trusted)
    width = width[trusted].max(initial=0.0)
    if y is not None:
        width = _float32_width(width)
    # the positives and the known candidates (any order, repeats too), by tile
    known_sides, known_cands = known
    member_sides = np.concatenate((np.arange(b), known_sides))
    member_cands = np.concatenate((positives, known_cands))
    order = np.argsort(member_cands)
    member_sides, member_cands = member_sides[order], member_cands[order]
    bounds = member_cands.searchsorted(np.arange(0, n + tile, tile))
    better = np.zeros(b, dtype=np.int64)
    found = []
    for t, c0 in enumerate(range(0, n, tile)):
        c1 = min(c0 + tile, n)
        screen = buf[:(c1 - c0) * b].reshape(c1 - c0, b)
        mask = flags[:screen.size].reshape(screen.shape)
        if y is None:
            scores = side_scores(emb[c0:c1, None], x[None], scoring)
            np.subtract(pos_scores, scores, out=screen)
        else:
            np.matmul(table[c0:c1], y.T, out=screen)
        screen[:, untrusted] = 0  # inside any band: every candidate is rescored
        part = slice(bounds[t], bounds[t + 1])
        screen[member_cands[part] - c0, member_sides[part]] = np.nan  # fails every comparison
        better += _column_counts(np.less(screen, -width, out=mask))
        np.less_equal(np.abs(screen, out=screen), width, out=mask)
        cands, sides = np.divmod(np.flatnonzero(mask), b)
        found.append((sides, cands + c0))
    sides, cands = (np.concatenate(arrays) for arrays in zip(*found))
    step = max(1, RANK_BLOCK_VALUES // d)
    for start in range(0, sides.size, step):
        side, cand = sides[start:start + step], cands[start:start + step]
        scores, pos = side_scores(emb[cand], x[side], scoring), pos_scores[side]
        beats = scores > pos if tie == "optimistic" else scores >= pos
        better += np.bincount(side[beats], minlength=b)
    return better + 1


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """True entries in each column of a C-contiguous (w, b) boolean array.

    With b a multiple of 8, each row is b / 8 uint64 words, and each group
    of 8 rows one row of b words. Up to 255 such rows are summed as uint64,
    so that no byte lane carries into the next, and the 8 rows of each sum
    added after; the last w % 8 rows are summed as bytes. For a 1,024 x 128
    tile that takes about 22 us, against 55-65 us to sum the bytes as int32
    or uint16 and 100 us for `np.count_nonzero(mask, axis=0)`.
    """
    w, b = mask.shape
    if b % 8:
        return mask.view(np.uint8).sum(axis=0, dtype=np.int32)
    full = w - w % 8
    groups = mask[:full].view(np.uint64).reshape(full // 8, b)
    counts = mask[full:].view(np.uint8).sum(axis=0, dtype=np.int32)
    for g0 in range(0, full // 8, 255):
        lanes = groups[g0:g0 + 255].sum(axis=0)
        counts += lanes.view(np.uint8).reshape(8, b).sum(axis=0, dtype=np.int32)
    return counts


@np.errstate(over="ignore", invalid="ignore")  # untrusted sides are rescored exactly
def _rank_triplets(triplets, state: EmbeddingState, scoring: str,
                   graph_filter: EvalFilter | None, protocol: str, tie: str):
    """(2, m) head- and tail-corruption ranks of the id arrays of `triplets`,
    in blocks of up to RANK_BLOCK_SIDES sides per side."""
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
    vectors = relation_vector(state, distinct)
    heads, relations, tails = triplets.heads, triplets.relations, triplets.tails
    ranks = np.empty((2, heads.size), dtype=np.int64)
    if heads.size == 0:
        return ranks
    emb = state.entity_emb
    n, d = emb.shape
    b = min(RANK_BLOCK_SIDES, heads.size)
    if scoring == "transe_l1":
        table = max_sq_norm = None
        tile = min(n, max(1, RANK_BLOCK_VALUES // (b * d)))
        buf = np.empty(b * tile)
    else:
        sq_norms = _rowdot(emb, emb)
        table, max_sq_norm = _screen_table(emb, sq_norms, scoring), sq_norms.max()
        tile = min(n, max(1, RANK_BLOCK_VALUES // b))
        buf = np.empty(b * tile, dtype=np.float32)
    scratch = (buf, np.empty(b * tile, dtype=bool), tile)
    for side, (replaced, positives, anchors) in enumerate((("head", heads, tails),
                                                           ("tail", tails, heads))):
        for lo in range(0, heads.size, b):
            part = slice(lo, lo + b)
            x = side_vector(emb[anchors[part]], vectors[relation_of[part]], scoring, replaced)
            if not filtered:
                known = (_EMPTY, _EMPTY)
            elif side == 0:
                known = graph_filter.known_heads_block(relations[part], tails[part])
            else:
                known = graph_filter.known_tails_block(heads[part], relations[part])
            ranks[side, part] = _rank_block(emb, table, max_sq_norm, x, positives[part], known,
                                            scoring, tie, scratch)
    return ranks


def rank_triplet(
    triplet,
    state: EmbeddingState,
    scoring: str,
    graph_filter: EvalFilter | None = None,
    protocol: str = "filtered",
    tie: str = "optimistic",
) -> tuple[int, int]:
    """(head-corruption rank, tail-corruption rank) of one triplet: the
    ranking `evaluate` runs, on a batch of one."""
    ranks = _rank_triplets(TripletBatch.pack([triplet]), state, scoring,
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
    scoring: str,
    graph: KnowledgeGraph,
    graph_filter: EvalFilter | None = None,
    protocol: str = "filtered",
    tie: str = "optimistic",
    ks=(1, 3, 10),
) -> RankingResult:
    """Rank every triplet of `graph` in both directions and pool the ranks."""
    ranks = _rank_triplets(graph, state, scoring, graph_filter, protocol, tie)
    result = compute_metrics(ranks.ravel(), ks, protocol)
    result.head_ranks, result.tail_ranks = ranks
    return result
