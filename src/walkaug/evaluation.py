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
(128) triplet sides at once, against column tiles of the table of
RANK_BLOCK_VALUES // b candidates (1,024 at b = 128), so each matmul reuses
one packed tile across the whole block. The matmul screens every candidate of the
tile as its value less the positive's: |e|^2 - 2 e.x - (a_p - |x|^2) under
TransE-L2, a_p the positive's squared distance, and s_p - e.x under
DistMult, with |e|^2, 1 and the positive's term as extra columns. A
candidate whose screen value lies below -W surely beats the positive and
one above W surely does not, W a derived rounding band (`_band`); two
counts per tile decide it, and only a side with band members besides its
positive and known candidates is searched. Those members are rescored
with `side_scores` and compared under the tie policy, so the ranks stay
exact. TransE-L1 has no matmul form: its screen is s_p - s from
`side_scores` itself, in narrower tiles, and only exact ties are rescored.
Relation vectors are built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph
from .mining import KeyIndex
from .models import SCORINGS, EmbeddingState, TripletBatch, _rowdot, side_scores, side_vector
from .sharing import relation_vector

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


# Ranking works in blocks of up to RANK_BLOCK_SIDES triplet sides, screened
# against the entity table in column tiles, so that one (b, tile) screen of
# at most RANK_BLOCK_VALUES float64 values (1 MB) is reused for every tile and
# each matmul reuses one packed table tile across the whole block. Band
# candidates are rescored in chunks of RANK_BLOCK_VALUES // d pairs.
RANK_BLOCK_SIDES = 128
RANK_BLOCK_VALUES = 1 << 17


def _band(scoring: str, d: int, max_sq_norm, side_sq_norms: np.ndarray) -> np.ndarray:
    """Width W of each triplet side's screen band: inf where the screen is not trusted.

    The screen value D of a candidate is its value less the positive's,
    oriented so that a negative D favours the candidate. D < -W surely beats
    the positive, D > W surely does not, under either tie policy; the rest
    are rescored. A block of sides is screened with one W, the largest of
    its trusted sides': a wider band only rescores more. The derivation
    follows Higham, Accuracy and Stability of Numerical Algorithms, ch. 3.

    1. Model. u is the unit roundoff (2^-53 in float64), g(k) = k u / (1 - k u)
       and eta the smallest subnormal. A rounded product or sum is
       (a op b)(1 + delta) with |delta| <= u, and a product that underflows
       is off by at most eta more. g(j) + g(k) + g(j) g(k) <= g(j + k).
    2. Inner products. fl(a . b) of length d, summed in any order, with or
       without FMA, is within g(d) |a|.|b| + 2d eta of a . b: each term
       passes through at most d roundings. So the bound holds for whatever
       order BLAS picks, at any thread count, tile shape or numpy version.
    3. One side. x is its side vector (the same floats in the screen and
       the table), X = |x|, N is the largest row norm of the table, so every
       candidate row e has |e| <= N, and M = (N + X)^2 under transe_l2,
       N X under distmult.
    4. Screen. D = fl(t . y) is one inner product of the matmul: t is the
       candidate's row of the table tile, extended with constant columns,
       and y the side's row, which carries the positive's term P. So the
       comparisons with -W and W need no further rounding.

    transe_l2:

    5. Table. a = fl(sum fl(e_i - x_i)^2) adds two roundings per term to an
       inner product, so |a - A| <= g(d + 2) A + 2d eta with A = |e - x|^2
       <= M. The positive's a_p obeys the same, so a_p <= (1 + g(d + 2)) M
       + 2d eta.
    6. Terms. n = fl(|e|^2), q = fl(|x|^2) and P = fl(a_p - q). By step 2
       n and q are within g(d) |e|^2 + 2d eta and g(d) X^2 + 2d eta of
       |e|^2 and X^2, and P is within u |a_p - q| of a_p - q, so
       n - 2 e.x - P is within g(d + 2) M + 5d eta of A - a_p, and
       |P| <= (1 + u) max(a_p, q) <= (1 + g(d + 3)) M + 3d eta.
    7. Screen. t = (e, n, 1) and y = (-2x, 1, -P), with -2x exact: an inner
       product of length d + 2 with |t|.|y| <= 2 (1 + g(d + 3)) M + 5d eta.
       By step 2 D is within g(3d + 7) M + 7d eta of n - 2 e.x - P, and so
       within g(4d + 9) M + 12d eta of A - a_p.
    8. Together. With step 5, D < -W gives a - a_p < -W + g(5d + 11) M +
       14d eta, and D > W gives a - a_p > W - g(5d + 11) M - 14d eta.
    9. Square root. The score is -fl(sqrt(a)) and fl(sqrt(a)) =
       sqrt(a)(1 + delta), so two squared distances apart by less than a
       few ulps can tie after the root. a < (1 - 4u) a_p gives
       fl(sqrt(a)) <= sqrt(a)(1 + u) < sqrt(a_p)(1 - u) <= fl(sqrt(a_p)): a
       strictly higher score, which beats the positive under both tie
       policies. a > (1 + 8u) a_p >= ((1 + u) / (1 - u))^2 a_p gives a
       strictly lower one, which beats it under neither.
    10. Width. With 8u a_p <= g(8)(1 + g(5d + 11)) M + d eta from step 5,
        steps 8 and 9 hold once W >= R = g(5d + 19) M + 15d eta.

    distmult:

    11. s = fl(sum e_i x_i) is the table score (x = t * r or h * r), within
        g(d) N X + 2d eta of e.x by step 2, and |s_p| <= (1 + g(d)) M +
        2d eta. t = (e, 1) and y = (-x, s_p) (P = -s_p), so D is within
        g(d + 1)(N X + |s_p|) + 2(d + 1) eta <= g(3d + 2) M + 5d eta of
        s_p - e.x. D < -W gives s - s_p > W - g(4d + 2) M - 7d eta, and
        D > W gives s - s_p < -W + g(4d + 2) M + 7d eta: s beats s_p, or
        loses to it, strictly once W >= R = g(4d + 2) M + 7d eta. No root
        intervenes.

    Evaluation:

    12. M is evaluated from computed norms: M' = (sqrt(n_max) + sqrt(q))^2
        under transe_l2 and sqrt(n_max) sqrt(q) under distmult, with n_max
        the largest computed |e|^2. By step 2 and 2 sqrt(ab) <= u a + b / u,
        M <= (1 + g(d + 8)) M' + 32d eta / u.
    13. W = 2 (g(k) M' + d tau) with k = 5d + 19 or 4d + 2 and tau = 2^22
        tiny (2^-1000 in float64) >= 32 eta / u + 15 eta. Its evaluation
        rounds at most eight times, so while (5d + 29) u <= 1/2 the factor 2
        covers step 12 and those roundings: W >= R.
    14. A side whose M' is not finite or reaches max / 16 (so that no
        screen value can overflow) gets W = inf here. Such a side, and one
        whose P is not finite, is untrusted: its screen row is set to NaN,
        which fails every comparison, so each of its candidates falls in
        the band and is rescored exactly.
    """
    info = np.finfo(side_sq_norms.dtype)
    u = info.eps / 2
    if scoring == "transe_l2":
        k = 5 * d + 19
        magnitude = (np.sqrt(max_sq_norm) + np.sqrt(side_sq_norms)) ** 2
    else:
        k = 4 * d + 2
        magnitude = np.sqrt(max_sq_norm) * np.sqrt(side_sq_norms)
    width = 2 * (k * u / (1 - k * u) * magnitude + d * info.tiny * 2.0 ** 22)
    width[~(magnitude < info.max / 16)] = np.inf
    return width


def _rank_block(emb: np.ndarray, sq_norms: np.ndarray | None, x: np.ndarray,
                positives: np.ndarray, known: tuple[np.ndarray, np.ndarray], scoring: str,
                tie: str, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Ranks of a block of b triplet sides. Side j's positive is entity
    `positives[j]` and its side vector is `x[j]`; `known` holds (side,
    entity) arrays of candidates that do not compete, with side * n + entity
    strictly increasing (as `KeyIndex.lookup` returns them).

    `scratch` is (buf, flags, cols): the table is screened in column tiles
    of cols.shape[0] candidates, each into a (b, tile) view of `buf`, by one
    matmul of the sides' rows with the tile's rows, extended in `cols` (see
    `_band`). Two counts over the tile decide it: candidates below -W are
    counted as better, and the tile is searched only if more candidates lie
    inside [-W, W] than the positives and known candidates there, which are
    read from the tile by a gather. Then the sides with such extra members
    are searched, and their extra members rescored with `models.side_scores`,
    in chunks of RANK_BLOCK_VALUES // d, and compared with the positive
    under `tie`. Known candidates below -W are taken off the count.
    """
    (n, d), b = emb.shape, x.shape[0]
    buf, flags, cols = scratch
    tile = cols.shape[0]
    pos_scores = side_scores(emb[positives], x, scoring)
    if scoring == "transe_l2":
        side_sq_norms, pos_delta = _rowdot(x, x), emb[positives] - x
        ref = _rowdot(pos_delta, pos_delta) - side_sq_norms  # P = a_p - |x|^2
        y = np.column_stack((-2.0 * x, np.ones(b), -ref))
        width = _band(scoring, d, sq_norms.max(), side_sq_norms)
    elif scoring == "distmult":
        ref = -pos_scores
        y = np.column_stack((-x, pos_scores))
        width = _band(scoring, d, sq_norms.max(), _rowdot(x, x))
    else:
        # no matmul form: the screen is s_p - s itself, exact, and a zero
        # band holds the ties (fl(s_p - s) = 0 exactly when s = s_p)
        ref, y, width = -pos_scores, None, np.zeros(b)
    trusted = np.isfinite(width) & np.isfinite(ref)
    untrusted = np.flatnonzero(~trusted)
    width = width[trusted].max(initial=0.0)
    # the positives and the other known candidates, grouped by tile
    known_sides, known_cands = known
    other = known_cands != positives[known_sides]
    member_sides = np.concatenate((np.arange(b), known_sides[other]))
    member_cands = np.concatenate((positives, known_cands[other]))
    order = np.argsort(member_cands, kind="stable")
    member_sides, member_cands = member_sides[order], member_cands[order]
    bounds = member_cands.searchsorted(np.arange(0, n + tile, tile))
    member_below = np.zeros(member_sides.size, dtype=bool)
    better = np.zeros(b, dtype=np.int64)
    found = []
    for t, c0 in enumerate(range(0, n, tile)):
        c1 = min(c0 + tile, n)
        screen = buf[:b * (c1 - c0)].reshape(b, c1 - c0)
        mask = flags[:screen.size].reshape(screen.shape)
        if y is None:
            scores = side_scores(emb[None, c0:c1], x[:, None], scoring)
            np.subtract(pos_scores[:, None], scores, out=screen)
        else:
            table = cols[:c1 - c0]
            table[:, :d] = emb[c0:c1]
            if scoring == "transe_l2":
                table[:, d] = sq_norms[c0:c1]
            np.matmul(y, table.T, out=screen)
        screen[untrusted] = np.nan
        below = _row_counts(np.less(screen, -width, out=mask))
        better += below
        inside = screen.size - below.sum() - np.count_nonzero(np.greater(screen, width, out=mask))
        part = slice(bounds[t], bounds[t + 1])
        sides = member_sides[part]
        values = screen[sides, member_cands[part] - c0]
        member_below[part] = values < -width
        banded = ~(member_below[part] | (values > width))
        if inside > np.count_nonzero(banded):
            extra = (c1 - c0) - below - _row_counts(mask)
            extra -= np.bincount(sides[banded], minlength=b)
            search = np.flatnonzero(extra)
            rows = screen[search]
            hit, cands = np.nonzero(~((rows < -width) | (rows > width)))
            found.append((search[hit], cands + c0))
    better -= np.bincount(member_sides[member_below], minlength=b)
    if not found:
        return better + 1
    sides, cands = (np.concatenate(arrays) for arrays in zip(*found))
    keep = cands != positives[sides]
    if known_cands.size:
        keys, known_keys = sides * n + cands, known_sides * n + known_cands
        keep &= known_keys[np.minimum(known_keys.searchsorted(keys), known_keys.size - 1)] != keys
    sides, cands = sides[keep], cands[keep]
    step = max(1, RANK_BLOCK_VALUES // d)
    for start in range(0, sides.size, step):
        side, cand = sides[start:start + step], cands[start:start + step]
        scores, pos = side_scores(emb[cand], x[side], scoring), pos_scores[side]
        beats = scores > pos if tie == "optimistic" else scores >= pos
        better += np.bincount(side[beats], minlength=b)
    return better + 1


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries in each row of a 2-D boolean array. Summing the bytes as
    int32 takes half the time of `np.count_nonzero(mask, axis=1)`."""
    return mask.view(np.uint8).sum(axis=1, dtype=np.int32)


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
    sq_norms = None if scoring == "transe_l1" else _rowdot(emb, emb)
    b = min(RANK_BLOCK_SIDES, heads.size)
    tile = min(n, max(1, RANK_BLOCK_VALUES // (b * d if scoring == "transe_l1" else b)))
    # the screen, its comparison flags, and a table tile as the matmul screen
    # reads it: each row e extended with |e|^2 and 1 under transe_l2, with 1
    # under distmult (see `_band`)
    columns = {"transe_l2": d + 2, "distmult": d + 1, "transe_l1": 0}[scoring]
    scratch = (np.empty(b * tile), np.empty(b * tile, dtype=bool), np.ones((tile, columns)))
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
            ranks[side, part] = _rank_block(emb, sq_norms, x, positives[part], known,
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
