"""Independent brute-force oracles the tests pin expected values against.

Nothing here may import the package's join/gradient machinery: the oracle
answers must come from a second, dumber route (recursive enumeration,
central finite differences, scalar loops). The ranking oracle scores with
`models.score` itself, one pass over the entity table per triplet side. The
walk oracle walks one node at a time and maps each walk pair by pair. The
sharing oracle builds and backpropagates one relation at a time, and runs
the recurrence one vector at a time. The TSV loader oracle reads one line,
and turns one name into an id, at a time. The two-pass batch kernel scores
and differentiates a chunk's positives and its corruptions in separate
passes, each recomputing the translation; it shares the package's relation
dispatch and `add_rows`, so it pins the chunk arithmetic of the fused
kernel bit for bit.
"""

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from walkaug.errors import DataError, NumericError
from walkaug.graph import INVERSE_SUFFIX, Triplet
from walkaug.models import score
from walkaug.sharing import BLOCK_VALUES, SparseGrads, add_rows, relation_backward, relation_vector


class PathStats:
    __slots__ = ("count", "covered")

    def __init__(self, length):
        self.count = 0
        self.covered = [set() for _ in range(length)]


def dfs_metapath_stats(heads, relations, tails, max_len) -> dict[tuple, PathStats]:
    """Every metapath of length 1..max_len with instance counts and per-hop
    covered-edge-id sets, by plain recursive enumeration."""
    out_adj = defaultdict(list)
    for eid, (h, r, t) in enumerate(zip(heads, relations, tails)):
        out_adj[int(h)].append((int(r), int(t), eid))
    stats: dict[tuple, PathStats] = {}

    def visit(node, rels, edges):
        if rels:
            key = tuple(rels)
            rec = stats.get(key)
            if rec is None:
                rec = stats[key] = PathStats(len(key))
            rec.count += 1
            for hop, eid in enumerate(edges):
                rec.covered[hop].add(eid)
        if len(rels) == max_len:
            return
        for rel, tail, eid in out_adj[node]:
            rels.append(rel)
            edges.append(eid)
            visit(tail, rels, edges)
            rels.pop()
            edges.pop()

    nodes = set(map(int, heads)) | set(map(int, tails))
    for start in sorted(nodes):
        visit(start, [], [])
    return stats


def dfs_association(stats: PathStats, metapath, type_counts) -> list[float]:
    """Per-hop association values from DFS covered sets, in hop order."""
    return [len(stats.covered[i]) / type_counts[rel] for i, rel in enumerate(metapath)]


def dfs_z(stats: PathStats, metapath, type_counts) -> float:
    z = 1.0
    for assoc in dfs_association(stats, metapath, type_counts):
        z *= assoc
    return z


def dfs_metapath_pairs(heads, relations, tails, metapath) -> set[tuple[int, int]]:
    """Distinct (src, dst) pairs connected by `metapath`, by recursion."""
    out_adj = defaultdict(list)
    for h, r, t in zip(heads, relations, tails):
        out_adj[int(h)].append((int(r), int(t)))
    pairs = set()

    def visit(src, node, hop):
        if hop == len(metapath):
            pairs.add((src, node))
            return
        for rel, tail in out_adj[node]:
            if rel == metapath[hop]:
                visit(src, tail, hop + 1)

    for start in sorted(set(map(int, heads))):
        visit(start, start, 0)
    return pairs


def first_hop_metapath_pairs(heads, relations, tails, num_entities, metapath) -> np.ndarray:
    """Sorted unique keys src * num_entities + dst of the pairs `metapath`
    connects, joined from its first hop, with `np.unique` after every hop.
    Each hop is a dense equality join of the pairs' ends with the hop's heads."""
    n = np.int64(num_entities)
    heads, relations, tails = (np.asarray(a, dtype=np.int64) for a in (heads, relations, tails))
    first = relations == metapath[0]
    keys = np.unique(heads[first] * n + tails[first])
    for rel in metapath[1:]:
        hop = relations == rel
        src, dst = np.divmod(keys, n)
        rows, cols = np.nonzero(dst[:, None] == heads[hop][None, :])
        keys = np.unique(src[rows] * n + tails[hop][cols])
    return keys


def numeric_gradient(fn, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar fn() wrt `arr`, in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn()
        flat[i] = orig - h
        f_minus = fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rnn_forward(params, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the recurrence h' = tanh(w_in @ x + w_rec @ h + bias) over the rows
    of `inputs`, one vector at a time, from a zero state.

    Returns (final hidden state, all hidden states h_0..h_L).
    """
    h = np.zeros(params.bias.shape[0])
    states = [h]
    for x in inputs:
        h = np.tanh(params.w_in @ x + params.w_rec @ h + params.bias)
        states.append(h)
    return h, states


def rnn_backward(params, inputs: np.ndarray, states: list[np.ndarray],
                 grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate through time; returns (d_w_in, d_w_rec, d_bias, d_inputs)."""
    d_w_in = np.zeros_like(params.w_in)
    d_w_rec = np.zeros_like(params.w_rec)
    d_bias = np.zeros_like(params.bias)
    d_inputs = np.zeros_like(inputs)
    dh = grad
    for step in range(len(inputs) - 1, -1, -1):
        h_next = states[step + 1]
        dpre = dh * (1.0 - h_next * h_next)
        d_w_in += np.outer(dpre, inputs[step])
        d_w_rec += np.outer(dpre, states[step])
        d_bias += dpre
        d_inputs[step] = params.w_in.T @ dpre
        dh = params.w_rec.T @ dpre
    return d_w_in, d_w_rec, d_bias, d_inputs


def loop_relation_vector(state, kind: str, rel_ids) -> np.ndarray:
    """(m, d) relation vectors under `model` or `rnn` sharing, one relation at
    a time: the sum of its metapath's rows (an original relation: its own
    row), or under `rnn` the recurrence over a minted relation's rows."""
    out = np.empty((len(rel_ids), state.dim))
    for i, rel in enumerate(rel_ids):
        metapath = state.registry.metapath_of(int(rel))
        inputs = state.relation_emb[list(metapath or (int(rel),))]
        out[i] = rnn_forward(state.rnn, inputs)[0] if metapath and kind == "rnn" \
            else inputs.sum(axis=0)
    return out


def loop_relation_backward(state, kind: str, rel_ids, grads: np.ndarray):
    """The gradients of `model` or `rnn` sharing, one relation at a time in id
    order: (sorted unique relation rows, their summed gradients, and under
    `rnn` the running totals [d_w_in, d_w_rec, d_bias] or None). Each row of
    a metapath takes the relation's gradient, or under `rnn` the gradient on
    that step's input; rows are summed with the 2-D `np.add.at`."""
    paths, row_grads, rnn = [], [], None
    for rel, grad in zip(rel_ids, grads):
        metapath = state.registry.metapath_of(int(rel))
        if metapath and kind == "rnn":
            inputs = state.relation_emb[list(metapath)]
            _, states = rnn_forward(state.rnn, inputs)
            *params, grad = rnn_backward(state.rnn, inputs, states, grad)
            rnn = params if rnn is None else [a + b for a, b in zip(rnn, params)]
        paths.append(metapath or (int(rel),))
        row_grads.append(np.broadcast_to(grad, (len(paths[-1]), grad.shape[-1])))
    unique, inverse = np.unique(np.concatenate(paths), return_inverse=True)
    total = np.zeros((unique.size, grads.shape[1]))
    np.add.at(total, inverse.reshape(-1), np.concatenate(row_grads))
    return unique, total, rnn


def scalar_loss(positive, negatives, entity_rows, relation_row, scoring, margin, weight):
    """Logistic margin loss via python floats only (free-row relations).

    entity_rows: mapping id -> list of floats; relation_row: list of floats.
    """
    import math

    def sc(h, r, t):
        if scoring == "transe_l2":
            return -math.sqrt(sum((hi + ri - ti) ** 2 for hi, ri, ti in zip(h, r, t)))
        if scoring == "transe_l1":
            return -sum(abs(hi + ri - ti) for hi, ri, ti in zip(h, r, t))
        return sum(hi * ri * ti for hi, ri, ti in zip(h, r, t))

    def softplus(x):
        return math.log1p(math.exp(-abs(x))) + max(x, 0.0)

    h, _, t = positive.head, positive.relation, positive.tail
    total = softplus(-(margin + sc(entity_rows[h], relation_row, entity_rows[t])))
    k = len(negatives)
    for neg in negatives:
        s = sc(entity_rows[neg.head], relation_row, entity_rows[neg.tail])
        total += softplus(margin + s) / k
    return weight * total


def score_backward(h, r, t, scoring):
    """(ds/dh, ds/dr, ds/dt) of `score`, each of the broadcast shape of the inputs,
    recomputing the translation."""
    if scoring == "transe_l2":
        delta = h + r - t
        norm = np.sqrt(np.einsum("...i,...i->...", delta, delta))[..., None]
        # a zero norm is the kink of |.|; it gets the zero subgradient
        g = np.divide(-delta, norm, out=np.zeros_like(delta), where=norm > 0)
        return g, g, -g
    if scoring == "transe_l1":
        g = -np.sign(h + r - t)
        return g, g, -g
    return r * t, h * t, h * r


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def two_pass_batch_loss_and_grad(batch, neg_heads, neg_tails, state, config):
    """`models.batch_loss_and_grad` with each chunk's positives and corruptions
    scored and differentiated in separate `score` / `score_backward` passes."""
    grads = SparseGrads()
    keep = batch.weights != 0.0
    if not keep.all():
        batch, neg_heads, neg_tails = batch.select(keep), neg_heads[keep], neg_tails[keep]
    size = len(batch)
    if size == 0:
        return 0.0, grads

    scoring = config.scoring
    margin = config.margin
    k = neg_heads.shape[1]
    d = state.dim
    emb = state.entity_emb
    relations, relation_of = np.unique(batch.relations, return_inverse=True)
    vectors = relation_vector(state, relations)
    slots = np.concatenate(
        (batch.heads[:, None], batch.tails[:, None], neg_heads, neg_tails), axis=1)
    rows, row_of = np.unique(slots, return_inverse=True)
    row_of = row_of.reshape(slots.shape)
    entity_grad = np.zeros((rows.size, d))
    relation_grad = np.zeros((relations.size, d))

    chunk = max(1, BLOCK_VALUES // (slots.shape[1] * d))
    total = 0.0
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        w = batch.weights[part]
        r = vectors[relation_of[part]]
        rn = r[:, None, :]
        block = emb[slots[part]]
        h, t = block[:, 0], block[:, 1]
        hn, tn = block[:, 2:2 + k], block[:, 2 + k:]
        s_pos = score(h, r, t, scoring)
        s_neg = score(hn, rn, tn, scoring)
        loss = w * (_softplus(-(margin + s_pos)) + (_softplus(margin + s_neg) / k).sum(axis=1))
        bad = np.flatnonzero(~np.isfinite(loss))
        if bad.size:
            i = lo + int(bad[0])
            ident = Triplet(int(batch.heads[i]), int(batch.relations[i]), int(batch.tails[i]))
            raise NumericError(f"non-finite loss {float(loss[bad[0]])!r} for triplet "
                               f"{tuple(ident)}", triplet=ident)
        total += float(loss.sum())

        c_pos = (-w * _sigmoid(-(margin + s_pos)))[:, None]
        c_neg = (w[:, None] * _sigmoid(margin + s_neg) / k)[..., None]
        dh, dr, dt = score_backward(h, r, t, scoring)
        dhn, drn, dtn = score_backward(hn, rn, tn, scoring)
        add_rows(relation_grad, relation_of[part], c_pos * dr + (c_neg * drn).sum(axis=1))
        np.multiply(c_pos, dh, out=block[:, 0])
        np.multiply(c_pos, dt, out=block[:, 1])
        np.multiply(c_neg, dhn, out=block[:, 2:2 + k])
        np.multiply(c_neg, dtn, out=block[:, 2 + k:])
        add_rows(entity_grad, row_of[part], block)

    grads.entity_rows, grads.entity_grad = rows, entity_grad
    relation_backward(state, relations, relation_grad, grads)
    return total, grads


def brute_force_rank(scores, true_idx, known_true, tie) -> int:
    """Rank by explicit comparison loop; known_true excludes candidates."""
    pos = scores[true_idx]
    rank = 1
    for idx, s in enumerate(scores):
        if idx == true_idx or idx in known_true:
            continue
        if tie == "optimistic":
            if s > pos:
                rank += 1
        else:
            if s >= pos:
                rank += 1
    return rank


def _table_rank(scores, true_idx, known, tie) -> int:
    pos = scores[true_idx]
    better = scores > pos if tie == "optimistic" else scores >= pos
    better[known] = False
    better[true_idx] = False
    return 1 + int(np.count_nonzero(better))


def loop_ranks(triplets, state, scoring, graph_filter, protocol, tie):
    """(2, m) head- and tail-corruption ranks, one `models.score` pass over
    the whole entity table per triplet side."""
    filtered = protocol == "filtered"
    emb = state.entity_emb
    ranks = np.empty((2, len(triplets.heads)), dtype=np.int64)
    for i, (h, rel, t) in enumerate(zip(triplets.heads.tolist(), triplets.relations.tolist(),
                                        triplets.tails.tolist())):
        r = relation_vector(state, [rel])[0]
        known = graph_filter.known_heads(rel, t) if filtered else []
        ranks[0, i] = _table_rank(score(emb, r, emb[t], scoring), h, known, tie)
        known = graph_filter.known_tails(h, rel) if filtered else []
        ranks[1, i] = _table_rank(score(emb[h], r, emb, scoring), t, known, tie)
    return ranks


class RandomWalk(NamedTuple):
    nodes: tuple
    relations: tuple


class WeightedTriplet(NamedTuple):
    head: int
    relation: int
    tail: int
    weight: float = 1.0


def random_walk(graph, start, l_max, rng) -> RandomWalk:
    """Uniform out-edge walk from `start`, at most l_max nodes, stops at sinks."""
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    nodes = [start]
    rels = []
    while len(nodes) < l_max:
        here = nodes[-1]
        degree = int(graph.offsets[here + 1] - graph.offsets[here])
        if degree == 0:
            break
        slot = int(rng.integers(degree))
        pos = graph.offsets[here] + slot
        rel, nxt = int(graph.adj_relations[pos]), int(graph.adj_tails[pos])
        rels.append(rel)
        nodes.append(nxt)
    return RandomWalk(tuple(nodes), tuple(rels))


def _sample_rule(rule, rng, mode):
    """Draw one (relation, confidence) from a rule map, or None for no emission.

    normalized: confidences renormalized to a distribution, always emits.
    raw: confidences taken as probabilities; leftover mass emits nothing
    (renormalized only when they sum above one).
    """
    entries = sorted(rule.entries.items())
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


def walk_to_triplets(walk, informative, rulemaps, registry, rng, rule_sampling="normalized"):
    """Triplets for every informative metapath between the node pairs of one
    walk; pairs closer than two hops and self-pairs emit nothing."""
    if rule_sampling not in ("normalized", "raw"):
        raise ValueError(f"unknown rule sampling mode {rule_sampling!r}")
    out = []
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
                out.append(WeightedTriplet(nodes[i], rel, nodes[j], z * conf))
            else:
                rel = registry.id_of(metapath)
                if rel is not None:
                    out.append(WeightedTriplet(nodes[i], rel, nodes[j], z))
    return out


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_rows(path, columns) -> list[list[str]]:
    rows = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != columns:
            raise DataError(f"{path}:{lineno}: expected {columns} columns, got {len(parts)}")
        rows.append(parts)
    return rows


def _add(index: dict, name: str) -> int:
    return index.setdefault(name, len(index))


def _read_dict(path) -> dict[str, int]:
    entries = sorted((int(idx), name) for idx, name in _read_rows(path, 2))
    index: dict[str, int] = {}
    for expected, (idx, name) in enumerate(entries):
        if idx != expected or name in index:
            raise DataError(f"{path}: bad dictionary entry {idx}\t{name}")
        _add(index, name)
    return index


def line_loop_load_tsv(train_path, valid_path, test_path, dict_paths=None, add_inverse=False):
    """`load_tsv_dataset` one line and one cell at a time, as (train, valid,
    test) (n, 3) int64 id arrays, entity names and relation names in id order.
    Raises DataError where the loader must."""
    splits = [_read_rows(p, 3) if p is not None else [] for p in (train_path, valid_path, test_path)]
    if dict_paths is not None:
        entities, relations = _read_dict(dict_paths[0]), _read_dict(dict_paths[1])
    else:
        entities, relations = {}, {}
        for rows in splits:
            for h, r, t in rows:
                _add(entities, h)
                _add(entities, t)
                _add(relations, r)

    def lookup(index, name):
        if name not in index:
            raise DataError(f"unknown name {name!r}")
        return index[name]

    arrays = []
    for rows in splits:
        arr = np.empty((len(rows), 3), dtype=np.int64)
        for i, (h, r, t) in enumerate(rows):
            arr[i] = lookup(entities, h), lookup(relations, r), lookup(entities, t)
        arrays.append(arr)
    if any("|" in name for name in relations):
        raise DataError("relation name with '|'")
    if add_inverse:
        base = len(relations)
        for name in list(relations):
            if name + INVERSE_SUFFIX in relations:
                raise DataError(f"relation name {name + INVERSE_SUFFIX!r} collides with an inverse twin")
            _add(relations, name + INVERSE_SUFFIX)
        train = arrays[0]
        flipped = np.column_stack((train[:, 2], train[:, 1] + base, train[:, 0]))
        arrays[0] = np.concatenate((train, flipped))
    return (*arrays, list(entities), list(relations))
