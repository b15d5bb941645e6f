"""Shallow embedding models: state, scoring, logistic loss, sparse SGD.

Two scorers over entity/relation vectors of one shared dimension, each
evaluated over any leading axes:

  transe_l1 / transe_l2   s(h, r, t) = -|h + r - t| under the L1 / L2 norm
  distmult                s(h, r, t) = sum_i h_i * r_i * t_i

Both add r to the smaller of h and t first, so scoring against the whole
(n, d) entity table is one pass over it: `side_vector` folds r into the
smaller side (t - r or h + r, small * r) and `side_scores` scores the table
against it, as ranking does. Equal-size h and t, as in every training
block, keep h + r - t and dot(h * t, r), so training bits do not depend on
the rule, and swapping h and t gives the bit-identical distmult score.
Losses are per-positive with k entity corruptions:

  loss = weight * [softplus(-(margin + s_pos)) + mean_j softplus(margin + s_j)]

`score_and_grad` returns the score and all three gradients from one
forward pass: the translation h + r - t (TransE) or the product h * t
(DistMult) is computed once and the gradients derive from it.

`batch_loss_and_grad` evaluates a whole minibatch in chunks of positives.
A chunk gathers the vectors of each positive's head and tail and of its k
corruptions' into one block, computes the translation once for the
positive and its corruptions together, and derives the scores, the loss
and every gradient from it; under TransE ds/dt of each side is computed
once, in place of the translation, and copied into the block's tail
slots, whose head slots take its negation. A chunk holds at most
CHUNK_VALUES (2^16) values per buffer and is a whole number of loss runs,
each filling a BLOCK_VALUES (2^14) block: the loss is summed run by run,
so its total does not depend on the chunk size, and the gradients never
do. The scratch buffers come from a `KernelWorkspace`, which
`training.train` keeps for its whole run, so they are faulted in once
rather than per minibatch. The touched entity rows and each slot's first
flat (row, column) cell are found once per batch, through a mark and a
rank table over the entities, and the gradients are added by numpy's 1-D
`ufunc.at` over those cells, one call per run for entities and per chunk
for relations: it adds the terms in the order the 2-D `np.add.at` does,
so the bits are the same, and numpy 1.25+ runs it in a fast loop (numpy
1.24 gives the same bits, slower). When d is even, a cell is a complex128
pair of adjacent float64 columns (`sharing.cell_pair`): a complex add sums
the real and the imaginary parts apart, each in the same order as before,
so the bits stay the same with half as many indices to build and visit;
an odd d keeps float64 cells through the same code. Entity gradients are
added in slot order (head, tail, corrupted heads, corrupted tails) and a
relation's as its positive's term plus the sum of its corruptions', in
the order of the two-pass oracle in `tests/oracles.py`, which the tests
hold the kernel to bit for bit. Weight-0 positives are dropped before
scoring. The gradients are row arrays (`SparseGrads`), applied by plain
SGD with optional L2 shrinkage on exactly the touched rows of each table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, NumericError
from .graph import Triplet
from .sharing import (
    BLOCK_VALUES,
    BasisParams,
    RnnParams,
    SharingStrategy,
    SparseGrads,
    basis_keys,
    cell_pair,
    paired,
    relation_backward,
    relation_vector,
)

if TYPE_CHECKING:  # pragma: no cover
    from .augment import NewRelationRegistry

SCORINGS = ("transe_l1", "transe_l2", "distmult")
RULE_SAMPLING_MODES = ("normalized", "raw")

DEFAULT_BASIS_CAP = 64


def default_margin(scoring: str) -> float:
    return 0.0 if scoring == "distmult" else 12.0


@dataclass
class ModelConfig:
    scoring: str = "transe_l2"
    dim: int = 200
    margin: float | None = None      # None resolves per scorer
    negatives: int = 16
    lr: float = 0.1                  # embedding rows
    lr_dense: float = 0.01           # recurrence and basis parameters
    regularization: float = 0.0
    epochs: int = 50
    batch_nodes: int = 1024
    seed: int = 0
    # the walks: nodes per walk, how rule confidences pick a relation, and the
    # original edges per minibatch (None matches the walk triplets)
    l_max: int = 3
    rule_sampling: str = "normalized"
    original_edge_sample: int | None = None

    def __post_init__(self):
        if self.margin is None:
            self.margin = default_margin(self.scoring)

    def validate(self) -> None:
        if self.scoring not in SCORINGS:
            raise ConfigError(f"unknown scoring {self.scoring!r}")
        if self.dim < 1:
            raise ConfigError(f"dimension must be positive, got {self.dim}")
        # NaN passes every comparison below, and inf margins or rates fail only
        # after an epoch of training
        for name in ("margin", "lr", "lr_dense", "regularization"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.negatives < 1:
            raise ConfigError(f"negative count must be positive, got {self.negatives}")
        if self.margin < 0:
            raise ConfigError(f"margin must be non-negative, got {self.margin}")
        if self.lr <= 0 or self.lr_dense <= 0:
            raise ConfigError("learning rates must be positive")
        if self.regularization < 0:
            raise ConfigError(f"regularization must be non-negative, got {self.regularization}")
        if self.epochs < 1 or self.batch_nodes < 1:
            raise ConfigError("epochs and batch size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # exact ints: a stored true or 3.0 compares equal to 1 or 3 on a resume
        if type(self.l_max) is not int or self.l_max < 1:
            raise ConfigError(f"l_max must be a positive integer, got {self.l_max!r}")
        if self.rule_sampling not in RULE_SAMPLING_MODES:
            raise ConfigError(f"rule_sampling must be one of {RULE_SAMPLING_MODES}, "
                              f"got {self.rule_sampling!r}")
        sample = self.original_edge_sample
        if sample is not None and (type(sample) is not int or sample < 0):
            raise ConfigError(f"original_edge_sample must be none or a non-negative integer, "
                              f"got {sample!r}")


@dataclass
class EmbeddingState:
    """All learnable parameters, the minted-relation id map, and the sharing
    strategy that decides which of the arrays each relation reads."""

    entity_emb: np.ndarray    # (num_entities, d)
    relation_emb: np.ndarray  # (rows, d); which relations own a row: `state_shapes`
    registry: NewRelationRegistry  # fixed; copies share it
    strategy: SharingStrategy
    rnn: RnnParams | None = None
    basis: BasisParams | None = None

    @property
    def dim(self) -> int:
        return int(self.entity_emb.shape[1])

    @property
    def num_entities(self) -> int:
        return int(self.entity_emb.shape[0])

    def arrays(self) -> dict[str, np.ndarray]:
        """The parameter arrays under their checkpoint names (`state_shapes`)."""
        arrays = {"entity_emb": self.entity_emb, "relation_emb": self.relation_emb}
        if self.rnn is not None:
            arrays.update(rnn_w_in=self.rnn.w_in, rnn_w_rec=self.rnn.w_rec,
                          rnn_bias=self.rnn.bias)
        if self.basis is not None:
            arrays.update(basis_vectors=self.basis.vectors, basis_coef=self.basis.coefficients)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], registry: NewRelationRegistry,
                    strategy: SharingStrategy) -> "EmbeddingState":
        """The state holding `arrays`, named as `arrays()` names them."""
        rnn = basis = None
        if "rnn_w_in" in arrays:
            rnn = RnnParams(arrays["rnn_w_in"], arrays["rnn_w_rec"], arrays["rnn_bias"])
        if "basis_vectors" in arrays:
            basis = BasisParams(arrays["basis_vectors"], arrays["basis_coef"])
        return cls(arrays["entity_emb"], arrays["relation_emb"], registry, strategy, rnn, basis)

    def copy(self) -> "EmbeddingState":
        arrays = {name: array.copy() for name, array in self.arrays().items()}
        return EmbeddingState.from_arrays(arrays, self.registry, self.strategy)


def state_shapes(num_entities: int, dim: int, registry: NewRelationRegistry,
                 strategy: SharingStrategy) -> dict[str, tuple[int, ...]]:
    """{name: shape} of every array a state of `strategy` holds for the
    relations of `registry`, in `init_state`'s draw order, under the names of
    `EmbeddingState.arrays` and of the checkpoint's files.

    A relation owns a `relation_emb` row unless its vector is shared: under
    `none` every relation owns one, under `basis_include_original` none does,
    and otherwise the original ones do.
    """
    num_relations = registry.first_id
    if strategy.kind == "none":
        rows = num_relations + len(registry)
    elif strategy.kind == "basis" and strategy.basis_include_original:
        rows = 0
    else:
        rows = num_relations
    shapes = {"entity_emb": (num_entities, dim), "relation_emb": (rows, dim)}
    if strategy.kind == "rnn":
        shapes.update(rnn_w_in=(dim, dim), rnn_w_rec=(dim, dim), rnn_bias=(dim,))
    elif strategy.kind == "basis":
        count = strategy.basis_count or min(num_relations, DEFAULT_BASIS_CAP)
        shapes.update(basis_vectors=(count, dim),
                      basis_coef=(len(basis_keys(registry, strategy)), count))
    return shapes


def init_state(
    num_entities: int,
    registry: NewRelationRegistry,
    config: ModelConfig,
    strategy: SharingStrategy,
    rng,
) -> EmbeddingState:
    """Fresh parameters of the `state_shapes` arrays, drawn in that order so
    that seeds reproduce: uniform in +-6/sqrt(d) (entity, relation and basis
    vectors) or +-1/sqrt(d) (recurrence weights), a zero recurrence bias, and
    normal basis coefficients of variance 1/count."""
    strategy.validate(config.scoring)
    config.validate()
    d = config.dim
    arrays = {}
    for name, shape in state_shapes(num_entities, d, registry, strategy).items():
        if name == "rnn_bias":
            arrays[name] = np.zeros(shape)
        elif name == "basis_coef":
            arrays[name] = rng.normal(0.0, math.sqrt(1.0 / shape[1]), size=shape)
        else:
            bound = (1.0 if name.startswith("rnn_") else 6.0) / math.sqrt(d)
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return EmbeddingState.from_arrays(arrays, registry, strategy)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def side_vector(anchor: np.ndarray, r: np.ndarray, scoring: str, replaced: str) -> np.ndarray:
    """The vector `side_scores` scores the whole entity table against when the
    `replaced` side ("head" or "tail") is the table and `anchor` the other:
    t - r or h + r under TransE, anchor * r under DistMult."""
    if scoring == "distmult":
        return anchor * r
    return anchor - r if replaced == "head" else anchor + r


def side_scores(cand: np.ndarray, x: np.ndarray, scoring: str) -> np.ndarray:
    """Scores of candidate rows `cand` against side vectors `x` (broadcast):
    -|cand - x| under TransE, cand . x under DistMult. Rounding to nearest is
    symmetric, fl(e - x) = -fl(x - e), so with x from `side_vector` these are
    `score`'s values on the whole table bit for bit, whichever side it fills."""
    return _rowdot(cand, x) if scoring == "distmult" else -_norm(cand - x, scoring)


def _norm(delta: np.ndarray, scoring: str) -> np.ndarray:
    if scoring == "transe_l2":
        return np.sqrt(_rowdot(delta, delta))
    if scoring == "transe_l1":
        return np.abs(delta).sum(axis=-1)
    raise ValueError(f"unknown scoring {scoring!r}")


def _check_shapes(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> None:
    if not h.shape[-1:] == r.shape[-1:] == t.shape[-1:]:  # leading axes broadcast or raise
        raise ValueError(f"vector shapes differ: {h.shape}, {r.shape}, {t.shape}")


def _forward(h, r, t, scoring: str, out=None):
    """(s, kept): the score, and the one intermediate its gradient derives from,
    written into `out` when given: the translation h + r - t (TransE) or the
    product h * t (DistMult). Operands of unequal size (the whole table on one
    side) are scored by `side_scores` and keep None."""
    if h.size != t.size:
        cand, anchor, replaced = (h, t, "head") if h.size > t.size else (t, h, "tail")
        return side_scores(cand, side_vector(anchor, r, scoring, replaced), scoring), None
    if scoring == "distmult":
        ht = np.multiply(h, t, out=out)
        return _rowdot(ht, r), ht
    delta = np.subtract(np.add(h, r, out=out), t, out=out)
    return -_norm(delta, scoring), delta


def _backward(h, r, t, scoring: str, s, kept, out=(None, None)):
    """(ds/dh, ds/dr, ds/dt) from `_forward`'s score and intermediate; the
    pair `out` receives ds/dh and ds/dt. Under TransE ds/dr is ds/dh."""
    dh_out, dt_out = out
    if kept is None:
        kept = h * t if scoring == "distmult" else h + r - t
    if scoring == "distmult":
        return np.multiply(r, t, out=dh_out), kept, np.multiply(h, r, out=dt_out)
    if scoring == "transe_l2":
        # a zero norm is the kink of |.|; dividing by inf gives it the zero subgradient
        norm = np.where(s < 0, -s, np.inf)[..., None]
        dt = np.divide(kept, norm, out=dt_out)
    else:
        dt = np.sign(kept, out=dt_out)
    dh = np.negative(dt, out=dh_out)
    return dh, dh, dt


def score(h: np.ndarray, r: np.ndarray, t: np.ndarray, scoring: str):
    """Plausibility of triplets from their vectors (higher is better).

    The last axis is the embedding dimension and the leading axes
    broadcast: three (d,) vectors give one score, (B, d) blocks give (B,)
    scores, (B, k, d) entity blocks with a (B, 1, d) relation block give
    (B, k) scores, and the (n, d) entity table with (d,) vectors gives (n,).
    """
    _check_shapes(h, r, t)
    return _forward(h, r, t, scoring)[0]


def score_and_grad(h: np.ndarray, r: np.ndarray, t: np.ndarray, scoring: str):
    """(s, ds/dh, ds/dr, ds/dt) from one forward pass.

    s is `score(h, r, t, scoring)` bit for bit; each gradient broadcasts
    against the inputs. A zero L2 norm gets the zero subgradient.
    """
    _check_shapes(h, r, t)
    s, kept = _forward(h, r, t, scoring)
    return (s, *_backward(h, r, t, scoring, s, kept))


@dataclass(frozen=True)
class TripletBatch:
    """Weighted positives as parallel arrays of length B."""

    heads: np.ndarray      # int64
    relations: np.ndarray  # int64
    tails: np.ndarray      # int64
    weights: np.ndarray    # float64

    @classmethod
    def pack(cls, triplets) -> "TripletBatch":
        """Arrays of head/relation/tail records; a record without a weight weighs 1."""
        n = len(triplets)
        return cls(
            np.fromiter((t.head for t in triplets), np.int64, n),
            np.fromiter((t.relation for t in triplets), np.int64, n),
            np.fromiter((t.tail for t in triplets), np.int64, n),
            np.fromiter((getattr(t, "weight", 1.0) for t in triplets), np.float64, n),
        )

    def __len__(self) -> int:
        return int(self.heads.size)

    def __iter__(self):
        """The (head, relation, tail) rows as `Triplet`s, in batch order."""
        return map(Triplet, self.heads.tolist(), self.relations.tolist(), self.tails.tolist())

    def select(self, mask: np.ndarray) -> "TripletBatch":
        return TripletBatch(self.heads[mask], self.relations[mask], self.tails[mask],
                            self.weights[mask])


def draw_negatives(
    batch: TripletBatch, num_entities: int, k: int, rng,
) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails) of k corruptions per positive, each of shape (B, k).

    Two draws per batch: first `rng.random((B, k)) < 0.5` picks the
    replaced side of every corruption (True replaces the head), then
    `rng.integers(num_entities, size=(B, k))` picks the replacing entities.
    """
    if k < 1:
        raise ValueError(f"need at least one negative, got {k}")
    if num_entities < 1:
        raise ValueError("cannot corrupt over an empty entity set")
    size = (len(batch), k)
    corrupt_head = rng.random(size) < 0.5
    entity = rng.integers(num_entities, size=size)
    heads = np.where(corrupt_head, entity, batch.heads[:, None])
    tails = np.where(corrupt_head, batch.tails[:, None], entity)
    return heads, tails


def negative_sample(triplet, num_entities: int, k: int, rng) -> list[Triplet]:
    """k corruptions of `triplet`, each replacing head or tail by a fair coin."""
    heads, tails = draw_negatives(TripletBatch.pack([triplet]), num_entities, k, rng)
    return [Triplet(int(h), triplet.relation, int(t)) for h, t in zip(heads[0], tails[0])]


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Values per buffer of one compute chunk of the batch kernel (512 KB of
# float64). A chunk is a whole number of loss runs of BLOCK_VALUES // ((2 +
# 2k) d) positives, so the loss is summed run by run whatever the chunk size.
CHUNK_VALUES = 1 << 16


class KernelWorkspace:
    """Scratch arrays of `batch_loss_and_grad`, kept from one call to the next.

    `training.train` holds one for its run, so the kernel's buffers are
    allocated and faulted in once rather than per minibatch. Each buffer
    grows to the largest request made of it and is freed with the workspace.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array of `shape`, a view of the
        buffer `name`; it stays valid until `name` is taken again."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _raise_non_finite_loss(loss: np.ndarray, offset: int, batch: TripletBatch) -> None:
    """Raise NumericError naming the first positive of `loss` with a
    non-finite loss, `offset` being its first positive's index in `batch`.
    Finite losses whose sum overflows are not an error."""
    bad = np.flatnonzero(~np.isfinite(loss))
    if bad.size:
        i = offset + int(bad[0])
        ident = Triplet(int(batch.heads[i]), int(batch.relations[i]), int(batch.tails[i]))
        raise NumericError(f"non-finite loss {float(loss[bad[0]])!r} for triplet "
                           f"{tuple(ident)}", triplet=ident)


@np.errstate(over="ignore", invalid="ignore")  # once per call: a per-chunk `with` cost 3%
def batch_loss_and_grad(
    batch: TripletBatch,
    neg_heads: np.ndarray,
    neg_tails: np.ndarray,
    state: EmbeddingState,
    config: ModelConfig,
    workspace: KernelWorkspace | None = None,
) -> tuple[float, SparseGrads]:
    """Summed weighted logistic loss of a minibatch, and its gradients.

    Positive i is scored against the k corruptions in row i of the (B, k)
    arrays `neg_heads` / `neg_tails`, which keep its relation. Weight-0
    positives are dropped first and contribute nothing. One
    `relation_vector` call builds the vectors of the distinct relations;
    positives are scored in chunks of CHUNK_VALUES per buffer, each in one
    forward pass over the positive and its corruptions together; the loss
    is summed per run of BLOCK_VALUES per block, in order; entity and
    relation gradients are summed onto the unique touched rows by one 1-D
    `np.add.at` per run and per chunk, in positive order; and one
    `relation_backward` call routes each relation's summed vector gradient.
    The scratch comes from `workspace`, or a fresh one per call. A
    non-finite loss raises NumericError before its chunk's gradients are
    computed, and a non-finite gradient raises it in `apply_update`; numpy
    does not warn first.
    """
    grads = SparseGrads()
    keep = batch.weights != 0.0
    if not keep.all():
        batch, neg_heads, neg_tails = batch.select(keep), neg_heads[keep], neg_tails[keep]
    size = len(batch)
    if size == 0:
        return 0.0, grads
    ws = KernelWorkspace() if workspace is None else workspace

    scoring = config.scoring
    margin = config.margin
    k = neg_heads.shape[1]
    d = state.dim
    emb = state.entity_emb
    relations, relation_of = np.unique(batch.relations, return_inverse=True)
    vectors = relation_vector(state, relations)
    h, t = batch.heads[:, None], batch.tails[:, None]
    # a chunk gathers each positive's heads, then its tails: h, the k corrupted
    # heads, t, the k corrupted tails; entity gradients are added in slot order:
    # h, t, the k corrupted heads, the k corrupted tails
    sides = np.concatenate((h, neg_heads, t, neg_tails), axis=1)
    slots = np.concatenate((h, t, neg_heads, neg_tails), axis=1)
    # checked first: a negative id would index the tables from the end
    if slots.min() < 0 or slots.max() >= state.num_entities:
        raise IndexError(f"entity id out of range [0, {state.num_entities})")
    # the touched rows, sorted, and the first flat cell of each slot's row;
    # a cell is a complex128 pair of adjacent columns when d is even
    pair = cell_pair(d)
    q = d // pair  # cells per row
    mark = ws.take("mark", (state.num_entities,), bool)
    mark.fill(False)
    mark[slots] = True
    rows = np.flatnonzero(mark)
    cell_of = ws.take("cell_of", (state.num_entities,), np.int64)
    cell_of[rows] = np.arange(0, rows.size * q, q)
    entity_base = cell_of[slots]
    relation_base = relation_of * q
    columns = np.arange(q)
    entity_grad = np.zeros((rows.size, d))
    relation_grad = np.zeros((relations.size, d))
    entity_cells, relation_cells = paired(entity_grad, pair), paired(relation_grad, pair)

    width = slots.shape[1]
    run = max(1, BLOCK_VALUES // (width * d))
    chunk = min(size, run * max(1, CHUNK_VALUES // (run * width * d)))
    block = ws.take("block", (chunk, width, d))   # gathered vectors, then entity gradients
    kept = ws.take("kept", (chunk, 1 + k, d))     # the translation, or h * t
    r_block = ws.take("r_block", (chunk, d))      # relation vectors, then their gradients
    cells = ws.take("cells", (min(run, chunk) * width * q,), np.int64)
    r_cells = ws.take("r_cells", (chunk, q), np.int64)
    if scoring == "distmult":
        grad = ws.take("grad", (chunk, 2, 1 + k, d))  # ds/dh and ds/dt of every side

    total = 0.0
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        w = batch.weights[part]
        n = w.size
        np.take(emb, sides[part], axis=0, out=block[:n], mode="clip")
        r = np.take(vectors, relation_of[part], axis=0, out=r_block[:n], mode="clip")[:, None]
        heads, tails = block[:n, :1 + k], block[:n, 1 + k:]
        # side 0 is the positive, sides 1..k its corruptions
        s, inner = _forward(heads, r, tails, scoring, out=kept[:n])
        z = margin + s
        np.negative(z[:, 0], out=z[:, 0])
        softplus = _softplus(z)
        loss = w * (softplus[:, 0] + (softplus[:, 1:] / k).sum(axis=1))
        for a in range(0, n, run):
            run_loss = float(loss[a:a + run].sum())
            if not math.isfinite(run_loss):
                _raise_non_finite_loss(loss[a:a + run], lo + a, batch)
            total += run_loss

        # dloss/ds: -w * sigmoid(-(margin + s)) for the positive, and
        # w * sigmoid(margin + s) / k for each corruption
        coef = _sigmoid(z)
        coef[:, 0] *= -w
        coef[:, 1:] *= w[:, None]
        coef[:, 1:] /= k
        # the gathered vectors are spent: the block takes the entity gradients in slot order
        if scoring == "distmult":
            dh, dr, _ = _backward(heads, r, tails, scoring, s, inner,
                                  out=(grad[:n, 0], grad[:n, 1]))
            np.multiply(grad[:n, :, 0], coef[:, :1, None], out=block[:n, :2])
            np.multiply(grad[:n, :, 1:], coef[:, None, 1:, None],
                        out=block[:n, 2:].reshape(n, 2, k, d))
            dr = np.multiply(dr, coef[..., None], out=dr)
            pos, neg = dr[:, 0], dr[:, 1:]
        else:
            # ds/dt of every side, scaled, in place of the translation: the tail
            # slots take it and the head slots its negation, ds/dh = ds/dr, as
            # (-a) * c is -(a * c) exactly
            if scoring == "transe_l2":
                # a zero norm is the kink of |.|; dividing by inf gives it the zero subgradient
                norm = np.where(s < 0, -s, np.inf)[..., None]
                dt = np.divide(inner, norm, out=inner)
            else:
                dt = np.sign(inner, out=inner)
            dt *= coef[..., None]
            block[:n, 1] = dt[:, 0]
            block[:n, 2 + k:] = dt[:, 1:]
            pos = np.negative(dt[:, 0], out=block[:n, 0])
            neg = np.negative(dt[:, 1:], out=block[:n, 2:2 + k])
        # a relation's gradient is its positive's term plus the sum of its corruptions'
        np.add(pos, neg.sum(axis=1, out=r_block[:n]), out=r_block[:n])
        np.add(relation_base[part, None], columns, out=r_cells[:n])
        np.add.at(relation_cells, r_cells[:n].reshape(-1), paired(r_block[:n], pair))
        # 1-D `ufunc.at` over flat cells visits them in the 2-D `np.add.at` order
        for a in range(0, n, run):
            m = min(run, n - a)
            ids = np.add(entity_base[lo + a:lo + a + m, :, None], columns,
                         out=cells[:m * width * q].reshape(m, width, q))
            np.add.at(entity_cells, ids.reshape(-1), paired(block[a:a + m], pair))

    grads.entity_rows, grads.entity_grad = rows, entity_grad
    relation_backward(state, relations, relation_grad, grads)
    return total, grads


def loss_and_grad(
    positive,
    negatives,
    state: EmbeddingState,
    config: ModelConfig,
) -> tuple[float, SparseGrads]:
    """Weighted logistic loss of one positive against its corruptions.

    `positive` needs head/relation/tail and may carry a weight (default 1).
    All negatives must share the positive's relation. This is
    `batch_loss_and_grad` on a batch of one.
    """
    if any(neg.relation != positive.relation for neg in negatives):
        raise ValueError("negatives must share the positive's relation")
    neg_heads = np.array([[neg.head for neg in negatives]], dtype=np.int64)
    neg_tails = np.array([[neg.tail for neg in negatives]], dtype=np.int64)
    return batch_loss_and_grad(TripletBatch.pack([positive]), neg_heads, neg_tails,
                               state, config)


def _finite_or_raise(values: np.ndarray, name: str, rows: np.ndarray | None = None) -> None:
    if np.isfinite(values).all():
        return
    where = ""
    if rows is not None:
        bad = ~np.isfinite(values).reshape(len(rows), -1).all(axis=1)
        where = f" row {int(rows[np.argmax(bad)])}"
    raise NumericError(f"non-finite {name}{where} after the update step")


def _step_rows(table: np.ndarray, rows: np.ndarray, grad: np.ndarray, lr: float,
               reg: float, name: str) -> None:
    step = max(1, BLOCK_VALUES // table.shape[1])
    for lo in range(0, rows.size, step):
        part = rows[lo:lo + step]
        current = table[part]
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            current -= lr * (grad[lo:lo + step] + reg * current)
        _finite_or_raise(current, name, part)
        table[part] = current


def _step(param: np.ndarray, grad: np.ndarray, lr: float, reg: float, name: str) -> None:
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        param -= lr * (grad + reg * param)
    _finite_or_raise(param, name)


def apply_update(state: EmbeddingState, grads: SparseGrads, config: ModelConfig) -> None:
    """One SGD step; L2 shrinkage hits only the touched rows and parameters.

    Raises NumericError naming the parameter block the step makes
    non-finite, so a diverging run stops where it diverges.
    """
    lr, lrd, reg = config.lr, config.lr_dense, config.regularization
    _step_rows(state.entity_emb, grads.entity_rows, grads.entity_grad, lr, reg, "entity_emb")
    _step_rows(state.relation_emb, grads.relation_rows, grads.relation_grad, lr, reg,
               "relation_emb")
    if grads.rnn is not None:
        for name in ("w_in", "w_rec", "bias"):
            _step(getattr(state.rnn, name), getattr(grads.rnn, name), lrd, reg, f"rnn.{name}")
    if grads.basis_vectors is not None:
        _step(state.basis.vectors, grads.basis_vectors, lrd, reg, "basis.vectors")
    if grads.basis_coef_rows.size:
        _step_rows(state.basis.coefficients, grads.basis_coef_rows, grads.basis_coef_grad,
                   lrd, reg, "basis coefficients")
