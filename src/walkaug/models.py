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
and every gradient from it. The block, the translation, the gradient
buffers and the flat cell indices are allocated once per call and refilled
in place (`out=`) by every chunk. A chunk holds at most BLOCK_VALUES (2^14)
values per buffer: at 2^17 the kernel took about 18,000 minor page faults
per `train` call of the planted benchmark, against about 700 at 2^14, and
was no faster. Each chunk adds its entity and relation gradients with
`sharing.add_rows`, numpy's 1-D `ufunc.at` over flat (row, column) cell
indices: it adds the terms in the order the 2-D `np.add.at` does, so the
bits are the same, and numpy 1.25+ runs it in a fast loop (numpy 1.24
gives the same bits, slower). Entity gradients are added in slot order
(head, tail, corrupted heads, corrupted tails) and a relation's as its
positive's term plus the sum of its corruptions', in the order of the
two-pass oracle in `tests/oracles.py`, which the tests hold the kernel to
bit for bit. Weight-0 positives are dropped before scoring. The gradients
are row arrays (`SparseGrads`), applied by plain SGD with optional L2
shrinkage on exactly the touched rows of each table.
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
    add_rows,
    basis_keys,
    relation_backward,
    relation_vector,
)

if TYPE_CHECKING:  # pragma: no cover
    from .augment import NewRelationRegistry

SCORINGS = ("transe_l1", "transe_l2", "distmult")

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


@dataclass
class EmbeddingState:
    """All learnable parameters, the minted-relation id map, and the sharing
    strategy that decides which of the arrays each relation reads."""

    entity_emb: np.ndarray    # (num_entities, d)
    relation_emb: np.ndarray  # (rows, d); rows include minted ids only for the free strategy
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

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(
            self.entity_emb.copy(),
            self.relation_emb.copy(),
            self.registry,
            self.strategy,
            self.rnn.copy() if self.rnn is not None else None,
            self.basis.copy() if self.basis is not None else None,
        )


def init_state(
    num_entities: int,
    registry: NewRelationRegistry,
    config: ModelConfig,
    strategy: SharingStrategy,
    rng,
) -> EmbeddingState:
    """Fresh parameters for the original relations (`registry.first_id` of
    them) and the minted ones; the rng draw order is fixed so seeds reproduce."""
    strategy.validate(config.scoring)
    config.validate()
    d = config.dim
    num_relations = registry.first_id
    bound = 6.0 / math.sqrt(d)
    entity = rng.uniform(-bound, bound, size=(num_entities, d))
    rows = num_relations + (len(registry) if strategy.kind == "none" else 0)
    relation = rng.uniform(-bound, bound, size=(rows, d))

    rnn = None
    basis = None
    if strategy.kind == "rnn":
        wb = 1.0 / math.sqrt(d)
        rnn = RnnParams(
            w_in=rng.uniform(-wb, wb, size=(d, d)),
            w_rec=rng.uniform(-wb, wb, size=(d, d)),
            bias=np.zeros(d),
        )
    elif strategy.kind == "basis":
        count = strategy.basis_count or min(num_relations, DEFAULT_BASIS_CAP)
        vectors = rng.uniform(-bound, bound, size=(count, d))
        rows = len(basis_keys(registry, strategy))
        coefficients = rng.normal(0.0, math.sqrt(1.0 / count), size=(rows, count))
        basis = BasisParams(vectors, coefficients)

    return EmbeddingState(entity, relation, registry, strategy, rnn, basis)


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


@np.errstate(over="ignore", invalid="ignore")  # once per call: a per-chunk `with` cost 3%
def batch_loss_and_grad(
    batch: TripletBatch,
    neg_heads: np.ndarray,
    neg_tails: np.ndarray,
    state: EmbeddingState,
    config: ModelConfig,
) -> tuple[float, SparseGrads]:
    """Summed weighted logistic loss of a minibatch, and its gradients.

    Positive i is scored against the k corruptions in row i of the (B, k)
    arrays `neg_heads` / `neg_tails`, which keep its relation. Weight-0
    positives are dropped first and contribute nothing. One
    `relation_vector` call builds the vectors of the distinct relations;
    positives are scored in chunks sized by BLOCK_VALUES, each in one
    forward pass over the positive and its corruptions together; entity
    and relation gradients are summed onto the unique touched rows by
    `add_rows`, in chunk order; and one `relation_backward` call routes
    each relation's summed vector gradient. A non-finite loss raises
    NumericError before any gradient is computed, and a non-finite
    gradient raises it in `apply_update`; numpy does not warn first.
    """
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
    h, t = batch.heads[:, None], batch.tails[:, None]
    # a chunk gathers each positive's heads, then its tails: h, the k corrupted
    # heads, t, the k corrupted tails; entity gradients are added in slot order:
    # h, t, the k corrupted heads, the k corrupted tails
    sides = np.concatenate((h, neg_heads, t, neg_tails), axis=1)
    slots = np.concatenate((h, t, neg_heads, neg_tails), axis=1)
    rows, row_of = np.unique(slots, return_inverse=True)
    if rows[0] < 0 or rows[-1] >= state.num_entities:
        raise IndexError(f"entity id out of range [0, {state.num_entities})")
    row_of = row_of.reshape(slots.shape)
    entity_grad = np.zeros((rows.size, d))
    relation_grad = np.zeros((relations.size, d))

    # scratch for one chunk, refilled in place by every chunk
    width = slots.shape[1]
    chunk = min(size, max(1, BLOCK_VALUES // (width * d)))
    block = np.empty((chunk, width, d))      # gathered vectors, then entity gradients
    kept = np.empty((chunk, 1 + k, d))       # the translation, or h * t
    grad = np.empty((chunk, 2, 1 + k, d))    # ds/dh and ds/dt of every side
    r_block = np.empty((chunk, d))           # relation vectors, then their gradients
    cells = np.empty(chunk * width * d, dtype=np.int64)

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
        if not np.isfinite(loss).all():
            bad = np.flatnonzero(~np.isfinite(loss))
            i = lo + int(bad[0])
            ident = Triplet(int(batch.heads[i]), int(batch.relations[i]), int(batch.tails[i]))
            raise NumericError(f"non-finite loss {float(loss[bad[0]])!r} for triplet "
                               f"{tuple(ident)}", triplet=ident)
        total += float(loss.sum())

        # dloss/ds: -w * sigmoid(-(margin + s)) for the positive, and
        # w * sigmoid(margin + s) / k for each corruption
        coef = _sigmoid(z)
        coef[:, 0] *= -w
        coef[:, 1:] *= w[:, None]
        coef[:, 1:] /= k
        dh, dr, _ = _backward(heads, r, tails, scoring, s, inner, out=(grad[:n, 0], grad[:n, 1]))
        # the gathered vectors are spent: the block takes the entity gradients in slot order
        np.multiply(grad[:n, :, 0], coef[:, :1, None], out=block[:n, :2])
        np.multiply(grad[:n, :, 1:], coef[:, None, 1:, None],
                    out=block[:n, 2:].reshape(n, 2, k, d))
        # a relation's gradient is its positive's term plus the sum of its corruptions'
        if dr is dh:
            pos, neg = block[:n, 0], block[:n, 2:2 + k]
        else:
            dr = np.multiply(dr, coef[..., None], out=dr)
            pos, neg = dr[:, 0], dr[:, 1:]
        np.add(pos, neg.sum(axis=1, out=r_block[:n]), out=r_block[:n])
        add_rows(relation_grad, relation_of[part], r_block[:n], cells)
        add_rows(entity_grad, row_of[part], block[:n], cells)

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
