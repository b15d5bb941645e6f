"""Shallow embedding models: state, scoring, logistic loss, sparse SGD.

Two scorers over entity/relation vectors of one shared dimension, each
evaluated over any leading axes:

  transe_l1 / transe_l2   s(h, r, t) = -|h + r - t| under the L1 / L2 norm
  distmult                s(h, r, t) = sum_i h_i * r_i * t_i

The distmult sum is computed as dot(h * t, r) so that swapping h and t
gives the bit-identical score. Losses are per-positive with k entity
corruptions:

  loss = weight * [softplus(-(margin + s_pos)) + mean_j softplus(margin + s_j)]

`batch_loss_and_grad` evaluates a whole minibatch: entity gradients are
summed onto the unique touched rows, and each relation vector is built and
backpropagated once per batch. They are applied by plain SGD with optional
L2 shrinkage on exactly the touched rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .graph import Triplet
from .mining import Metapath
from .sharing import (
    BasisParams,
    RnnParams,
    SharingStrategy,
    SparseGrads,
    relation_backward,
    relation_vector,
)

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


@dataclass
class EmbeddingState:
    """All learnable parameters plus the minted-relation id map."""

    entity_emb: np.ndarray    # (num_entities, d)
    relation_emb: np.ndarray  # (rows, d); rows include minted ids only for the free strategy
    num_original_relations: int
    minted_paths: dict[int, Metapath] = field(default_factory=dict)
    rnn: RnnParams | None = None
    basis: BasisParams | None = None

    def __post_init__(self):
        self._minted_ids = {m: rid for rid, m in self.minted_paths.items()}

    @property
    def dim(self) -> int:
        return int(self.entity_emb.shape[1])

    @property
    def num_entities(self) -> int:
        return int(self.entity_emb.shape[0])

    def minted_id_of(self, metapath: Metapath) -> int | None:
        return self._minted_ids.get(metapath)

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(
            self.entity_emb.copy(),
            self.relation_emb.copy(),
            self.num_original_relations,
            dict(self.minted_paths),
            self.rnn.copy() if self.rnn is not None else None,
            self.basis.copy() if self.basis is not None else None,
        )


def init_state(
    num_entities: int,
    num_relations: int,
    minted_paths: dict[int, Metapath],
    config: ModelConfig,
    strategy: SharingStrategy,
    rng,
) -> EmbeddingState:
    """Fresh parameters; the rng draw order is fixed so seeds reproduce."""
    strategy.validate(config.scoring)
    config.validate()
    d = config.dim
    bound = 6.0 / math.sqrt(d)
    entity = rng.uniform(-bound, bound, size=(num_entities, d))
    rows = num_relations + (len(minted_paths) if strategy.kind == "none" else 0)
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
        scale = math.sqrt(1.0 / count)
        keys: list[Metapath] = sorted(m for m in minted_paths.values())
        if strategy.basis_include_original:
            keys += [(rel,) for rel in range(num_relations)]
        coefficients = {key: rng.normal(0.0, scale, size=count) for key in keys}
        basis = BasisParams(vectors, coefficients, strategy.basis_include_original)

    return EmbeddingState(entity, relation, num_relations, dict(minted_paths), rnn, basis)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def score(h: np.ndarray, r: np.ndarray, t: np.ndarray, scoring: str):
    """Plausibility of triplets from their vectors (higher is better).

    The last axis is the embedding dimension and the leading axes
    broadcast: three (d,) vectors give one score, (B, d) blocks give (B,)
    scores, and (B, k, d) entity blocks with a (B, 1, d) relation block
    give (B, k) scores.
    """
    if not h.shape[-1:] == r.shape[-1:] == t.shape[-1:]:  # leading axes broadcast or raise
        raise ValueError(f"vector shapes differ: {h.shape}, {r.shape}, {t.shape}")
    if scoring == "transe_l2":
        delta = h + r - t
        return -np.sqrt(_rowdot(delta, delta))
    if scoring == "transe_l1":
        return -np.abs(h + r - t).sum(axis=-1)
    if scoring == "distmult":
        return _rowdot(h * t, r)
    raise ValueError(f"unknown scoring {scoring!r}")


def score_backward(
    h: np.ndarray, r: np.ndarray, t: np.ndarray, scoring: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ds/dh, ds/dr, ds/dt), each of the broadcast shape of the inputs."""
    if scoring == "transe_l2":
        delta = h + r - t
        norm = np.sqrt(_rowdot(delta, delta))[..., None]
        # a zero norm is the kink of |.|; it gets the zero subgradient
        g = np.divide(-delta, norm, out=np.zeros_like(delta), where=norm > 0)
        return g, g, -g
    if scoring == "transe_l1":
        g = -np.sign(h + r - t)
        return g, g, -g
    if scoring == "distmult":
        return r * t, h * t, h * r
    raise ValueError(f"unknown scoring {scoring!r}")


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


# Values in one block of vectors (128 KB of float64). A chunk of positives
# gathers its (chunk, 2 + 2k, d) head, tail and corruption vectors as one
# block, and the SGD step updates rows in blocks of this size, so scratch
# memory does not grow with the length of a minibatch.
BLOCK_VALUES = 1 << 14


def batch_loss_and_grad(
    batch: TripletBatch,
    neg_heads: np.ndarray,
    neg_tails: np.ndarray,
    state: EmbeddingState,
    strategy: SharingStrategy,
    config: ModelConfig,
) -> tuple[float, SparseGrads]:
    """Summed weighted logistic loss of a minibatch, and its gradients.

    Positive i is scored against the k corruptions in row i of the (B, k)
    arrays `neg_heads` / `neg_tails`, which keep its relation. Weight-0
    positives are dropped first and contribute nothing. Each distinct
    relation's vector is built once; positives are scored in chunks sized
    by BLOCK_VALUES; entity gradients are summed onto the unique touched
    rows; and each relation's summed vector gradient goes through
    `relation_backward` once.
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
    vectors = np.stack([relation_vector(state, strategy, int(rel)) for rel in relations])
    # per positive: head, tail, k corrupted heads, k corrupted tails
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
        np.add.at(relation_grad, relation_of[part], c_pos * dr + (c_neg * drn).sum(axis=1))
        # the gathered vectors are spent: reuse the block for their gradients
        np.multiply(c_pos, dh, out=block[:, 0])
        np.multiply(c_pos, dt, out=block[:, 1])
        np.multiply(c_neg, dhn, out=block[:, 2:2 + k])
        np.multiply(c_neg, dtn, out=block[:, 2 + k:])
        np.add.at(entity_grad, row_of[part], block)

    grads.entity_rows, grads.entity_grad = rows, entity_grad
    for rel, grad in zip(relations.tolist(), relation_grad):
        relation_backward(state, strategy, rel, grad, grads)
    return total, grads


def loss_and_grad(
    positive,
    negatives,
    state: EmbeddingState,
    strategy: SharingStrategy,
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
                               state, strategy, config)


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
    lr = config.lr
    reg = config.regularization
    if grads.entity_rows.size:
        _step_rows(state.entity_emb, grads.entity_rows, grads.entity_grad, lr, reg, "entity_emb")
    if grads.relation:
        rows = np.array(sorted(grads.relation), dtype=np.int64)
        grad = np.stack([grads.relation[idx] for idx in rows.tolist()])
        _step_rows(state.relation_emb, rows, grad, lr, reg, "relation_emb")
    lrd = config.lr_dense
    if grads.rnn_w_in is not None:
        rnn = state.rnn
        _step(rnn.w_in, grads.rnn_w_in, lrd, reg, "rnn.w_in")
        _step(rnn.w_rec, grads.rnn_w_rec, lrd, reg, "rnn.w_rec")
        _step(rnn.bias, grads.rnn_bias, lrd, reg, "rnn.bias")
    if grads.basis_vectors is not None:
        _step(state.basis.vectors, grads.basis_vectors, lrd, reg, "basis.vectors")
    for key in sorted(grads.basis_coef):
        _step(state.basis.coefficients[key], grads.basis_coef[key], lrd, reg,
              f"basis coefficients of {key}")
