"""Parameter sharing between minted metapath relations and original ones.

Four strategies decide how a minted relation gets its vector:

  none    every minted relation owns a free embedding row
  model   the scoring model's own composition over the constituent relation
          vectors (vector sum for translation scoring; undefined for the
          bilinear model, which composes multiplicatively per dimension and
          is rejected here)
  rnn     a single-layer tanh recurrence read over the constituent vectors
  basis   a learned combination of a small shared set of basis vectors

`relation_vector` and `relation_backward` are the one dispatch from an array
of relation ids to their vectors and back, called once per minibatch or
ranking call. A relation either owns a row of `relation_emb` (every relation
under `none`, and the original ones under the others) or takes its vector
from shared parameters: the rows of its minted metapath, or its basis
coefficient row (`basis_rows`). The backward routes the gradients onto the
touched parameters as the row arrays of `SparseGrads`. A state is trusted to
carry the parameters of its strategy; `storage.load_checkpoint` checks a
stored one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .mining import Metapath

if TYPE_CHECKING:  # pragma: no cover
    from .augment import NewRelationRegistry
    from .models import EmbeddingState

STRATEGY_KINDS = ("none", "model", "rnn", "basis")


@dataclass(frozen=True)
class SharingStrategy:
    kind: str = "none"
    basis_count: int | None = None   # basis strategy; None -> min(|relations|, 64)
    basis_include_original: bool = False

    def validate(self, scoring: str | None = None) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown sharing strategy {self.kind!r}")
        if self.basis_count is not None and self.basis_count < 1:
            raise ConfigError(f"basis count must be positive, got {self.basis_count}")
        if self.kind == "model" and scoring == "distmult":
            raise ConfigError(
                "model composition shares parameters through vector addition, "
                "which does not apply to the bilinear distmult scorer"
            )


@dataclass
class RnnParams:
    """Single-layer tanh recurrence: h' = tanh(w_in @ x + w_rec @ h + bias)."""

    w_in: np.ndarray   # (d, d)
    w_rec: np.ndarray  # (d, d)
    bias: np.ndarray   # (d,)

    def copy(self) -> "RnnParams":
        return RnnParams(self.w_in.copy(), self.w_rec.copy(), self.bias.copy())

    def __add__(self, other: "RnnParams") -> "RnnParams":
        return RnnParams(self.w_in + other.w_in, self.w_rec + other.w_rec,
                         self.bias + other.bias)


@dataclass
class BasisParams:
    """Shared basis vectors plus one coefficient row per shared relation:
    the minted ones in registry order, then under `basis_include_original`
    the original ones (`basis_keys`, `basis_rows`)."""

    vectors: np.ndarray       # (B, d)
    coefficients: np.ndarray  # (K, B)

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    def copy(self) -> "BasisParams":
        return BasisParams(self.vectors.copy(), self.coefficients.copy())


def basis_keys(registry: "NewRelationRegistry", strategy: SharingStrategy) -> list[Metapath]:
    """The metapath of each basis coefficient row, in row order; an original
    relation r shares under `(r,)`."""
    keys = list(registry.metapaths)
    if strategy.basis_include_original:
        keys += [(rel,) for rel in range(registry.first_id)]
    return keys


def basis_rows(registry: "NewRelationRegistry", strategy: SharingStrategy,
               rel_ids: np.ndarray) -> np.ndarray:
    """The basis coefficient row of each relation id, or -1 for a relation
    that owns a row of `relation_emb`."""
    first = registry.first_id
    own = len(registry) + rel_ids if strategy.basis_include_original else -1
    return np.where(rel_ids >= first, rel_ids - first, own)


def sum_rows(rows: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique rows, per-row sums) of `grads[i]` added onto `rows[i]`;
    each sum adds its terms in array order, so it rounds as a running total."""
    unique, inverse = np.unique(rows, return_inverse=True)
    total = np.zeros((unique.size, *grads.shape[1:]))
    np.add.at(total, inverse.reshape(-1), grads)
    return unique, total


def _plus(a, b):
    """a + b, where None stands for zero."""
    return b if a is None else a if b is None else a + b


class SparseGrads:
    """Gradients for the rows and parameters a loss touched.

    Three row tables, entity rows, relation rows and basis coefficient rows,
    each hold a sorted array of unique rows (`<table>_rows`) and one summed
    gradient per row (`<table>_grad`). The recurrence gradient `rnn` and the
    basis-vector gradient `basis_vectors` are dense, None until touched.
    """

    __slots__ = ("entity_rows", "entity_grad", "relation_rows", "relation_grad",
                 "basis_coef_rows", "basis_coef_grad", "rnn", "basis_vectors")

    TABLES = ("entity", "relation", "basis_coef")

    def __init__(self):
        for table in self.TABLES:
            setattr(self, f"{table}_rows", np.empty(0, dtype=np.int64))  # (u,) sorted, unique
            setattr(self, f"{table}_grad", np.empty((0, 0)))             # (u, width)
        self.rnn: RnnParams | None = None
        self.basis_vectors: np.ndarray | None = None

    def _add_rows(self, table: str, rows: np.ndarray, grads: np.ndarray) -> None:
        """Sum `grads[i]` onto row `rows[i]` of `table`, after what it holds."""
        if rows.size == 0:
            return
        held = getattr(self, f"{table}_rows")
        if held.size:
            rows = np.concatenate((held, rows))
            grads = np.concatenate((getattr(self, f"{table}_grad"), grads))
        unique, total = sum_rows(rows, grads)
        setattr(self, f"{table}_rows", unique)
        setattr(self, f"{table}_grad", total)

    def update(self, other: "SparseGrads") -> None:
        """Accumulate another gradient bundle into this one."""
        for table in self.TABLES:
            self._add_rows(table, getattr(other, f"{table}_rows"),
                           getattr(other, f"{table}_grad"))
        self.rnn = _plus(self.rnn, other.rnn)
        self.basis_vectors = _plus(self.basis_vectors, other.basis_vectors)


def rnn_forward(params: RnnParams, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the recurrence over rows of `inputs` from a zero state.

    Returns (final hidden state, all hidden states h_0..h_L).
    """
    h = np.zeros(params.bias.shape[0])
    states = [h]
    for x in inputs:
        h = np.tanh(params.w_in @ x + params.w_rec @ h + params.bias)
        states.append(h)
    return h, states


def rnn_backward(
    params: RnnParams, inputs: np.ndarray, states: list[np.ndarray], grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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


def relation_vector(state: "EmbeddingState", strategy: SharingStrategy,
                    rel_ids: np.ndarray) -> np.ndarray:
    """(m, d) vectors of the m relation ids `rel_ids`, original or minted."""
    rel_ids = np.asarray(rel_ids, dtype=np.int64)
    if strategy.kind == "none":
        return state.relation_emb[rel_ids]
    out = np.empty((rel_ids.size, state.dim))
    if strategy.kind == "basis":
        rows = basis_rows(state.registry, strategy, rel_ids)
        shared = rows >= 0
        out[~shared] = state.relation_emb[rel_ids[~shared]]
        # a stack of matrix-vector products, each rounding as `vectors.T @ coef`
        coef = state.basis.coefficients[rows[shared]]
        out[shared] = np.matmul(state.basis.vectors.T, coef[:, :, None])[:, :, 0]
        return out
    for i, rel in enumerate(rel_ids.tolist()):
        metapath = state.registry.metapath_of(rel)
        inputs = state.relation_emb[list(metapath or (rel,))]  # an original relation: its row
        if metapath and strategy.kind == "rnn":
            out[i] = rnn_forward(state.rnn, inputs)[0]
        else:
            out[i] = inputs.sum(axis=0)  # row by row: the left fold
    return out


def relation_backward(
    state: "EmbeddingState", strategy: SharingStrategy, rel_ids: np.ndarray,
    grads: np.ndarray, out: SparseGrads,
) -> None:
    """Accumulate `grads[i]`, the gradient on the vector of relation
    `rel_ids[i]`, into `out`; the contributions of the ids add in id order."""
    rel_ids = np.asarray(rel_ids, dtype=np.int64)
    if rel_ids.size == 0:
        return
    if strategy.kind == "basis":
        rows = basis_rows(state.registry, strategy, rel_ids)
        shared = rows >= 0
        if shared.any():
            rows, shared_grads = rows[shared], grads[shared]
            out._add_rows("basis_coef", rows,
                          np.matmul(state.basis.vectors, shared_grads[:, :, None])[:, :, 0])
            # np.outer per relation, summed in id order
            outer = state.basis.coefficients[rows][:, :, None] * shared_grads[:, None, :]
            out.basis_vectors = _plus(out.basis_vectors, outer.sum(axis=0))
        rel_ids, grads = rel_ids[~shared], grads[~shared]
    elif strategy.kind != "none":
        paths, row_grads = [], []
        for rel, grad in zip(rel_ids.tolist(), grads):
            metapath = state.registry.metapath_of(rel)
            if metapath and strategy.kind == "rnn":
                inputs = state.relation_emb[list(metapath)]
                _, states = rnn_forward(state.rnn, inputs)
                *params, grad = rnn_backward(state.rnn, inputs, states, grad)
                out.rnn = _plus(out.rnn, RnnParams(*params))
            paths.append(metapath or (rel,))
            row_grads.append(np.broadcast_to(grad, (len(paths[-1]), grad.shape[-1])))
        rel_ids, grads = np.concatenate(paths), np.concatenate(row_grads)
    out._add_rows("relation", rel_ids, grads)
