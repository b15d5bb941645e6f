"""Parameter sharing between minted metapath relations and original ones.

Four strategies decide how a minted relation gets its vector:

  none    every minted relation owns a free embedding row
  model   the scoring model's own composition over the constituent relation
          vectors (vector sum for translation scoring; undefined for the
          bilinear model, which composes multiplicatively per dimension and
          is rejected here)
  rnn     a single-layer tanh recurrence read over the constituent vectors
  basis   a learned combination of a small shared set of basis vectors

All forward passes have matching manual backward passes that route a
gradient on the produced vector back onto the touched parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .mining import Metapath

if TYPE_CHECKING:  # pragma: no cover
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


@dataclass
class BasisParams:
    """Shared basis vectors plus one coefficient vector per metapath key."""

    vectors: np.ndarray                       # (B, d)
    coefficients: dict[Metapath, np.ndarray]  # key -> (B,)
    include_original: bool = False

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    def copy(self) -> "BasisParams":
        return BasisParams(
            self.vectors.copy(),
            {k: v.copy() for k, v in self.coefficients.items()},
            self.include_original,
        )


class SparseGrads:
    """Gradients for the rows and parameters one loss term touched."""

    __slots__ = ("entity", "relation", "rnn_w_in", "rnn_w_rec", "rnn_bias",
                 "basis_vectors", "basis_coef")

    def __init__(self):
        self.entity: dict[int, np.ndarray] = {}
        self.relation: dict[int, np.ndarray] = {}
        self.rnn_w_in: np.ndarray | None = None
        self.rnn_w_rec: np.ndarray | None = None
        self.rnn_bias: np.ndarray | None = None
        self.basis_vectors: np.ndarray | None = None
        self.basis_coef: dict[Metapath, np.ndarray] = {}

    @staticmethod
    def _acc(table: dict, key, grad: np.ndarray) -> None:
        have = table.get(key)
        table[key] = grad.copy() if have is None else have + grad

    def add_entity(self, idx: int, grad: np.ndarray) -> None:
        self._acc(self.entity, idx, grad)

    def add_relation(self, idx: int, grad: np.ndarray) -> None:
        self._acc(self.relation, idx, grad)

    def add_rnn(self, d_w_in: np.ndarray, d_w_rec: np.ndarray, d_bias: np.ndarray) -> None:
        if self.rnn_w_in is None:
            self.rnn_w_in = d_w_in.copy()
            self.rnn_w_rec = d_w_rec.copy()
            self.rnn_bias = d_bias.copy()
        else:
            self.rnn_w_in += d_w_in
            self.rnn_w_rec += d_w_rec
            self.rnn_bias += d_bias

    def add_basis_vectors(self, grad: np.ndarray) -> None:
        self.basis_vectors = grad.copy() if self.basis_vectors is None else self.basis_vectors + grad

    def add_basis_coef(self, key: Metapath, grad: np.ndarray) -> None:
        self._acc(self.basis_coef, key, grad)

    def update(self, other: "SparseGrads") -> None:
        """Accumulate another gradient bundle into this one."""
        for idx, grad in other.entity.items():
            self.add_entity(idx, grad)
        for idx, grad in other.relation.items():
            self.add_relation(idx, grad)
        if other.rnn_w_in is not None:
            self.add_rnn(other.rnn_w_in, other.rnn_w_rec, other.rnn_bias)
        if other.basis_vectors is not None:
            self.add_basis_vectors(other.basis_vectors)
        for key, grad in other.basis_coef.items():
            self.add_basis_coef(key, grad)


def compose_vectors(vectors: np.ndarray) -> np.ndarray:
    """Left-fold sum over the rows of `vectors`."""
    out = vectors[0].copy()
    for row in vectors[1:]:
        out += row
    return out


def compose_backward(vectors: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Per-row gradients of compose_vectors; shape matches `vectors`."""
    return np.broadcast_to(grad, vectors.shape).copy()


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


def metapath_representation(
    metapath: Metapath, state: "EmbeddingState", strategy: SharingStrategy,
    scoring: str | None = None,
) -> np.ndarray:
    """Vector standing in for `metapath` under the given sharing strategy."""
    strategy.validate(scoring)
    if strategy.kind == "none":
        rid = state.minted_id_of(metapath)
        if rid is None:
            raise ValueError(f"metapath {metapath} has no minted embedding row")
        return state.relation_emb[rid]
    if strategy.kind == "model":
        return compose_vectors(state.relation_emb[list(metapath)])
    if strategy.kind == "rnn":
        if state.rnn is None:
            raise ValueError("state carries no recurrence parameters")
        return rnn_forward(state.rnn, state.relation_emb[list(metapath)])[0]
    if state.basis is None:
        raise ValueError("state carries no basis parameters")
    coef = state.basis.coefficients.get(metapath)
    if coef is None:
        raise ValueError(f"metapath {metapath} has no basis coefficients")
    return state.basis.vectors.T @ coef


def strategy_backward(
    metapath: Metapath, grad: np.ndarray, state: "EmbeddingState", strategy: SharingStrategy,
) -> SparseGrads:
    """Gradients of (grad . representation) for the strategy's parameters."""
    out = SparseGrads()
    if strategy.kind == "none":
        rid = state.minted_id_of(metapath)
        if rid is None:
            raise ValueError(f"metapath {metapath} has no minted embedding row")
        out.add_relation(rid, grad)
    elif strategy.kind == "model":
        rows = state.relation_emb[list(metapath)]
        per_row = compose_backward(rows, grad)
        for rel, row_grad in zip(metapath, per_row):
            out.add_relation(int(rel), row_grad)
    elif strategy.kind == "rnn":
        if state.rnn is None:
            raise ValueError("state carries no recurrence parameters")
        inputs = state.relation_emb[list(metapath)]
        _, states = rnn_forward(state.rnn, inputs)
        d_w_in, d_w_rec, d_bias, d_inputs = rnn_backward(state.rnn, inputs, states, grad)
        out.add_rnn(d_w_in, d_w_rec, d_bias)
        for rel, row_grad in zip(metapath, d_inputs):
            out.add_relation(int(rel), row_grad)
    else:
        if state.basis is None:
            raise ValueError("state carries no basis parameters")
        coef = state.basis.coefficients.get(metapath)
        if coef is None:
            raise ValueError(f"metapath {metapath} has no basis coefficients")
        out.add_basis_coef(metapath, state.basis.vectors @ grad)
        out.add_basis_vectors(np.outer(coef, grad))
    return out


def relation_vector(state: "EmbeddingState", strategy: SharingStrategy, rel_id: int) -> np.ndarray:
    """Vector for any relation id, original or minted."""
    metapath = state.minted_paths.get(rel_id)
    if metapath is None:
        if strategy.kind == "basis" and strategy.basis_include_original:
            return metapath_representation((rel_id,), state, strategy)
        return state.relation_emb[rel_id]
    if strategy.kind == "none":
        return state.relation_emb[rel_id]
    return metapath_representation(metapath, state, strategy)


def relation_backward(
    state: "EmbeddingState", strategy: SharingStrategy, rel_id: int,
    grad: np.ndarray, out: SparseGrads,
) -> None:
    """Accumulate the gradient for a relation's vector into `out`."""
    metapath = state.minted_paths.get(rel_id)
    if metapath is None:
        if strategy.kind == "basis" and strategy.basis_include_original:
            out.update(strategy_backward((rel_id,), grad, state, strategy))
        else:
            out.add_relation(rel_id, grad)
        return
    if strategy.kind == "none":
        out.add_relation(rel_id, grad)
        return
    out.update(strategy_backward(metapath, grad, state, strategy))
