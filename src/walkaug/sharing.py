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
touched parameters as the row arrays of `SparseGrads`. A state carries its
strategy (`EmbeddingState.strategy`) and is trusted to hold the parameters
that strategy reads; `storage.load_checkpoint` checks a stored one.

Under `model` and `rnn` the ids are grouped by metapath length, and each
group is one (g, L, d) stack of relation rows: `model` sums it over its
metapath axis, and `rnn` runs each step of the recurrence as one stacked
matrix-vector `np.matmul`, which rounds every product as the single
`w @ x` does. The backward recomputes the stacked forward, and sums each
relation's dense (d, d) recurrence gradients over a block of relations at a
time (`BLOCK_VALUES`), adding them in id order, so the bits are those of one
relation at a time.

Repeated rows are summed by `add_rows`, one 1-D `np.add.at` over flat cell
indices, which adds every term in array order.
"""

from __future__ import annotations

import math
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


# Values in one block of float64 scratch (128 KB). The batch kernel gathers
# the vectors of a chunk of positives into one block, the SGD step updates
# rows in blocks of this size, and the recurrence backward builds the dense
# (d, d) gradients of a block of relations at a time, so scratch memory does
# not grow with the length of a minibatch or the number of minted relations.
BLOCK_VALUES = 1 << 14


def add_rows(total: np.ndarray, rows: np.ndarray, values: np.ndarray,
             cells: np.ndarray | None = None) -> None:
    """Add `values[i]` onto row `rows[i]` of the C-contiguous `total`, in place.

    `values` has shape `rows.shape + total.shape[1:]`. The rows become flat
    cell indices for numpy's 1-D `ufunc.at`, which visits every (row, column)
    cell in the order the 2-D `np.add.at(total, rows, values)` does, so each
    cell still rounds as a running total from what it held. numpy 1.25+ runs
    the 1-D form in a fast loop; numpy 1.24 gives the same bits, slower.
    `cells`, if given, is int64 scratch of at least `values.size` entries
    that receives the cell indices.
    """
    if not total.flags.c_contiguous:
        raise ValueError("add_rows sums into a C-contiguous array")
    width = math.prod(total.shape[1:])
    if cells is not None:
        cells = cells[:rows.size * width].reshape(-1, width)
    cells = np.add(rows.reshape(-1, 1) * width, np.arange(width), out=cells)
    np.add.at(total.reshape(-1), cells.reshape(-1), values.reshape(-1))


def sum_rows(rows: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique rows, per-row sums) of `grads[i]` added onto `rows[i]`;
    each sum adds its terms in array order, so it rounds as a running total."""
    unique, inverse = np.unique(rows, return_inverse=True)
    total = np.zeros((unique.size, *grads.shape[1:]))
    add_rows(total, inverse, grads)
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


def _matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """`matrix @ v` for each row v of the (g, d) `vectors`, as one stacked
    matrix-vector `np.matmul`; each product rounds as the single one does."""
    return np.matmul(matrix, vectors[:, :, None])[:, :, 0]


def _by_length(paths: list[Metapath], positions: np.ndarray):
    """`positions` grouped by the length L of their metapath in `paths`: per
    length, the group's positions (ascending) and its (g, L) metapaths."""
    groups: dict[int, list[int]] = {}
    for i in positions.tolist():
        groups.setdefault(len(paths[i]), []).append(i)
    return [(np.array(pos), np.array([paths[i] for i in pos], dtype=np.int64))
            for _, pos in sorted(groups.items())]


def _rnn_states(params: RnnParams, inputs: np.ndarray) -> np.ndarray:
    """The states h_0..h_L, (g, L + 1, d), of the recurrence read over each
    of the g (L, d) stacks of `inputs`, from a zero state; one stacked
    product per step and weight."""
    g, length, d = inputs.shape
    states = np.zeros((g, length + 1, d))
    for step in range(length):
        states[:, step + 1] = np.tanh(_matvec(params.w_in, inputs[:, step])
                                      + _matvec(params.w_rec, states[:, step]) + params.bias)
    return states


def _fold(total: np.ndarray | None, terms: np.ndarray) -> np.ndarray:
    """((total + terms[0]) + terms[1]) + ..., one term at a time as `_plus`
    adds them; a None total starts from terms[0]."""
    if total is not None:
        terms = np.concatenate((total[None], terms))
    return np.add.accumulate(terms, axis=0)[-1].copy()


def _rnn_backward(params: RnnParams, emb: np.ndarray, paths: list[Metapath],
                  minted: np.ndarray, grads: np.ndarray, starts: np.ndarray,
                  row_grads: np.ndarray, out: SparseGrads) -> None:
    """Backpropagate the recurrence of the ids at positions `minted` (in id
    order) from their `grads`: onto `row_grads`, where the input rows of id i
    start at `starts[i]`, and onto `out.rnn`.

    The ids go in id-ordered blocks sized so that a block's dense (d, d)
    gradients fit in BLOCK_VALUES each. A block's forward states are
    recomputed per metapath length, one stacked product per step. Each
    relation's gradients sum over its steps from zero, last step first, and
    the relations' gradients add onto `out.rnn` in id order.
    """
    if minted.size == 0:
        return
    d = params.bias.shape[0]
    totals = [None] * 3 if out.rnn is None else [out.rnn.w_in, out.rnn.w_rec, out.rnn.bias]
    block = max(1, BLOCK_VALUES // (d * d))
    for lo in range(0, minted.size, block):
        ids = minted[lo:lo + block]
        d_w_in, d_w_rec = np.zeros((2, ids.size, d, d))
        d_bias = np.zeros((ids.size, d))
        for pos, group in _by_length(paths, ids):
            at = np.searchsorted(ids, pos)  # the group's places in the block
            inputs = emb[group]
            states = _rnn_states(params, inputs)
            dh = grads[pos]
            for step in range(group.shape[1] - 1, -1, -1):
                h_next = states[:, step + 1]
                dpre = dh * (1.0 - h_next * h_next)
                # np.outer per relation
                d_w_in[at] += dpre[:, :, None] * inputs[:, step, None, :]
                d_w_rec[at] += dpre[:, :, None] * states[:, step, None, :]
                d_bias[at] += dpre
                row_grads[starts[pos] + step] = _matvec(params.w_in.T, dpre)
                dh = _matvec(params.w_rec.T, dpre)
        totals = [_fold(total, terms) for total, terms in zip(totals, (d_w_in, d_w_rec, d_bias))]
    out.rnn = RnnParams(*totals)


def relation_vector(state: "EmbeddingState", rel_ids: np.ndarray) -> np.ndarray:
    """(m, d) vectors of the m relation ids `rel_ids`, original or minted,
    under the state's strategy.

    Under `model` and `rnn` the ids are grouped by metapath length: a
    group's vectors are one sum over its (g, L, d) stack of rows, or its
    recurrence run one stacked product per step.
    """
    strategy = state.strategy
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
        out[shared] = _matvec(state.basis.vectors.T, coef)
        return out
    paths = [state.registry.metapath_of(rel) or (rel,) for rel in rel_ids.tolist()]
    minted = rel_ids >= state.registry.first_id
    for is_minted in (False, True):
        for pos, group in _by_length(paths, np.flatnonzero(minted == is_minted)):
            inputs = state.relation_emb[group]
            if is_minted and strategy.kind == "rnn":
                out[pos] = _rnn_states(state.rnn, inputs)[:, -1]
            else:  # per relation, as its rows' `sum(axis=0)`
                out[pos] = inputs.sum(axis=1)
    return out


def relation_backward(state: "EmbeddingState", rel_ids: np.ndarray, grads: np.ndarray,
                      out: SparseGrads) -> None:
    """Accumulate `grads[i]`, the gradient on the vector of relation
    `rel_ids[i]`, into `out`; the contributions of the ids add in id order."""
    strategy = state.strategy
    rel_ids = np.asarray(rel_ids, dtype=np.int64)
    if rel_ids.size == 0:
        return
    if strategy.kind == "basis":
        rows = basis_rows(state.registry, strategy, rel_ids)
        shared = rows >= 0
        if shared.any():
            rows, shared_grads = rows[shared], grads[shared]
            out._add_rows("basis_coef", rows, _matvec(state.basis.vectors, shared_grads))
            # np.outer per relation, summed in id order
            outer = state.basis.coefficients[rows][:, :, None] * shared_grads[:, None, :]
            out.basis_vectors = _plus(out.basis_vectors, outer.sum(axis=0))
        rel_ids, grads = rel_ids[~shared], grads[~shared]
    elif strategy.kind != "none":
        # every row of a relation's metapath takes the relation's gradient,
        # or under `rnn` the recurrence's gradient on that step's input
        paths = [state.registry.metapath_of(rel) or (rel,) for rel in rel_ids.tolist()]
        lengths = np.fromiter(map(len, paths), np.int64, len(paths))
        row_grads = np.repeat(grads, lengths, axis=0)
        if strategy.kind == "rnn":
            minted = np.flatnonzero(rel_ids >= state.registry.first_id)
            _rnn_backward(state.rnn, state.relation_emb, paths, minted, grads,
                          np.cumsum(lengths) - lengths, row_grads, out)
        rel_ids = np.fromiter((rel for path in paths for rel in path), np.int64, row_grads.shape[0])
        grads = row_grads
    out._add_rows("relation", rel_ids, grads)
