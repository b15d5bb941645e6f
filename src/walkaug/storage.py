"""On-disk formats: checkpoint directories, embedding matrices, TSV export.

A checkpoint is a directory (not an archive, so reruns are byte-identical)
holding one .npy file per parameter array plus a meta.json with the config,
sharing strategy, minted-relation map, rng state and training counters.

The embedding binary starts with an 8-byte header (little-endian uint32 row
count, then uint32 dimension) followed by row-major float32 values.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import NewRelationRegistry
from .errors import DataError
from .models import EmbeddingState, ModelConfig
from .sharing import BasisParams, RnnParams, SharingStrategy

_META = "meta.json"


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a training run."""

    state: EmbeddingState
    best_state: EmbeddingState
    config: ModelConfig
    strategy: SharingStrategy
    registry: NewRelationRegistry
    rng_state: dict
    epoch: int
    best_mrr: float
    bad_epochs: int
    log: list[dict] = field(default_factory=list)


def _save_state(directory: str, prefix: str, state: EmbeddingState) -> dict:
    np.save(os.path.join(directory, f"{prefix}entity_emb.npy"), state.entity_emb)
    np.save(os.path.join(directory, f"{prefix}relation_emb.npy"), state.relation_emb)
    meta = {
        "num_original_relations": state.num_original_relations,
        "minted": [[rid, list(m)] for rid, m in sorted(state.minted_paths.items())],
    }
    if state.rnn is not None:
        np.save(os.path.join(directory, f"{prefix}rnn_w_in.npy"), state.rnn.w_in)
        np.save(os.path.join(directory, f"{prefix}rnn_w_rec.npy"), state.rnn.w_rec)
        np.save(os.path.join(directory, f"{prefix}rnn_bias.npy"), state.rnn.bias)
        meta["rnn"] = True
    if state.basis is not None:
        keys = sorted(state.basis.coefficients)
        np.save(os.path.join(directory, f"{prefix}basis_vectors.npy"), state.basis.vectors)
        coef = np.stack([state.basis.coefficients[k] for k in keys]) if keys else \
            np.zeros((0, state.basis.count))
        np.save(os.path.join(directory, f"{prefix}basis_coef.npy"), coef)
        meta["basis_keys"] = [list(k) for k in keys]
        meta["basis_include_original"] = state.basis.include_original
    return meta


def _load_state(directory: str, prefix: str, meta: dict) -> EmbeddingState:
    def load(name):
        return np.load(os.path.join(directory, f"{prefix}{name}.npy"))

    rnn = None
    if meta.get("rnn"):
        rnn = RnnParams(load("rnn_w_in"), load("rnn_w_rec"), load("rnn_bias"))
    basis = None
    if "basis_keys" in meta:
        keys = [tuple(k) for k in meta["basis_keys"]]
        coef = load("basis_coef")
        basis = BasisParams(
            load("basis_vectors"),
            {key: coef[i] for i, key in enumerate(keys)},
            meta.get("basis_include_original", False),
        )
    return EmbeddingState(
        load("entity_emb"),
        load("relation_emb"),
        meta["num_original_relations"],
        {rid: tuple(m) for rid, m in meta["minted"]},
        rnn,
        basis,
    )


def save_checkpoint(directory: str, ckpt: Checkpoint) -> None:
    os.makedirs(directory, exist_ok=True)
    meta = {
        "format": 1,
        "config": asdict(ckpt.config),
        "strategy": asdict(ckpt.strategy),
        "registry": {
            "first_id": ckpt.registry.first_id,
            "minted": [[rid, list(m)] for rid, m in ckpt.registry.items()],
        },
        "rng_state": ckpt.rng_state,
        "epoch": ckpt.epoch,
        "best_mrr": ckpt.best_mrr,
        "bad_epochs": ckpt.bad_epochs,
        "log": ckpt.log,
        "state": _save_state(directory, "", ckpt.state),
        "best_state": _save_state(directory, "best_", ckpt.best_state),
    }
    with open(os.path.join(directory, _META), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataclass_section(cls, section, name: str):
    """`cls(**section)` for a meta.json section that names every field once."""
    if not isinstance(section, dict):
        raise DataError(f"{name} is not a JSON object")
    expected = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(section) - expected), sorted(expected - set(section))
    if unknown or missing:
        raise DataError(f"{name} has unknown keys {unknown} and missing keys {missing}")
    return cls(**section)


def load_checkpoint(directory: str) -> Checkpoint:
    meta_path = os.path.join(directory, _META)
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path} is not valid JSON: {exc}") from None
    try:
        return _checkpoint_from_meta(directory, meta)
    except DataError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{meta_path}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: malformed checkpoint ({exc})") from None


def _checkpoint_from_meta(directory: str, meta: dict) -> Checkpoint:
    registry = NewRelationRegistry(meta["registry"]["first_id"])
    for rid, metapath in meta["registry"]["minted"]:
        minted = registry.get_or_mint(tuple(metapath))
        if minted != rid:
            raise DataError(f"registry ids are not contiguous at {rid}")
    strategy = dict(meta["strategy"])
    # older checkpoints store the model composition, which is always the sum
    compose_op = strategy.pop("compose_op", "sum")
    if compose_op != "sum":
        raise DataError(f"unsupported compose op {compose_op!r}")
    return Checkpoint(
        state=_load_state(directory, "", meta["state"]),
        best_state=_load_state(directory, "best_", meta["best_state"]),
        config=_dataclass_section(ModelConfig, meta["config"], "config"),
        strategy=_dataclass_section(SharingStrategy, strategy, "strategy"),
        registry=registry,
        rng_state=meta["rng_state"],
        epoch=meta["epoch"],
        best_mrr=meta["best_mrr"],
        bad_epochs=meta["bad_epochs"],
        log=meta["log"],
    )


def write_embedding_matrix(path, matrix: np.ndarray) -> None:
    """Header `<u32 rows><u32 dim>` then row-major little-endian float32."""
    rows, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", rows, dim))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_embedding_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated embedding header")
        rows, dim = struct.unpack("<II", header)
        payload = fh.read()
    if len(payload) % 4:
        raise DataError(f"{path}: payload is not whole float32 values")
    data = np.frombuffer(payload, dtype="<f4")
    if data.size != rows * dim:
        raise DataError(f"{path}: expected {rows * dim} values, found {data.size}")
    return data.reshape(rows, dim).astype(np.float32)


def write_embedding_tsv(path, matrix: np.ndarray, names=None) -> None:
    """`name<TAB>v1<TAB>...<TAB>vd` rows; names default to row indices."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(matrix):
            name = str(i) if names is None else names[i]
            values = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{name}\t{values}\n")
