"""On-disk formats: checkpoint directories, embedding matrices, TSV export.

A checkpoint is a directory (not an archive, so reruns are byte-identical)
holding one .npy file per parameter array plus a meta.json with the config,
sharing strategy, walk settings, minted-relation map, rng state and training
counters. A state carries its strategy and its minted-relation map; each is
stored once, in the `strategy` and `registry` sections, and the current and
best states share them. Loading validates the stored config, strategy, walk
settings, rng state, counters and log, and checks every array against the
strategy and the map, so a malformed checkpoint is a DataError before any
training or ranking starts.

The `walks` section holds the walk settings that `train` takes beside the
model config (`WALK_SETTINGS`), so that a resume can refuse other ones.
Older checkpoints lack it: they load, with `walks` None, and cannot resume.

`basis_keys` in meta.json names the metapath of each `basis_coef.npy` row.
Saves write the rows in state order (`sharing.basis_keys`); loads map each
stored key to its row, so older checkpoints with sorted keys still load.

The embedding binary starts with an 8-byte header (little-endian uint32 row
count, then uint32 dimension) followed by row-major float32 values.

The embedding files and the dataset cache are written through
`graph.atomic_write`, temp-then-rename.

The dataset cache (`DATASET_CACHE`, one `.npz` file in an output directory)
holds one parsed `DatasetSplit`: each split's `(3, m)` int64 ids and both
dictionaries' names, tab-joined as UTF-8 bytes with a count (a name holds no
tab, since `read_tsv` splits cells on it). It stores the `dataset_key` of the
inputs it was parsed from, and `read_dataset_cache` serves it only under
that key.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import stat
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import RULE_SAMPLING_MODES, NewRelationRegistry
from .errors import ConfigError, DataError
from . import graph
from .graph import DatasetSplit, Dictionary, KnowledgeGraph, atomic_write
from .models import EmbeddingState, ModelConfig
from .sharing import BasisParams, RnnParams, SharingStrategy, basis_keys

_META = "meta.json"
WALK_SETTINGS = ("l_max", "original_edge_sample", "rule_sampling")
DATASET_CACHE = "dataset.cache.npz"


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a training run."""

    state: EmbeddingState
    best_state: EmbeddingState
    config: ModelConfig
    rng_state: dict
    epoch: int
    best_mrr: float
    bad_epochs: int
    log: list[dict] = field(default_factory=list)
    walks: dict | None = None  # WALK_SETTINGS -> value; None if not recorded


def _save_state(directory: str, prefix: str, state: EmbeddingState) -> dict:
    np.save(os.path.join(directory, f"{prefix}entity_emb.npy"), state.entity_emb)
    np.save(os.path.join(directory, f"{prefix}relation_emb.npy"), state.relation_emb)
    meta = {}
    if state.rnn is not None:
        np.save(os.path.join(directory, f"{prefix}rnn_w_in.npy"), state.rnn.w_in)
        np.save(os.path.join(directory, f"{prefix}rnn_w_rec.npy"), state.rnn.w_rec)
        np.save(os.path.join(directory, f"{prefix}rnn_bias.npy"), state.rnn.bias)
        meta["rnn"] = True
    if state.basis is not None:
        np.save(os.path.join(directory, f"{prefix}basis_vectors.npy"), state.basis.vectors)
        np.save(os.path.join(directory, f"{prefix}basis_coef.npy"), state.basis.coefficients)
        meta["basis_keys"] = [list(k) for k in basis_keys(state.registry, state.strategy)]
    return meta


def _load_state(directory: str, prefix: str, meta: dict, registry: NewRelationRegistry,
                strategy: SharingStrategy) -> EmbeddingState:
    def load(name):
        return np.load(os.path.join(directory, f"{prefix}{name}.npy"))

    rnn = None
    if meta.get("rnn"):
        rnn = RnnParams(load("rnn_w_in"), load("rnn_w_rec"), load("rnn_bias"))
    basis = None
    if "basis_keys" in meta:
        # keys may come in any order (older checkpoints sort them and also hold
        # "basis_include_original" here, but the strategy's flag counts)
        keys = [tuple(k) for k in meta["basis_keys"]]
        expected = basis_keys(registry, strategy)
        coef = load("basis_coef")
        if sorted(keys) != sorted(expected) or coef.shape[:1] != (len(keys),):
            raise DataError(f"{prefix}state basis coefficients cover {sorted(keys)} with "
                            f"shape {coef.shape}, expected {sorted(expected)}")
        row_of = {key: i for i, key in enumerate(keys)}
        basis = BasisParams(load("basis_vectors"), coef[[row_of[key] for key in expected]])
    state = EmbeddingState(load("entity_emb"), load("relation_emb"), registry, strategy,
                           rnn, basis)
    _check_state(state, f"{prefix}state")
    return state


def _check_state(state: EmbeddingState, name: str) -> None:
    """DataError unless the arrays of `state` are the ones its strategy trains
    for its minted relations, all of the entity dimension."""
    registry, strategy, kind = state.registry, state.strategy, state.strategy.kind
    if state.entity_emb.ndim != 2:
        raise DataError(f"{name} entity_emb has shape {state.entity_emb.shape}")
    d = state.dim
    rows = registry.first_id + (len(registry) if kind == "none" else 0)
    if state.relation_emb.shape != (rows, d):
        raise DataError(f"{name} relation_emb has shape {state.relation_emb.shape}, expected "
                        f"{(rows, d)} for strategy {kind!r} and {len(registry)} minted relations")
    if (state.rnn is not None) != (kind == "rnn"):
        raise DataError(f"{name} {'has' if state.rnn else 'lacks'} rnn parameters "
                        f"under strategy {kind!r}")
    if state.rnn is not None:
        shapes = (state.rnn.w_in.shape, state.rnn.w_rec.shape, state.rnn.bias.shape)
        if shapes != ((d, d), (d, d), (d,)):
            raise DataError(f"{name} rnn parameters have shapes {shapes}, expected dimension {d}")
    if (state.basis is not None) != (kind == "basis"):
        raise DataError(f"{name} {'has' if state.basis else 'lacks'} basis parameters "
                        f"under strategy {kind!r}")
    if state.basis is not None:
        count, rows = state.basis.count, len(basis_keys(registry, strategy))
        if (state.basis.vectors.shape != (count, d)
                or state.basis.coefficients.shape != (rows, count)):
            raise DataError(f"{name} basis parameters are not {count} vectors of dimension {d} "
                            f"and {rows} coefficient rows")


def save_checkpoint(directory: str, ckpt: Checkpoint) -> None:
    os.makedirs(directory, exist_ok=True)
    meta = {
        "format": 1,
        "config": asdict(ckpt.config),
        "strategy": asdict(ckpt.state.strategy),
        "walks": ckpt.walks,
        "registry": {
            "first_id": ckpt.state.registry.first_id,
            "minted": [[rid, list(m)] for rid, m in ckpt.state.registry.items()],
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
    except (OSError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: malformed checkpoint ({exc})") from None


def _checkpoint_from_meta(directory: str, meta: dict) -> Checkpoint:
    first_id = meta["registry"]["first_id"]
    minted = meta["registry"]["minted"]
    for i, (rid, _) in enumerate(minted):
        if rid != first_id + i:
            raise DataError(f"registry ids are not contiguous at {rid}")
    registry = NewRelationRegistry(first_id, [m for _, m in minted])
    strategy = dict(meta["strategy"])
    # older checkpoints store the model composition, which is always the sum
    compose_op = strategy.pop("compose_op", "sum")
    if compose_op != "sum":
        raise DataError(f"unsupported compose op {compose_op!r}")
    strategy = _dataclass_section(SharingStrategy, strategy, "strategy")
    config = _dataclass_section(ModelConfig, meta["config"], "config")
    try:
        config.validate()
        strategy.validate(config.scoring)
    except ConfigError as exc:
        raise DataError(f"stored configuration is invalid: {exc}") from None
    np.random.PCG64().state = meta["rng_state"]  # raises unless it is a PCG64 state
    for name in ("epoch", "bad_epochs"):
        if type(meta[name]) is not int or meta[name] < 0:
            raise DataError(f"{name} must be a non-negative integer, got {meta[name]!r}")
    if type(meta["best_mrr"]) not in (int, float):
        raise DataError(f"best_mrr must be a number, got {meta['best_mrr']!r}")
    walks = meta.get("walks")
    if walks is not None:
        _check_walks(walks)
    log_keys = {"epoch", "mean_loss", "valid_mrr"}
    if any(not isinstance(entry, dict) or set(entry) != log_keys for entry in meta["log"]):
        raise DataError(f"every log entry must hold exactly the keys {sorted(log_keys)}")
    return Checkpoint(
        state=_load_state(directory, "", meta["state"], registry, strategy),
        best_state=_load_state(directory, "best_", meta["best_state"], registry, strategy),
        config=config,
        rng_state=meta["rng_state"],
        epoch=meta["epoch"],
        best_mrr=meta["best_mrr"],
        bad_epochs=meta["bad_epochs"],
        log=meta["log"],
        walks=walks,
    )


def _check_walks(walks) -> None:
    """DataError unless `walks` maps each of WALK_SETTINGS to a value `train` takes."""
    if not isinstance(walks, dict) or sorted(walks) != sorted(WALK_SETTINGS):
        raise DataError(f"walks must hold exactly the keys {sorted(WALK_SETTINGS)}, "
                        f"got {walks!r}")
    l_max, sample = walks["l_max"], walks["original_edge_sample"]
    if type(l_max) is not int or l_max < 1:
        raise DataError(f"walks l_max must be a positive integer, got {l_max!r}")
    if sample is not None and (type(sample) is not int or sample < 0):
        raise DataError(f"walks original_edge_sample must be null or a non-negative integer, "
                        f"got {sample!r}")
    if walks["rule_sampling"] not in RULE_SAMPLING_MODES:
        raise DataError(f"walks rule_sampling must be one of {RULE_SAMPLING_MODES}, "
                        f"got {walks['rule_sampling']!r}")


def write_embedding_matrix(path, matrix: np.ndarray) -> None:
    """Header `<u32 rows><u32 dim>` then row-major little-endian float32."""
    rows, dim = matrix.shape
    with atomic_write(path, "wb") as fh:
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
    with atomic_write(path) as fh:
        for i, row in enumerate(matrix):
            name = str(i) if names is None else names[i]
            values = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{name}\t{values}\n")


@functools.cache
def _code_digest() -> bytes | None:
    """SHA-256 of the source of the modules that parse a dataset and store
    it (`graph` and this one), read once per process: a change to either
    misses every cache written before it. None when a source is unreadable."""
    digest = hashlib.sha256()
    try:
        for module_file in (graph.__file__, __file__):
            with open(module_file, "rb") as fh:
                digest.update(fh.read())
    except (OSError, TypeError):
        return None
    return digest.digest()


def dataset_key(train_path, valid_path, test_path, dict_paths: tuple | None = None,
                add_inverse: bool = False) -> str | None:
    """SHA-256 hex digest of everything `load_tsv_dataset` reads, for the same
    arguments: the loader's code (`_code_digest`), `add_inverse`, which inputs
    are given, and the length and bytes of each given one.

    None, so that nothing is cached, when the code cannot be read or an input
    is not a regular file: a pipe or FIFO (`<(zcat train.tsv.gz)`,
    /dev/stdin) can be read only once, by the parse, and a missing input is
    left for the parse to report.
    """
    code = _code_digest()
    if code is None:
        return None
    paths = (train_path, valid_path, test_path, *(dict_paths or (None, None)))
    try:
        if not all(path is None or stat.S_ISREG(os.stat(path).st_mode) for path in paths):
            return None
    except OSError:
        return None
    digest = hashlib.sha256(b"walkaug dataset " + code + b" inverse=%d" % bool(add_inverse))
    for path in paths:
        if path is None:
            digest.update(b"\0-")
            continue
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        digest.update(b"\0+%d:" % len(data))
        digest.update(data)
    return digest.hexdigest()


def _names_arrays(prefix: str, dictionary: Dictionary) -> dict:
    text = "\t".join(dictionary).encode("utf-8")
    return {prefix: np.frombuffer(text, np.uint8), f"{prefix}_count": np.int64(len(dictionary))}


def _names_dictionary(npz, prefix: str) -> Dictionary:
    count = int(npz[f"{prefix}_count"])
    names = npz[prefix].tobytes().decode("utf-8").split("\t") if count else []
    dictionary = Dictionary(names)
    if len(names) != count or len(dictionary) != count:
        raise DataError(f"cached {prefix} are not {count} distinct names")
    return dictionary


def write_dataset_cache(path, key: str, dataset: DatasetSplit) -> None:
    """Write `dataset` under `key` to the cache file `path`, temp-then-rename.

    The cache only saves time, so an OSError (a read-only or full directory)
    leaves it unwritten and is not raised.
    """
    arrays = {
        "key": np.frombuffer(key.encode("ascii"), np.uint8),
        **_names_arrays("entities", dataset.entity_dict),
        **_names_arrays("relations", dataset.relation_dict),
    }
    for name, split in zip(("train", "valid", "test"), dataset.graphs()):
        arrays[name] = np.stack((split.heads, split.relations, split.tails))
    with contextlib.suppress(OSError):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)


def read_dataset_cache(path, key: str | None) -> DatasetSplit | None:
    """The dataset cached at `path` under `key`, or None: a missing, damaged or
    stale file, or one of another key, is a miss and never an error."""
    if key is None:
        return None
    try:
        with np.load(path, allow_pickle=False) as npz:
            if npz["key"].tobytes() != key.encode("ascii"):
                return None
            entity_dict = _names_dictionary(npz, "entities")
            relation_dict = _names_dictionary(npz, "relations")
            graphs = []
            for name in ("train", "valid", "test"):
                ids = npz[name]
                if ids.dtype != np.int64 or ids.ndim != 2 or ids.shape[0] != 3:
                    return None
                graphs.append(KnowledgeGraph(*ids, len(entity_dict), len(relation_dict),
                                             entity_dict, relation_dict))
    except Exception:  # whatever a damaged file raises, the inputs are parsed again
        return None
    return DatasetSplit(*graphs)
