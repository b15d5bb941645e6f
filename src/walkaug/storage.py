"""On-disk formats: checkpoint directories, embedding matrices, TSV export.

A checkpoint is a directory (not an archive, so reruns are byte-identical)
holding one .npy file per parameter array of the current state and, under a
`best_` prefix, of the best one, plus a meta.json with the format number
(`FORMAT`), config, sharing strategy, walk digest, minted-relation map, rng
state and training counters. A state carries its strategy and its
minted-relation map; each is stored once, in the `strategy` and `registry`
sections, and the current and best states share them. The two decide which
arrays a state holds and their shapes (`models.state_shapes`), so meta.json
says nothing per state.

Saving removes the arrays of either state that the new state does not
hold (`ARRAY_NAMES`), so that a run under another strategy leaves none of
the last one's behind; it touches no other file. It writes the best
state's arrays only when asked to (`save_checkpoint`'s `best`), which
`training.train` does on a call's first save and whenever the best state
changed since the call's previous save. meta.json is written in one
compact `json.dumps` and renamed into place (`graph.atomic_write`), so a
kill mid-save leaves the last one whole.

Loading first checks the format number: a checkpoint of any other format,
or of none, is refused with a DataError, to be trained again. It then
validates the stored config, strategy, digest, rng state, counters and
log, and reads `entity_emb` and exactly the other arrays `state_shapes`
names, each of which must be float64, finite and of its shape. So a
malformed checkpoint is a DataError before any training or ranking starts.
`eval` ranks the best state alone, and loads with `best_only`, which reads
and checks no array of the current one.

The config holds the walk settings (`l_max`, `rule_sampling`,
`original_edge_sample`), and the top-level `segments_sha256` the SHA-256 of
what the walks can emit (`augment.SegmentTable.digest`), so that a resume
can refuse other settings, metapaths, rules or modes. A checkpoint saved
with `segments_sha256=None` (library use) evaluates but cannot resume.

The embedding binary starts with an 8-byte header (little-endian uint32 row
count, then uint32 dimension) followed by row-major float32 values.

The embedding files and the dataset cache are written through
`graph.atomic_write`, temp-then-rename.

The dataset cache (`DATASET_CACHE`, one `.npz` file in an output directory)
holds one parsed `DatasetSplit` in four members: `key`, the `dataset_key` of
the inputs it was parsed from, as ASCII bytes; `entities` and `relations`,
each dictionary's names tab-joined as UTF-8 bytes (a name holds no tab, since
`read_tsv` splits cells on it); and `ids`, one int64 array. `ids` starts with
a header of five counts, the entity and relation names and the train, valid
and test triplets, then holds each split's heads, relations and tails in
turn. `read_dataset_cache` serves it only under its key, and only when the
header agrees with the names and with the length of `ids`; the graphs it
builds are views into `ids`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import stat
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import NewRelationRegistry
from .errors import ConfigError, DataError
from . import graph
from .graph import DatasetSplit, Dictionary, KnowledgeGraph, atomic_write
from .models import EmbeddingState, ModelConfig, state_shapes
from .sharing import SharingStrategy

_META = "meta.json"
FORMAT = 3  # meta.json "format"; a change to the layout of a checkpoint bumps it
DATASET_CACHE = "dataset.cache.npz"
# every name `EmbeddingState.arrays` (and `state_shapes`) can give an array, under any strategy
ARRAY_NAMES = ("entity_emb", "relation_emb", "rnn_w_in", "rnn_w_rec", "rnn_bias",
               "basis_vectors", "basis_coef")


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a training run."""

    state: EmbeddingState | None  # None when loaded `best_only`
    best_state: EmbeddingState
    config: ModelConfig
    rng_state: dict
    epoch: int
    best_mrr: float
    bad_epochs: int
    log: list[dict] = field(default_factory=list)
    segments_sha256: str | None = None  # `SegmentTable.digest` of the walks; None if not recorded


def _save_state(directory: str, prefix: str, state: EmbeddingState) -> None:
    for name, array in state.arrays().items():
        np.save(os.path.join(directory, f"{prefix}{name}.npy"), array)


def _load_state(directory: str, prefix: str, registry: NewRelationRegistry,
                strategy: SharingStrategy, dim: int) -> EmbeddingState:
    """The state stored under `prefix`: `entity_emb`, then exactly the other
    `state_shapes` arrays, each float64, finite and of its shape."""
    def load(name):
        array = np.load(os.path.join(directory, f"{prefix}{name}.npy"))
        if array.dtype != np.float64:
            raise DataError(f"{prefix}{name} has dtype {array.dtype}, expected float64")
        if not np.isfinite(array).all():
            raise DataError(f"{prefix}{name} holds non-finite values")
        return array

    entity = load("entity_emb")
    # its row count sizes the state; a 0-d entity_emb fails the shape check below
    shapes = state_shapes(len(entity) if entity.ndim else 0, dim, registry, strategy)
    arrays = {name: entity if name == "entity_emb" else load(name) for name in shapes}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise DataError(f"{prefix}{name} has shape {arrays[name].shape}, expected {shape} "
                            f"for strategy {strategy.kind!r}, dimension {dim} and "
                            f"{len(registry)} minted relations")
    return EmbeddingState.from_arrays(arrays, registry, strategy)


def save_checkpoint(directory: str, ckpt: Checkpoint, best: bool = True) -> None:
    """Write `ckpt` into `directory`: the current state's arrays and
    meta.json always, and the `best_` arrays when `best` is true.

    `training.train` passes `best=False` only when the directory already
    holds its best state: on a save after its first, when the best state
    has not changed since its previous save and there is a validation
    split (without one, the best state is the live one, and is written
    every time). An unchanged best state is then not rewritten, which
    leaves its files' bytes, inodes and mtimes as they were.
    """
    os.makedirs(directory, exist_ok=True)
    held = ckpt.state.arrays()
    stale = [f"{prefix}{name}.npy" for name in ARRAY_NAMES if name not in held
             for prefix in ("", "best_")]
    for file_name in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, file_name))
    _save_state(directory, "", ckpt.state)
    if best:
        _save_state(directory, "best_", ckpt.best_state)
    meta = {
        "format": FORMAT,
        "config": asdict(ckpt.config),
        "strategy": asdict(ckpt.state.strategy),
        "segments_sha256": ckpt.segments_sha256,
        "registry": {
            "first_id": ckpt.state.registry.first_id,
            "minted": [[rid, list(m)] for rid, m in ckpt.state.registry.items()],
        },
        "rng_state": ckpt.rng_state,
        "epoch": ckpt.epoch,
        "best_mrr": ckpt.best_mrr,
        "bad_epochs": ckpt.bad_epochs,
        "log": ckpt.log,
    }
    with atomic_write(os.path.join(directory, _META)) as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")


def _dataclass_section(cls, section, name: str):
    """`cls(**section)` for a meta.json section that names every field once."""
    if not isinstance(section, dict):
        raise DataError(f"{name} is not a JSON object")
    expected = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(section) - expected), sorted(expected - set(section))
    if unknown or missing:
        raise DataError(f"{name} has unknown keys {unknown} and missing keys {missing}")
    return cls(**section)


def load_checkpoint(directory: str, best_only: bool = False) -> Checkpoint:
    """The checkpoint in `directory`, checked (see the module docstring).
    With `best_only`, the current state's arrays are neither read nor
    checked and `state` is None: what ranking the best state needs."""
    meta_path = os.path.join(directory, _META)
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path} is not valid JSON: {exc}") from None
    found = meta.get("format") if isinstance(meta, dict) else None
    if type(found) is not int or found != FORMAT:
        raise DataError(f"{meta_path} is checkpoint format {found!r}, and this version reads "
                        f"format {FORMAT} only; train again to write one")
    try:
        return _checkpoint_from_meta(directory, meta, best_only)
    except DataError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{meta_path}: missing key {exc}") from None
    except (OSError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: malformed checkpoint ({exc})") from None


def _checkpoint_from_meta(directory: str, meta: dict, best_only: bool) -> Checkpoint:
    first_id = meta["registry"]["first_id"]
    minted = meta["registry"]["minted"]
    for i, (rid, _) in enumerate(minted):
        if rid != first_id + i:
            raise DataError(f"registry ids are not contiguous at {rid}")
    registry = NewRelationRegistry(first_id, [m for _, m in minted])
    strategy = _dataclass_section(SharingStrategy, meta["strategy"], "strategy")
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
    digest = meta["segments_sha256"]
    if digest is not None and not (isinstance(digest, str)
                                   and re.fullmatch("[0-9a-f]{64}", digest)):
        raise DataError(f"segments_sha256 must be null or a SHA-256 hex digest, got {digest!r}")
    log_keys = {"epoch", "mean_loss", "valid_mrr"}
    if any(not isinstance(entry, dict) or set(entry) != log_keys for entry in meta["log"]):
        raise DataError(f"every log entry must hold exactly the keys {sorted(log_keys)}")
    return Checkpoint(
        state=None if best_only else _load_state(directory, "", registry, strategy, config.dim),
        best_state=_load_state(directory, "best_", registry, strategy, config.dim),
        config=config,
        rng_state=meta["rng_state"],
        epoch=meta["epoch"],
        best_mrr=meta["best_mrr"],
        bad_epochs=meta["bad_epochs"],
        log=meta["log"],
        segments_sha256=digest,
    )


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


def _names_bytes(dictionary: Dictionary) -> np.ndarray:
    return np.frombuffer("\t".join(dictionary).encode("utf-8"), np.uint8)


def _names_dictionary(npz, prefix: str, count: int) -> Dictionary:
    # empty text is no name under a count of 0 and the one empty name under 1
    text = npz[prefix].tobytes().decode("utf-8")
    names = text.split("\t") if count or text else []
    dictionary = Dictionary(names)
    if len(names) != count or len(dictionary) != count:
        raise DataError(f"cached {prefix} are not {count} distinct names")
    return dictionary


def write_dataset_cache(path, key: str, dataset: DatasetSplit) -> None:
    """Write `dataset` under `key` to the cache file `path`, temp-then-rename.

    The cache only saves time, so an OSError (a read-only or full directory)
    leaves it unwritten and is not raised.
    """
    graphs = dataset.graphs()
    header = [len(dataset.entity_dict), len(dataset.relation_dict),
              *(split.num_triplets for split in graphs)]
    ids = np.concatenate([np.array(header, np.int64)] + [
        column for split in graphs for column in (split.heads, split.relations, split.tails)])
    arrays = {
        "key": np.frombuffer(key.encode("ascii"), np.uint8),
        "entities": _names_bytes(dataset.entity_dict),
        "relations": _names_bytes(dataset.relation_dict),
        "ids": ids,
    }
    with contextlib.suppress(OSError):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)


def read_dataset_cache(path, key: str | None) -> DatasetSplit | None:
    """The dataset cached at `path` under `key`, or None: a missing, damaged or
    stale file, one of another key, or one whose `ids` header disagrees with
    its names or its length, is a miss and never an error."""
    if key is None:
        return None
    try:
        with np.load(path, allow_pickle=False) as npz:
            if npz["key"].tobytes() != key.encode("ascii"):
                return None
            ids = npz["ids"]
            if ids.dtype != np.int64 or ids.ndim != 1 or ids.size < 5:
                return None
            num_entities, num_relations, *sizes = ids[:5].tolist()
            if min(sizes) < 0 or ids.size != 5 + 3 * sum(sizes):
                return None
            entity_dict = _names_dictionary(npz, "entities", num_entities)
            relation_dict = _names_dictionary(npz, "relations", num_relations)
        graphs, start = [], 5
        for size in sizes:
            columns = ids[start:start + 3 * size].reshape(3, size)
            graphs.append(KnowledgeGraph(*columns, num_entities, num_relations,
                                         entity_dict, relation_dict))
            start += 3 * size
    except Exception:  # whatever a damaged file raises, the inputs are parsed again
        return None
    return DatasetSplit(*graphs)
