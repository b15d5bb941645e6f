"""Knowledge graph triple store: name dictionaries, CSR adjacency, TSV input.

Graphs are directed multigraphs of (head, relation, tail) triplets over dense
integer ids. Duplicate triplets are kept as distinct edges. All triplet and
adjacency arrays are read-only (the adjacency is built on its first use);
every edge keeps a stable id (its position in the input order) so
downstream consumers can count distinct edges exactly.

Every text input (triplet files, dictionary files, and the metapath and rule
reports) is read by `read_tsv`: the whole file at once, with universal
newlines, split into columns of cells. The loader turns the triplet columns
into ids with one dictionary lookup per cell inside `np.fromiter`.

`atomic_write` writes a file temp-then-rename, so a reader sees the old file
or the new one, never half of one. The reports, the embedding binaries and
the dataset cache are written through it.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DataError

INVERSE_SUFFIX = "^-1"


class Triplet(NamedTuple):
    head: int
    relation: int
    tail: int


class Dictionary:
    """Bijective name <-> dense-id map. Ids are assigned in first-seen order.

    The name -> id dict is built on the first `id_of`, `ids_of` or `in`, so a
    dictionary that is only counted, iterated or asked for names never
    builds it.
    """

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = list(dict.fromkeys(names))

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self._names, range(len(self._names))))

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown name {name!r}") from None

    def ids_of(self, names: list[str]) -> np.ndarray:
        """The int64 ids of `names`; a DataError naming the first unknown one."""
        try:
            return np.fromiter(map(self._index.__getitem__, names), np.int64, len(names))
        except KeyError as exc:
            raise DataError(f"unknown name {exc.args[0]!r}") from None

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        # names in id order
        return iter(self._names)

    def __eq__(self, other):
        return isinstance(other, Dictionary) and self._names == other._names

    @classmethod
    def from_file(cls, path) -> "Dictionary":
        """Load an `id<TAB>name` file; ids must be exactly 0..n-1."""
        entries = []
        for lineno, (cell, name) in enumerate(zip(*read_tsv(path, 2)), start=1):
            try:
                entries.append((int(cell), name))
            except ValueError:
                raise DataError(f"{path}:{lineno}: id {cell!r} is not an integer") from None
        entries.sort()
        gap = next((idx for expected, (idx, _) in enumerate(entries) if idx != expected), None)
        if gap is not None:
            raise DataError(f"{path}: ids are not a contiguous 0-based range (saw {gap})")
        names = [name for _, name in entries]
        dct = cls(names)
        if len(dct) != len(names):
            twice = next(name for idx, name in enumerate(names) if dct.id_of(name) != idx)
            raise DataError(f"{path}: duplicate name {twice!r}")
        return dct

    def write(self, path) -> None:
        """`id<TAB>name` lines, written temp-then-rename (`atomic_write`)."""
        with atomic_write(path) as fh:
            for idx, name in enumerate(self._names):
                fh.write(f"{idx}\t{name}\n")


class KnowledgeGraph:
    """Immutable directed multigraph of (head, relation, tail) triplets.

    Out-adjacency is CSR over heads: slots `offsets[v]:offsets[v+1]` of
    `adj_relations` / `adj_tails` hold the out-edges of v, in the order of
    the original `heads`/`relations`/`tails` arrays. The three are built
    together, by one stable argsort of the heads, on the first access to
    any of them and then cached as read-only instance attributes, so a
    graph that is never walked or mined (a valid or test split, the train
    split of `rules` and `eval`) never sorts.
    """

    def __init__(
        self,
        heads,
        relations,
        tails,
        num_entities: int,
        num_relations: int,
        entity_dict: Dictionary | None = None,
        relation_dict: Dictionary | None = None,
    ):
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        relations = np.ascontiguousarray(relations, dtype=np.int64)
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        if not (heads.shape == relations.shape == tails.shape) or heads.ndim != 1:
            raise DataError("heads, relations and tails must be equal-length 1-d arrays")
        if num_entities < 0 or num_relations < 0:
            raise DataError("entity and relation counts must be non-negative")
        if heads.size:
            lo = min(heads.min(), tails.min())
            hi = max(heads.max(), tails.max())
            if lo < 0 or hi >= num_entities:
                raise DataError(f"entity id {lo if lo < 0 else hi} out of range [0, {num_entities})")
            if relations.min() < 0 or relations.max() >= num_relations:
                raise DataError("relation id out of range")

        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.heads = heads
        self.relations = relations
        self.tails = tails
        self.entity_dict = entity_dict
        self.relation_dict = relation_dict

        self.relation_counts = (
            np.bincount(relations, minlength=num_relations) if relations.size else np.zeros(num_relations, np.int64)
        )
        for arr in (self.heads, self.relations, self.tails, self.relation_counts):
            arr.setflags(write=False)

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets, adj_relations, adj_tails), built on first use."""
        order = np.argsort(self.heads, kind="stable")
        offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.heads, minlength=self.num_entities), out=offsets[1:])
        csr = (offsets, self.relations[order], self.tails[order])
        for arr in csr:
            arr.setflags(write=False)
        return csr

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return self._csr[0]

    @functools.cached_property
    def adj_relations(self) -> np.ndarray:
        return self._csr[1]

    @functools.cached_property
    def adj_tails(self) -> np.ndarray:
        return self._csr[2]

    @property
    def num_triplets(self) -> int:
        return int(self.heads.size)

    def __len__(self) -> int:
        return self.num_triplets

    def pair_keys(self) -> np.ndarray:
        """head * num_entities + tail for every edge, as int64."""
        check_pair_keys(self.num_entities)
        return self.heads * np.int64(self.num_entities) + self.tails


def check_pair_keys(num_entities: int, num_relations: int = 1) -> None:
    """DataError unless n * n * R keys fit in int64, from 0 to n * n * R - 1.

    R = 1 bounds the pair keys head * n + tail. A larger R bounds the keys
    that pack an entity pair with a relation id, as the eval filter's
    `mining.KeyIndex` packs each entity * R + relation key with a candidate
    entity.
    """
    n, r = int(num_entities), int(num_relations)
    if n * n * r - 1 > np.iinfo(np.int64).max:
        relations = "" if r == 1 else f" and {r} relations"
        raise DataError(f"pair keys of {n} entities{relations} do not fit in int64")


def build_adjacency(
    triplets,
    num_entities: int,
    num_relations: int | None = None,
    entity_dict: Dictionary | None = None,
    relation_dict: Dictionary | None = None,
) -> KnowledgeGraph:
    """Build a KnowledgeGraph from an (n, 3) array or iterable of id triples."""
    arr = np.asarray(list(triplets) if not isinstance(triplets, np.ndarray) else triplets, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DataError(f"expected shape (n, 3) triplets, got {arr.shape}")
    if num_relations is None:
        if relation_dict is not None:
            num_relations = len(relation_dict)
        else:
            num_relations = int(arr[:, 1].max()) + 1 if arr.size else 0
    return KnowledgeGraph(
        arr[:, 0], arr[:, 1], arr[:, 2], num_entities, num_relations,
        entity_dict=entity_dict, relation_dict=relation_dict,
    )


def sample_edges(graph: KnowledgeGraph, p: float, seed: int = 0) -> KnowledgeGraph:
    """Keep every edge independently with probability p (p=1 returns `graph`)."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must be in (0, 1], got {p}")
    if p == 1.0:
        return graph
    rng = np.random.default_rng(seed)
    keep = rng.random(graph.num_triplets) < p
    return KnowledgeGraph(
        graph.heads[keep], graph.relations[keep], graph.tails[keep],
        graph.num_entities, graph.num_relations,
        entity_dict=graph.entity_dict, relation_dict=graph.relation_dict,
    )


@dataclass
class DatasetSplit:
    """Train/valid/test graphs over one shared pair of dictionaries."""

    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph

    @property
    def entity_dict(self) -> Dictionary | None:
        return self.train.entity_dict

    @property
    def relation_dict(self) -> Dictionary | None:
        return self.train.relation_dict

    @property
    def num_entities(self) -> int:
        return self.train.num_entities

    @property
    def num_relations(self) -> int:
        return self.train.num_relations

    def graphs(self) -> tuple[KnowledgeGraph, KnowledgeGraph, KnowledgeGraph]:
        return self.train, self.valid, self.test


def read_tsv(path, columns: int) -> list[list[str]]:
    """The `columns` tab-separated columns of a UTF-8 text file, as lists of cells.

    The file is read whole in text mode with universal newlines, a leading
    byte-order mark dropped, and split on "\n" alone, so its lines are those
    that iterating the open file yields; a final newline ends the last line. A
    DataError names the path when the file cannot be opened or read or is not
    UTF-8, and `path:line` at the first line without exactly `columns` cells.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    tabs = columns - 1
    if set(map(str.count, lines, repeat("\t"))) - {tabs}:
        lineno, line = next((i, line) for i, line in enumerate(lines, 1) if line.count("\t") != tabs)
        got = line.count("\t") + 1
        raise DataError(f"{path}:{lineno}: expected {columns} tab-separated columns, got {got}")
    cells = "\t".join(lines).split("\t") if lines else []
    return [cells[i::columns] for i in range(columns)]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """A file object open for writing (`mode` "w" for UTF-8 text, "wb" for
    bytes) that replaces `path` when the block ends without an exception.

    It writes a new temp file in the directory of `path`, created with mode
    0o666 less the umask as a plain `open` creates a file, and renames it over
    `path`; on any exception the temp file is removed and `path` is left as it
    was. The rename replaces `path` itself: an existing file's mode is not
    kept, and a symlink or hard link at `path` is replaced, not written
    through.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def load_tsv_dataset(
    train_path,
    valid_path,
    test_path,
    dict_paths: tuple | None = None,
    add_inverse: bool = False,
) -> DatasetSplit:
    """Load a three-file TSV dataset into a DatasetSplit.

    Without `dict_paths` (a pair: entity dict file, relation dict file), the
    dictionaries are built in first-seen order over train, then valid, then
    test. A None valid or test path yields an empty split. With
    `add_inverse`, every relation r gains a twin named r^-1 and a reversed
    copy of each training edge is appended to the training graph only;
    evaluation splits keep the original triplets. A relation name with a
    `|`, which reports join metapath names with, is a DataError.

    The CLI caches this parse in its out-dir (`storage.dataset_key`). The
    cache key folds in the source of this module, so a change here misses
    every cache written before it.
    """
    splits = [read_tsv(p, 3) if p is not None else [[], [], []]
              for p in (train_path, valid_path, test_path)]
    if dict_paths is not None:
        entity_dict = Dictionary.from_file(dict_paths[0])
        relation_dict = Dictionary.from_file(dict_paths[1])
    else:
        # first-seen order: train, then valid, then test; each head before its tail
        entity_dict = Dictionary(chain.from_iterable(
            chain.from_iterable(zip(heads, tails)) for heads, _, tails in splits))
        relation_dict = Dictionary(chain.from_iterable(relations for _, relations, _ in splits))
    piped = next((name for name in relation_dict if "|" in name), None)
    if piped is not None:
        raise DataError(f"relation name {piped!r} contains '|', which joins metapath names")

    arrays = [(entity_dict.ids_of(heads), relation_dict.ids_of(relations), entity_dict.ids_of(tails))
              for heads, relations, tails in splits]

    if add_inverse:
        names = list(relation_dict)
        twins = [name + INVERSE_SUFFIX for name in names]
        clash = next((twin for twin in twins if twin in relation_dict), None)
        if clash is not None:
            raise DataError(f"relation name {clash!r} collides with an inverse twin")
        relation_dict = Dictionary(names + twins)
        heads, relations, tails = arrays[0]
        arrays[0] = (np.concatenate((heads, tails)),
                     np.concatenate((relations, relations + len(names))),
                     np.concatenate((tails, heads)))

    def build(arr):
        return KnowledgeGraph(*arr, len(entity_dict), len(relation_dict), entity_dict, relation_dict)

    return DatasetSplit(*map(build, arrays))
