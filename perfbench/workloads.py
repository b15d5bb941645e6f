"""Seeded workload generators and the CLI argument lists each workload runs.

Every generator returns plain `(head, relation, tail)` integer triples for
the train, valid and test splits; `write_tsv` turns them into the named
TSV files the `walkaug` CLI reads. Entity `i` is written as `e<i>` and
relation `r` as `r<r>`, so mined reports name the planted relations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

Triple = tuple[int, int, int]


def planted_triplets(seed: int = 1234) -> tuple[list[Triple], list[Triple], list[Triple]]:
    """The planted-composition graph of acceptance criterion 6.

    A copy of `planted_benchmark` in `tests/test_acceptance.py` that draws
    the same numbers in the same order, so seed 1234 gives the identical
    split (`test_workloads.py` checks this). Blocks A (800), B (600) and
    C (600) of 2,000 entities: r0 maps A to B, r1 maps B to C, and 60% of
    the (a, c) pairs the chains imply are training r2 edges, 20% valid and
    20% test. Relations 3..9 are uniform noise, 300 edges each.
    """
    rng = np.random.default_rng(seed)
    edges: list[Triple] = []
    adj0 = {}
    for a in range(800):
        outs = rng.choice(600, size=int(rng.integers(1, 3)), replace=False)
        adj0[a] = [800 + int(b) for b in outs]
        edges += [(a, 0, b) for b in adj0[a]]
    adj1 = {}
    for b in range(800, 1400):
        outs = rng.choice(600, size=int(rng.integers(1, 3)), replace=False)
        adj1[b] = [1400 + int(c) for c in outs]
        edges += [(b, 1, c) for c in adj1[b]]
    implied = sorted({(a, c) for a in range(800) for b in adj0[a] for c in adj1[b]})
    order = rng.permutation(len(implied))
    n_train = int(0.6 * len(implied))
    n_valid = int(0.2 * len(implied))
    edges += [(implied[i][0], 2, implied[i][1]) for i in order[:n_train]]
    valid = [(implied[i][0], 2, implied[i][1]) for i in order[n_train:n_train + n_valid]]
    test = [(implied[i][0], 2, implied[i][1]) for i in order[n_train + n_valid:]]
    for rel in range(3, 10):
        heads = rng.integers(2000, size=300)
        tails = rng.integers(2000, size=300)
        edges += [(int(h), rel, int(t)) for h, t in zip(heads, tails)]
    return edges, valid, test


@dataclass(frozen=True)
class TypedSchema:
    """Size of a typed-schema multigraph (see `typed_triplets`)."""

    types: int
    per_type: int
    relations: int
    edges_per_relation: int
    planted: int
    held_out: int  # triplets in each of valid and test
    schema_seed: int = 0


def typed_triplets(schema: TypedSchema, seed: int):
    """A typed multigraph with `schema.planted` composition relations.

    Entities fall into `types` blocks of `per_type`. Each random relation
    gets a random domain and range type and `edges_per_relation` uniform
    edges between them. Each planted relation takes a random pair (a, b)
    of random relations whose range and domain types meet, and holds a
    70% sample of the distinct (head, tail) pairs that a-then-b connects.
    `held_out` triplets of the whole edge set go to valid and as many to
    test. Returns (train, valid, test, planted) where `planted` lists the
    `(a, b, relation)` triples a rule miner should recover.

    The types and planted pairs come from `schema.schema_seed`, the edges
    from `seed`. A fixed schema keeps the number of chainable relation
    pairs, and so the mining and rule work, the same for every seed.
    """
    schema_rng = np.random.default_rng(schema.schema_seed)
    domain = schema_rng.integers(schema.types, size=schema.relations)
    range_ = schema_rng.integers(schema.types, size=schema.relations)
    chainable = [(a, b) for a in range(schema.relations) for b in range(schema.relations)
                 if a != b and range_[a] == domain[b]]
    picks = schema_rng.choice(len(chainable), size=schema.planted, replace=False)

    rng = np.random.default_rng(seed)
    n = schema.per_type
    blocks = []
    for rel in range(schema.relations):
        heads = domain[rel] * n + rng.integers(n, size=schema.edges_per_relation)
        tails = range_[rel] * n + rng.integers(n, size=schema.edges_per_relation)
        blocks.append(np.column_stack((heads, np.full_like(heads, rel), tails)))
    base = np.concatenate(blocks)

    planted = []
    num_entities = schema.types * n
    for offset, pick in enumerate(sorted(int(p) for p in picks)):
        a, b = chainable[pick]
        rel = schema.relations + offset
        first = base[base[:, 1] == a]
        second = base[base[:, 1] == b]
        order = np.argsort(second[:, 0], kind="stable")
        starts = np.searchsorted(second[order, 0], first[:, 2], side="left")
        stops = np.searchsorted(second[order, 0], first[:, 2], side="right")
        counts = stops - starts
        rows = np.repeat(np.arange(first.shape[0]), counts)
        within = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        tails = second[order, 2][starts[rows] + within]
        pairs = np.unique(first[rows, 0] * num_entities + tails)
        keep = pairs[rng.random(pairs.size) < 0.7]
        blocks.append(np.column_stack((keep // num_entities, np.full_like(keep, rel),
                                       keep % num_entities)))
        planted.append((int(a), int(b), rel))

    triples = np.concatenate(blocks)
    triples = np.unique(triples, axis=0)  # no duplicate edge may appear in two splits
    order = rng.permutation(triples.shape[0])
    held = schema.held_out
    valid = triples[order[:held]]
    test = triples[order[held:2 * held]]
    train = triples[np.sort(order[2 * held:])]
    as_list = lambda arr: [tuple(int(x) for x in row) for row in arr]
    return as_list(train), as_list(valid), as_list(test), planted


def write_tsv(path: str, triples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in triples)


@dataclass
class Workload:
    """Generated inputs plus the arguments of each CLI command."""

    name: str
    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    planted: list[tuple[int, int, int]]  # (a, b, relation) compositions to recover
    mine_args: list[str]
    train_args: list[str]
    eval_args: list[str]
    epochs: int
    dim: int
    mints_rows: bool  # rule-less metapaths are minted as relations with their own rows
    # Calls of each command per pipeline run in untraced mode (default 1).
    # Short commands repeat so that each one is timed over most of a second
    # of work per run or more, not over one call of a few tens of milliseconds.
    repeats: dict[str, int] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)

    def write(self, directory: str) -> None:
        for split in ("train", "valid", "test"):
            path = os.path.join(directory, f"{split}.tsv")
            write_tsv(path, getattr(self, split))
            self.files[split] = path

    def commands(self, out_dir: str) -> list[tuple[str, list[str]]]:
        """(name, argv) of mine, rules, train and eval, in pipeline order.

        Patience equals the epoch count, so every run trains every epoch
        and does the same amount of work.
        """
        data = ["--train", self.files["train"], "--valid", self.files["valid"],
                "--test", self.files["test"], "--out-dir", out_dir, "--seed", "0"]
        fixed = ["--dim", str(self.dim), "--epochs", str(self.epochs),
                 "--patience", str(self.epochs)]
        return [
            ("mine", ["mine", *data, *self.mine_args]),
            ("rules", ["rules", *data]),
            ("train", ["train", *data, *self.train_args, *fixed]),
            ("eval", ["eval", *data, *self.eval_args]),
        ]


WIDE = TypedSchema(types=8, per_type=1000, relations=16, edges_per_relation=2000,
                   planted=4, held_out=400, schema_seed=2)
MINTED = TypedSchema(types=6, per_type=300, relations=20, edges_per_relation=600,
                     planted=2, held_out=500, schema_seed=3)


def make_workload(name: str, seed: int) -> Workload:
    if name == "planted":
        train, valid, test = planted_triplets(seed)
        return Workload(
            name, train, valid, test, [(0, 1, 2)],
            mine_args=["--l-max", "2"],
            train_args=["--mode", "metapaths", "--strategy", "none", "--scoring", "transe_l2",
                        "--margin", "4", "--negatives", "8", "--batch-nodes", "256",
                        "--original-edge-sample", "256", "--l-max", "3"],
            eval_args=["--protocol", "filtered"], epochs=4, dim=50, mints_rows=True,
            repeats={"mine": 24, "rules": 24, "eval": 4},
        )
    if name == "wide":
        train, valid, test, planted = typed_triplets(WIDE, seed)
        return Workload(
            name, train, valid, test, planted,
            mine_args=["--l-max", "3", "--threshold", "0.2"],
            train_args=["--mode", "rules-only", "--negatives", "4"],
            eval_args=["--protocol", "filtered"], epochs=4, dim=32, mints_rows=False,
            repeats={"mine": 2, "eval": 2},
        )
    if name == "minted-rnn":
        train, valid, test, planted = typed_triplets(MINTED, seed)
        return Workload(
            name, train, valid, test, planted,
            mine_args=["--l-max", "3", "--sample-p", "0.5"],
            train_args=["--mode", "metapaths", "--strategy", "rnn", "--negatives", "4"],
            eval_args=["--protocol", "raw", "--tie", "pessimistic"], epochs=4, dim=32,
            mints_rows=False, repeats={"mine": 12, "rules": 4, "eval": 8},
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("planted", "wide", "minted-rnn")
