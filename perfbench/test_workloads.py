"""Checks on the benchmark's own generators: `python -m pytest perfbench`."""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from test_acceptance import planted_benchmark  # noqa: E402
from workloads import WIDE, planted_triplets, typed_triplets  # noqa: E402


def _triples(graph):
    return np.column_stack((graph.heads, graph.relations, graph.tails)).tolist()


def test_planted_copy_matches_acceptance_generator():
    reference = planted_benchmark(1234)
    train, valid, test = planted_triplets(1234)
    assert _triples(reference.train) == [list(t) for t in train]
    assert _triples(reference.valid) == [list(t) for t in valid]
    assert _triples(reference.test) == [list(t) for t in test]


def test_typed_generator_is_seeded_and_splits_are_disjoint():
    first = typed_triplets(WIDE, 7)
    assert first == typed_triplets(WIDE, 7)
    assert first[0] != typed_triplets(WIDE, 8)[0]
    train, valid, test, planted = first
    assert len(valid) == len(test) == WIDE.held_out
    assert not (set(train) & set(valid)) and not (set(train) & set(test))
    assert [rel for _, _, rel in planted] == list(
        range(WIDE.relations, WIDE.relations + WIDE.planted))
