import numpy as np

from walkaug import build_adjacency


def make_graph(edges, num_entities=None, num_relations=None):
    """Graph from a list of (head, relation, tail) int tuples."""
    edges = list(edges)
    if num_entities is None:
        num_entities = 1 + max((max(h, t) for h, _, t in edges), default=-1)
    if num_relations is None:
        num_relations = 1 + max((r for _, r, _ in edges), default=-1)
    return build_adjacency(edges, num_entities, num_relations)


def random_multigraph(rng, num_nodes, num_relations, num_edges):
    heads = rng.integers(num_nodes, size=num_edges)
    rels = rng.integers(num_relations, size=num_edges)
    tails = rng.integers(num_nodes, size=num_edges)
    return build_adjacency(np.column_stack((heads, rels, tails)), num_nodes, num_relations)


def assert_same_dataset(got, expected):
    """Two DatasetSplits hold equal id arrays, counts and dictionaries."""
    for mine, theirs in zip(got.graphs(), expected.graphs()):
        for name in ("heads", "relations", "tails"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (mine.num_entities, mine.num_relations) == (theirs.num_entities, theirs.num_relations)
        assert mine.entity_dict == theirs.entity_dict and mine.relation_dict == theirs.relation_dict
    assert list(got.entity_dict) == list(expected.entity_dict)
    assert list(got.relation_dict) == list(expected.relation_dict)


def csr_built(graph):
    """Whether `graph` has built its CSR adjacency (built on first use)."""
    return "_csr" in vars(graph)
