"""Training loop behavior: convergence, early stopping, resume determinism,
checkpoint and export formats."""

import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import make_graph
from walkaug import (
    ConfigError,
    DataError,
    DatasetSplit,
    ModelConfig,
    RuleMap,
    SharingStrategy,
    load_checkpoint,
    read_embedding_matrix,
    train,
    write_embedding_matrix,
    write_embedding_tsv,
)
from walkaug.augment import NewRelationRegistry
from walkaug.models import init_state
from walkaug.sharing import relation_vector
from walkaug.storage import Checkpoint, save_checkpoint

N, R = 10, 3


def make_dataset(with_valid=True):
    train_edges = (
        [(i, 0, (i + 1) % 8) for i in range(8)]
        + [(i, 1, (i + 2) % 8) for i in range(8)]
        + [(8, 2, 9), (9, 2, 8), (0, 2, 9)]
    )
    valid_edges = [(1, 0, 3), (4, 1, 7)] if with_valid else []
    test_edges = [(2, 0, 4)]
    return DatasetSplit(
        make_graph(train_edges, num_entities=N, num_relations=R),
        make_graph(valid_edges, num_entities=N, num_relations=R),
        make_graph(test_edges, num_entities=N, num_relations=R),
    )


INFORMATIVE = {(0, 1): 0.9}


def small_config(**over):
    base = dict(scoring="transe_l2", dim=8, margin=2.0, negatives=2, lr=0.05,
                epochs=4, batch_nodes=4, seed=0)
    base.update(over)
    return ModelConfig(**base)


def test_empty_train_raises():
    empty = DatasetSplit(
        make_graph([], num_entities=N, num_relations=R),
        make_graph([], num_entities=N, num_relations=R),
        make_graph([], num_entities=N, num_relations=R),
    )
    with pytest.raises(DataError):
        train(empty, {}, {}, small_config())


def test_loss_decreases_on_small_graph():
    result = train(make_dataset(with_valid=False), INFORMATIVE, {},
                   small_config(epochs=10))
    assert len(result.log) == 10
    assert result.log[-1].mean_loss < result.log[0].mean_loss
    assert all(entry.valid_mrr is None for entry in result.log)
    assert result.state is result.final_state  # no validation: latest wins


def test_training_without_validation_builds_no_filter(monkeypatch):
    def no_filter(*args):
        raise AssertionError("the filter is only read by validation ranking")

    monkeypatch.setattr("walkaug.evaluation.EvalFilter.from_graphs", no_filter)
    result = train(make_dataset(with_valid=False), INFORMATIVE, {}, small_config(epochs=2))
    assert len(result.log) == 2


def test_rule_less_informative_metapaths_are_minted_up_front():
    rules = {(1, 0): RuleMap((1, 0), {2: 0.9}, 0.5), (2, 2): RuleMap((2, 2), {}, 0.5)}
    informative = {(1, 1): 0.7, (0, 1): 0.9, (1, 0): 0.5, (2, 2): 0.6}
    result = train(make_dataset(with_valid=False), informative, rules,
                   small_config(epochs=1))
    # sorted, ids after the R original relations; (1, 0) is covered by a rule
    assert result.state.registry.items() == [(R, (0, 1)), (R + 1, (1, 1)), (R + 2, (2, 2))]
    assert result.final_state.registry is result.state.registry
    assert result.state.relation_emb.shape == (R + 3, 8)

    result = train(make_dataset(with_valid=False), informative, rules,
                   small_config(epochs=1), mint_new_relations=False)
    assert len(result.state.registry) == 0 and result.state.registry.first_id == R
    assert result.state.relation_emb.shape == (R, 8)


def test_early_stopping_follows_validation(monkeypatch):
    mrrs = iter([0.5, 0.7, 0.6, 0.6, 0.9])
    seen = []

    class FakeResult:
        def __init__(self, mrr):
            self.mrr = mrr

    def fake_evaluate(state, *args, **kwargs):
        seen.append(state.entity_emb.copy())
        return FakeResult(next(mrrs))

    monkeypatch.setattr("walkaug.training.evaluate", fake_evaluate)
    result = train(make_dataset(), INFORMATIVE, {},
                   small_config(epochs=30), patience=2)
    # improves at 1 and 2, stalls at 3 and 4, stops before the 0.9 epoch
    assert [e.valid_mrr for e in result.log] == [0.5, 0.7, 0.6, 0.6]
    assert np.array_equal(result.state.entity_emb, seen[1])
    assert result.final_state is not result.state


def test_progress_callback_sees_every_epoch():
    stats = []
    train(make_dataset(with_valid=False), INFORMATIVE, {},
          small_config(epochs=3), progress=stats.append)
    assert [s.epoch for s in stats] == [1, 2, 3]


def test_checkpoint_roundtrip(tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    config = small_config(epochs=3)
    result = train(make_dataset(), INFORMATIVE, {}, config, checkpoint_dir=ckpt_dir)
    ckpt = load_checkpoint(ckpt_dir)
    assert np.array_equal(ckpt.state.entity_emb, result.final_state.entity_emb)
    assert np.array_equal(ckpt.state.relation_emb, result.final_state.relation_emb)
    assert np.array_equal(ckpt.best_state.entity_emb, result.state.entity_emb)
    assert dataclasses.asdict(ckpt.config) == dataclasses.asdict(config)
    assert ckpt.state.registry == result.state.registry
    assert ckpt.best_state.registry is ckpt.state.registry
    assert ckpt.epoch == len(result.log)
    assert ckpt.log == [e.to_dict() for e in result.log]
    assert ckpt.state.registry.items() == [(R, (0, 1))]


@pytest.mark.parametrize("kind", ["rnn", "basis"])
def test_checkpoint_preserves_sharing_parameters(tmp_path, kind):
    strategy = SharingStrategy(kind=kind, basis_count=2 if kind == "basis" else None,
                               basis_include_original=(kind == "basis"))
    config = small_config()
    rng = np.random.default_rng(5)
    state = init_state(N, NewRelationRegistry(R, [(0, 1)]), config, strategy, rng)
    ckpt_dir = str(tmp_path / kind)
    save_checkpoint(ckpt_dir, Checkpoint(
        state=state, best_state=state.copy(), config=config,
        rng_state=rng.bit_generator.state,
        epoch=1, best_mrr=0.25, bad_epochs=0, log=[],
    ))
    ckpt = load_checkpoint(ckpt_dir)
    assert ckpt.state.strategy == ckpt.best_state.strategy == strategy
    if kind == "rnn":
        assert np.array_equal(ckpt.state.rnn.w_in, state.rnn.w_in)
        assert np.array_equal(ckpt.state.rnn.w_rec, state.rnn.w_rec)
        assert np.array_equal(ckpt.state.rnn.bias, state.rnn.bias)
    else:
        assert np.array_equal(ckpt.state.basis.vectors, state.basis.vectors)
        assert np.array_equal(ckpt.state.basis.coefficients, state.basis.coefficients)
        assert ckpt.state.strategy.basis_include_original
        # the flag lives on the strategy; older checkpoints also wrote it per state
        meta_path = os.path.join(ckpt_dir, "meta.json")
        meta = json.load(open(meta_path))
        assert "basis_include_original" not in meta["state"]
        meta["state"]["basis_include_original"] = True
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert np.array_equal(load_checkpoint(ckpt_dir).state.basis.coefficients,
                              state.basis.coefficients)


def test_checkpoint_with_sorted_basis_keys_loads_each_relation_coefficient(tmp_path):
    # older checkpoints wrote the basis rows under sorted keys, so the (r,)
    # rows of the original relations sit between the minted ones
    registry = NewRelationRegistry(R, [(0, 1), (2, 1, 0), (1, 2)])
    strategy = SharingStrategy(kind="basis", basis_count=2, basis_include_original=True)
    config = small_config()
    rng = np.random.default_rng(5)
    state = init_state(N, registry, config, strategy, rng)
    ckpt_dir = str(tmp_path / "old")
    save_checkpoint(ckpt_dir, Checkpoint(
        state=state, best_state=state.copy(), config=config,
        rng_state=rng.bit_generator.state, epoch=1, best_mrr=0.25, bad_epochs=0, log=[],
    ))
    meta_path = os.path.join(ckpt_dir, "meta.json")
    meta = json.load(open(meta_path))
    for section, prefix in (("state", ""), ("best_state", "best_")):
        keys = [tuple(k) for k in meta[section]["basis_keys"]]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        meta[section]["basis_keys"] = [list(keys[i]) for i in order]
        coef_path = os.path.join(ckpt_dir, f"{prefix}basis_coef.npy")
        np.save(coef_path, np.load(coef_path)[order])
    assert meta["state"]["basis_keys"] == [[0], [0, 1], [1], [1, 2], [2], [2, 1, 0]]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)

    loaded = load_checkpoint(ckpt_dir)
    for got in (loaded.state, loaded.best_state):
        assert np.array_equal(got.basis.coefficients, state.basis.coefficients)
        ids = np.arange(R + len(registry))
        assert np.array_equal(relation_vector(got, ids),
                              relation_vector(state, ids))


@pytest.mark.parametrize("kind,damage,message", [
    ("none", "drop the minted row", "relation_emb has shape"),
    ("rnn", "widen w_in", "rnn parameters have shapes"),
    ("basis", "mint one more metapath", "basis coefficients cover"),
    ("basis", "widen the basis vectors", "basis parameters are not"),
])
def test_load_checkpoint_checks_arrays_against_strategy_and_registry(tmp_path, kind, damage,
                                                                     message):
    strategy = SharingStrategy(kind=kind, basis_count=2 if kind == "basis" else None)
    config = small_config()
    rng = np.random.default_rng(5)
    state = init_state(N, NewRelationRegistry(R, [(0, 1)]), config, strategy, rng)
    if damage == "drop the minted row":
        state.relation_emb = state.relation_emb[:R]
    elif damage == "widen w_in":
        state.rnn.w_in = np.zeros((8, 9))
    elif damage == "widen the basis vectors":
        state.basis.vectors = np.zeros((2, 9))
    ckpt_dir = str(tmp_path / "ckpt")
    save_checkpoint(ckpt_dir, Checkpoint(
        state=state, best_state=state.copy(), config=config,
        rng_state=rng.bit_generator.state, epoch=1, best_mrr=0.25, bad_epochs=0, log=[],
    ))
    if damage == "mint one more metapath":
        meta_path = os.path.join(ckpt_dir, "meta.json")
        meta = json.load(open(meta_path))
        meta["registry"]["minted"].append([R + 1, [1, 1]])
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    with pytest.raises(DataError, match=message):
        load_checkpoint(ckpt_dir)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    dataset = make_dataset()
    straight = train(dataset, INFORMATIVE, {}, small_config(epochs=4))

    ckpt_dir = str(tmp_path / "half")
    train(dataset, INFORMATIVE, {}, small_config(epochs=2), checkpoint_dir=ckpt_dir)
    resumed = train(dataset, INFORMATIVE, {}, small_config(epochs=4),
                    resume=load_checkpoint(ckpt_dir))

    assert np.array_equal(resumed.final_state.entity_emb, straight.final_state.entity_emb)
    assert np.array_equal(resumed.final_state.relation_emb, straight.final_state.relation_emb)
    assert np.array_equal(resumed.state.entity_emb, straight.state.entity_emb)
    assert [e.to_dict() for e in resumed.log] == [e.to_dict() for e in straight.log]


def test_resume_rejects_changed_config(tmp_path):
    dataset = make_dataset()
    ckpt_dir = str(tmp_path / "ckpt")
    train(dataset, INFORMATIVE, {}, small_config(epochs=1), checkpoint_dir=ckpt_dir)
    ckpt = load_checkpoint(ckpt_dir)
    with pytest.raises(ConfigError, match="lr"):
        train(dataset, INFORMATIVE, {}, small_config(epochs=2, lr=0.01), resume=ckpt)
    with pytest.raises(ConfigError, match="strategy"):
        train(dataset, INFORMATIVE, {}, small_config(epochs=2),
              strategy=SharingStrategy(kind="model"), resume=ckpt)
    # more epochs alone is the normal resume case
    train(dataset, INFORMATIVE, {}, small_config(epochs=2), resume=ckpt)


def test_reruns_are_byte_identical(tmp_path):
    dataset = make_dataset()
    dirs = []
    for name in ("a", "b"):
        ckpt_dir = str(tmp_path / name)
        train(dataset, INFORMATIVE, {}, small_config(epochs=3), checkpoint_dir=ckpt_dir)
        dirs.append(ckpt_dir)
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    for name in files:
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_load_checkpoint_rejects_garbage(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "missing"))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "meta.json").write_text("{not json")
    with pytest.raises(DataError):
        load_checkpoint(str(bad))


def test_embedding_matrix_roundtrip(tmp_path):
    path = str(tmp_path / "entity.emb")
    matrix = np.random.default_rng(0).normal(size=(7, 5))
    write_embedding_matrix(path, matrix)
    back = read_embedding_matrix(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, matrix.astype(np.float32))
    assert os.path.getsize(path) == 8 + 7 * 5 * 4

    with open(path, "r+b") as fh:  # truncate into the payload
        fh.truncate(8 + 3)
    with pytest.raises(DataError):
        read_embedding_matrix(path)
    with open(path, "wb") as fh:
        fh.write(b"\x01\x00")
    with pytest.raises(DataError):
        read_embedding_matrix(path)


def test_embedding_tsv_export(tmp_path):
    path = tmp_path / "vectors.tsv"
    matrix = np.array([[0.5, -1.25], [3.0, 2.0 / 3.0]])
    write_embedding_tsv(str(path), matrix, names=["alpha", "beta"])
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[0] == "alpha"
    values = [float(v) for v in lines[1].split("\t")[1:]]
    assert values == [3.0, 2.0 / 3.0]  # repr keeps every bit

    write_embedding_tsv(str(path), matrix)
    assert path.read_text().splitlines()[0].split("\t")[0] == "0"


def test_resume_rejects_changed_walk_settings_and_entities(tmp_path):
    dataset = make_dataset()
    ckpt_dir = str(tmp_path / "ckpt")
    train(dataset, INFORMATIVE, {}, small_config(epochs=1), checkpoint_dir=ckpt_dir,
          original_edge_sample=4)
    ckpt = load_checkpoint(ckpt_dir)
    assert ckpt.walks == {"l_max": 3, "original_edge_sample": 4, "rule_sampling": "normalized"}
    for changed in ({"l_max": 4}, {"original_edge_sample": None}, {"rule_sampling": "raw"}):
        settings = {"original_edge_sample": 4, **changed}
        with pytest.raises(ConfigError, match=next(iter(changed))):
            train(dataset, INFORMATIVE, {}, small_config(epochs=2), resume=ckpt, **settings)
    edges = list(zip(dataset.train.heads, dataset.train.relations, dataset.train.tails))
    wider = DatasetSplit(make_graph(edges + [(N, 0, 0)], N + 1, R), dataset.valid, dataset.test)
    with pytest.raises(DataError, match=f"{N} entities"):
        train(wider, INFORMATIVE, {}, small_config(epochs=2), resume=ckpt,
              original_edge_sample=4)
    train(dataset, INFORMATIVE, {}, small_config(epochs=2), resume=ckpt, original_edge_sample=4,
          patience=5)
