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
from walkaug import training
from walkaug.augment import NewRelationRegistry, SegmentTable
from walkaug.models import init_state
from walkaug.storage import ARRAY_NAMES, Checkpoint, save_checkpoint

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


@pytest.mark.parametrize("kind,include_original", [
    ("none", False), ("model", False), ("rnn", False), ("basis", False), ("basis", True)],
    ids=["none", "model", "rnn", "basis", "basis-include-original"])
def test_checkpoint_preserves_sharing_parameters(tmp_path, kind, include_original):
    strategy = SharingStrategy(kind=kind, basis_count=2 if kind == "basis" else None,
                               basis_include_original=include_original)
    config = small_config()
    rng = np.random.default_rng(5)
    registry = NewRelationRegistry(R, [(0, 1), (2, 1, 0)])
    state = init_state(N, registry, config, strategy, rng)
    best = init_state(N, registry, config, strategy, rng)
    ckpt_dir = str(tmp_path / kind)
    save_checkpoint(ckpt_dir, Checkpoint(
        state=state, best_state=best, config=config,
        rng_state=rng.bit_generator.state,
        epoch=1, best_mrr=0.25, bad_epochs=0, log=[],
    ))
    ckpt = load_checkpoint(ckpt_dir)
    for got, want in ((ckpt.state, state), (ckpt.best_state, best)):
        assert got.strategy == strategy and got.registry == registry
        assert list(got.arrays()) == list(want.arrays())
        for name, array in want.arrays().items():
            loaded = got.arrays()[name]
            assert loaded.dtype == array.dtype and loaded.shape == array.shape, name
            assert loaded.tobytes() == array.tobytes(), name
    assert set(state.arrays()) <= set(ARRAY_NAMES)
    best_only = load_checkpoint(ckpt_dir, best_only=True)
    assert best_only.state is None
    assert list(best_only.best_state.arrays()) == list(best.arrays())
    for name, array in best.arrays().items():
        assert best_only.best_state.arrays()[name].tobytes() == array.tobytes(), name


def test_best_only_load_reads_and_checks_the_best_state_alone(tmp_path):
    dataset = make_dataset()
    ckpt_dir = str(tmp_path / "ckpt")
    train(dataset, INFORMATIVE, {}, small_config(epochs=1), checkpoint_dir=ckpt_dir)
    for prefix in ("", "best_"):
        path = os.path.join(ckpt_dir, f"{prefix}entity_emb.npy")
        intact = np.load(path)
        np.save(path, np.full_like(intact, np.nan))
        with pytest.raises(DataError, match=f"{prefix}entity_emb holds non-finite values"):
            load_checkpoint(ckpt_dir)
        if prefix:
            with pytest.raises(DataError, match="best_entity_emb holds non-finite"):
                load_checkpoint(ckpt_dir, best_only=True)
        else:
            assert load_checkpoint(ckpt_dir, best_only=True).state is None
        np.save(path, intact)
    ckpt = load_checkpoint(ckpt_dir, best_only=True)
    with pytest.raises(ValueError, match="current state"):
        train(dataset, INFORMATIVE, {}, small_config(epochs=2), resume=ckpt)


@pytest.mark.parametrize("kind,damage,message", [
    ("none", "drop the minted row", "relation_emb has shape"),
    ("rnn", "widen w_in", "rnn_w_in has shape"),
    ("basis", "mint one more metapath", "basis_coef has shape"),
    ("basis", "widen the basis vectors", "basis_vectors has shape"),
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


def _scripted_mrrs(monkeypatch, mrrs):
    """Make validation return the MRRs of `mrrs` in turn."""
    mrrs = iter(mrrs)

    class FakeResult:
        def __init__(self, mrr):
            self.mrr = mrr

    monkeypatch.setattr("walkaug.training.evaluate",
                        lambda *args, **kwargs: FakeResult(next(mrrs)))


def _after_each_save(monkeypatch, hook):
    """Call `hook(directory)` after every checkpoint save `train` makes."""
    real = training.save_checkpoint

    def save(directory, *args, **kwargs):
        real(directory, *args, **kwargs)
        hook(directory)

    monkeypatch.setattr(training, "save_checkpoint", save)


def _assert_arrays_equal(got, want):
    assert list(got.arrays()) == list(want.arrays())
    for name, array in want.arrays().items():
        assert got.arrays()[name].tobytes() == array.tobytes(), name


def test_saves_that_keep_the_best_leave_its_files_untouched(tmp_path, monkeypatch):
    # improves at epochs 1 and 3, stalls at 2, 4 and 5
    _scripted_mrrs(monkeypatch, [0.5, 0.4, 0.7, 0.6, 0.6])
    past = 10**18  # a sentinel mtime, set after every save: a rewrite replaces it
    saves = []

    def stamp(directory):
        files = {name: os.stat(os.path.join(directory, name))
                 for name in os.listdir(directory) if name.startswith("best_")}
        saves.append(({name: (st.st_ino, st.st_mtime_ns) for name, st in files.items()},
                      load_checkpoint(directory)))
        for name in files:
            os.utime(os.path.join(directory, name), ns=(past, past))

    _after_each_save(monkeypatch, stamp)
    ckpt_dir = str(tmp_path / "ckpt")
    result = train(make_dataset(), INFORMATIVE, {}, small_config(epochs=5), patience=3,
                   checkpoint_dir=ckpt_dir)
    assert [e.valid_mrr for e in result.log] == [0.5, 0.4, 0.7, 0.6, 0.6]
    assert len(saves) == 5
    for epoch, (files, ckpt) in enumerate(saves, start=1):
        assert files.keys() == {f"best_{name}.npy" for name in ckpt.best_state.arrays()}
        assert ckpt.best_mrr == (0.5 if epoch < 3 else 0.7)
        if epoch in (2, 4, 5):  # the same files, not written since the last save
            assert files == {name: (saves[epoch - 2][0][name][0], past) for name in files}
        else:  # rewritten, with the live state, which has just become the best
            assert all(mtime != past for _, mtime in files.values()), epoch
            _assert_arrays_equal(ckpt.best_state, ckpt.state)
    _assert_arrays_equal(saves[-1][1].best_state, result.state)
    _assert_arrays_equal(saves[-1][1].state, result.final_state)


def test_without_validation_every_save_writes_the_live_state_as_best(tmp_path, monkeypatch):
    def check(directory):
        ckpt = load_checkpoint(directory)
        _assert_arrays_equal(ckpt.best_state, ckpt.state)
        checked.append(ckpt.epoch)

    checked = []
    _after_each_save(monkeypatch, check)
    result = train(make_dataset(with_valid=False), INFORMATIVE, {}, small_config(epochs=3),
                   strategy=SharingStrategy(kind="rnn"), checkpoint_dir=str(tmp_path / "ckpt"))
    assert checked == [1, 2, 3]
    assert result.state is result.final_state


@pytest.mark.parametrize("target", ["another-run", "new"])
def test_the_first_save_of_a_resume_writes_the_best_state(tmp_path, monkeypatch, target):
    dataset = make_dataset()
    first = str(tmp_path / "first")
    _scripted_mrrs(monkeypatch, [0.5, 0.7])
    train(dataset, INFORMATIVE, {}, small_config(epochs=2), checkpoint_dir=first)
    ckpt = load_checkpoint(first)
    out = str(tmp_path / "out")
    if target == "another-run":  # a checkpoint of the same shapes from another seed
        _scripted_mrrs(monkeypatch, [0.9])
        train(dataset, INFORMATIVE, {}, small_config(epochs=1, seed=1), checkpoint_dir=out)
        assert load_checkpoint(out).best_state.entity_emb.tobytes() != \
            ckpt.best_state.entity_emb.tobytes()
    # the resumed epochs do not improve on the checkpoint's best
    _scripted_mrrs(monkeypatch, [0.6, 0.6])
    result = train(dataset, INFORMATIVE, {}, small_config(epochs=4),
                   resume=load_checkpoint(first), checkpoint_dir=out)
    assert [e.valid_mrr for e in result.log] == [0.5, 0.7, 0.6, 0.6]
    saved = load_checkpoint(out)
    assert saved.best_mrr == 0.7
    _assert_arrays_equal(saved.best_state, ckpt.best_state)
    _assert_arrays_equal(saved.state, result.final_state)


def test_resumed_checkpoint_files_equal_an_uninterrupted_run(tmp_path):
    dataset = make_dataset()
    config = small_config(epochs=4)
    straight = str(tmp_path / "straight")
    train(dataset, INFORMATIVE, {}, config, patience=4, checkpoint_dir=straight)
    half = str(tmp_path / "half")
    train(dataset, INFORMATIVE, {}, small_config(epochs=2), patience=4, checkpoint_dir=half)
    elsewhere = str(tmp_path / "elsewhere")
    resumes = [load_checkpoint(half), load_checkpoint(half)]
    for out, resume in zip((half, elsewhere), resumes):  # in place, and into a new directory
        train(dataset, INFORMATIVE, {}, config, patience=4, resume=resume, checkpoint_dir=out)
    files = sorted(os.listdir(straight))
    assert any(name.startswith("best_") for name in files)
    for out in (half, elsewhere):
        assert sorted(os.listdir(out)) == files
        for name in files:
            with open(os.path.join(straight, name), "rb") as fh:
                want = fh.read()
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == want, (out, name)


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
    dirs, results = [], []
    for name in ("a", "b"):
        ckpt_dir = str(tmp_path / name)
        results.append(train(dataset, INFORMATIVE, {}, small_config(epochs=3),
                             checkpoint_dir=ckpt_dir))
        dirs.append(ckpt_dir)
    one, two = results
    assert [e.to_dict() for e in one.log] == [e.to_dict() for e in two.log]
    for got, want in ((one.state, two.state), (one.final_state, two.final_state)):
        assert got.arrays().keys() == want.arrays().keys()
        for name, array in got.arrays().items():
            assert np.array_equal(array, want.arrays()[name]), name
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
    train(dataset, INFORMATIVE, {}, small_config(epochs=1, original_edge_sample=4),
          checkpoint_dir=ckpt_dir)
    ckpt = load_checkpoint(ckpt_dir)
    table = SegmentTable(INFORMATIVE, {}, NewRelationRegistry.rule_less(R, INFORMATIVE, {}), 3)
    assert (ckpt.config.l_max, ckpt.config.original_edge_sample,
            ckpt.config.rule_sampling) == (3, 4, "normalized")
    assert ckpt.segments_sha256 == table.digest()
    for changed in ({"l_max": 4}, {"original_edge_sample": None}, {"rule_sampling": "raw"}):
        settings = {"original_edge_sample": 4, **changed}
        with pytest.raises(ConfigError, match=next(iter(changed))):
            train(dataset, INFORMATIVE, {}, small_config(epochs=2, **settings), resume=ckpt)
    edges = list(zip(dataset.train.heads, dataset.train.relations, dataset.train.tails))
    wider = DatasetSplit(make_graph(edges + [(N, 0, 0)], N + 1, R), dataset.valid, dataset.test)
    with pytest.raises(DataError, match=f"{N} entities"):
        train(wider, INFORMATIVE, {}, small_config(epochs=2, original_edge_sample=4),
              resume=ckpt)
    train(dataset, INFORMATIVE, {}, small_config(epochs=2, original_edge_sample=4), resume=ckpt,
          patience=5)


@pytest.mark.parametrize("setting", [{"l_max": 0}, {"rule_sampling": "soft"},
                                     {"original_edge_sample": -1}])
def test_train_refuses_walk_settings_before_the_first_walk(monkeypatch, setting):
    def walk(*args, **kwargs):
        raise AssertionError("walks were set up")

    monkeypatch.setattr(training, "SegmentTable", walk)
    monkeypatch.setattr(training, "build_minibatch", walk)
    with pytest.raises(ConfigError, match=next(iter(setting))):
        train(make_dataset(), INFORMATIVE, {}, small_config(**setting))


def test_resume_refuses_rules_of_other_confidence(tmp_path):
    # both rule sets map (0, 1) to relation 2 and mint nothing; only the weight differs
    dataset = make_dataset()
    ckpt_dir = str(tmp_path / "ckpt")
    rules = {(0, 1): RuleMap((0, 1), {2: 0.9})}
    train(dataset, INFORMATIVE, rules, small_config(epochs=1), checkpoint_dir=ckpt_dir)
    ckpt = load_checkpoint(ckpt_dir)
    with pytest.raises(ConfigError, match="disagrees on: segments_sha256"):
        train(dataset, INFORMATIVE, {(0, 1): RuleMap((0, 1), {2: 0.8})},
              small_config(epochs=2), resume=ckpt)
    assert len(train(dataset, INFORMATIVE, rules, small_config(epochs=2), resume=ckpt).log) == 2
