"""End-to-end command line runs over a small composed-relation dataset."""

import dataclasses
import errno
import json
import os
import threading

import numpy as np
import pytest

from conftest import assert_same_dataset, csr_built
from walkaug import (
    ConfigError,
    Dictionary,
    ModelConfig,
    cli,
    load_checkpoint,
    load_tsv_dataset,
    read_embedding_matrix,
    relation_vector,
    write_embedding_matrix,
)
from walkaug import storage
from walkaug.cli import PipelineConfig, main, read_config_file
from walkaug.graph import atomic_write
from walkaug.storage import (
    DATASET_CACHE,
    dataset_key,
    read_dataset_cache,
    write_dataset_cache,
)

# x_i --r0--> y_(i%3) --r1--> z_(i%3), z_(i%3+1); r2 closes the composition
# for the first four x nodes, so the (r0, r1) -> r2 rule holds at 8/12.
XS = [f"x{i}" for i in range(6)]
YS = [f"y{j}" for j in range(3)]
ZS = [f"z{k}" for k in range(4)]


def train_rows():
    rows = [(x, "r0", YS[i % 3]) for i, x in enumerate(XS)]
    rows += [(y, "r1", ZS[j]) for j, y in enumerate(YS)]
    rows += [(y, "r1", ZS[j + 1]) for j, y in enumerate(YS)]
    rows += [(x, "r2", ZS[i % 3]) for i, x in enumerate(XS[:4])]
    rows += [(x, "r2", ZS[i % 3 + 1]) for i, x in enumerate(XS[:4])]
    return rows


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write(f"{h}\t{r}\t{t}\n")


@pytest.fixture
def data(tmp_path):
    paths = {
        "train": str(tmp_path / "train.tsv"),
        "valid": str(tmp_path / "valid.tsv"),
        "test": str(tmp_path / "test.tsv"),
        "out": str(tmp_path / "out"),
    }
    write_tsv(paths["train"], train_rows())
    write_tsv(paths["valid"], [("x4", "r2", "z1")])
    write_tsv(paths["test"], [("x5", "r2", "z2")])
    return paths


def base_args(data, command):
    return [command, "--train", data["train"], "--out-dir", data["out"]]


TRAIN_SPEED = ["--dim", "8", "--epochs", "3", "--batch-nodes", "8",
               "--negatives", "2", "--margin", "2.0", "--lr", "0.05"]


def test_full_pipeline(data, capsys):
    assert main(base_args(data, "mine")) == 0
    report = open(os.path.join(data["out"], "metapaths.tsv")).read()
    assert "r0|r1" in report

    assert main(base_args(data, "rules")) == 0
    rules = open(os.path.join(data["out"], "rules.tsv")).read()
    assert "r0|r1\tr2\t" in rules  # the planted composition, conf 2/3

    argv = base_args(data, "train") + ["--valid", data["valid"]] + TRAIN_SPEED
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "epoch    1" in out and "valid_mrr" in out
    entity = read_embedding_matrix(os.path.join(data["out"], "entity.emb"))
    assert entity.shape == (13, 8)
    relation = read_embedding_matrix(os.path.join(data["out"], "relation.emb"))
    assert relation.shape == (3, 8)  # every informative metapath has a rule
    log_lines = open(os.path.join(data["out"], "training_log.tsv")).read().splitlines()
    assert len(log_lines) == 3 and log_lines[0].startswith("1\t")

    argv = base_args(data, "eval") + ["--test", data["test"], "--valid", data["valid"]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "mrr" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["split"] == "test" and payload["count"] == 2
    saved = json.load(open(os.path.join(data["out"], "metrics.json")))
    assert saved == payload


def test_high_rule_threshold_falls_back_to_minting(data):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    # at 0.9 the (r0, r1) -> r2 rule (conf 2/3) is dropped, so the metapath
    # is minted as a new relation with its own embedding row
    argv = base_args(data, "train") + TRAIN_SPEED + ["--conf-threshold", "0.9"]
    assert main(argv) == 0
    relation = read_embedding_matrix(os.path.join(data["out"], "relation.emb"))
    assert relation.shape == (4, 8)


def test_mode_none_skips_reports(data):
    argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "2"]
    assert main(argv) == 0
    assert not os.path.exists(os.path.join(data["out"], "metapaths.tsv"))
    relation = read_embedding_matrix(os.path.join(data["out"], "relation.emb"))
    assert relation.shape == (3, 8)


def test_exit_codes(data, tmp_path, capsys):
    missing = str(tmp_path / "nope.tsv")
    assert main(["mine", "--train", missing, "--out-dir", data["out"]]) == 3
    assert main(base_args(data, "mine") + ["--threshold", "0"]) == 2
    assert main(["train", "--out-dir", data["out"]] + TRAIN_SPEED) == 2  # no data
    assert main(base_args(data, "eval") + ["--checkpoint", str(tmp_path / "void")]) == 3
    bad_config = tmp_path / "bad.conf"
    bad_config.write_text("no_such_knob=1\n")
    assert main(base_args(data, "mine") + ["--config", str(bad_config)]) == 2
    capsys.readouterr()


def test_config_file_with_cli_override(data, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("threshold = 0.35  # prune weak paths\nl_max=2\n")
    assert main(base_args(data, "mine") + ["--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "threshold=0.35" in out and "l_max=2" in out

    argv = base_args(data, "mine") + ["--config", str(conf), "--threshold", "0.9"]
    assert main(argv) == 0
    assert "threshold=0.9" in capsys.readouterr().out


def test_non_utf8_config_file_is_a_config_error(data, tmp_path, capsys):
    conf = tmp_path / "latin.conf"
    conf.write_bytes(b"l_max=2\n# caf\xff\n")
    assert main(base_args(data, "mine") + ["--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(conf) in err and "UTF-8" in err
    assert "Traceback" not in err


def test_config_file_with_a_byte_order_mark(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("threshold=0.35\nl_max=2\n", encoding="utf-8")
    want = read_config_file(str(conf))
    conf.write_text("threshold=0.35\nl_max=2\n", encoding="utf-8-sig")
    assert read_config_file(str(conf)) == want == {"threshold": 0.35, "l_max": 2}


def test_add_inverse_from_config_file(data, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("add_inverse=true\nmode=none\n")
    argv = base_args(data, "train") + TRAIN_SPEED + ["--config", str(conf), "--epochs", "1"]
    assert main(argv) == 0
    relation = read_embedding_matrix(os.path.join(data["out"], "relation.emb"))
    assert relation.shape == (6, 8)  # each relation gains an inverse twin


def test_mine_reruns_are_byte_identical(data, tmp_path):
    outs = [str(tmp_path / "m1"), str(tmp_path / "m2")]
    for out in outs:
        argv = ["mine", "--train", data["train"], "--out-dir", out,
                "--sample-p", "0.6", "--seed", "5"]
        assert main(argv) == 0
    first = open(os.path.join(outs[0], "metapaths.tsv"), "rb").read()
    second = open(os.path.join(outs[1], "metapaths.tsv"), "rb").read()
    assert first == second


@pytest.mark.parametrize("sample_p,fallbacks", [("1.0", 0), ("0.5", 1)])
def test_mine_reports_the_metapaths_that_used_the_correction_fallback(data, capsys, sample_p,
                                                                      fallbacks):
    # at p = 0.5 and seed 0 the sampled (r0, r1) shows no sign change to bracket
    argv = base_args(data, "mine") + ["--sample-p", sample_p, "--seed", "0"]
    assert main(argv) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("mined 1 informative metapaths ")
    assert f"; {fallbacks} used the correction fallback) -> " in line


def test_cli_resume_matches_straight_run(data, tmp_path):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    common = ["--valid", data["valid"]] + TRAIN_SPEED

    straight = str(tmp_path / "straight")
    argv = ["train", "--train", data["train"], "--out-dir", straight,
            "--metapaths", os.path.join(data["out"], "metapaths.tsv"),
            "--rules", os.path.join(data["out"], "rules.tsv")] + common + ["--epochs", "4"]
    assert main(argv) == 0

    half = str(tmp_path / "half")
    argv = ["train", "--train", data["train"], "--out-dir", half,
            "--metapaths", os.path.join(data["out"], "metapaths.tsv"),
            "--rules", os.path.join(data["out"], "rules.tsv")] + common + ["--epochs", "2"]
    assert main(argv) == 0

    resumed = str(tmp_path / "resumed")
    argv = ["train", "--train", data["train"], "--out-dir", resumed,
            "--metapaths", os.path.join(data["out"], "metapaths.tsv"),
            "--rules", os.path.join(data["out"], "rules.tsv"),
            "--resume", os.path.join(half, "checkpoint")] + common + ["--epochs", "4"]
    assert main(argv) == 0

    for name in ("entity.emb", "relation.emb"):
        a = open(os.path.join(straight, name), "rb").read()
        b = open(os.path.join(resumed, name), "rb").read()
        assert a == b, name


def test_eval_rejects_mismatched_dataset(data, tmp_path, capsys):
    argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(argv) == 0
    bigger = str(tmp_path / "bigger.tsv")
    write_tsv(bigger, train_rows() + [("x9", "r0", "y0")])
    argv = ["eval", "--train", bigger, "--test", data["test"], "--out-dir", data["out"]]
    assert main(argv) == 3
    assert "entities" in capsys.readouterr().err


WALK_KEYS = ("l_max", "original_edge_sample", "rule_sampling")


def _format_2(meta):
    """`meta` as format 2 wrote it: the walk settings and the digest in a
    `walks` section, beside a config without them."""
    config = {key: value for key, value in meta["config"].items() if key not in WALK_KEYS}
    walks = {key: meta["config"][key] for key in WALK_KEYS}
    walks["segments_sha256"] = meta["segments_sha256"]
    rest = {key: value for key, value in meta.items() if key != "segments_sha256"}
    return {**rest, "format": 2, "config": config, "walks": walks}


OTHER_FORMATS = {  # layout -> (its meta.json from a format-3 one, the format the error names)
    # format 1 wrote format 2's sections plus one per state naming its sharing arrays
    "format 1": (lambda meta: {**_format_2(meta), "format": 1, "state": {"rnn": True},
                               "best_state": {"rnn": True}}, "1"),
    "format 2": (_format_2, "2"),
    "no format": (lambda meta: {key: meta[key] for key in meta if key != "format"}, "None"),
    "format 2.0": (lambda meta: {**meta, "format": 2.0}, "2.0"),
    "format 3.0": (lambda meta: {**meta, "format": 3.0}, "3.0"),
    "not a JSON object": (lambda meta: [meta], "None"),
}


@pytest.mark.parametrize("layout", sorted(OTHER_FORMATS))
def test_a_checkpoint_of_another_format_is_refused(data, tmp_path, capsys, layout):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + [
        "--strategy", "rnn", "--conf-threshold", "0.9", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    assert meta["format"] == 3 and load_checkpoint(checkpoint).best_state.rnn is not None
    edit, found = OTHER_FORMATS[layout]
    meta = edit(meta)
    named = f"checkpoint format {found},"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 3
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    err = capsys.readouterr().err
    assert err.count(named) == 2 and err.count("format 3 only; train again") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["NaN in best_entity_emb", "NaN in rnn_w_rec",
                                    "inf in best_rnn_bias", "int64 entity_emb",
                                    "float32 entity_emb", "complex128 entity_emb"])
def test_a_damaged_checkpoint_array_is_a_data_error(data, tmp_path, capsys, damage):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + [
        "--strategy", "rnn", "--conf-threshold", "0.9", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    name = damage.split()[-1]
    path = os.path.join(checkpoint, f"{name}.npy")
    array = np.load(path)
    if damage.startswith(("NaN", "inf")):
        array.flat[-1] = np.nan if damage.startswith("NaN") else np.inf
        named = f"{name} holds non-finite values"
    else:
        array = array.astype(damage.split()[0])
        named = f"{name} has dtype {damage.split()[0]}"
    np.save(path, array)
    capsys.readouterr()
    # eval reads and checks the best state alone; a resume reads and checks both
    ranked = name.startswith("best_")
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == (3 if ranked else 0)
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    err = capsys.readouterr().err
    refusals = 2 if ranked else 1
    assert err.count("data error") == refusals and err.count(named) == refusals
    assert "Traceback" not in err


def test_a_new_strategy_removes_the_last_ones_arrays(data):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--conf-threshold", "0.9",
                                                           "--epochs", "1"]
    assert main(train_argv + ["--strategy", "rnn"]) == 0
    rnn_files = {f"{prefix}rnn_{name}.npy" for prefix in ("", "best_")
                 for name in ("w_in", "w_rec", "bias")}
    assert rnn_files <= set(os.listdir(checkpoint))
    with open(os.path.join(checkpoint, "notes.txt"), "w") as fh:
        fh.write("kept\n")
    np.save(os.path.join(checkpoint, "rnn_extra.npy"), np.zeros(2))  # not a state array name
    assert main(train_argv + ["--strategy", "basis"]) == 0
    names = {name.removeprefix("best_").removesuffix(".npy")
             for name in os.listdir(checkpoint) if name.endswith(".npy")}
    assert names == {"entity_emb", "relation_emb", "basis_vectors", "basis_coef", "rnn_extra"}
    assert open(os.path.join(checkpoint, "notes.txt")).read() == "kept\n"
    assert load_checkpoint(checkpoint).state.basis is not None
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 0


def test_explicit_dictionaries_and_tsv_export(data, tmp_path):
    names = XS + YS + ZS
    edict, rdict = str(tmp_path / "e.dict"), str(tmp_path / "r.dict")
    Dictionary(reversed(names)).write(edict)  # order differs from first-seen
    Dictionary(["r2", "r1", "r0"]).write(rdict)
    argv = base_args(data, "train") + TRAIN_SPEED + [
        "--mode", "none", "--epochs", "1",
        "--entity-dict", edict, "--relation-dict", rdict, "--export-tsv",
    ]
    assert main(argv) == 0
    written = open(os.path.join(data["out"], "entities.dict")).read().splitlines()
    assert written[0].endswith("z3")
    exported = open(os.path.join(data["out"], "entity_embeddings.tsv")).read().splitlines()
    assert exported[0].split("\t")[0] == "z3"
    assert len(exported) == 13

    argv = base_args(data, "mine") + ["--entity-dict", edict]
    assert main(argv) == 2  # dictionaries only come as a pair


@pytest.mark.parametrize("damage,named", [("extra config key", "extra_knob"),
                                          ("missing registry", "registry")])
def test_malformed_checkpoint_meta_is_a_data_error(data, tmp_path, capsys, damage, named):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    if damage == "extra config key":
        meta["config"]["extra_knob"] = 1
    else:
        del meta["registry"]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 3
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and named in err and "Traceback" not in err


@pytest.mark.parametrize("damage,named", [("unknown scoring", "unknown scoring 'foo'"),
                                          ("model strategy with distmult", "bilinear distmult"),
                                          ("non-finite lr_dense", "lr_dense must be finite")])
def test_checkpoint_with_invalid_stored_config_is_a_data_error(data, tmp_path, capsys, damage,
                                                               named):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    if damage == "unknown scoring":
        meta["config"]["scoring"] = "foo"
    elif damage == "non-finite lr_dense":  # json writes NaN, as an older train did
        meta["config"]["lr_dense"] = float("nan")
    else:  # nothing is minted under --mode none, so the arrays still fit the strategy
        meta["strategy"]["kind"] = "model"
        meta["config"]["scoring"] = "distmult"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 3
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and named in err and "Traceback" not in err


RESUME_FIELD_DAMAGE = {
    "rng_state of another generator": (
        lambda meta: meta["rng_state"].update(bit_generator="MT19937"), "for a PCG64 RNG"),
    "rng_state not an object": (lambda meta: meta.update(rng_state="seed"), "must be a dict"),
    "epoch a string": (lambda meta: meta.update(epoch="1"), "epoch must be"),
    "negative bad_epochs": (lambda meta: meta.update(bad_epochs=-1), "bad_epochs must be"),
    "best_mrr a string": (lambda meta: meta.update(best_mrr="high"), "best_mrr must be"),
    "log entry missing keys": (lambda meta: meta["log"][0].pop("valid_mrr"), "log entry"),
    "log entry with an extra key": (lambda meta: meta["log"][0].update(extra=1), "log entry"),
    # the walk settings are config fields, and their digest is a top-level key
    "walks without l_max": (lambda meta: meta["config"].pop("l_max"), "missing keys ['l_max']"),
    "walks without digest": (
        lambda meta: meta.pop("segments_sha256"), "missing key 'segments_sha256'"),
    "walks not an object": (lambda meta: meta.update(config=[3]), "config is not a JSON object"),
    "walks l_max a string": (lambda meta: meta["config"].update(l_max="3"), "l_max must be"),
    "walks l_max true": (lambda meta: meta["config"].update(l_max=True), "l_max must be"),
    "walks l_max a float": (lambda meta: meta["config"].update(l_max=3.0), "l_max must be"),
    "walks negative original_edge_sample": (
        lambda meta: meta["config"].update(original_edge_sample=-1), "original_edge_sample"),
    "walks unknown rule_sampling": (
        lambda meta: meta["config"].update(rule_sampling="soft"), "rule_sampling"),
    "walks digest not hex": (
        lambda meta: meta.update(segments_sha256="Z" * 64), "SHA-256 hex digest"),
}


@pytest.mark.parametrize("damage", sorted(RESUME_FIELD_DAMAGE))
def test_checkpoint_resume_fields_are_checked_on_load(data, tmp_path, capsys, damage):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    edit, named = RESUME_FIELD_DAMAGE[damage]
    edit(meta)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and named in err and "Traceback" not in err


def test_resume_refuses_inputs_that_mint_differently(data, capsys):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--epochs", "1"]
    assert main(train_argv) == 0  # the (r0, r1) -> r2 rule holds: nothing minted
    checkpoint = os.path.join(data["out"], "checkpoint")
    capsys.readouterr()
    # at 0.9 the rule drops out and (r0, r1) would be minted as relation 3
    resume_argv = train_argv + ["--epochs", "2", "--conf-threshold", "0.9",
                                "--resume", checkpoint]
    assert main(resume_argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "{3: (0, 1)}" in err and "Traceback" not in err


def test_checkpoint_arrays_must_match_the_stored_strategy(data, tmp_path, capsys):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + [
        "--strategy", "rnn", "--conf-threshold", "0.9", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    meta["strategy"]["kind"] = "basis"  # the arrays are still the rnn ones
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    resume_argv = train_argv + ["--strategy", "basis", "--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 3
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and "basis_vectors" in err and "Traceback" not in err


def test_config_file_sets_every_key(tmp_path):
    values = {
        "train": "t.tsv", "valid": "v.tsv", "test": "x.tsv", "entity_dict": "e.dict",
        "relation_dict": "r.dict", "add_inverse": "yes", "l_max": "4", "threshold": "0.3",
        "sample_p": "0.5", "max_table_rows": "1000", "conf_threshold": "0.7",
        "mode": "rules-only", "strategy": "basis", "basis_count": "5",
        "basis_include_original": "true", "scoring": "distmult", "dim": "16",
        "margin": "1.5", "negatives": "3", "lr": "0.2", "lr_dense": "0.02",
        "regularization": "0.001", "epochs": "7", "batch_nodes": "32", "patience": "3",
        "original_edge_sample": "9", "rule_sampling": "raw", "protocol": "raw",
        "tie": "pessimistic", "split": "valid", "seed": "11", "out_dir": "runs",
    }
    assert set(values) == {f.name for f in dataclasses.fields(PipelineConfig)}
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    want = PipelineConfig(
        train="t.tsv", valid="v.tsv", test="x.tsv", entity_dict="e.dict",
        relation_dict="r.dict", add_inverse=True, l_max=4, threshold=0.3, sample_p=0.5,
        max_table_rows=1000, conf_threshold=0.7, mode="rules-only", strategy="basis",
        basis_count=5, basis_include_original=True, scoring="distmult", dim=16, margin=1.5,
        negatives=3, lr=0.2, lr_dense=0.02, regularization=0.001, epochs=7, batch_nodes=32,
        patience=3, original_edge_sample=9, rule_sampling="raw", protocol="raw",
        tie="pessimistic", split="valid", seed=11, out_dir="runs",
    )
    parsed = read_config_file(str(conf))
    assert parsed == dataclasses.asdict(want)
    assert all(type(parsed[key]) is type(value)
               for key, value in dataclasses.asdict(want).items())

    nullable = ["train", "valid", "test", "entity_dict", "relation_dict", "basis_count",
                "margin", "original_edge_sample"]
    conf.write_text("".join(f"{key}=none\n" for key in nullable) + "mode=none\nstrategy=none\n")
    parsed = read_config_file(str(conf))
    assert parsed == {**{key: None for key in nullable}, "mode": "none", "strategy": "none"}
    conf.write_text("dim=none\n")
    with pytest.raises(ConfigError, match="dim"):
        read_config_file(str(conf))


def test_diverging_training_exits_with_numeric_error(data, capsys):
    # the first step overflows the entity rows; the check after the update
    # stops the run there, before any loss sees the infinities
    argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--lr", "1e308"]
    assert main(argv) == 4
    assert "numeric error: non-finite entity_emb row" in capsys.readouterr().err


@pytest.mark.parametrize("report, column, value", [
    ("metapaths.tsv", 1, "-0.9"),
    ("metapaths.tsv", 1, "nan"),
    ("rules.tsv", 2, "nan"),
])
def test_train_rejects_report_score_outside_unit_interval(data, capsys, report, column, value):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    path = os.path.join(data["out"], report)
    lines = open(path).read().splitlines()
    parts = lines[0].split("\t")
    parts[column] = value
    lines[0] = "\t".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(base_args(data, "train") + TRAIN_SPEED) == 3
    err = capsys.readouterr().err
    assert f"{report}:1:" in err and "Traceback" not in err


def test_train_rejects_a_one_relation_metapath_in_the_report(data, capsys):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    path = os.path.join(data["out"], "metapaths.tsv")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("r0\t0.9\t5\n")
    lineno = len(open(path, encoding="utf-8").read().splitlines())
    capsys.readouterr()
    assert main(base_args(data, "train") + TRAIN_SPEED) == 3
    err = capsys.readouterr().err
    assert f"metapaths.tsv:{lineno}: metapath 'r0' has fewer than 2 relations" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("report,line", [("metapaths.tsv", "r0|zz\t0.9\t5"),
                                         ("rules.tsv", "r0|r1\tzz\t0.9")])
def test_train_names_the_line_of_an_unknown_relation_in_a_report(data, capsys, report, line):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    path = os.path.join(data["out"], report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    lineno = len(open(path, encoding="utf-8").read().splitlines())
    capsys.readouterr()
    assert main(base_args(data, "train") + TRAIN_SPEED) == 3
    err = capsys.readouterr().err
    assert f"{report}:{lineno}: unknown name 'zz'" in err
    assert "Traceback" not in err


def _spoil(path):
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")  # not UTF-8


@pytest.mark.parametrize("fault", ["missing entity dictionary", "non-UTF-8 training file",
                                   "non-UTF-8 dictionary", "non-UTF-8 metapaths.tsv",
                                   "non-UTF-8 rules.tsv"])
def test_unreadable_inputs_are_data_errors(data, tmp_path, capsys, fault):
    argv = base_args(data, "train") + TRAIN_SPEED
    edict, rdict = str(tmp_path / "e.dict"), str(tmp_path / "r.dict")
    Dictionary(XS + YS + ZS).write(edict)
    Dictionary(["r0", "r1", "r2"]).write(rdict)
    if fault == "missing entity dictionary":
        argv += ["--mode", "none", "--entity-dict", str(tmp_path / "nope.dict"),
                 "--relation-dict", rdict]
    elif fault == "non-UTF-8 training file":
        _spoil(data["train"])
        argv += ["--mode", "none"]
    elif fault == "non-UTF-8 dictionary":
        _spoil(edict)
        argv += ["--mode", "none", "--entity-dict", edict, "--relation-dict", rdict]
    else:
        assert main(base_args(data, "mine")) == 0
        assert main(base_args(data, "rules")) == 0
        _spoil(os.path.join(data["out"], fault.split()[-1]))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


@pytest.mark.parametrize("damage", ["extra coefficient row"])
def test_basis_coefficients_must_match_their_keys(data, capsys, damage):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + [
        "--strategy", "basis", "--conf-threshold", "0.9", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    eval_argv = base_args(data, "eval") + ["--test", data["test"]]
    assert main(eval_argv) == 0
    # eval reads the best state's coefficients, a resume the current ones too
    for prefix, argv in (("best_", eval_argv),
                         ("", train_argv + ["--epochs", "2", "--resume", checkpoint,
                                            "--checkpoint", os.path.join(data["out"], "next")])):
        coef_path = os.path.join(checkpoint, f"{prefix}basis_coef.npy")
        coef = np.load(coef_path)
        assert len(coef), "the run mints a basis-shared relation"
        np.save(coef_path, np.concatenate((coef, coef[:1])))
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{prefix}basis_coef has shape" in err
        assert "Traceback" not in err
        np.save(coef_path, coef)


@pytest.mark.parametrize("other", ["more entities", "fewer entities"])
def test_resume_refuses_a_dataset_with_other_entities(data, tmp_path, capsys, other):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    rows = train_rows()
    if other == "more entities":
        rows.append(("x9", "r0", "y0"))
    else:
        rows.remove(("x5", "r0", "y2"))  # x5's only triplet
    changed = str(tmp_path / "changed.tsv")
    write_tsv(changed, rows)
    capsys.readouterr()
    argv = ["train", "--train", changed, "--out-dir", str(tmp_path / "next"), "--mode", "none",
            "--resume", checkpoint] + TRAIN_SPEED + ["--epochs", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "13 entities" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--l-max", "4"), ("--rule-sampling", "raw"),
                                        ("--original-edge-sample", "3")])
def test_resume_refuses_changed_walk_settings(data, tmp_path, capsys, flag, value):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    capsys.readouterr()
    assert main(resume_argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert "configuration error: resume checkpoint disagrees on: " in err
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err
    # the epoch budget and the patience are free to change on a resume
    assert main(resume_argv + ["--patience", "5"]) == 0


def test_checkpoint_without_walk_settings_evaluates_but_does_not_resume(data, tmp_path, capsys):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    assert len(meta["segments_sha256"]) == 64
    assert {key: meta["config"][key] for key in WALK_KEYS} == {
        "l_max": 3, "original_edge_sample": None, "rule_sampling": "normalized"}
    meta["segments_sha256"] = None  # as save_checkpoint writes a Checkpoint without one
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert main(base_args(data, "eval") + ["--test", data["test"]]) == 0
    capsys.readouterr()
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv) == 2
    err = capsys.readouterr().err
    assert "does not record segments_sha256" in err and "unknown" in err
    assert "Traceback" not in err


def test_resume_refuses_another_mode(data, tmp_path, capsys):
    # neither mode mints a relation, so only what the walks emit tells them apart
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED
    assert main(train_argv + ["--mode", "none", "--epochs", "1"]) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    capsys.readouterr()
    resume_argv = train_argv + ["--epochs", "2", "--resume", checkpoint,
                                "--checkpoint", str(tmp_path / "next")]
    assert main(resume_argv + ["--mode", "rules-only"]) == 2
    err = capsys.readouterr().err
    assert "disagrees on: segments_sha256" in err and "Traceback" not in err
    assert main(resume_argv + ["--mode", "none"]) == 0


@pytest.fixture
def loads(monkeypatch):
    """The arguments of every `load_tsv_dataset` call of the CLI, that is of every parse."""
    calls = []
    parse = cli.load_tsv_dataset

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(cli, "load_tsv_dataset", counted)
    return calls


# (input, text in it, the same text with one byte changed): each stays a valid input
ONE_BYTE = {"train": ("x0\t", "x1\t"), "valid": ("x4", "x3"), "test": ("x5", "x4"),
            "entity_dict": ("extra", "extrb"), "relation_dict": ("extra", "extrb")}


@pytest.mark.parametrize("name", sorted(ONE_BYTE))
def test_one_changed_input_byte_misses_the_dataset_cache(data, tmp_path, loads, name):
    paths = dict(data, entity_dict=str(tmp_path / "e.dict"), relation_dict=str(tmp_path / "r.dict"))
    Dictionary(XS + YS + ZS + ["extra"]).write(paths["entity_dict"])
    Dictionary(["r0", "r1", "r2", "extra"]).write(paths["relation_dict"])
    argv = base_args(data, "mine") + [
        arg for key in ("valid", "test", "entity_dict", "relation_dict")
        for arg in ("--" + key.replace("_", "-"), paths[key])]
    assert main(argv) == 0 and main(argv) == 0
    assert len(loads) == 1
    before = open(paths[name], "rb").read()
    old, new = (text.encode() for text in ONE_BYTE[name])
    after = before.replace(old, new, 1)
    assert len(after) == len(before) and sum(a != b for a, b in zip(before, after)) == 1
    with open(paths[name], "wb") as fh:
        fh.write(after)
    assert main(argv) == 0 and main(argv) == 0
    assert len(loads) == 2  # one miss, then a hit on the rewritten cache
    cached = read_dataset_cache(os.path.join(data["out"], DATASET_CACHE), dataset_key(*loads[1]))
    assert_same_dataset(cached, load_tsv_dataset(*loads[1]))


@pytest.mark.parametrize("damage", ["cut in half", "garbage"])
def test_a_damaged_dataset_cache_is_parsed_again_and_rewritten(data, loads, damage):
    argv = base_args(data, "mine")
    assert main(argv) == 0
    cache = os.path.join(data["out"], DATASET_CACHE)
    whole = open(cache, "rb").read()
    with open(cache, "wb") as fh:
        fh.write(whole[:len(whole) // 2] if damage == "cut in half" else bytes(range(256)) * 8)
    assert main(argv) == 0 and main(argv) == 0
    assert len(loads) == 2
    assert_same_dataset(read_dataset_cache(cache, dataset_key(*loads[0])),
                        load_tsv_dataset(*loads[0]))


def test_an_old_npz_dataset_cache_is_not_read(data, loads):
    # the four-member npz layout that came before the flat one, under the right key
    old = os.path.join(data["out"], "dataset.cache.npz")
    key = dataset_key(data["train"], data["valid"], data["test"])
    dataset = load_tsv_dataset(data["train"], data["valid"], data["test"])
    ids = np.concatenate([[dataset.num_entities, dataset.num_relations,
                           *(graph.num_triplets for graph in dataset.graphs())]] + [
        column for graph in dataset.graphs()
        for column in (graph.heads, graph.relations, graph.tails)]).astype(np.int64)
    os.makedirs(data["out"], exist_ok=True)
    np.savez(old, key=np.frombuffer(key.encode("ascii"), np.uint8), ids=ids,
             **{name: np.frombuffer("\t".join(dct).encode("utf-8"), np.uint8) for name, dct in
                (("entities", dataset.entity_dict), ("relations", dataset.relation_dict))})
    argv = base_args(data, "mine") + ["--valid", data["valid"], "--test", data["test"]]
    assert main(argv) == 0 and main(argv) == 0
    assert len(loads) == 1  # a parse, then a hit on the new cache beside the old file
    assert sorted(os.listdir(data["out"])) == [DATASET_CACHE, "dataset.cache.npz", "metapaths.tsv"]


def test_a_dataset_that_is_a_data_error_is_never_cached(data, loads, capsys):
    write_tsv(data["train"], train_rows() + [("x0", "r|s", "y0")])
    assert main(base_args(data, "mine")) == 3 and main(base_args(data, "mine")) == 3
    assert len(loads) == 2
    assert capsys.readouterr().err.count("contains '|'") == 2
    assert not os.path.exists(os.path.join(data["out"], DATASET_CACHE))


def test_a_failed_dataset_cache_write_is_ignored(data, loads, monkeypatch):
    replace = os.replace

    def full_disk(src, dst):
        if os.path.basename(dst) == DATASET_CACHE:
            raise OSError(errno.ENOSPC, "No space left on device")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk)
    assert main(base_args(data, "mine")) == 0 and main(base_args(data, "rules")) == 0
    assert len(loads) == 2
    assert sorted(os.listdir(data["out"])) == ["metapaths.tsv", "rules.tsv"]  # no temp file


def test_an_input_edited_during_the_parse_is_not_cached(data, monkeypatch):
    parse = cli.load_tsv_dataset

    def edited_meanwhile(*args):
        dataset = parse(*args)
        write_tsv(data["train"], train_rows()[1:])
        return dataset

    monkeypatch.setattr(cli, "load_tsv_dataset", edited_meanwhile)
    assert main(base_args(data, "mine")) == 0
    assert not os.path.exists(os.path.join(data["out"], DATASET_CACHE))


def test_a_change_to_the_loader_code_misses_the_dataset_cache(data, loads, monkeypatch):
    assert storage._code_digest() is not None
    assert main(base_args(data, "mine")) == 0 and main(base_args(data, "mine")) == 0
    assert len(loads) == 1
    monkeypatch.setattr(storage, "_code_digest", lambda: b"other loader source")
    assert main(base_args(data, "mine")) == 0 and main(base_args(data, "mine")) == 0
    assert len(loads) == 2


class _Feed:
    """A path that yields `text` once, like `<(zcat train.tsv.gz)`: a FIFO, or
    /dev/fd of a pipe. A second open of the FIFO reads an empty stream."""

    def __init__(self, kind, path, text):
        self.done = threading.Event()
        if kind == "fifo":
            self.path, self.read_fd = path, None
            os.mkfifo(path)
            target = self._fifo_writer
        else:
            self.read_fd, write_fd = os.pipe()
            self.path = f"/dev/fd/{self.read_fd}"
            target = self._pipe_writer
        self.thread = threading.Thread(target=target, args=(text,) if kind == "fifo"
                                       else (write_fd, text), daemon=True)
        self.thread.start()

    def _fifo_writer(self, text):
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        while not self.done.wait(0.01):  # a reader that opens it again sees no bytes
            try:
                os.close(os.open(self.path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass

    @staticmethod
    def _pipe_writer(write_fd, text):
        with open(write_fd, "w", encoding="utf-8") as fh:
            fh.write(text)

    def close(self):
        self.done.set()
        self.thread.join(5)
        if self.read_fd is not None:
            os.close(self.read_fd)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("kind", ["fifo", "pipe"])
def test_an_input_that_is_not_a_regular_file_is_parsed_and_not_cached(data, tmp_path, loads,
                                                                      kind):
    if kind == "pipe" and not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    text = open(data["train"], encoding="utf-8").read()
    expected = _pipeline(data, str(tmp_path / "regular"))
    loads.clear()
    out = str(tmp_path / "streamed")
    for round_, (command, extra) in enumerate(PIPELINE):
        feed = _Feed(kind, str(tmp_path / f"train{round_}.fifo"), text)
        try:
            argv = [command, "--train", feed.path, "--valid", data["valid"],
                    "--test", data["test"], "--out-dir", out, *extra]
            assert main(argv) == 0
        finally:
            feed.close()
    assert len(loads) == 4
    assert not os.path.exists(os.path.join(out, DATASET_CACHE))
    assert {name: open(os.path.join(out, name), "rb").read() for name in REPORTS} == expected


REPORTS = ("metapaths.tsv", "rules.tsv", "training_log.tsv", "metrics.json",
           "entity.emb", "relation.emb")


PIPELINE = (("mine", []), ("rules", []), ("train", TRAIN_SPEED), ("eval", []))


def _pipeline(data, out):
    """The report bytes of mine, rules, train and eval run in `out`."""
    common = ["--train", data["train"], "--valid", data["valid"], "--test", data["test"],
              "--out-dir", out]
    for command, extra in PIPELINE:
        assert main([command, *common, *extra]) == 0
    return {name: open(os.path.join(out, name), "rb").read() for name in REPORTS}


def test_a_pipeline_parses_its_dataset_once(data, tmp_path, loads, monkeypatch):
    cached = _pipeline(data, str(tmp_path / "cached"))
    assert len(loads) == 1
    # a cache of other inputs in the out-dir is stale: missed once, then replaced
    stale = tmp_path / "stale"
    stale.mkdir()
    other = str(tmp_path / "other.tsv")
    write_tsv(other, train_rows()[:5])
    write_dataset_cache(str(stale / DATASET_CACHE), dataset_key(other, None, None),
                        load_tsv_dataset(other, None, None))
    loads.clear()
    assert _pipeline(data, str(stale)) == cached and len(loads) == 1
    # a parse in every command writes the same bytes
    monkeypatch.setattr(cli, "read_dataset_cache", lambda path, key: None)
    loads.clear()
    assert _pipeline(data, str(tmp_path / "parsed")) == cached and len(loads) == 4


def test_only_mine_and_train_build_the_train_graphs_adjacency(data, loads, monkeypatch):
    # the valid and test graphs are never walked; rules and eval walk no graph
    loaded = []
    load = cli._load_dataset
    monkeypatch.setattr(cli, "_load_dataset", lambda cfg: loaded.append(load(cfg)) or loaded[-1])
    common = ["--train", data["train"], "--valid", data["valid"], "--test", data["test"],
              "--out-dir", data["out"]]
    for command, extra in PIPELINE:
        for hit in (False, True):
            if not hit and os.path.exists(os.path.join(data["out"], DATASET_CACHE)):
                os.remove(os.path.join(data["out"], DATASET_CACHE))
            loaded.clear()
            parses = len(loads)
            assert main([command, *common, *extra]) == 0
            (dataset,) = loaded
            assert len(loads) == parses + (not hit)
            assert not csr_built(dataset.valid) and not csr_built(dataset.test)
            assert csr_built(dataset.train) == (command in ("mine", "train")), (command, hit)


def test_train_counts_the_metapaths_its_walks_never_follow(data, capsys):
    assert main(base_args(data, "mine")) == 0 and main(base_args(data, "rules")) == 0
    mined = open(os.path.join(data["out"], "metapaths.tsv")).read().splitlines()
    capsys.readouterr()
    assert main(base_args(data, "train") + TRAIN_SPEED) == 0
    assert "never follow" not in capsys.readouterr().out  # l_max 3 walks 2 relations
    assert main(base_args(data, "train") + TRAIN_SPEED + ["--l-max", "2"]) == 0
    assert (f"{len(mined)} of {len(mined)} metapaths have more than l_max - 1 = 1 relations; "
            f"walks of l_max = 2 nodes never follow them") in capsys.readouterr().out


def test_atomic_write_leaves_the_old_file_on_an_error(tmp_path):
    path = tmp_path / "report.tsv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("new\n")
            raise RuntimeError("killed mid-write")
    assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["report.tsv"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_creates_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        with atomic_write(tmp_path / "atomic", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


@pytest.mark.parametrize("strategy", [["none"], ["basis", "--basis-include-original"]])
def test_relation_emb_holds_the_vectors_the_scorer_reads(data, tmp_path, strategy):
    assert main(base_args(data, "mine")) == 0 and main(base_args(data, "rules")) == 0
    argv = base_args(data, "train") + TRAIN_SPEED + ["--conf-threshold", "0.9", "--strategy"]
    assert main(argv + strategy) == 0
    state = load_checkpoint(os.path.join(data["out"], "checkpoint")).best_state
    written = os.path.join(data["out"], "relation.emb")
    if strategy == ["none"]:  # the relation rows, bytes as before
        write_embedding_matrix(tmp_path / "rows.emb", state.relation_emb)
        assert open(written, "rb").read() == (tmp_path / "rows.emb").read_bytes()
    else:  # the basis combinations; the original relations own no rows
        want = relation_vector(state, np.arange(3)).astype(np.float32)
        assert np.array_equal(read_embedding_matrix(written), want)
        assert state.relation_emb.shape == (0, 8)


@pytest.mark.parametrize("argv", [["train", "--seed", "-1"],
                                  ["mine", "--sample-p", "0.5", "--seed", "-1"],
                                  ["rules", "--seed", "-1"], ["eval", "--seed", "-1"]])
def test_a_negative_seed_is_a_configuration_error(data, capsys, argv):
    assert main(argv + ["--train", data["train"], "--out-dir", data["out"]]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="seed"):
        ModelConfig(seed=-1).validate()


@pytest.mark.parametrize("flag,value", [("--lr-dense", "nan"), ("--lr", "nan"), ("--lr", "inf"),
                                        ("--margin", "nan"), ("--margin", "inf"),
                                        ("--regularization", "inf")])
def test_non_finite_model_settings_are_configuration_errors(data, capsys, flag, value):
    argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", flag, value]
    assert main(argv) == 2
    name = flag[2:].replace("-", "_")
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(data["out"], "checkpoint"))


def test_a_failed_dictionary_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "entities.dict"
    Dictionary(["a", "b"]).write(path)
    assert path.read_bytes() == b"0\ta\n1\tb\n"

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError):
        Dictionary(["c"]).write(path)
    assert path.read_bytes() == b"0\ta\n1\tb\n" and os.listdir(tmp_path) == ["entities.dict"]


@pytest.mark.parametrize("argv", [["--original-edge-sample", "-1"], ["--dim", "0"],
                                  ["--strategy", "model", "--scoring", "distmult"]])
def test_train_refuses_its_model_settings_before_it_reads_any_input(data, loads, capsys, argv):
    # no metapath report exists, so reading one first would be a data error
    assert main(base_args(data, "train") + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert loads == []
