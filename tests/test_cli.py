"""End-to-end command line runs over a small composed-relation dataset."""

import dataclasses
import json
import os

import numpy as np
import pytest

from walkaug import ConfigError, Dictionary, read_embedding_matrix
from walkaug.cli import PipelineConfig, main, read_config_file

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


def test_eval_reads_stored_compose_op(data, capsys):
    # checkpoints from before the model composition was fixed to the sum carry it in meta.json
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    argv = base_args(data, "train") + TRAIN_SPEED + ["--strategy", "model", "--epochs", "1"]
    assert main(argv) == 0
    meta_path = os.path.join(data["out"], "checkpoint", "meta.json")
    meta = json.load(open(meta_path))
    eval_argv = base_args(data, "eval") + ["--test", data["test"]]
    for op, code in (("sum", 0), ("product", 3)):
        meta["strategy"]["compose_op"] = op
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert main(eval_argv) == code, op
    assert "compose op 'product'" in capsys.readouterr().err


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
                                          ("model strategy with distmult", "bilinear distmult")])
def test_checkpoint_with_invalid_stored_config_is_a_data_error(data, tmp_path, capsys, damage,
                                                               named):
    train_argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    if damage == "unknown scoring":
        meta["config"]["scoring"] = "foo"
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
    assert err.count("data error") == 2 and "rnn parameters" in err and "Traceback" not in err


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


@pytest.mark.parametrize("damage", ["extra coefficient row", "wrong key set"])
def test_basis_coefficients_must_match_their_keys(data, capsys, damage):
    assert main(base_args(data, "mine")) == 0
    assert main(base_args(data, "rules")) == 0
    train_argv = base_args(data, "train") + TRAIN_SPEED + [
        "--strategy", "basis", "--conf-threshold", "0.9", "--epochs", "1"]
    assert main(train_argv) == 0
    checkpoint = os.path.join(data["out"], "checkpoint")
    eval_argv = base_args(data, "eval") + ["--test", data["test"]]
    assert main(eval_argv) == 0
    meta_path = os.path.join(checkpoint, "meta.json")
    meta = json.load(open(meta_path))
    assert meta["state"]["basis_keys"], "the run mints a basis-shared relation"
    if damage == "extra coefficient row":
        coef_path = os.path.join(checkpoint, "basis_coef.npy")
        coef = np.load(coef_path)
        np.save(coef_path, np.concatenate((coef, coef[:1])))
    else:
        meta["state"]["basis_keys"][0] = [2, 2]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    capsys.readouterr()
    assert main(eval_argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "basis" in err and "Traceback" not in err
