"""End-to-end command line runs over a small composed-relation dataset."""

import json
import os

import pytest

from walkaug import Dictionary, read_embedding_matrix
from walkaug.cli import main

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


def test_diverging_training_exits_with_numeric_error(data, capsys):
    # the first step overflows the entity rows; the check after the update
    # stops the run there, before any loss sees the infinities
    argv = base_args(data, "train") + TRAIN_SPEED + ["--mode", "none", "--lr", "1e308"]
    assert main(argv) == 4
    assert "numeric error: non-finite entity_emb row" in capsys.readouterr().err
