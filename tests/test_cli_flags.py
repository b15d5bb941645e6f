"""The generated command line flags: the same surface as the hand-written
parser they replaced, and the same values as the config file keys."""

import argparse
import dataclasses

import pytest

from walkaug import ConfigError
from walkaug.cli import PipelineConfig, build_config, build_parser, main

# The parser as it was written by hand, one add_argument call per flag: per
# subcommand, (option strings, dest, choices, kind) of every action but -h.
COMMON = [
    (("--config",), "config", None, "value"),
    (("--seed",), "seed", None, "value"),
    (("--out-dir",), "out_dir", None, "value"),
    (("--train",), "train", None, "value"),
    (("--valid",), "valid", None, "value"),
    (("--test",), "test", None, "value"),
    (("--entity-dict",), "entity_dict", None, "value"),
    (("--relation-dict",), "relation_dict", None, "value"),
    (("--add-inverse", "--no-add-inverse"), "add_inverse", None, "bool"),
]
HAND_WRITTEN = {
    "mine": COMMON + [
        (("--l-max",), "l_max", None, "value"),
        (("--threshold",), "threshold", None, "value"),
        (("--sample-p",), "sample_p", None, "value"),
        (("--max-table-rows",), "max_table_rows", None, "value"),
        (("--metapaths",), "metapaths", None, "value"),
    ],
    "rules": COMMON + [
        (("--conf-threshold",), "conf_threshold", None, "value"),
        (("--metapaths",), "metapaths", None, "value"),
        (("--rules",), "rules", None, "value"),
    ],
    "train": COMMON + [
        (("--mode",), "mode", ("none", "rules-only", "metapaths"), "value"),
        (("--strategy",), "strategy", ("none", "model", "rnn", "basis"), "value"),
        (("--basis-count",), "basis_count", None, "value"),
        (("--basis-include-original", "--no-basis-include-original"), "basis_include_original",
         None, "bool"),
        (("--scoring",), "scoring", ("transe_l1", "transe_l2", "distmult"), "value"),
        (("--dim",), "dim", None, "value"),
        (("--margin",), "margin", None, "value"),
        (("--negatives",), "negatives", None, "value"),
        (("--lr",), "lr", None, "value"),
        (("--lr-dense",), "lr_dense", None, "value"),
        (("--regularization",), "regularization", None, "value"),
        (("--epochs",), "epochs", None, "value"),
        (("--batch-nodes",), "batch_nodes", None, "value"),
        (("--patience",), "patience", None, "value"),
        (("--l-max",), "l_max", None, "value"),
        (("--original-edge-sample",), "original_edge_sample", None, "value"),
        (("--rule-sampling",), "rule_sampling", ("normalized", "raw"), "value"),
        (("--conf-threshold",), "conf_threshold", None, "value"),
        (("--metapaths",), "metapaths", None, "value"),
        (("--rules",), "rules", None, "value"),
        (("--checkpoint",), "checkpoint", None, "value"),
        (("--resume",), "resume", None, "value"),
        (("--export-tsv",), "export_tsv", None, "switch"),
    ],
    "eval": COMMON + [
        (("--checkpoint",), "checkpoint", None, "value"),
        (("--split",), "split", ("train", "valid", "test"), "value"),
        (("--protocol",), "protocol", ("raw", "filtered"), "value"),
        (("--tie",), "tie", ("optimistic", "pessimistic"), "value"),
    ],
}
KINDS = {argparse._StoreAction: "value", argparse.BooleanOptionalAction: "bool",
         argparse._StoreTrueAction: "switch"}


def subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_generated_flags_equal_the_hand_written_ones():
    commands = subparsers()
    assert list(commands) == list(HAND_WRITTEN)
    for name, parser in commands.items():
        rows = []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            kind = KINDS[type(action)]
            rows.append((tuple(action.option_strings), action.dest,
                         None if action.choices is None else tuple(action.choices), kind))
            assert action.default is (False if kind == "switch" else None), action.dest
            assert action.nargs in (None, 0) and not action.required, action.dest
        assert len(rows) == len(set(rows)), name
        assert sorted(rows, key=repr) == sorted(HAND_WRITTEN[name], key=repr), name


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


# for each key: the values tried as `--key value` and as `key=value`
VALUES = {
    "train": ["t.tsv", "none"], "valid": ["v.tsv", "none"], "test": ["x.tsv", "none"],
    "entity_dict": ["e.dict", "none"], "relation_dict": ["r.dict", "none"],
    "l_max": ["4"], "threshold": ["0.3"], "sample_p": ["0.5"], "max_table_rows": ["1000"],
    "conf_threshold": ["0.7"], "mode": ["rules-only", "none"], "strategy": ["basis", "none"],
    "basis_count": ["5", "none"], "scoring": ["distmult"], "dim": ["16"],
    "margin": ["1.5", "0", "none"], "negatives": ["3"], "lr": ["0.2"], "lr_dense": ["2e-2"],
    "regularization": ["0.001"], "epochs": ["7"], "batch_nodes": ["32"], "patience": ["3"],
    "original_edge_sample": ["9", "0", "none"], "rule_sampling": ["raw"], "protocol": ["raw"],
    "tie": ["pessimistic"], "split": ["valid"], "seed": ["11"], "out_dir": ["runs", "none"],
}
BOOLEANS = ["add_inverse", "basis_include_original"]


def flag_command(key):
    """A subcommand that takes the flag of `key`, and that flag."""
    flag = "--" + key.replace("_", "-")
    return next(name for name, rows in HAND_WRITTEN.items()
                if any(flag in row[0] for row in rows)), flag


def from_config_file(tmp_path, command, text):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    return build_config(build_parser().parse_args([command, "--config", str(conf)]))


def test_every_key_has_examples():
    keys = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(VALUES) | set(BOOLEANS) == keys and not set(VALUES) & set(BOOLEANS)


@pytest.mark.parametrize("key,value", [(k, v) for k, values in VALUES.items() for v in values])
def test_a_flag_value_equals_the_config_file_value(tmp_path, key, value):
    command, flag = flag_command(key)
    from_flag = build_config(build_parser().parse_args([command, flag, value]))
    from_file = from_config_file(tmp_path, command, f"{key}={value}\n")
    assert from_flag == from_file
    got = getattr(from_flag, key)
    assert type(got) is type(getattr(from_file, key))
    if value == "none":
        assert got == ("none" if key in ("mode", "strategy", "out_dir") else None)
    # a flag overrides the file, "none" included
    other = next(v for v in VALUES[key] + ["1"] if v != value)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key}={other}\n")
    argv = [command, "--config", str(conf), flag, value]
    assert build_config(build_parser().parse_args(argv)) == from_flag


@pytest.mark.parametrize("key", BOOLEANS)
def test_a_boolean_flag_equals_the_config_file_value(tmp_path, key):
    command, flag = flag_command(key)
    for form, written, want in ((flag, "yes", True), ("--no-" + flag[2:], "no", False)):
        from_flag = build_config(build_parser().parse_args([command, form]))
        assert from_flag == from_config_file(tmp_path, command, f"{key}={written}\n")
        assert getattr(from_flag, key) is want
        (tmp_path / "run.conf").write_text(f"{key}={'no' if want else 'yes'}\n")
        overridden = build_config(build_parser().parse_args(
            [command, "--config", str(tmp_path / "run.conf"), form]))
        assert getattr(overridden, key) is want
    with pytest.raises(ConfigError, match=f"setting {key} expects a boolean, got 'maybe'"):
        from_config_file(tmp_path, command, f"{key}=maybe\n")


@pytest.mark.parametrize("key,raw,expected", [
    ("dim", "none", "an integer"), ("l_max", "2.5", "an integer"),
    ("margin", "wide", "a number or none"), ("basis_count", "x", "an integer or none"),
])
def test_a_bad_value_is_the_same_config_error_either_way(tmp_path, capsys, key, raw, expected):
    command, flag = flag_command(key)
    with pytest.raises(ConfigError) as from_flag:
        build_config(build_parser().parse_args([command, flag, raw]))
    with pytest.raises(ConfigError) as from_file:
        from_config_file(tmp_path, command, f"{key}={raw}\n")
    assert str(from_flag.value) == str(from_file.value)
    assert str(from_flag.value) == f"setting {key} expects {expected}, got {raw!r}"
    assert main([command, flag, raw]) == 2
    assert "configuration error: setting" in capsys.readouterr().err


def test_nullable_flags_take_none(tmp_path, capsys):
    argv = ["train", "--margin", "none", "--basis-count", "none",
            "--original-edge-sample", "none"]
    config = build_config(build_parser().parse_args(argv))
    assert (config.margin, config.basis_count, config.original_edge_sample) == (None, None, None)
    # --train none means no file, as train=none does
    conf = tmp_path / "run.conf"
    conf.write_text("train=t.tsv\n")
    assert main(["train", "--config", str(conf), "--train", "none"]) == 2
    assert "a training file is required" in capsys.readouterr().err
