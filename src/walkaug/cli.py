"""Command line pipeline: mine, rules, train, eval.

Options come from defaults, then an optional `key=value` config file, then
command line flags (highest priority). Each `PipelineConfig` field is the one
declaration of its setting: its metadata names the commands that take it as
a flag (`--` plus the key with `-` for `_`), its allowed values and its help,
and `build_parser` generates the flags from it. Flag values are strings
coerced like config file values, so `--margin none` clears the margin as
`margin=none` does. Only the artifact paths (`--config`, `--metapaths`,
`--rules`, `--checkpoint`, `--resume`, `--export-tsv`) are flags of their
own. Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing

import numpy as np

from .augment import RULE_SAMPLING_MODES
from .errors import ConfigError, DataError, NumericError
from .evaluation import PROTOCOLS, TIE_POLICIES, EvalFilter, evaluate
from .graph import atomic_write, load_tsv_dataset
from .mining import (
    DEFAULT_MAX_TABLE_ROWS,
    mine_informative_metapaths,
    read_metapath_report,
    write_metapath_report,
)
from .models import SCORINGS, ModelConfig
from .rules import build_rulemaps, read_rules_report, write_rules_report
from .sharing import STRATEGY_KINDS, SharingStrategy, relation_vector
from .storage import (
    DATASET_CACHE,
    dataset_key,
    load_checkpoint,
    read_dataset_cache,
    write_dataset_cache,
    write_embedding_matrix,
    write_embedding_tsv,
)
from .training import train

MODES = ("none", "rules-only", "metapaths")
SPLITS = ("train", "valid", "test")
ALL = "mine rules train eval"


def _setting(default, commands: str, help: str, choices=None):
    """A config field that the space-separated `commands` take as a flag;
    `choices`, if given, are its only values."""
    return dataclasses.field(default=default, metadata={
        "commands": commands.split(), "choices": choices, "help": help})


@dataclasses.dataclass
class PipelineConfig:
    """Every pipeline knob in one place."""

    # data
    train: str | None = _setting(None, ALL, "training triplets TSV")
    valid: str | None = _setting(None, ALL, "validation triplets TSV")
    test: str | None = _setting(None, ALL, "test triplets TSV")
    entity_dict: str | None = _setting(None, ALL, "id<TAB>name entity dictionary")
    relation_dict: str | None = _setting(None, ALL, "id<TAB>name relation dictionary")
    add_inverse: bool = _setting(False, ALL, "add an inverse twin of every relation")
    # mining
    l_max: int = _setting(3, "mine train", "most relations of a metapath, nodes of a walk")
    threshold: float = _setting(0.2, "mine", "lowest z score of an informative metapath")
    sample_p: float = _setting(1.0, "mine", "edge sampling probability of the miner")
    max_table_rows: int = _setting(DEFAULT_MAX_TABLE_ROWS, "mine", "row budget of a mining level")
    # rules
    conf_threshold: float = _setting(0.5, "rules train", "lowest confidence of a kept rule")
    # training
    mode: str = _setting("metapaths", "train", "what walks add to training", MODES)
    strategy: str = _setting("none", "train", "parameters of minted relations", STRATEGY_KINDS)
    basis_count: int | None = _setting(None, "train", "vectors of the basis strategy")
    basis_include_original: bool = _setting(False, "train",
                                            "give original relations basis coefficients too")
    scoring: str = _setting("transe_l2", "train", "score function", SCORINGS)
    dim: int = _setting(200, "train", "embedding dimension")
    margin: float | None = _setting(None, "train", "loss margin; none takes the scorer's")
    negatives: int = _setting(16, "train", "corruptions per triplet")
    lr: float = _setting(0.1, "train", "learning rate of embedding rows")
    lr_dense: float = _setting(0.01, "train", "learning rate of recurrence and basis parameters")
    regularization: float = _setting(0.0, "train", "L2 regularization weight")
    epochs: int = _setting(50, "train", "number of the last epoch")
    batch_nodes: int = _setting(1024, "train", "walk start nodes per minibatch")
    patience: int = _setting(2, "train", "epochs without a better validation MRR before a stop")
    original_edge_sample: int | None = _setting(
        None, "train", "original edges per minibatch; none matches the walk triplets")
    rule_sampling: str = _setting("normalized", "train", "how rule confidences pick a relation",
                                  RULE_SAMPLING_MODES)
    # evaluation
    protocol: str = _setting("filtered", "eval", "ranking protocol", PROTOCOLS)
    tie: str = _setting("optimistic", "eval", "rank of a tied candidate", TIE_POLICIES)
    split: str = _setting("test", "eval", "split to rank", SPLITS)
    # common
    seed: int = _setting(0, ALL, "random seed")
    out_dir: str = _setting(".", ALL, "artifact directory")

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            choices, value = field.metadata["choices"], getattr(self, field.name)
            if choices is not None and value not in choices:
                raise ConfigError(f"{field.name} must be one of {choices}, got {value!r}")
        checks = [
            (self.l_max >= 2, f"l_max must be at least 2, got {self.l_max}"),
            (0.0 < self.threshold <= 1.0, f"threshold must be in (0, 1], got {self.threshold}"),
            (0.0 < self.sample_p <= 1.0, f"sample_p must be in (0, 1], got {self.sample_p}"),
            (0.0 < self.conf_threshold <= 1.0,
             f"conf_threshold must be in (0, 1], got {self.conf_threshold}"),
            (self.max_table_rows > 0, "max_table_rows must be positive"),
            (self.patience >= 1, f"patience must be at least 1, got {self.patience}"),
            (self.original_edge_sample is None or self.original_edge_sample >= 0,
             "original_edge_sample must be non-negative"),
            (self.basis_count is None or self.basis_count >= 1, "basis_count must be positive"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def model_config(self) -> ModelConfig:
        config = ModelConfig(**{field.name: getattr(self, field.name)
                                for field in dataclasses.fields(ModelConfig)})
        config.validate()
        return config

    def sharing_strategy(self) -> SharingStrategy:
        strategy = SharingStrategy(
            kind=self.strategy, basis_count=self.basis_count,
            basis_include_original=self.basis_include_original,
        )
        strategy.validate(self.scoring)
        return strategy


_HINTS = typing.get_type_hints(PipelineConfig)
# keys where the literal "none" clears the value; for mode/strategy it is a value
_NULLABLE_FIELDS = {key for key, hint in _HINTS.items() if type(None) in typing.get_args(hint)}
# each key's value type, `| None` stripped
_FIELD_TYPES = {key: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
                for key, hint in _HINTS.items()}
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str):
    """The value of setting `key` written as `raw`, in a config file or after its flag."""
    if raw == "none" and key in _NULLABLE_FIELDS:
        return None
    kind = _FIELD_TYPES[key]
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        expected = {bool: "a boolean", int: "an integer", float: "a number"}[kind]
        nullable = " or none" if key in _NULLABLE_FIELDS else ""
        raise ConfigError(f"setting {key} expects {expected}{nullable}, got {raw!r}") from None


def read_config_file(path) -> dict:
    """Parse UTF-8 `key=value` lines; # starts a comment; a BOM and blank lines are skipped."""
    out = {}
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    with fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def build_config(args: argparse.Namespace) -> PipelineConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in _FIELD_TYPES:
        given = getattr(args, key, None)  # a string, or a bool from a --[no-]flag
        if given is not None:
            values[key] = given if isinstance(given, bool) else _coerce(key, given)
    config = PipelineConfig(**values)
    config.validate()
    return config


def _load_dataset(cfg: PipelineConfig):
    """The dataset of `cfg`, from the out-dir's cache when it was parsed from
    the same input bytes; otherwise parsed, and cached for the next command."""
    if cfg.train is None:
        raise ConfigError("a training file is required (--train or config key train)")
    dict_paths = None
    if (cfg.entity_dict is None) != (cfg.relation_dict is None):
        raise ConfigError("entity_dict and relation_dict must be given together")
    if cfg.entity_dict is not None:
        dict_paths = (cfg.entity_dict, cfg.relation_dict)
    inputs = (cfg.train, cfg.valid, cfg.test, dict_paths, cfg.add_inverse)
    cache = os.path.join(cfg.out_dir, DATASET_CACHE)
    key = dataset_key(*inputs)
    dataset = read_dataset_cache(cache, key)
    if dataset is None:
        dataset = load_tsv_dataset(*inputs)
        # an input that changed during the parse may not match what was parsed
        if key is not None and dataset_key(*inputs) == key:
            write_dataset_cache(cache, key, dataset)
    return dataset


def _artifact(cfg: PipelineConfig, override: str | None, name: str) -> str:
    if override:
        return override
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_mine(args) -> int:
    cfg = build_config(args)
    dataset = _load_dataset(cfg)
    infos = mine_informative_metapaths(
        dataset.train, l_max=cfg.l_max, threshold=cfg.threshold,
        p=cfg.sample_p, seed=cfg.seed, max_table_rows=cfg.max_table_rows,
    )
    path = _artifact(cfg, args.metapaths, "metapaths.tsv")
    write_metapath_report(path, infos, dataset.relation_dict)
    print(f"mined {len(infos)} informative metapaths (l_max={cfg.l_max}, "
          f"threshold={cfg.threshold}, p={cfg.sample_p}) -> {path}")
    return 0


def cmd_rules(args) -> int:
    cfg = build_config(args)
    dataset = _load_dataset(cfg)
    report_path = _artifact(cfg, args.metapaths, "metapaths.tsv")
    informative = read_metapath_report(report_path, dataset.relation_dict)
    rulemaps = build_rulemaps(dataset.train, informative, cfg.conf_threshold)
    rule_count = sum(len(rule.entries) for rule in rulemaps.values())
    path = _artifact(cfg, args.rules, "rules.tsv")
    write_rules_report(path, rulemaps, dataset.relation_dict)
    print(f"kept {rule_count} rules over {len(rulemaps)} metapaths "
          f"(conf >= {cfg.conf_threshold}) -> {path}")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    dataset = _load_dataset(cfg)
    if cfg.mode == "none":
        informative, rulemaps = {}, {}
    else:
        report_path = _artifact(cfg, args.metapaths, "metapaths.tsv")
        informative = read_metapath_report(report_path, dataset.relation_dict)
        rules_path = _artifact(cfg, args.rules, "rules.tsv")
        rulemaps = read_rules_report(rules_path, dataset.relation_dict, cfg.conf_threshold)
        # mine's l_max counts a metapath's relations, train's the nodes of a walk
        unwalked = sum(len(metapath) > cfg.l_max - 1 for metapath in informative)
        if unwalked:
            print(f"{unwalked} of {len(informative)} metapaths have more than "
                  f"l_max - 1 = {cfg.l_max - 1} relations; walks of l_max = {cfg.l_max} "
                  f"nodes never follow them")
    mint = cfg.mode == "metapaths"

    resume = load_checkpoint(args.resume) if args.resume else None
    checkpoint_dir = _artifact(cfg, args.checkpoint, "checkpoint")

    def progress(stats):
        mrr = "-" if stats.valid_mrr is None else f"{stats.valid_mrr:.4f}"
        print(f"epoch {stats.epoch:4d}  loss {stats.mean_loss:.6f}  valid_mrr {mrr}")

    result = train(
        dataset, informative, rulemaps, cfg.model_config(), cfg.sharing_strategy(),
        l_max=cfg.l_max, mint_new_relations=mint, rule_sampling=cfg.rule_sampling,
        original_edge_sample=cfg.original_edge_sample, patience=cfg.patience,
        checkpoint_dir=checkpoint_dir, resume=resume, progress=progress,
    )

    state = result.state
    entity_path = _artifact(cfg, None, "entity.emb")
    relation_path = _artifact(cfg, None, "relation.emb")
    write_embedding_matrix(entity_path, state.entity_emb)
    # the vectors the scorer reads: basis sharing of the original relations
    # leaves their own rows untrained
    vectors = relation_vector(state, np.arange(len(state.relation_emb)))
    write_embedding_matrix(relation_path, vectors)
    log_path = _artifact(cfg, None, "training_log.tsv")
    with atomic_write(log_path) as fh:
        for entry in result.log:
            mrr = "" if entry.valid_mrr is None else repr(entry.valid_mrr)
            fh.write(f"{entry.epoch}\t{entry.mean_loss!r}\t{mrr}\n")
    if dataset.entity_dict is not None:
        dataset.entity_dict.write(os.path.join(cfg.out_dir, "entities.dict"))
        dataset.relation_dict.write(os.path.join(cfg.out_dir, "relations.dict"))
    if args.export_tsv:
        write_embedding_tsv(os.path.join(cfg.out_dir, "entity_embeddings.tsv"),
                            state.entity_emb,
                            list(dataset.entity_dict) if dataset.entity_dict else None)
    print(f"trained {len(result.log)} epochs (mode={cfg.mode}, strategy={cfg.strategy}); "
          f"checkpoint -> {checkpoint_dir}, embeddings -> {entity_path}, {relation_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    checkpoint_dir = _artifact(cfg, args.checkpoint, "checkpoint")
    ckpt = load_checkpoint(checkpoint_dir)
    dataset = _load_dataset(cfg)
    state = ckpt.best_state
    if state.num_entities != dataset.num_entities:
        raise DataError(
            f"checkpoint has {state.num_entities} entities, dataset has {dataset.num_entities}"
        )
    if state.registry.first_id != dataset.num_relations:
        raise DataError(
            f"checkpoint has {state.registry.first_id} relations, "
            f"dataset has {dataset.num_relations}"
        )
    graph = {"train": dataset.train, "valid": dataset.valid, "test": dataset.test}[cfg.split]
    if graph.num_triplets == 0:
        raise DataError(f"split {cfg.split!r} has no triplets to rank")
    graph_filter = EvalFilter.from_graphs(dataset.graphs()) if cfg.protocol == "filtered" else None
    result = evaluate(state, ckpt.config.scoring, graph,
                      graph_filter, protocol=cfg.protocol, tie=cfg.tie)
    print(result.table())
    payload = result.to_json_dict()
    payload["split"] = cfg.split
    payload["tie"] = cfg.tie
    print(json.dumps(payload, sort_keys=True))
    metrics_path = _artifact(cfg, None, "metrics.json")
    with atomic_write(metrics_path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `walkaug` parser: a flag for each setting of each command, then the
    command's artifact paths. It is built once per process and shared, so
    callers parse with it and never change it."""
    parser = argparse.ArgumentParser(
        prog="walkaug",
        description="Mine informative metapaths, derive rules, train and "
                    "evaluate knowledge graph embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text in (
        ("mine", cmd_mine, "mine informative metapaths from the training graph"),
        ("rules", cmd_rules, "score metapath-to-relation rules"),
        ("train", cmd_train, "train embeddings on the augmented graph"),
        ("eval", cmd_eval, "rank a held-out split with a trained checkpoint"),
    ):
        commands[name] = p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.set_defaults(func=func)
    for field in dataclasses.fields(PipelineConfig):
        flag = "--" + field.name.replace("_", "-")
        if _FIELD_TYPES[field.name] is bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {"choices": field.metadata["choices"]}
        for name in field.metadata["commands"]:
            commands[name].add_argument(flag, dest=field.name, help=field.metadata["help"],
                                        **kwargs)
    commands["mine"].add_argument("--metapaths", help="output report path")
    commands["rules"].add_argument("--metapaths", help="input metapath report")
    commands["rules"].add_argument("--rules", help="output report path")
    commands["train"].add_argument("--metapaths", help="input metapath report")
    commands["train"].add_argument("--rules", help="input rules report")
    commands["train"].add_argument("--checkpoint", help="checkpoint directory")
    commands["train"].add_argument("--resume", help="checkpoint directory to continue from")
    commands["train"].add_argument("--export-tsv", action="store_true",
                                   help="also write entity_embeddings.tsv")
    commands["eval"].add_argument("--checkpoint", help="checkpoint directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
