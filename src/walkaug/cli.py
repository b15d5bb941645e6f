"""Command line pipeline: mine, rules, train, eval.

Options come from defaults, then an optional `key=value` config file, then
command line flags (highest priority). Config file keys are the flag names
with underscores. Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

from .augment import RULE_SAMPLING_MODES
from .errors import ConfigError, DataError, NumericError
from .evaluation import PROTOCOLS, TIE_POLICIES, EvalFilter, evaluate
from .graph import load_tsv_dataset
from .mining import (
    DEFAULT_MAX_TABLE_ROWS,
    mine_informative_metapaths,
    read_metapath_report,
    write_metapath_report,
)
from .models import SCORINGS, ModelConfig
from .rules import build_rulemaps, read_rules_report, write_rules_report
from .sharing import STRATEGY_KINDS, SharingStrategy
from .storage import (
    load_checkpoint,
    write_embedding_matrix,
    write_embedding_tsv,
)
from .training import train

MODES = ("none", "rules-only", "metapaths")
SPLITS = ("train", "valid", "test")


@dataclasses.dataclass
class PipelineConfig:
    """Every pipeline knob in one place."""

    # data
    train: str | None = None
    valid: str | None = None
    test: str | None = None
    entity_dict: str | None = None
    relation_dict: str | None = None
    add_inverse: bool = False
    # mining
    l_max: int = 3
    threshold: float = 0.2
    sample_p: float = 1.0
    max_table_rows: int = DEFAULT_MAX_TABLE_ROWS
    # rules
    conf_threshold: float = 0.5
    # training
    mode: str = "metapaths"
    strategy: str = "none"
    basis_count: int | None = None
    basis_include_original: bool = False
    scoring: str = "transe_l2"
    dim: int = 200
    margin: float | None = None
    negatives: int = 16
    lr: float = 0.1
    lr_dense: float = 0.01
    regularization: float = 0.0
    epochs: int = 50
    batch_nodes: int = 1024
    patience: int = 2
    original_edge_sample: int | None = None
    rule_sampling: str = "normalized"
    # evaluation
    protocol: str = "filtered"
    tie: str = "optimistic"
    split: str = "test"
    # common
    seed: int = 0
    out_dir: str = "."

    def validate(self) -> None:
        checks = [
            (self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}"),
            (self.strategy in STRATEGY_KINDS,
             f"strategy must be one of {STRATEGY_KINDS}, got {self.strategy!r}"),
            (self.scoring in SCORINGS, f"scoring must be one of {SCORINGS}, got {self.scoring!r}"),
            (self.rule_sampling in RULE_SAMPLING_MODES,
             f"rule sampling must be one of {RULE_SAMPLING_MODES}, got {self.rule_sampling!r}"),
            (self.protocol in PROTOCOLS, f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"),
            (self.tie in TIE_POLICIES, f"tie policy must be one of {TIE_POLICIES}, got {self.tie!r}"),
            (self.split in SPLITS, f"split must be one of {SPLITS}, got {self.split!r}"),
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
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def model_config(self) -> ModelConfig:
        config = ModelConfig(
            scoring=self.scoring, dim=self.dim, margin=self.margin,
            negatives=self.negatives, lr=self.lr, lr_dense=self.lr_dense,
            regularization=self.regularization, epochs=self.epochs,
            batch_nodes=self.batch_nodes, seed=self.seed,
        )
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


def _coerce(key: str, raw: str):
    if raw == "none" and key in _NULLABLE_FIELDS:
        return None
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r}") from None


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
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
    config = PipelineConfig(**values)
    config.validate()
    return config


def _load_dataset(cfg: PipelineConfig):
    if cfg.train is None:
        raise ConfigError("a training file is required (--train or config key train)")
    dict_paths = None
    if (cfg.entity_dict is None) != (cfg.relation_dict is None):
        raise ConfigError("entity_dict and relation_dict must be given together")
    if cfg.entity_dict is not None:
        dict_paths = (cfg.entity_dict, cfg.relation_dict)
    return load_tsv_dataset(cfg.train, cfg.valid, cfg.test,
                            dict_paths=dict_paths, add_inverse=cfg.add_inverse)


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
    write_embedding_matrix(relation_path, state.relation_emb)
    log_path = _artifact(cfg, None, "training_log.tsv")
    with open(log_path, "w", encoding="utf-8") as fh:
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
    result = evaluate(state, ckpt.strategy, ckpt.config.scoring, graph,
                      graph_filter, protocol=cfg.protocol, tie=cfg.tie)
    print(result.table())
    payload = result.to_json_dict()
    payload["split"] = cfg.split
    payload["tie"] = cfg.tie
    print(json.dumps(payload, sort_keys=True))
    metrics_path = _artifact(cfg, None, "metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--train", help="training triplets TSV")
    parser.add_argument("--valid", help="validation triplets TSV")
    parser.add_argument("--test", help="test triplets TSV")
    parser.add_argument("--entity-dict", dest="entity_dict")
    parser.add_argument("--relation-dict", dest="relation_dict")
    parser.add_argument("--add-inverse", dest="add_inverse",
                        action=argparse.BooleanOptionalAction)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkaug",
        description="Mine informative metapaths, derive rules, train and "
                    "evaluate knowledge graph embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine informative metapaths from the training graph")
    _add_common(p)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--sample-p", dest="sample_p", type=float)
    p.add_argument("--max-table-rows", dest="max_table_rows", type=int)
    p.add_argument("--metapaths", help="output report path")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rules", help="score metapath-to-relation rules")
    _add_common(p)
    p.add_argument("--conf-threshold", dest="conf_threshold", type=float)
    p.add_argument("--metapaths", help="input metapath report")
    p.add_argument("--rules", help="output report path")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("train", help="train embeddings on the augmented graph")
    _add_common(p)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--strategy", choices=STRATEGY_KINDS)
    p.add_argument("--basis-count", dest="basis_count", type=int)
    p.add_argument("--basis-include-original", dest="basis_include_original",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--scoring", choices=SCORINGS)
    p.add_argument("--dim", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-dense", dest="lr_dense", type=float)
    p.add_argument("--regularization", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-nodes", dest="batch_nodes", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--original-edge-sample", dest="original_edge_sample", type=int)
    p.add_argument("--rule-sampling", dest="rule_sampling", choices=RULE_SAMPLING_MODES)
    p.add_argument("--conf-threshold", dest="conf_threshold", type=float)
    p.add_argument("--metapaths", help="input metapath report")
    p.add_argument("--rules", help="input rules report")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.add_argument("--export-tsv", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank a held-out split with a trained checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--tie", choices=TIE_POLICIES)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
