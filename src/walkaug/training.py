"""Training loop: walk-augmented minibatches, accumulated SGD, early stopping.

Every epoch shuffles the entity set into node batches. Each batch becomes
one `TripletBatch` of walk-derived and original triplets; k corruptions per
triplet are drawn as two (B, k) arrays, the batch kernel scores and
differentiates them all, and the summed sparse gradients are applied in
one step per batch. Validation MRR (filtered, optimistic) is
measured after every epoch; training stops early after `patience` epochs
without improvement and the best-validation state is returned.

Every setting but `patience` is a `ModelConfig` field, the walks' `l_max`,
`rule_sampling` and `original_edge_sample` included, so a resume matches
one record: the whole config but `epochs`, beside the sharing strategy, the
minted relations and the digest of what the walks can emit.

With a checkpoint directory, every epoch saves the current state and
meta.json. The best state's arrays are written on a call's first save and
then only when the best state changed since the previous save; without a
validation split the best state is the live one, written every epoch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .augment import NewRelationRegistry, SegmentTable, build_minibatch
from .errors import ConfigError, DataError
from .evaluation import EvalFilter, evaluate
from .graph import DatasetSplit
from .mining import Metapath
from .models import (
    EmbeddingState,
    KernelWorkspace,
    ModelConfig,
    apply_update,
    batch_loss_and_grad,
    draw_negatives,
    init_state,
)
# The per-triplet entry points stay importable here: perfbench/spans.py
# wraps them under these names.
from .models import loss_and_grad, negative_sample  # noqa: F401
from .rules import RuleMap
from .sharing import SharingStrategy
from .storage import Checkpoint, save_checkpoint


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    valid_mrr: float | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    state: EmbeddingState        # best validation state (last state if no validation)
    final_state: EmbeddingState
    log: list[EpochStats]


def _check_resume(resume: Checkpoint, num_entities: int, config: ModelConfig,
                  strategy: SharingStrategy, registry: NewRelationRegistry, digest: str) -> None:
    if resume.state is None:
        raise ValueError("resume needs the checkpoint's current state, not a best_only load")
    if resume.state.num_entities != num_entities:
        raise DataError(f"resume checkpoint has {resume.state.num_entities} entities, "
                        f"the training graph has {num_entities}")
    if resume.segments_sha256 is None:
        raise ConfigError("resume checkpoint does not record segments_sha256, so what its "
                          "walks emitted is unknown")
    ours, theirs = asdict(config), asdict(resume.config)
    ours.pop("epochs"), theirs.pop("epochs")  # training longer is the point of resuming
    mismatched = [k for k in ours if ours[k] != theirs[k]]
    mismatched += [] if asdict(strategy) == asdict(resume.state.strategy) else ["strategy"]
    if mismatched:
        raise ConfigError(f"resume checkpoint disagrees on: {', '.join(sorted(mismatched))}")
    theirs = resume.state.registry
    if theirs != registry:
        raise ConfigError(
            f"resume checkpoint minted relations {dict(theirs.items())} after "
            f"{theirs.first_id} original ones, but these inputs mint "
            f"{dict(registry.items())} after {registry.first_id}")
    if digest != resume.segments_sha256:
        raise ConfigError("resume checkpoint disagrees on: segments_sha256 (its walks emitted "
                          "under another mode, other metapaths or other rules)")


def train(
    dataset: DatasetSplit,
    informative: dict[Metapath, float],
    rulemaps: dict[Metapath, RuleMap],
    config: ModelConfig,
    strategy: SharingStrategy = SharingStrategy(),
    mint_new_relations: bool = True,
    patience: int = 2,
    checkpoint_dir: str | None = None,
    resume: Checkpoint | None = None,
    progress=None,
) -> TrainResult:
    """Fit embeddings on the walk-augmented training graph.

    `informative` maps metapath -> z score, `rulemaps` carries the mined
    rules for (a subset of) those metapaths. With `mint_new_relations`, the
    rule-less informative metapaths are minted as new relations before the
    first epoch, in sorted order, so relation ids are fixed for a given
    mining result regardless of walk order; without it, walks on them emit
    nothing. A resume must mint exactly what its checkpoint minted, over
    as many entities, with the same model config but for `epochs` (the walk
    settings `l_max`, `rule_sampling` and `original_edge_sample` included),
    the same strategy and a `SegmentTable` of the same digest, so that its
    walks emit the same triplets (this refuses, say, a resume under another
    `--mode`); `patience` may change.
    """
    config.validate()
    strategy.validate(config.scoring)
    graph = dataset.train
    if graph.num_triplets == 0:
        raise DataError("training graph has no triplets")

    registry = NewRelationRegistry.rule_less(
        graph.num_relations, informative if mint_new_relations else {}, rulemaps)
    table = SegmentTable(informative, rulemaps, registry, config.l_max)
    digest = table.digest()
    if resume is not None:
        _check_resume(resume, graph.num_entities, config, strategy, registry, digest)
        state = resume.state
        best_state = resume.best_state
        best_mrr = resume.best_mrr
        bad_epochs = resume.bad_epochs
        first_epoch = resume.epoch + 1
        log = [EpochStats(**entry) for entry in resume.log]
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
    else:
        rng = np.random.default_rng(config.seed)
        state = init_state(graph.num_entities, registry, config, strategy, rng)
        best_state = state.copy()
        best_mrr = -math.inf
        bad_epochs = 0
        first_epoch = 1
        log = []

    best_saved = False  # whether this call's last save wrote the current best_state
    has_valid = dataset.valid.num_triplets > 0
    graph_filter = EvalFilter.from_graphs(dataset.graphs()) if has_valid else None
    workspace = KernelWorkspace()  # the kernel's scratch, reused by every batch

    for epoch in range(first_epoch, config.epochs + 1):
        order = rng.permutation(graph.num_entities)
        loss_sum = 0.0
        loss_count = 0
        for start in range(0, order.size, config.batch_nodes):
            nodes = order[start:start + config.batch_nodes]
            batch = build_minibatch(graph, nodes, table, rng, config.rule_sampling,
                                    config.original_edge_sample)
            if not batch:
                continue
            neg_heads, neg_tails = draw_negatives(batch, graph.num_entities, config.negatives, rng)
            loss, grads = batch_loss_and_grad(batch, neg_heads, neg_tails, state, config,
                                              workspace)
            apply_update(state, grads, config)
            loss_sum += loss
            loss_count += len(batch)

        valid_mrr = None
        if has_valid:
            result = evaluate(state, config.scoring, dataset.valid,
                              graph_filter, protocol="filtered", tie="optimistic")
            valid_mrr = result.mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_state = state.copy()
                best_saved = False
                bad_epochs = 0
            else:
                bad_epochs += 1
        else:
            best_state = state  # the live state, which every epoch changes
            best_saved = False

        stats = EpochStats(epoch, loss_sum / max(loss_count, 1), valid_mrr)
        log.append(stats)
        if progress is not None:
            progress(stats)
        if checkpoint_dir is not None:
            save_checkpoint(checkpoint_dir, Checkpoint(
                state=state, best_state=best_state, config=config,
                rng_state=rng.bit_generator.state,
                epoch=epoch, best_mrr=best_mrr, bad_epochs=bad_epochs,
                log=[entry.to_dict() for entry in log], segments_sha256=digest,
            ), best=not best_saved)
            best_saved = True
        if has_valid and bad_epochs >= patience:
            break

    return TrainResult(state=best_state, final_state=state, log=log)
