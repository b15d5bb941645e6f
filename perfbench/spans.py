"""Spans around walkaug's public functions, recorded from outside the package.

`Tracer.patched()` swaps each function in `PATCHES` for a wrapper while the
block runs, at the name its callers look it up under (the package imports
with `from .x import y`, so `walkaug.training.loss_and_grad` is the name
the training loop calls). Each call records a span
`(id, name, start, end, parent id, command id)` in memory, and optional
counters taken at the same boundary. `layer_metrics` turns the spans of
one pipeline run into the per-layer metrics the benchmark reports.

Self time is a span's duration minus the durations of its direct children;
spans nest and one thread runs them, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from collections import Counter, defaultdict
from time import perf_counter


def _walk_counts(tracer, args, kwargs, result):
    first_new = args[3].first_id  # walk_to_triplets(walk, informative, rulemaps, registry, ...)
    mapped = sum(1 for t in result if t.relation < first_new)
    tracer.count["augment.walk_triplets"] += len(result)
    tracer.count["augment.rule_mapped"] += mapped
    tracer.count["augment.minted"] += len(result) - mapped


def _batch_counts(tracer, args, kwargs, result):
    tracer.count["augment.batch_triplets"] += len(result)
    tracer.count["sharing.batch_relations"] += len({t.relation for t in result})


def _mine_counts(tracer, args, kwargs, result):
    tracer.count["mining.metapaths_kept"] += len(result)
    tracer.count["mining.instances"] += sum(info.instance_count for info in result.values())


def _rank_counts(tracer, args, kwargs, result):
    tracer.count["evaluation.ranks"] += result.count


def _rules_counts(tracer, args, kwargs, result):
    tracer.count["rules.scored"] += len(result)
    tracer.count["rules.with_rule"] += sum(1 for rule in result.values() if rule.entries)
    tracer.count["rules.kept"] += sum(len(rule.entries) for rule in result.values())


# (object path, attribute, span name, counter or None). A path naming a class
# patches the attribute on the class, so every caller sees the wrapper.
PATCHES = [
    ("walkaug.cli", "load_tsv_dataset", "graph.load", None),
    ("walkaug.mining", "sample_edges", "graph.sample_edges", None),
    ("walkaug.cli", "mine_informative_metapaths", "mining.mine", _mine_counts),
    ("walkaug.mining.JoinTable", "from_graph", "mining.join_table", None),
    ("walkaug.mining.JoinTable", "hop_index", "mining.hop_index", None),
    ("walkaug.mining", "solve_correction", "mining.correction",
     lambda tr, a, k, res: tr.count.update({"mining.correction_fallbacks": int(res[1])})),
    ("walkaug.mining", "brent", "rootfind.brent", None),
    ("walkaug.cli", "build_rulemaps", "rules.build", _rules_counts),
    ("walkaug.rules", "metapath_pairs", "rules.pairs",
     lambda tr, a, k, res: tr.count.update({"rules.pairs": int(res.size)})),
    ("walkaug.cli", "train", "training.train",
     lambda tr, a, k, res: tr.count.update({"training.epochs": len(res.log)})),
    ("walkaug.training", "build_minibatch", "augment.build", _batch_counts),
    ("walkaug.augment", "random_walk", "augment.walk", None),
    ("walkaug.augment", "walk_to_triplets", "augment.map", _walk_counts),
    ("walkaug.training", "negative_sample", "models.negative_sample", None),
    ("walkaug.training", "loss_and_grad", "models.loss_grad",
     lambda tr, a, k, res: tr.count.update({"models.negatives": len(a[1])})),
    ("walkaug.training", "apply_update", "models.update", None),
    ("walkaug.models", "relation_vector", "sharing.relation_vector", None),
    ("walkaug.evaluation", "relation_vector", "sharing.relation_vector", None),
    ("walkaug.models", "relation_backward", "sharing.relation_backward", None),
    ("walkaug.sharing.SparseGrads", "update", "sharing.grad_merge", None),
    ("walkaug.training", "evaluate", "evaluation.rank", _rank_counts),
    ("walkaug.cli", "evaluate", "evaluation.rank", _rank_counts),
    ("walkaug.evaluation.EvalFilter", "from_graphs", "evaluation.filter_build", None),
    ("walkaug.training", "save_checkpoint", "storage.checkpoint_save", None),
    ("walkaug.cli", "load_checkpoint", "storage.checkpoint_load", None),
    ("walkaug.cli", "write_metapath_report", "storage.report_io", None),
    ("walkaug.cli", "read_metapath_report", "storage.report_io", None),
    ("walkaug.cli", "write_rules_report", "storage.report_io", None),
    ("walkaug.cli", "read_rules_report", "storage.report_io", None),
    ("walkaug.cli", "write_embedding_matrix", "storage.report_io", None),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory spans and counters of one traced pipeline run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.count: Counter = Counter()
        self.command = -1
        self._stack: list[int] = [-1]
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block, such as one CLI command."""
        sid = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, start)

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, self._stack[-1], self.command))

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, name, start)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper in `PATCHES`; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name, counter in PATCHES:
                owner = _resolve(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_totals(tracer: Tracer):
    """Per span name: total duration, total self time and call count, plus
    the total duration and call count of each (name, parent name) pair."""
    names = {sid: name for sid, name, *_ in tracer.spans}
    duration = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    under = defaultdict(float)
    under_calls = Counter()
    child_time = defaultdict(float)    # span id -> duration of its direct children
    for sid, name, start, end, parent, _ in tracer.spans:
        child_time[parent] += end - start
    for sid, name, start, end, parent, _ in tracer.spans:
        dur = end - start
        duration[name] += dur
        self_time[name] += dur - child_time[sid]
        calls[name] += 1
        key = (name, names.get(parent))
        under[key] += dur
        under_calls[key] += 1
    return duration, self_time, calls, under, under_calls


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pipeline run."""
    duration, self_time, calls, under, under_calls = span_totals(tracer)

    c = tracer.count
    ratio = lambda num, den: num / den if den else math.nan
    train_busy = (duration["training.train"] - under["evaluation.rank", "training.train"]
                  - duration["storage.checkpoint_save"])
    walk_triplets = c["augment.walk_triplets"]
    return {
        "graph.load_s": self_time["graph.load"],
        "graph.loads": calls["graph.load"],
        "graph.sample_edges_s": self_time["graph.sample_edges"],
        "mining.mine_s": self_time["mining.mine"],
        "mining.join_index_s": self_time["mining.join_table"] + self_time["mining.hop_index"],
        "mining.join_index_builds": calls["mining.join_table"],
        "mining.metapaths_kept": c["mining.metapaths_kept"],
        "mining.instances": c["mining.instances"],
        "mining.correction_calls": calls["mining.correction"],
        "mining.correction_fallbacks": c["mining.correction_fallbacks"],
        "rootfind.brent_calls": calls["rootfind.brent"],
        "rootfind.brent_s": self_time["rootfind.brent"],
        "rules.build_s": self_time["rules.build"],
        "rules.pairs_s": self_time["rules.pairs"],
        "rules.pairs_calls": calls["rules.pairs"],
        "rules.pairs": c["rules.pairs"],
        "rules.kept": c["rules.kept"],
        "rules.hit_ratio": ratio(c["rules.with_rule"], c["rules.scored"]),
        "augment.build_s": self_time["augment.build"],
        "augment.walk_s": self_time["augment.walk"] + self_time["augment.map"],
        "augment.walks": calls["augment.walk"],
        "augment.walk_triplets": walk_triplets,
        "augment.rule_mapped": c["augment.rule_mapped"],
        "augment.minted": c["augment.minted"],
        "augment.original_edges": c["augment.batch_triplets"] - walk_triplets,
        "augment.yield": ratio(walk_triplets, calls["augment.walk"]),
        "models.loss_grad_s": self_time["models.loss_grad"],
        "models.negative_sample_s": self_time["models.negative_sample"],
        "models.update_s": self_time["models.update"],
        "models.positives": calls["models.loss_grad"],
        "models.negatives": c["models.negatives"],
        "models.positives_per_s": ratio(calls["models.loss_grad"], train_busy),
        "sharing.relation_vector_s": self_time["sharing.relation_vector"],
        "sharing.relation_vector_calls": calls["sharing.relation_vector"],
        "sharing.relation_backward_s": self_time["sharing.relation_backward"],
        "sharing.grad_merge_s": self_time["sharing.grad_merge"],
        "sharing.grad_merge_calls": calls["sharing.grad_merge"],
        "sharing.recompute_ratio": ratio(
            under_calls["sharing.relation_vector", "models.loss_grad"],
            c["sharing.batch_relations"]),
        "training.loop_s": self_time["training.train"],
        "training.valid_rank_s": under["evaluation.rank", "training.train"],
        "training.epochs": c["training.epochs"],
        "evaluation.rank_s": self_time["evaluation.rank"],
        "evaluation.ranks": c["evaluation.ranks"],
        "evaluation.ranks_per_s": ratio(c["evaluation.ranks"], duration["evaluation.rank"]),
        "evaluation.filter_build_s": self_time["evaluation.filter_build"],
        "evaluation.filter_builds": calls["evaluation.filter_build"],
        "storage.checkpoint_save_s": self_time["storage.checkpoint_save"],
        "storage.checkpoint_load_s": self_time["storage.checkpoint_load"],
        "storage.report_io_s": self_time["storage.report_io"],
        "cli.self_s": self_time["cli.command"],
    }


_COUNTS = ("graph.loads", "mining.join_index_builds", "mining.metapaths_kept",
           "mining.instances", "mining.correction_calls", "mining.correction_fallbacks",
           "rootfind.brent_calls", "rules.pairs_calls", "rules.pairs", "rules.kept",
           "augment.walks", "augment.walk_triplets", "augment.rule_mapped", "augment.minted",
           "augment.original_edges", "models.positives", "models.negatives",
           "sharing.relation_vector_calls", "sharing.grad_merge_calls", "training.epochs",
           "evaluation.ranks", "evaluation.filter_builds")
_RATIOS = ("rules.hit_ratio", "augment.yield", "sharing.recompute_ratio",
           "evaluation.test_mrr")

# Unit of every per-layer metric the traced mode reports, in report order.
LAYER_UNITS = {
    name: ("count" if name in _COUNTS else "ratio" if name in _RATIOS
           else "1/s" if name.endswith("_per_s") else "s")
    for name in [*layer_metrics(Tracer()), "storage.checkpoint_bytes",
                 "evaluation.test_mrr", "trace.overhead_s"]
}
LAYER_UNITS["storage.checkpoint_bytes"] = "bytes"
