"""End-to-end benchmark of the walkaug CLI pipeline (mine, rules, train, eval).

    python3 perfbench/run.py --workload planted --seed 1 --seconds 40 --trace 0

Run from the root of a walkaug checkout: the package is imported from
`src/`, and scratch files go to `.perfbench/` there and are removed at the
end. The workload is generated from `--seed`, written as TSV, and its
four commands run in this process through `walkaug.cli.main`, again and
again until `--seconds` have passed. In untraced runs the short commands
are called several times per pipeline run (`Workload.repeats`). Every
command call and every output check is one operation; the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones (means over the calls
of each command); with `--trace 1` traced and untraced runs alternate,
each command is called once per run, and the metrics are the per-layer
ones from `spans.py`, plus the tracing overhead. Earlier stdout lines
record the environment and the SHA-256 digests of the pipeline's reports.
"""

import os

# One BLAS thread: set before numpy is first imported, so the pool never starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COMMANDS = ("mine", "rules", "train", "eval")
REPORTS = ("metapaths.tsv", "rules.tsv", "training_log.tsv", "metrics.json")
SETUP_LOADS = 3  # timed dataset loads before each pipeline run; setup_s is their median

END_TO_END_UNITS = {
    "pipeline_s": "s", "mine_s": "s", "rules_s": "s", "train_s": "s", "eval_s": "s",
    "epoch_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "test_mr": "rank",
    "ok_share": "share",
}


class LineClock(io.TextIOBase):
    """A stdout stand-in that notes when each line of output completes."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = perf_counter()
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((now, line))
        return len(text)


class Pipeline:
    """One run of the four commands: wall times, epoch gaps, check results."""

    def __init__(self):
        self.seconds: dict[str, list[float]] = {}  # every call of each command
        self.reference: list[float] = []  # reference.py timings, spread over the run
        self.epoch_gaps: list[float] = []
        self.ops: list[tuple[str, bool]] = []
        self.digests: dict[str, str] = {}
        self.test_mr = math.nan
        self.test_mrr = math.nan
        self.checkpoint_bytes = 0

    @property
    def total(self) -> float:
        """Seconds of one pass through the four commands."""
        return sum(statistics.fmean(calls) for calls in self.seconds.values())

    def check(self, name: str, ok: bool) -> None:
        self.ops.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


def run_commands(workload, out_dir: str, tracer=None, repeats=None) -> Pipeline:
    """Run each command `repeats.get(name, 1)` times in a row, in pipeline order.

    A repeated command rewrites the same reports, which the next command reads.
    After each call the reference computation is timed as often as it takes
    to keep its time at `reference.SHARE` of the command time so far.
    """
    from reference import SHARE, reference_seconds
    from walkaug import cli

    run = Pipeline()
    calls = [(name, argv) for name, argv in workload.commands(out_dir)
             for _ in range((repeats or {}).get(name, 1))]
    for index, (name, argv) in enumerate(calls):
        clock = LineClock()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.command = index
            span = tracer.span("cli.command")
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(clock), span:
                code = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        run.seconds.setdefault(name, []).append(perf_counter() - start)
        run.check(f"{name} exits 0", code == 0)
        if name == "train":
            stamps = [t for t, line in clock.lines if line.startswith("epoch ")]
            run.epoch_gaps += [b - a for a, b in zip(stamps, stamps[1:])]
        while sum(run.reference) < SHARE * sum(map(sum, run.seconds.values())):
            run.reference.append(reference_seconds())
    return run


def read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh]


def check_outputs(run: Pipeline, workload, out_dir: str, dataset) -> None:
    """Output checks; each one is an operation that passes or fails."""
    import numpy as np
    from walkaug import read_embedding_matrix

    path = lambda name: os.path.join(out_dir, name)
    try:
        metapaths = read_rows(path("metapaths.tsv"))
        rules = read_rows(path("rules.tsv"))
        log = read_rows(path("training_log.tsv"))
        with open(path("metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        entity = read_embedding_matrix(path("entity.emb"))
        relation = read_embedding_matrix(path("relation.emb"))
    except (OSError, ValueError) as exc:
        run.check(f"outputs readable ({exc})", False)
        return
    run.check("outputs readable", True)

    rule_pairs = {(row[0], row[1]): float(row[2]) for row in rules}
    if workload.name == "planted":
        run.check("metapaths.tsv is exactly r0|r1 with z > 0.8",
                  len(metapaths) == 1 and metapaths[0][0] == "r0|r1"
                  and float(metapaths[0][1]) > 0.8)
        conf = rule_pairs.get(("r0|r1", "r2"), math.nan)
        run.check("r0|r1 -> r2 confidence in (0.55, 0.65)", 0.55 < conf < 0.65)
    else:
        missing = [(a, b, r) for a, b, r in workload.planted
                   if (f"r{a}|r{b}", f"r{r}") not in rule_pairs]
        run.check(f"every planted rule recovered (missing {missing})", not missing)

    run.check(f"training_log.tsv has {workload.epochs} epochs", len(log) == workload.epochs)
    run.check("metrics.json ranks both sides of every test triplet",
              metrics.get("count") == 2 * len(workload.test))
    run.check("test MRR is finite", math.isfinite(metrics.get("mrr", math.nan)))
    minted = len(metapaths) - len({row[0] for row in rules}) if workload.mints_rows else 0
    run.check("entity.emb is finite with one row per entity",
              entity.shape == (dataset.num_entities, workload.dim)
              and bool(np.isfinite(entity).all()))
    run.check("relation.emb is finite with one row per relation",
              relation.shape == (dataset.num_relations + minted, workload.dim)
              and bool(np.isfinite(relation).all()))
    run.test_mr = float(metrics.get("mr", math.nan))
    run.test_mrr = float(metrics.get("mrr", math.nan))
    run.digests = {name: sha256_file(path(name)) for name in REPORTS}
    run.checkpoint_bytes = sum(
        entry.stat().st_size for entry in os.scandir(path("checkpoint")) if entry.is_file())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # The CPU model would need a read outside the checkout, so only the
    # architecture is recorded here; README.md names the measured machine.
    return {
        "nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": threading.active_count(), "seed": seed,
    }


def timed_load(workload):
    """(seconds, dataset) of one load of the workload's three TSV files."""
    from walkaug import load_tsv_dataset

    start = perf_counter()
    dataset = load_tsv_dataset(*(workload.files[s] for s in ("train", "valid", "test")))
    return perf_counter() - start, dataset


def speed_factor(runs: list[Pipeline]) -> float:
    """NOMINAL_S over the median reference time: above 1 when the machine runs fast.

    The median, because a single timing can take twice as long as the others.
    """
    from reference import NOMINAL_S

    return NOMINAL_S / statistics.median(t for r in runs for t in r.reference)


def end_to_end(runs: list[Pipeline], setup: list[float], attempted: int, failed: int) -> dict:
    # Means, not medians: the machine speed drifts in phases of seconds to
    # minutes; a median over one run jumps between phases while the mean
    # averages them (see README.md, Environment). Times are scaled by the
    # speed factor to seconds at the reference speed.
    mean = lambda values: statistics.fmean(values) if values else math.nan
    factor = speed_factor(runs)
    command_s = {name: factor * mean([s for r in runs for s in r.seconds[name]])
                 for name in COMMANDS}
    values = {
        "pipeline_s": sum(command_s.values()),
        **{f"{name}_s": seconds for name, seconds in command_s.items()},
        "epoch_s": factor * mean([gap for r in runs for gap in r.epoch_gaps]),
        "setup_s": factor * statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mr": runs[0].test_mr,
        "ok_share": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced: list[tuple[Pipeline, dict]], plain: list[Pipeline]) -> dict:
    from spans import LAYER_UNITS

    layers = [metrics for _, metrics in traced]
    values = {name: statistics.fmean(m[name] for m in layers) for name in layers[0]}
    values["storage.checkpoint_bytes"] = traced[0][0].checkpoint_bytes
    values["evaluation.test_mrr"] = traced[0][0].test_mrr
    values["trace.overhead_s"] = (statistics.fmean(r.total for r, _ in traced)
                                  - statistics.fmean(r.total for r in plain))
    return {name: {"value": values[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "walkaug", "cli.py")):
        print(f"perfbench: no walkaug sources under {SRC}; run from a walkaug checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    import walkaug
    from spans import Tracer, layer_metrics, span_totals
    from workloads import make_workload

    if not os.path.abspath(walkaug.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported walkaug from {walkaug.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # A plain kill still runs the `finally` below, which removes the scratch files.
    # KeyboardInterrupt, unlike SystemExit, is not taken for a failed command.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        workload = make_workload(args.workload, args.seed)
        workload.write(work)
        print("env " + json.dumps(environment(args.seed), sort_keys=True))

        plain: list[Pipeline] = []
        traced: list[tuple[Pipeline, dict]] = []
        durations: list[float] = []
        setup: list[float] = []  # SETUP_LOADS timed loads before each pipeline run
        started = perf_counter()
        while True:
            index = len(durations)
            elapsed = perf_counter() - started
            minimum = 2 if args.trace else 1  # the traced mode needs one run of each kind
            if index >= minimum and elapsed + statistics.median(durations) > args.seconds:
                break
            begin = perf_counter()
            for _ in range(SETUP_LOADS):
                seconds, dataset = timed_load(workload)
                setup.append(seconds)
            out_dir = os.path.join(work, f"out{index}")
            tracer = Tracer() if args.trace and index % 2 else None
            # Traced mode calls each command once, so spans and counts are per pass.
            repeats = None if args.trace else workload.repeats
            with tracer.patched() if tracer else contextlib.nullcontext():
                run = run_commands(workload, out_dir, tracer, repeats)
            try:
                check_outputs(run, workload, out_dir, dataset)
            except Exception:  # a malformed report fails its checks, not the benchmark
                traceback.print_exc()
                run.check("reports are well-formed", False)
            if tracer:
                traced.append((run, layer_metrics(tracer)))
                last_trace = tracer
            else:
                plain.append(run)
            if run is not plain[0]:  # the first run is always untraced
                run.check("reports are byte-identical to the first run",
                          run.digests == plain[0].digests)
            shutil.rmtree(out_dir, ignore_errors=True)
            durations.append(perf_counter() - begin)

        runs = plain + [run for run, _ in traced]
        attempted = sum(len(r.ops) for r in runs)
        failed = sum(1 for r in runs for _, ok in r.ops if not ok)
        print("digests " + json.dumps({"workload": args.workload, "seed": args.seed,
                                       **runs[0].digests}, sort_keys=True))
        if args.trace:  # the spans of the last traced run, summed per name
            duration, self_time, calls, *_ = span_totals(last_trace)
            print("spans " + json.dumps({name: {"calls": calls[name], "total_s": duration[name],
                                                "self_s": self_time[name]}
                                         for name in sorted(calls)}))
        print("quality " + json.dumps({"test_mr": runs[0].test_mr, "test_mrr": runs[0].test_mrr}))
        print("runs " + json.dumps({
            "untraced": [r.seconds for r in plain], "traced": [r.seconds for r, _ in traced],
            "epoch_gaps": [r.epoch_gaps for r in runs], "setup": setup,
            "reference": [r.reference for r in runs], "speed_factor": speed_factor(plain)}))
        metrics = (per_layer(traced, plain) if args.trace
                   else end_to_end(plain, setup, attempted, failed))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)


if __name__ == "__main__":
    sys.exit(main())
