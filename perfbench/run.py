"""Benchmark for the kgtopos CLI.

Run from the root of a kgtopos checkout:

    python3 perfbench/run.py --workload wide-graph --seed 1 --seconds 36 --trace 0

One client in one process, closed loop, no threads: each op is a CLI
command run in-process through `kgtopos.cli.main` with click's
CliRunner, so argument parsing and output emission are measured as users
pay for them.  The seed only drives generation of the input files under
`.perfbench_work/`; the program receives only those files.

Every op runs once, then the ops that are not `once` run in rounds
until `--seconds` have gone by; an op runs in a round only while its
median so far fits in the time left.  Every invocation is checked
against its known answer, its exit code, the absence of a traceback and
the SHA-256 of its stdout at the seed commit.  With `--trace 0` the last
stdout line reports the end-to-end metrics (sums of the ops' medians);
with `--trace 1` it reports per-layer metrics from traced passes, after
one untraced pass that gives the tracing overhead.

Time metrics are in reference seconds.  On a shared host the speed of a
core can drift by up to 2x within minutes, with the load of neighbours,
and more work in a run does not average that out.  So while untraced
samples run, a fixed pure-Python loop (`pace_loop`) ticks every
PACE_PERIOD_S from a SIGALRM handler, inside long ops as well as
between short ones; its time is left out of the samples.  Each sample's
seconds are multiplied by the mean of 1/loop time over the ticks inside
it (or the nearest tick on each side), the loops it was worth, and by
REFERENCE_PACE_S.  A change to the
program moves the samples and not the loop, so it shows in full.  Raw
seconds are printed, and written to `--out`, as well.

The program runs with PYTHONHASHSEED=0: string hashing sets the
iteration order of its sets and dicts, and with it how much work an op
does: on one deep-site input, `covers --topology path` made 1.91 M to
2.13 M Python calls under three hash seeds, and the same count every
time under a fixed one.  So a fixed hash seed keeps that out of the
spread between runs.  numpy's BLAS runs on one thread (OPENBLAS_NUM_THREADS=1),
so the process, like its one client, stays on one core.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
# The seed picks one of this many input sets, those of seeds 0-30, whose
# stdout digests were recorded at the seed commit.  Any other seed runs
# the set of seed % INPUT_VARIANTS, so every op is checked against a digest.
INPUT_VARIANTS = 31
SETUP_SAMPLES = 15
# pace_loop's iterations, and about its median seconds on the 2-vCPU
# 2.1 GHz host the benchmark was defined on, so that reference seconds
# read close to real seconds there.  A tick every PACE_PERIOD_S costs
# about 3.5% of a run.
PACE_LOOP = 16_000
REFERENCE_PACE_S = 0.004
PACE_PERIOD_S = 0.1
# Set before the interpreter starts, by re-executing it: a fixed hash
# seed, and one BLAS thread so that the process stays on one core.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKDIR = ".perfbench_work"
CHECK_LINE = re.compile(r"^(PASS|FAIL|SKIPPED)\s+(\S+) \((\d+\.\d+)s\)")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s": "s",
    "construct_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
}

CHECK_NAMES = (
    "kg.roundtrip", "incidence.column_sums", "incidence.gram",
    "incidence.line_operator_identity", "incidence.rank", "incidence.spectrum",
    "line.scc_theorem", "line.matrix_consistency", "freecat.walk_count", "freecat.fibres",
    "sites.axioms", "sites.inclusion", "sheaf.omega", "sheaf.adjunction",
    "suite.incidence_line", "suite.categories", "suite.topologies",
    "suite.sheafification", "suite.adjunction", "suite.omega",
)

PER_LAYER = {
    "kg.busy_s": "s",
    "matrices.busy_s": "s",
    "matrices.matmul_madds": "count",
    "matrices.cells_built": "count",
    "matrices.eig_s": "s",
    "linegraph.busy_s": "s",
    "linegraph.edges": "count",
    "freecat.busy_s": "s",
    "freecat.categories_built": "count",
    "freecat.morphisms": "count",
    "sites.busy_s": "s",
    "sites.sieve_masks_scanned": "count",
    "sites.sieves_kept": "count",
    "sites.useful_ratio": "ratio",
    "sites.covering_sieves": "count",
    "sites.topologies_built": "count",
    "sheaves.busy_s": "s",
    "sheaves.is_sheaf_s": "s",
    "sheaves.sheafify_s": "s",
    "sheaves.omega_s": "s",
    "sheaves.matching_families": "count",
    "sheaves.presheaf_build_s": "s",
    "randgen.busy_s": "s",
    "randgen.accept_ratio": "ratio",
    "verify.busy_s": "s",
    **{f"verify.check.{name}_s": "s" for name in CHECK_NAMES},
    "verify.checks_skipped": "count",
    "cli.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


# --- environment --------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- measurement --------------------------------------------------------


def pace_loop() -> float:
    """Seconds of a fixed pure-Python loop of dict, int and str work,
    with the collector off so that the heap left by ops does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PACE_LOOP):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + len(str(i))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Pace:
    """Ticks of pace_loop every PACE_PERIOD_S while entered, from a
    SIGALRM handler in the main thread, so that they fall inside long ops
    as well as between short ones.  A sample leaves out the time of the
    ticks that started inside it; the handler runs to its end before the
    interrupted code goes on, so those ticks also ended inside it."""

    def __init__(self):
        # (perf_counter at the tick, loop seconds, seconds the tick took)
        self.ticks: list[tuple[float, float, float]] = []

    def __enter__(self):
        self.tick()
        self.handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self.tick()

    def tick(self, *_):
        start = time.perf_counter()
        loop = pace_loop()
        self.ticks.append((start, loop, time.perf_counter() - start))

    def spent(self, start: float, end: float) -> float:
        """Seconds of the ticks that started within [start, end]."""
        took = 0.0
        for at, _, seconds in reversed(self.ticks):
            if at < start:
                break
            if at <= end:
                took += seconds
        return took

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """`seconds` of a sample over [start, end] in reference seconds: the
        work it did at the pace of the ticks inside the interval (or of the
        nearest tick on each side if none is), times REFERENCE_PACE_S."""
        inside = [loop for at, loop, _ in self.ticks if start <= at <= end]
        if not inside:
            before = [loop for at, loop, _ in self.ticks if at < start][-1:]
            after = [loop for at, loop, _ in self.ticks if at > end][:1]
            inside = before + after
        if not inside:  # never entered: raw seconds
            return seconds
        return seconds * REFERENCE_PACE_S * statistics.fmean(1 / loop for loop in inside)


def measure_setup(root: Path, count: int, pace: Pace) -> list[tuple[float, float]]:
    """Fresh interpreter until `import kgtopos.cli` returns, `count` times:
    (start, end) of each.  Pace ticks come between samples, not during
    them, as the new interpreter would share the cores with them."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-c", "import kgtopos.cli"]
    samples = []
    pace.tick()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        samples.append((start, time.perf_counter()))
        pace.tick()
    return samples


@dataclass
class Outcome:
    """What a pass keeps of one invocation once it is checked; the
    CliRunner result itself is dropped, so memory does not grow with
    the number of passes."""

    op: workloads.Op
    # perf_counter at the call and at its return, and the seconds between
    # them less the pace ticks that fell inside
    start: float
    end: float
    seconds: float
    problems: list[str]
    digest: str
    # (status, check name, seconds) of each check line a verify op prints
    checks: list[tuple[str, str, float]]


def run_op(runner, cli, op, workload, workdir: Path, digests: dict[str, str] | None,
           pace: Pace, tracer=None) -> Outcome:
    """One invocation, checked as it returns.  `digests` maps op names to
    their recorded stdout SHA-256; None only when recording them."""
    argv = op.argv(workdir, workload.files)
    start = time.perf_counter()
    if tracer is None:
        result = runner.invoke(cli, argv)
    else:
        result = tracer.span(f"cli.{op.name}", runner.invoke, cli, argv)
    end = time.perf_counter()
    seconds = end - start - pace.spent(start, end)
    actual = digest(op, result)
    expected = actual if digests is None else digests.get(op.name)
    return Outcome(op, start, end, seconds, problems(op, result, expected), actual,
                   check_lines(op, result.stdout))


def run_pass(runner, cli, workload, workdir: Path, digests: dict[str, str] | None,
             tracer=None, pace: Pace | None = None) -> list[Outcome]:
    """Every op once, in order."""
    gc.collect()
    pace = pace or Pace()
    return [run_op(runner, cli, op, workload, workdir, digests, pace, tracer)
            for op in workload.ops]


def fill(runner, cli, workload, workdir: Path, digests: dict[str, str], deadline: float,
         outcomes: list[Outcome], pace: Pace) -> None:
    """Rounds over the ops that are not `once` until `deadline`.

    An op runs in a round only if its median so far fits in the time
    left, so the run ends near the deadline and not a whole op or round
    after it.  Appends to `outcomes`, which must hold a sample of every op.
    """
    repeated = [op for op in workload.ops if not op.once]
    while True:
        gc.collect()
        estimate = op_seconds(outcomes)
        ran = False
        for op in repeated:
            if time.perf_counter() + estimate[op.name] > deadline:
                continue
            outcomes.append(run_op(runner, cli, op, workload, workdir, digests, pace))
            ran = True
        if not ran:
            return


def op_seconds(outcomes: list[Outcome], pace: Pace | None = None) -> dict[str, float]:
    """Median seconds of each op over its invocations: reference seconds
    by `pace`, or raw seconds without it."""
    samples: dict[str, list[float]] = {}
    for o in outcomes:
        seconds = pace.scaled(o.seconds, o.start, o.end) if pace else o.seconds
        samples.setdefault(o.op.name, []).append(seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def problems(op, result, expected_digest: str | None) -> list[str]:
    found = []
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        found.append(f"traceback: {result.exception!r}")
    if result.exit_code != op.exit_code:
        found.append(f"exit code {result.exit_code}, expected {op.exit_code}")
    found.extend(op.check(result.stdout))
    if expected_digest is None:
        found.append("no stdout digest recorded for this op")
    elif digest(op, result) != expected_digest:
        found.append("stdout digest differs from the seed commit")
    return found


def digest(op, result) -> str:
    return hashlib.sha256(op.digest_input(result.stdout_bytes)).hexdigest()


def check_lines(op, stdout: str) -> list[tuple[str, str, float]]:
    """(status, check name, seconds) for each check line a verify op prints."""
    if op.args[0] != "verify":
        return []
    return [(m[1], m[2], float(m[3])) for m in map(CHECK_LINE.match, stdout.splitlines()) if m]


def load_digests(name: str, variant: int) -> dict[str, str]:
    """Recorded stdout digests of one input variant; empty if none are."""
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(variant), {})


def samples(outcomes: list[Outcome]) -> dict[str, int]:
    """Invocations of each op."""
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.op.name] = counts.get(outcome.op.name, 0) + 1
    return counts


def pass_seconds(outcomes: list[Outcome]) -> float:
    """Raw seconds of a pass."""
    return sum(outcome.seconds for outcome in outcomes)


def pass_times(outcomes: list[Outcome], pace: Pace | None = None) -> dict[str, float]:
    """wall_s, verdict_s and construct_s: sums of the ops' median seconds,
    in reference seconds by `pace`, raw without it."""
    kinds = {outcome.op.name: outcome.op.kind for outcome in outcomes}
    times = {"wall_s": 0.0, "verdict_s": 0.0, "construct_s": 0.0}
    for name, seconds in op_seconds(outcomes, pace).items():
        times["wall_s"] += seconds
        times[f"{kinds[name]}_s"] += seconds
    return times


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    busy = tracer.busy()
    counters = tracer.counters
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".busy_s"):
            metrics[name] = busy.get(name.split(".")[0], 0.0)
        elif unit == "count":
            metrics[name] = counters.get(name, 0)
    scanned = counters.get("sites.sieve_masks_scanned", 0)
    kept = counters.get("sites.sieves_kept", 0)
    metrics["sites.useful_ratio"] = kept / scanned if scanned else 0.0
    attempts = tracer.under("randgen.random_small_category", "randgen.random_acyclic_kg")
    metrics["randgen.accept_ratio"] = (
        counters.get("randgen.categories_kept", 0) / attempts if attempts else 0.0)
    for metric, span in (("matrices.eig_s", "matrices.spectrum_numeric"),
                         ("sheaves.is_sheaf_s", "sheaves.is_sheaf"),
                         ("sheaves.sheafify_s", "sheaves.sheafify"),
                         ("sheaves.omega_s", "sheaves.omega"),
                         ("sheaves.presheaf_build_s", "sheaves.Presheaf.__post_init__")):
        metrics[metric] = tracer.outermost(span)[1]
    for name in CHECK_NAMES:
        metrics[f"verify.check.{name}_s"] = tracer.outermost(f"verify.check.{name}")[1]
    return metrics


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


# --- command line ---------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="Also write the full result here as JSON.")
    parser.add_argument("--record-digests", action="store_true",
                        help="Run one pass and store its stdout digests as expected data.")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kgtopos" / "cli.py").is_file():
        print("error: run from the root of a kgtopos checkout (src/kgtopos missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("KGTOPOS_SEED", None)

    variant = args.seed % INPUT_VARIANTS
    workload = workloads.build(args.workload, variant)
    workdir = root / WORKDIR / f"{args.workload}-{variant}"
    workload.write(workdir)
    from click.testing import CliRunner
    from kgtopos.cli import main as cli

    runner = CliRunner()
    digests = None if args.record_digests else load_digests(args.workload, variant)
    # One warm-up interpreter fills the bytecode cache; the set-up samples
    # are split between the start and the end of the run.  The pace timer
    # runs during untraced op samples only; set-up samples have ticks
    # between them.
    pace = Pace()
    measure_setup(root, 1, pace)
    setup = [] if args.record_digests else measure_setup(root, SETUP_SAMPLES // 2, pace)
    deadline = time.perf_counter() + args.seconds
    with pace:
        untraced = run_pass(runner, cli, workload, workdir, digests, pace=pace)
        if not (args.trace or args.record_digests):
            fill(runner, cli, workload, workdir, digests, deadline, untraced, pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, tracers = [], []
    # Traced passes while the next one fits, the last one's length ahead.
    while args.trace and (not traced or time.perf_counter() + pass_seconds(traced[-1])
                          <= deadline):
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(runner, cli, workload, workdir, digests, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    outcomes = untraced + [outcome for outcomes in traced for outcome in outcomes]
    failures: dict[str, list[str]] = {}
    for outcome in outcomes:
        if outcome.problems:
            failures.setdefault(outcome.op.name, outcome.problems)
    attempted, failed = len(outcomes), sum(1 for o in outcomes if o.problems)

    if args.record_digests:
        return record_digests(args.workload, variant, untraced, failures)
    setup += measure_setup(root, SETUP_SAMPLES - len(setup), pace)

    first_pass = untraced[:len(workload.ops)]
    statuses = [status for outcome in first_pass for status, _, _ in outcome.checks]
    shares = {
        "failed_ratio": failed / attempted,
        # A verify op that reported no checks decided nothing.
        "skipped_ratio": statuses.count("SKIPPED") / len(statuses) if statuses else 1.0,
    }
    times = pass_times(untraced, pace)
    end_to_end = {
        "setup_s": statistics.median(pace.scaled(end - start, start, end)
                                     for start, end in setup),
        "wall_s": times["wall_s"],
        "verdict_s": times["verdict_s"],
        "construct_s": times["construct_s"],
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - shares["failed_ratio"],
        "decided_ratio": 1 - shares["skipped_ratio"],
    }
    if args.trace:
        per_pass = [layer_metrics(t) for t in tracers]
        traced_times = [pass_times(outcomes) for outcomes in traced]
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        metrics["trace.wall_s"] = median_of(traced_times, "wall_s")
        untraced_wall = pass_times(untraced)["wall_s"]  # raw, as the traced passes are
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall - 1
        for k, tracer in enumerate(tracers):
            tracer.write(root / WORKDIR / "traces" / f"{args.workload}-{args.seed}-{k}.json")
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END

    env = environment(root)
    report(args, variant, workload, env, {**end_to_end, **shares}, untraced, traced, failures,
           pace)
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "input_variant": variant,
            "seconds": args.seconds,
            "trace": args.trace, "env": env, "shape": workload.shape,
            "samples": samples(untraced),
            "traced_passes": len(traced),
            "end_to_end": end_to_end,
            **shares,
            "op_seconds": op_seconds(untraced, pace),
            "op_raw_seconds": op_seconds(untraced),
            "verify_check_seconds": {f"{outcome.op.name}:{name}": seconds
                                     for outcome in first_pass
                                     for _, name, seconds in outcome.checks},
            "span_seconds": tracers[0].span_seconds() if tracers else {},
            "setup_raw_seconds": [end - start for start, end in setup],
            "pace_ticks": pace.ticks,
            "metrics": metrics,
        }, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report(args, variant, workload, env, figures, untraced, traced, failures, pace) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"workload {args.workload} seed {args.seed} (input variant {variant}): "
          f"shape {json.dumps(workload.shape)}")
    print(f"env {json.dumps(env)}")
    print(f"untraced samples: {len(untraced)}; traced passes: {len(traced)}; "
          f"pace ticks: {len(pace.ticks)}, median loop "
          f"{statistics.median(loop for _, loop, _ in pace.ticks):.5f} s")
    for name, unit in {**END_TO_END, "failed_ratio": "ratio", "skipped_ratio": "ratio"}.items():
        print(f"  {name:14s} {figures[name]:12.6f} {unit}")
    seconds, raw, counts = op_seconds(untraced, pace), op_seconds(untraced), samples(untraced)
    for op in workload.ops:
        print(f"  op {op.name:18s} {op.kind:9s} {seconds[op.name]:9.4f} s  "
              f"(raw {raw[op.name]:.4f} s, median of {counts[op.name]})")
    for name, found in failures.items():
        print(f"FAILED {name}: {'; '.join(found)}")


def record_digests(name: str, variant: int, outcomes: list[Outcome], failures) -> int:
    if failures:
        for op_name, found in failures.items():
            print(f"FAILED {op_name}: {'; '.join(found)}", file=sys.stderr)
        print("error: not recording digests of outputs that fail their known answers",
              file=sys.stderr)
        return 1
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = {outcome.op.name: outcome.digest for outcome in outcomes}
    data.setdefault(name, {})[str(variant)] = recorded
    data = {
        key: dict(sorted(data[key].items(), key=lambda item: int(item[0])))
        for key in sorted(data)
    }
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    seconds = sum(outcome.seconds for outcome in outcomes)
    print(f"recorded {len(recorded)} digests for {name} input variant {variant} "
          f"({seconds:.3f} s)")
    return 0


if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in FIXED_ENV.items()):
        os.environ.update(FIXED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
