"""Layered benchmark for f1kit.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload spectra --seed 1 --trace 0

Workloads (see workloads.py): ``spectra``, ``membership``, ``group-checks``
and ``cli-cold``; ``--workload all`` runs each in its own process.

With ``--trace 0`` the run issues whole rounds of seeded ops, one at a
time, for about ``--seconds`` of wall time, and between ops, spread over
that time, times fresh interpreters importing the package (``setup_s``).  It
prints each end-to-end metric with its unit and sample count, the failed ops
by class, and as its last line one JSON object with the end-to-end metrics.

The times in that JSON are scaled to a reference machine speed.  A shared
cloud host can change speed by 20-40% for tens of seconds to minutes, as
other tenants come and go, and that moves every time a run measures.  So
every REFERENCE_EVERY_S, between ops, the run also times a fixed pure-Python
routine of the benchmark's own (``_reference``), and scales each time by
REFERENCE_S over the median of those samples: a time reads as it would on a
machine that runs the routine in REFERENCE_S.  The routine calls no f1kit
code, so a change to the package moves the scaled times by the same share as
the measured ones.  The measured times are printed beside the scaled ones.

With ``--trace 1`` the run replays a fixed number of rounds twice, untraced
and then with every layer's public functions wrapped (tracing.py), and
prints the per-layer metrics.  The work is fixed so that every count repeats
exactly for a seed; spans are written to ``perfbench/out/``.

``golden.json`` holds the answers recorded from the seed package where no
independent check exists (make_golden.py rewrites it).  The benchmark's own
tests run with ``python3 -m pytest perfbench/tests``.
"""

import argparse
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.25
# rounds replayed by a traced run, sized to a few seconds each at the seed
TRACE_ROUNDS = {"spectra": 1, "membership": 6, "group-checks": 1, "cli-cold": 3}


def _child_seconds(argv: list[str], env: dict) -> float:
    # no timeout: subprocess waits with a timeout by polling at up to 50 ms
    # steps, which would round every start time up to that grid
    t0 = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def _median_start(code: str, env: dict, samples: int) -> float:
    """Median wall time of fresh interpreters running code, after a warm-up."""
    argv = [sys.executable, "-c", code]
    _child_seconds(argv, env)
    return statistics.median(_child_seconds(argv, env) for _ in range(samples))


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _reference() -> int:
    """Fixed work in the style of the package's hot paths (exact fractions,
    tuples in dicts, a sort), about 3 ms on one core of a 2-vCPU cloud VM."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i % 17 - 8, i % 13 + 1)
        acc += f * f - f / 3
        table[(i % 37, i % 11)] = (i, acc.numerator % 97)
    return len(sorted(table.items()))


def _timed_reference() -> float:
    t0 = perf_counter()
    _reference()
    return perf_counter() - t0


def measure(workload, seed: int, seconds: float, ctx, setup=None) -> dict:
    """Closed loop over whole rounds for about `seconds` of wall time.

    Another round starts only while the run is more than half a mean round
    short of `seconds`, so a run ends within half a round of it.  Between
    ops, every REFERENCE_EVERY_S, the loop times `_reference`.  `setup`,
    when given, times one fresh interpreter; it is called SETUP_SAMPLES times
    between ops, evenly spread over the run, so the median of its times spans
    the run rather than one moment of it.  Neither is op time.
    """
    from workloads import FAILURE_CLASSES, execute, is_failure, rounds
    latencies: list[float] = []
    setups: list[float] = []
    references: list[float] = []
    failures = dict.fromkeys(FAILURE_CLASSES, 0)
    failed = 0
    n_rounds = 0
    t0 = perf_counter()
    for ops in rounds(workload, seed, ctx):
        for op in ops:
            if setup is not None and len(setups) < SETUP_SAMPLES \
                    and perf_counter() - t0 >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(setup())
            if perf_counter() - t0 >= len(references) * REFERENCE_EVERY_S:
                references.append(_timed_reference())
            latency, _, failure = execute(op)
            latencies.append(latency)
            if failure is not None:
                failures[failure] += 1
            if is_failure(op, failure):
                failed += 1
                print(f"FAILED {failure}: {op.kind} {op.inputs}", file=sys.stderr)
        n_rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (1 + 0.5 / n_rounds) >= seconds:
            break
    while setup is not None and len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    return {"latencies": latencies, "failures": failures, "failed": failed,
            "busy": sum(latencies), "rounds": n_rounds, "setups": setups,
            "references": references}


def replay(workload, seed: int, ctx, tracer=None) -> dict:
    """The first TRACE_ROUNDS rounds in process; traced when a tracer is given."""
    from workloads import execute, is_failure, rounds
    stream = rounds(workload, seed, ctx)
    latencies = []
    failed = 0
    for _ in range(TRACE_ROUNDS[workload]):
        for op in next(stream):
            if tracer is not None:
                tracer.op_id += 1
                root = tracer.open(tracer.name_id(f"bench.op.{op.kind}"))
            latency, result, failure = execute(op, in_process=True)
            if tracer is not None:
                tracer.close(root)
                if isinstance(result, dict) and "checks" in result:
                    tracer.counters["groups.checks"] += result["checks"]
            latencies.append(latency)
            failed += is_failure(op, failure)
    return {"latencies": latencies, "failed": failed}


def run_untraced(args, ctx) -> tuple[dict, int, int]:
    cli = args.workload == "cli-cold"
    setup_argv = [sys.executable, "-c", "import f1kit, f1kit.cli" if cli else "import f1kit"]
    _child_seconds(setup_argv, ctx.env)     # warm-up: writes the bytecode caches
    res = measure(args.workload, args.seed, args.seconds, ctx,
                  setup=lambda: _child_seconds(setup_argv, ctx.env))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    setups = res["setups"]
    lat = res["latencies"]
    fails = res["failures"]
    n = len(lat)
    n_undecided_ok = sum(fails.values()) - res["failed"]
    p90 = _percentile(lat, 90) * 1000
    reference = statistics.median(res["references"])
    scale = REFERENCE_S / reference
    # (name, measured value, unit, note, whether it is a time to scale)
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} fresh interpreters", True),
        ("ops_per_s", n / res["busy"], "ops/s", f"{n} ops in {res['rounds']} rounds, "
                                                f"{res['busy']:.2f} s busy", True),
        ("latency_p50_ms", statistics.median(lat) * 1000, "ms", f"n={n}", True),
        ("latency_p90_ms", p90, "ms",
         f"n={n}, {sum(x * 1000 > p90 for x in lat)} beyond", True),
        ("peak_rss_mb", usage.ru_maxrss / 1024, "MB",
         "largest child process" if cli else "worker process", False),
        ("fail_ratio", sum(fails.values()) / n, "1",
         f"n={n}; " + ", ".join(f"{k} {v}" for k, v in fails.items())
         + f"; {n_undecided_ok} undecided on ops the seed leaves undecided", False),
    ]
    print(f"workload {args.workload}  seed {args.seed}  trace 0")
    print(f"  reference        {reference * 1000:>14.6f} ms     (median of "
          f"{len(res['references'])}; times below scaled by {scale:.4f} to "
          f"{REFERENCE_S * 1000:g} ms)")
    metrics = {}
    for name, value, unit, note, timed in rows:
        if timed:
            note += f"; {value:.6f} measured"
            value = value / scale if name == "ops_per_s" else value * scale
        print(f"  {name:<16} {value:>14.6f} {unit:<6} ({note})")
        if name != "fail_ratio":
            metrics[name] = {"value": value, "unit": unit}
    # fail_ratio above counts every undecided answer; `failed` leaves out only
    # those on ops the seed itself leaves undecided (Op.undecided_ok)
    return metrics, n, res["failed"]


def run_traced(args, ctx) -> tuple[dict, int, int]:
    import tracing
    plain = replay(args.workload, args.seed, ctx)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = replay(args.workload, args.seed, ctx, tracer)
    finally:
        uninstall()
    values = tracing.layer_metrics(tracer)
    n = len(traced["latencies"])
    values["trace.overhead_ratio"] = sum(plain["latencies"]) / sum(traced["latencies"])
    # what a fresh `f1kit` process pays before its command runs
    bare = _median_start("pass", ctx.env, SETUP_SAMPLES)
    imported = _median_start("import f1kit.cli", ctx.env, SETUP_SAMPLES)
    values["cli.interpreter_ms"] = bare * 1000
    values["cli.import_ms"] = (imported - bare) * 1000
    values["cli.command_ms"] = (statistics.median(plain["latencies"]) * 1000
                                if args.workload == "cli-cold" else 0.0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(spans)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace 1  "
          f"({TRACE_ROUNDS[args.workload]} rounds, {n} ops, {len(tracer)} spans -> {spans.name})")
    for name in units:
        print(f"  {name:<42} {values[name]:>16.6f} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, n, traced["failed"] + plain["failed"]


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    from workloads import WORKLOADS
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = subprocess.run(argv).returncode or code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "f1kit" / "__init__.py").is_file():
        print(f"error: no f1kit sources under {root / 'src'}; "
              "run from the root of an f1kit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    os.environ.pop("F1KIT_MAX_SCALE", None)
    from workloads import WORKLOADS, Context
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    tmp_dir = HERE / "out" / f"run-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(root, tmp_dir)
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed = run(args, ctx)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
