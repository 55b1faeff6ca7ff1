"""The repository's standing benchmark: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suburb_sparse --seed 7 --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
of a traced run instead.  ``--workload all`` runs the four workloads one
after another, each in its own process.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record-reference`` rewrites
``perfbench/reference.json`` from numpy-tier runs at the default seed.

Every trial of every pass is checked against a reference digest: the
recorded one at the default seed, a numpy-tier run of the same inputs at
any other seed.  The program is imported from ``src/`` of the checkout;
without it the run exits with status 2.  Everything the run writes stays
under ``.bench_build/`` of the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: Timed passes per run, at least, however long they take.
MIN_PASSES = 3
#: Fresh processes whose median set-up time is reported.
SETUP_PROBES = 5
#: Iterations of the yardstick loop, and the seconds it takes on a quiet
#: 2-core x86 VM at 2.0 GHz (CPython 3.11).
YARDSTICK_LOOPS = 300_000
YARDSTICK_REF_S = 0.02


def yardstick() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    On a shared 2-core x86 VM the same code ran up to twice as slowly for
    minutes at a time while neighbouring machines were busy, and this loop
    slowed along with the workloads.  Each timed region is bracketed
    by two yardsticks and rescaled by ``YARDSTICK_REF_S`` over their mean,
    which cut the spread of 10-pass medians from 9-32% to 2-6% there.
    """
    start = time.perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i * i
    return time.perf_counter() - start


def paced(fn):
    """Run ``fn()``; returns ``(rescaled seconds, raw seconds, its value)``."""
    before = yardstick()
    start = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - start
    after = yardstick()
    return raw * 2.0 * YARDSTICK_REF_S / (before + after), raw, value


def _environment() -> dict:
    """What ran: kernel tier, versions, cores, scipy presence, revision."""
    import numpy

    from repro.kernels import kernel_tier_label

    try:
        import scipy
    except ImportError:
        scipy = None
    revision = None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            revision = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "kernel_tier": kernel_tier_label("auto"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "scipy_present": scipy is not None,
        "nproc": os.cpu_count(),
        "git_revision": revision,
    }


def _run_pass(workload, seed, kernels, tracer=None):
    """One paced pass in a fresh scratch directory: ``paced()``'s triple."""
    scratch = tempfile.mkdtemp(dir=WORK)
    try:
        if tracer is None:
            return paced(lambda: workload.run(seed, kernels, scratch))
        with tracer.installed():
            return paced(lambda: workload.run(seed, kernels, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _digests(results) -> list:
    from perfbench.workloads import result_digest

    return [result_digest(result) for result in results]


def _reference(workload, seed) -> list:
    from perfbench.workloads import DEFAULT_SEED

    if seed == DEFAULT_SEED:
        with open(REFERENCE) as handle:
            return json.load(handle)[workload.name]
    return _digests(_run_pass(workload, seed, "numpy")[2])


class Checker:
    """Counts trials attempted and failed against a reference digest list."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, digests) -> None:
        expected = self.reference
        self.attempted += max(len(digests), len(expected))
        self.failed += sum(a != b for a, b in zip(digests, expected))
        self.failed += abs(len(digests) - len(expected))

    def crashed(self) -> None:
        self.attempted += len(self.reference)
        self.failed += len(self.reference)


def _timed_passes(seconds, steps) -> None:
    """Call every step in turn until ``seconds`` passed and each ran
    :data:`MIN_PASSES` times; the steps record their own outputs."""
    start = time.perf_counter()
    count = 0
    while count < MIN_PASSES or time.perf_counter() - start < seconds:
        for step in steps:
            step()
        count += 1


def _setup_seconds(workload) -> float:
    """Median paced set-up time over fresh processes (provider cache warm).

    Each probe paces itself with the yardstick run in its own process,
    which the scheduler may place on a different core than this one.
    """
    values = []
    for _ in range(SETUP_PROBES):
        scratch = tempfile.mkdtemp(dir=WORK)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name,
                 scratch, str(YARDSTICK_LOOPS)],
                capture_output=True, text=True, cwd=ROOT, timeout=120,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(probe["setup_s"] * 2.0 * YARDSTICK_REF_S / sum(probe["yardsticks"]))
    return statistics.median(values)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds) -> tuple:
    """End-to-end metrics of untraced passes: ``(ok, checker, metrics)``."""
    from repro.kernels import compile_events

    from perfbench.workloads import agent_steps

    setup_s = _setup_seconds(workload)
    walls, raw_walls, outputs = [], [], []

    def one_pass():
        try:
            wall, raw, results = _run_pass(workload, seed, "auto")
        except Exception as error:  # a raising pass counts its trials as failed
            print(f"pass failed: {error!r}", file=sys.stderr)
            outputs.append(None)
            return
        walls.append(wall)
        raw_walls.append(raw)
        outputs.append(results)

    one_pass()  # warm-up, discarded
    walls.clear()
    raw_walls.clear()
    compiles = compile_events()
    _timed_passes(seconds, [one_pass])
    compiles = compile_events() - compiles
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not walls:
        raise RuntimeError("every pass raised")

    checker = Checker(_reference(workload, seed))
    work = None
    for results in outputs:
        if results is None:
            checker.crashed()
            continue
        checker.check(_digests(results))
        work = agent_steps(results)
    wall_s = statistics.median(walls)
    print(
        f"timed passes: {len(walls)}, raw wall min/median/max "
        f"{min(raw_walls):.4f}/{statistics.median(raw_walls):.4f}/{max(raw_walls):.4f} s, "
        f"compile events: {compiles}"
    )
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "agent_steps_per_s": _metric(work / wall_s, "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return compiles == 0, checker, metrics


def measure_traced(workload, seed, seconds, env) -> tuple:
    """Per-layer metrics of traced passes: ``(ok, checker, metrics)``.

    Traced and untraced passes alternate so their walls share conditions;
    the difference is the tracing overhead.  The run is correct only if
    every wrapper was restored, the traced digests equal the untraced
    ones, and every count repeats exactly across the traced passes.
    """
    from repro.kernels import compile_events

    from perfbench import tracing

    _run_pass(workload, seed, "auto")  # warm-up, discarded
    plain_walls, plain_digests, traced = [], [], []
    compiles = compile_events()

    def plain():
        wall, _raw, results = _run_pass(workload, seed, "auto")
        plain_walls.append(wall)
        plain_digests.append(_digests(results))

    def with_trace():
        tracer = tracing.Tracer(f"{workload.name}-seed{seed}-pass{len(traced)}")
        wall, _raw, results = _run_pass(workload, seed, "auto", tracer)
        traced.append((tracer, wall, _digests(results)))

    _timed_passes(seconds, [plain, with_trace])
    compiles = compile_events() - compiles

    checker = Checker(_reference(workload, seed))
    for digests in plain_digests + [digests for _t, _w, digests in traced]:
        checker.check(digests)
    problems = []
    if any(not tracer.restored for tracer, _w, _d in traced):
        problems.append("a wrapper was not restored")
    if any(digests != plain_digests[0] for _t, _w, digests in traced):
        problems.append("traced digests differ from untraced ones")
    first = traced[0][0].counts
    for tracer, _w, _d in traced[1:]:
        changed = [k for k in tracing.EXACT_COUNTS if tracer.counts[k] != first[k]]
        if changed:
            problems.append(f"counts did not repeat: {changed}")
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    merged = tracing.merge_passes([tracing.layer_metrics(t) for t, _w, _d in traced])
    merged["kernels.compile_events"] = compiles
    merged["trace.overhead_frac"] = (
        statistics.median(w for _t, w, _d in traced) / statistics.median(plain_walls) - 1.0
    )
    metrics = {name: _metric(merged[name], unit) for name, unit, _b in tracing.LAYER_METRICS}

    path = os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json")
    tracing.write_spans(
        path, [tracer for tracer, _w, _d in traced],
        {"workload": workload.name, "seed": seed, "env": env},
    )
    print(f"traced passes: {len(traced)}, spans in {os.path.relpath(path, ROOT)}")
    return not problems, checker, metrics


def record_reference() -> None:
    """Rewrite ``reference.json``: numpy-tier digests at the default seed."""
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    out = {name: _digests(_run_pass(w, DEFAULT_SEED, "numpy")[2]) for name, w in WORKLOADS.items()}
    with open(REFERENCE, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed ``workload/metric``."""
    from perfbench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    # Keep the compiled provider's cache and the compiler's temporaries in
    # the checkout too.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.environ["REPRO_CEXT_CACHE"] = os.path.join(BUILD, "repro-cext")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.record_reference:
        record_reference()
        return 0
    if args.workload == "all":
        summary = run_all(args)
    else:
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        env = _environment()  # also builds the compiled provider when it is missing
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            ok, checker, metrics = measure_traced(workload, args.seed, args.seconds, env)
        else:
            ok, checker, metrics = measure(workload, args.seed, args.seconds)
        summary = {
            "correct": ok and checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics,
        }
        print(
            f"failed_frac = {checker.failed / checker.attempted} "
            f"({checker.failed}/{checker.attempted} trials)"
        )
    for name, entry in summary["metrics"].items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
