"""Benchmark for tanglejones: seeded workloads through the command-line entry point.

    python3 perfbench/run.py --workload closed_knots --seed 1 --seconds 20 --trace 0

One client in one process calls ``tanglejones.cli.main([...])`` with stdout
captured, waiting for each call before the next (a closed loop, as at a
shell or in a notebook).  Every output is checked against an answer the
benchmark computes without the library.  The last line of stdout is one
JSON object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced re-run of the first
schedule cycle.  See NOTES.md for what each metric and workload is for.

The run exits with status 1 and no result line unless the package under
``src/`` next to this directory and the ``corpus/`` directory are present.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OP_BUDGET_S = 10.0  # an op running longer is stopped, recorded as capped, and fails
SETUP_CHILDREN = 2  # extra fresh-process set-ups; setup_s is the median of these and ours
CHILD_TIMEOUT_S = 150


class OverBudget(BaseException):
    """Raised inside an op by the budget alarm; BaseException so no handler
    in the program under test can swallow it."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    capped: int = 0
    latencies: list[float] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class Runner:
    """Executes ops one at a time under the per-op budget and checks each."""

    def __init__(self, cli_module, budget: float = OP_BUDGET_S):
        self.cli = cli_module
        self.budget = budget
        self._armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        if self._armed:
            self._armed = False
            raise OverBudget()

    def call(self, argv: list[str]) -> tuple[float, int | None, str, str | None]:
        """(seconds, exit code, stdout, failure) for one ``main`` call.

        ``main`` is looked up on every call so a traced run sees its wrapper.
        """
        out, err = io.StringIO(), io.StringIO()
        code: int | None = None
        failure = None
        signal.setitimer(signal.ITIMER_REAL, self.budget)
        self._armed = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            self._armed = False
        except OverBudget:
            failure = "capped: over the per-op budget"
        except SystemExit as exc:
            self._armed = False
            failure = f"exited via SystemExit({exc.code!r})"
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            self._armed = False
            failure = f"raised {type(exc).__name__}"
        finally:
            elapsed = time.perf_counter() - start
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, code, out.getvalue(), failure

    def run(self, op, tally: Tally, after=None) -> float:
        elapsed, code, out, failure = self.call(op.argv)
        if after is not None:
            after()
        tally.attempted += 1
        tally.latencies.append(elapsed)
        if failure is None:
            failure = op.verify(code, out)
        if failure is not None:
            if failure.startswith("capped"):
                tally.capped += 1
            tally.fail(failure)
        return elapsed


def _bootstrap():
    """Import the checkout's own package, or explain why not."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import tanglejones.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tanglejones from {src}: {exc}")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: tanglejones came from {where}, not from {src}")
    return cli


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _setup_children(args) -> tuple[list[float], int, int]:
    """Set up again in fresh processes; returns their set-up times and warm-up tallies."""
    times, attempted, failed = [], 0, 0
    for _ in range(SETUP_CHILDREN):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
            "--setup-only",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(child["setup_s"])
        attempted += child["attempted"]
        failed += child["failed"]
    return times, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / "perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, cli, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workload_cls, workdir: Path) -> int:
    from perfbench import stats

    # --- set-up: imports (above), inputs and their reference answers, warm-up pass
    w = workload_cls(ROOT, args.seed, workdir)
    queue = w.ops(0, w.cycle)
    runner = Runner(cli)
    warm = Tally()
    for op in w.warmup():
        runner.run(op, warm)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "attempted": warm.attempted, "failed": warm.failed}))
        return 0

    # --- timed phase: the clock runs only inside main() calls; refilling the
    # input queue and checking outputs happen with it stopped
    min_ops = max(stats.min_samples(), w.cycle if args.trace else 0)
    timed = Tally()
    clock = 0.0
    while clock < args.seconds or timed.attempted < min_ops:
        if timed.attempted == len(queue):
            queue += w.ops(len(queue), w.cycle)
        clock += runner.run(queue[timed.attempted], timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": _nproc(),
        "op_budget_s": OP_BUDGET_S,
        "timed_ops": timed.attempted,
        "timed_clock_s": clock,
    }
    tallies = [warm, timed]
    spans = None
    if args.trace:
        metrics, spans, extra = _traced(runner, queue[: w.cycle], w.probe_ops, timed)
        tallies += extra
        record["traced_ops"] = w.cycle
    else:
        child_times, child_attempted, child_failed = _setup_children(args)
        warm.attempted += child_attempted
        warm.failed += child_failed
        setups = [setup_s] + child_times
        lat_ms = [x * 1000.0 for x in timed.latencies]
        record["setup_samples_s"] = setups
        record["latency_samples"] = len(lat_ms)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": ((timed.attempted - timed.failed) / clock, "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (stats.tail_percentile(lat_ms, 90.0), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if not args.trace:
        metrics["fail_ratio"] = (stats.fail_ratio_bound(failed, attempted), "ratio")
    record["capped"] = sum(t.capped for t in tallies)
    record["failures"] = {}
    for t in tallies:
        for reason, n in t.reasons.items():
            record["failures"][reason] = record["failures"].get(reason, 0) + n
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    outdir = ROOT / "perfbench" / "out"
    outdir.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    (outdir / f"{kind}-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"record": record, "spans": spans}) + "\n"
    )
    print("run record: " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(runner: Runner, ops: list, probe_ops: int, timed: Tally):
    """Re-run the first schedule cycle traced, then its first ``probe_ops``
    ops under tracemalloc.  Returns the per-layer metrics, the spans, and
    the tallies of the two passes."""
    from perfbench.trace import PER_LAYER, AllocProbe, Tracer

    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            runner.run(op, traced, after=tracer.end_op)
    finally:
        tracer.uninstall()
    probe = AllocProbe()
    probed = Tally()
    probe.install()
    try:
        for op in ops[:probe_ops]:
            runner.run(op, probed)
    finally:
        probe.uninstall()
    values = tracer.metrics()
    values["decat.peak_alloc_mb"] = probe.peak / 2**20
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(timed.latencies[: len(ops)])
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    return metrics, tracer.span_records(), [traced, probed]


if __name__ == "__main__":
    sys.exit(main())
