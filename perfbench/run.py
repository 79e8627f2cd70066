"""Run one properloss benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload eval --seed 1 --seconds 55 --trace 0

Every call goes through the user-facing CLI in-process, as
``properloss.cli.main(argv)`` with ``--format machine`` and stdout
captured, and every output is checked.  ``--trace 0`` splits ``--seconds``
over WORKERS fresh processes run one after another, each repeating whole
cycles of the workload's calls, and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of cycles untraced, then the same cycles
with span wrappers installed, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the package source
is missing or the workload is unknown.  perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one process, no threads: keep numpy's BLAS pool to the calling thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", "_work")
OUT = os.path.join("perfbench", "out")
#: Set-ups timed in a run: one before the timed phase and two after each worker.
SETUP_REPEATS = 9
#: Fresh processes the timed phase is split over, one after another.
WORKERS = 4
#: One unit for every workload's throughput; each workload names what it counts.
WORK_UNIT = "work/s"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one properloss benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as handle:
                level = handle.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as handle:
                caches.setdefault(f"L{level}", handle.read().strip())
    except OSError:
        pass

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "seed": seed,
        "commit": git_commit(),
    }


class Runner:
    """Runs calls of one workload, checks each output, and keeps the first output per call."""

    def __init__(self, workload, cli_main, placeholders: dict):
        self.workload = workload
        self.cli_main = cli_main
        self.placeholders = placeholders
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int, invoke=None) -> float:
        """One call; returns its latency in seconds."""
        call = self.workload.calls[index]
        invoke = invoke or self.cli_main
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = invoke(list(call.argv))
            except SystemExit as exc:  # argparse rejects argv by exiting
                code = exc.code
            except Exception as exc:  # any crash is a failed call, reported below
                code, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        text = out.getvalue()
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:300]}"
        if error is None:
            error = self._check(index, call, text)
        if error is not None:
            self.failures.append(f"call {index} ({' '.join(call.argv[:2])}): {error}")
        return latency

    def _check(self, index: int, call, text: str):
        try:
            record = json.loads(text.rstrip("\n").split("\n")[-1])
        except ValueError:
            return "output does not end in a JSON record"
        problem = call.check(record)
        if problem is not None:
            return problem
        first = self.first.setdefault(index, text)
        if text != first:
            return "output differs from the first run of the same argv and seed"
        return None

    def digest(self) -> str:
        """sha256 over every distinct call's argv and deterministic output fields.

        Repeats of a call are checked byte-identical to its first run, so
        this covers every call.  Timing keys and the run's own paths are left
        out, so that a seed gives the same digest on every machine.
        """
        h = hashlib.sha256()
        for index in sorted(self.first):
            record = json.loads(self.first[index].rstrip("\n").split("\n")[-1])
            fields = {k: v for k, v in record.items() if not k.startswith("timing.")}
            text = json.dumps([self.workload.calls[index].argv, fields], sort_keys=True)
            for value, placeholder in self.placeholders.items():
                text = text.replace(value, placeholder)
            h.update(text.encode("utf-8"))
        return h.hexdigest()


def run_cycle(runner: Runner, invoke=None) -> list:
    """One cycle: each call runs its ``repeat`` times; latencies as one list per call."""
    return [[runner.run(i, invoke) for _ in range(call.repeat)]
            for i, call in enumerate(runner.workload.calls)]


def cycle_s(cycle: list) -> float:
    return sum(map(sum, cycle))


def time_setup(workloads, name: str, seed: int, workdir: str, repeats: int):
    """Repeated set-ups: a fresh interpreter importing properloss, then input generation."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    workload = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import properloss"], env=env, check=True)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload = workloads.WORKLOADS[name](seed, workdir)
        times.append(time.perf_counter() - t0)
    return workload, times


def timed_cycles(runner: Runner, seconds: float) -> list:
    """Whole cycles until the next would end more than half a cycle past ``seconds``."""
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(run_cycle(runner))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(cycles) > seconds:
            return cycles


def worker(runner: Runner, seconds: float) -> dict:
    """One timed process's share of the run, reported to the parent as JSON."""
    cycles = timed_cycles(runner, seconds)
    return {
        "latencies": [[t for cycle in cycles for t in cycle[i]] for i in range(len(runner.workload.calls))],
        "cycles": len(cycles),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "first": runner.first,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def end_to_end(runner: Runner, args, workdir: str, between) -> tuple:
    """Time the workload in WORKERS fresh processes, one after another.

    On the host the benchmark was tuned on, one process can run the same
    code 1.5 times slower than the next for its whole life, and the host's
    speed also drifts for seconds to minutes.  Each call's fastest latency
    over several processes is what the program itself costs; it moves far
    less from run to run than a median or a mean.  ``between()`` runs after
    each worker, outside the timed share.
    """
    calls = runner.workload.calls
    per_call = [[] for _ in calls]
    cycles, maxrss_kb, spent = 0, 0, 0.0
    for k in range(WORKERS):
        share = (args.seconds - spent) / (WORKERS - k)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(max(share, 0.0)), "--worker", workdir]
        t0 = time.perf_counter()
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        spent += time.perf_counter() - t0
        between()
        report = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        for times, more in zip(per_call, report["latencies"]):
            times.extend(more)
        cycles += report["cycles"]
        maxrss_kb = max(maxrss_kb, report["maxrss_kb"])
        runner.attempted += report["attempted"]
        runner.failures.extend(report["failures"])
        for index, text in report["first"].items():
            if runner.first.setdefault(int(index), text) != text:
                runner.failures.append(f"call {index}: output differs between processes")
    latencies = sorted(t for times in per_call for t in times)
    best = [min(times) for times in per_call]
    metrics = {
        "work_per_s": (sum(c.work * c.repeat for c in calls) / sum(c.repeat * b for c, b in zip(calls, best)),
                       WORK_UNIT),
        "call_p50_best_ms": (1e3 * statistics.median(best), "ms"),
        "peak_rss_mb": (maxrss_kb / 1024, "MiB"),
    }
    n = len(latencies)
    notes = [f"{n} calls in {cycles} cycles over {WORKERS} processes, {sum(latencies):.3f} s of call time; "
             f"work_per_s counts {runner.workload.work_unit}",
             f"call_p50_ms={1e3 * statistics.median(latencies):.4f} ms over all {n} calls; "
             f"call_p50_best_ms over {len(calls)} distinct calls"]
    if n >= 100:
        notes.append(f"call_p90_ms={1e3 * statistics.quantiles(latencies, n=10)[8]:.4f} ms (n={n})")
    else:
        notes.append(f"call_p90_ms omitted: {n} calls, fewer than 100")
    return metrics, notes, per_call


def traced(runner: Runner, spans, out_prefix: str) -> tuple:
    cycles = runner.workload.trace_cycles
    untraced_s = sum(cycle_s(run_cycle(runner)) for _ in range(cycles))
    tracer = spans.Tracer()
    index_of = {tuple(call.argv): i for i, call in enumerate(runner.workload.calls)}
    traced_index = []  # call index of each traced call, in call-id order

    def invoke(argv):
        traced_index.append(index_of[tuple(argv)])
        return tracer.call(runner.cli_main, argv)

    spans.install(tracer)
    try:
        traced_s = sum(cycle_s(run_cycle(runner, invoke)) for _ in range(cycles))
    finally:
        tracer.restore()
    tracer.write_jsonl(out_prefix + "-spans.jsonl")
    metrics = spans.layer_metrics(tracer, traced_s / untraced_s - 1.0)
    call_s = metrics["trace.call_s"][0]
    self_sum = sum(metrics[f"{name}.self_s"][0] for name in spans.SPAN_NAMES)
    notes = [f"traced {cycles} cycle(s): untraced {untraced_s:.4f} s, traced {traced_s:.4f} s",
             f"sum of self_s {self_sum:.6f} s against traced call time {call_s:.6f} s"]
    if abs(self_sum - call_s) > 1e-9 * call_s + 1e-6:
        runner.failures.append(f"self times sum to {self_sum} s, traced call time is {call_s} s")
    if tracer.missing:
        notes.append("not traced (absent from the package): " + ", ".join(tracer.missing))
    first = 0
    for group in runner.workload.groups:
        indices = range(first, first + len(group.calls))
        first += len(group.calls)
        ids = {cid for cid, i in enumerate(traced_index, start=1) if i in indices}
        group_s = tracer.inclusive_s("cli", ids)
        shares = [(tracer.self_s(name, ids) if kind == "self" else tracer.inclusive_s(name, ids)) / group_s
                  for name, kind in group.prediction]
        parts = " + ".join(f"{name}[{kind}]={share:.1%}" for (name, kind), share in zip(group.prediction, shares))
        notes.append(f"prediction for {group.name} ({group_s:.3f} s traced): {parts} = {sum(shares):.1%}: "
                     f"{'holds' if sum(shares) > 0.5 else 'FAILS'} (more than half)")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "properloss", "cli.py")):
        print(f"error: no package source at {SRC}/properloss", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    from properloss import cli

    if args.worker:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, args.worker), cli.main, {})
        print(json.dumps(worker(runner, args.seconds)))
        return 0

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    out_prefix = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    latencies = None
    try:
        workload, setup_times = time_setup(workloads, args.workload, args.seed, workdir, 1)
        runner = Runner(workload, cli.main, {workdir: "<work>", sys.executable: "<python>"})
        if args.trace:
            metrics, notes = traced(runner, spans, out_prefix)
        else:
            # the other set-ups run between the workers, so that the median
            # samples the host at five moments of the run, not at one
            per_gap = (SETUP_REPEATS - 1) // WORKERS
            metrics, notes, latencies = end_to_end(
                runner, args, workdir,
                lambda: setup_times.extend(time_setup(workloads, args.workload, args.seed, workdir, per_gap)[1]))
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
            notes.append("setup repeats " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    env = environment(args.seed)
    digest = runner.digest()
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env, "digest": digest,
        "attempted": runner.attempted, "failed": failed, "failures": runner.failures[:20],
        "notes": notes, "metrics": metrics_json, "latencies_s": latencies,
    }
    with open(out_prefix + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"digest sha256:{digest}")
    print(f"failed_frac={failed / runner.attempted:.6f} ({failed} of {runner.attempted} calls)")
    for note in notes:
        print(note)
    for failure in runner.failures[:20]:
        print("FAILED " + failure)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
