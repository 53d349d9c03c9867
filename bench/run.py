"""Benchmark finsemi's command line on one workload, or on all of them.

    python3 bench/run.py --workload theorem_inflated --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  The workload's CLI calls go through
finsemi.cli.main in this process, one after the other (a closed loop with
one caller), with stdout and stdin redirected.  The whole batch of calls
is one pass; passes repeat until --seconds is spent, and at least twice so
that outputs can be compared between passes.  End-to-end times take each
table's fastest pass.  Every output is checked against the benchmark's own
oracle on the first pass and by digest after.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of stdout is
one JSON object; the exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


class StampedWriter(io.StringIO):
    """Captured stdout that notes when each line ends."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        n = super().write(s)
        if s.endswith("\n"):
            self.stamps.append(time.perf_counter())
        return n


def import_finsemi():
    """Import finsemi afresh from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "finsemi" / "__init__.py").is_file():
        raise SystemExit(f"bench: no finsemi sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "finsemi" or m.startswith("finsemi.")]:
        del sys.modules[name]
    finsemi = importlib.import_module("finsemi")
    importlib.import_module("finsemi.cli")
    if Path(finsemi.__file__).resolve().parent != src / "finsemi":
        raise SystemExit(f"bench: imported finsemi from {finsemi.__file__}, not {src}")
    return finsemi


def setup(workload):
    """Import plus input generation, timed; returns (seconds, finsemi)."""
    t0 = time.perf_counter()
    finsemi = import_finsemi()
    workload.ops = workloads.build_ops(workload, finsemi)
    return time.perf_counter() - t0, finsemi


def call(cli, op):
    """One CLI call; returns (exit code, stdout writer, stderr, start, end)."""
    out, err = StampedWriter(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is one failed call, not the end of the run
                print(f"crash: {exc!r}", file=err)
                code = -1
    finally:
        end = time.perf_counter()
        sys.stdin = saved_stdin
    return code, out, err.getvalue(), start, end


class Run:
    """Passes over one workload, with the gate applied to every call."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = []  # per pass, each table's latency in output order
        self.rests = []  # per pass, each streaming call's time after its last record

    def one_pass(self, record_latency=True):
        """One call of every op; returns the time spent inside the calls."""
        digests, latencies, rests = [], [], []
        wall = 0.0  # time inside the calls only; the gate is not timed
        for op in self.workload.ops:
            code, out, err, start, end = call(self.cli, op)
            wall += end - start
            if self.workload.stream:
                stamps = [start] + out.stamps
                latencies.extend(b - a for a, b in zip(stamps, stamps[1:]))
                rests.append(end - stamps[-1])  # the fill goes on after the last record
            else:
                latencies.append(end - start)
            stdout = out.getvalue()
            digests.append((code, workloads.stdout_digest(stdout)))
            self._gate(op, code, stdout, err, len(digests) - 1, digests[-1])
        if record_latency:
            self.latencies.append(latencies)
            self.rests.append(rests)
        if self.digests is None:
            self.digests = digests
        return wall

    def _gate(self, op, code, stdout, err, index, digest):
        self.attempted += op.tables
        if code != 0:
            problems = [f"{op.argv[0]} exited {code}: {err.strip()[-300:]}"]
        elif self.digests is None:
            problems = op.check(stdout, err)
        elif digest != self.digests[index]:
            problems = [f"{op.argv[0]}: stdout differs from the first pass"]
        else:
            problems = []
        if problems:
            # the oracle names each wrong table; otherwise the whole call failed
            checked = code == 0 and self.digests is None
            self.failed += min(op.tables, len(problems)) if checked else op.tables
            self.problems.extend(problems)


def percentile(sorted_values, p):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k], len(sorted_values) - k - 1


def tail_percentile(batch_size):
    """Highest ladder percentile with at least ten of one pass's tables beyond it.

    It is chosen on one pass, not on all samples, so that a faster program,
    which fits more passes into the run, still reports the same percentile.
    """
    return next((p for p in TAIL_LADDER if batch_size * (100 - p) / 100 >= 10), 50.0)


def measure(run, seconds, setup_times, min_passes=2):
    """Passes until the next one would overrun the run; returns their times.

    The set-ups after the first are spread between the passes, so that they
    meet the same machine as the passes do.
    """
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= seconds:
        walls.append(run.one_pass())
        if len(setup_times) < SETUP_REPEATS:
            elapsed, finsemi = setup(run.workload)
            setup_times.append(elapsed)
            run.cli = finsemi.cli
    return walls


def best_of_passes(per_pass):
    """Each item's fastest time over the passes.

    The same call repeats on every pass, and other tenants of the machine
    only ever slow it down, so the fastest repeat is the steadiest estimate
    of its cost.  On a shared 2-vCPU KVM guest the same Python code ran up
    to 1.6x slower for minutes at a time, and medians over passes spread
    0.25-0.36 between runs.
    """
    return [min(times) for times in zip(*per_pass)]


def end_to_end(workload, run, walls, setup_times, lines):
    best = sorted(best_of_passes(run.latencies))
    p_tail = tail_percentile(len(best))
    tail, beyond = percentile(best, p_tail)
    wall = sum(best) + sum(best_of_passes(run.rests))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "tables_per_s": (workload.tables / wall, "1/s"),
        "table_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "table_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        note = f"  (p{p_tail:g} of {len(best)} tables, {beyond} beyond)" if name == "table_ms_tail" else ""
        lines.append(f"{name}: {value:.6g} {unit}{note}")
    lines.append(f"failed_ratio: {run.failed / max(run.attempted, 1):.6g} "
                 f"({run.failed} of {run.attempted} tables)")
    lines.append(f"passes: {len(walls)}, median {statistics.median(walls):.4f} s; raw pass times: "
                 + " ".join(f"{w:.4f}" for w in walls) + " s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(workload, finsemi, run, seconds, lines):
    from tracing import Tracer

    tracer = Tracer(finsemi)
    tracer.install()
    workload.ops = workloads.build_ops(workload, finsemi)
    build_s = tracer.self_ns.get("inflation.build", 0) / 1e9  # traced set-up
    tracer.uninstall()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(run.one_pass(record_latency=False))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run.one_pass(record_latency=False))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            value, unit = statistics.median(values), "s"
        else:
            if len(set(values)) != 1:
                run.problems.append(f"{name} differs between passes: {values}")
                run.failed += 1
            value, unit = values[0], ("ratio" if name.endswith("ratio") else "count")
        metrics[name] = (value, unit)
    metrics["inflation.build_s"] = (build_s, "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"][0] - metrics["trace.untraced_wall_s"][0], "s")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    lines.append(f"({len(traced)} traced and {len(plain)} untraced passes; values are per pass)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name, seed, seconds, trace):
    workload = workloads.make(name, seed)
    elapsed, finsemi = setup(workload)
    setup_times = [elapsed]
    run = Run(workload, finsemi.cli)
    run.problems.extend(workloads.check_inputs(workload))
    lines = [f"workload: {name}  seed: {seed}  tables per pass: {workload.tables}"]
    for key, value in workload.properties.items():
        lines.append(f"input {key}: {value}")
    if trace:
        run.one_pass(record_latency=False)  # the first pass applies the full gate
        metrics = per_layer(workload, finsemi, run, seconds, lines)
    else:
        walls = measure(run, seconds, setup_times)
        metrics = end_to_end(workload, run, walls, setup_times, lines)
    for problem in run.problems[:20]:
        lines.append(f"WRONG: {problem}")
    correct = not run.problems and run.failed == 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]) + "\n")
        try:
            correct = json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            correct = False
        if proc.returncode != 0 or not correct:
            status = 1
    print("all workloads correct" if status == 0 else "SOME OUTPUTS WERE WRONG")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
