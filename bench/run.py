"""qlesim benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload threetone --seed 1 --seconds 30 --trace 0

One op is one in-process ``qlesim.cli.main(["run", <config.yaml>, "--out-dir",
...])`` call on a config this script generated from ``--seed`` during set-up.
Ops run back to back until ``--seconds`` of op time have passed, and every
op's files are checked after it returns (outside the timed region).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain and
traced ops and prints the per-layer metrics of the traced ones.  The last line
of standard output is the JSON result; see HOWTO.md for the metric
definitions.
"""

import os

# One BLAS thread: on a 2-core machine OpenBLAS's worker threads turned the
# threetone op latency bimodal (0.55 s and 0.95 s modes).  Set before numpy
# is first imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
from spans import Tracer, summarize
from workloads import POOL_SIZE, WORKLOADS, check_op, make_configs, output_bytes, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile


def import_program():
    """Import qlesim from this checkout's ``src``, or return None."""
    src = ROOT / "src"
    if not (src / "qlesim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from qlesim import cli
    if Path(cli.__file__).resolve().parent != src / "qlesim":
        return None
    return cli


class Bench:
    def __init__(self, cli, workload, seed, run_dir):
        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.run_dir = run_dir
        self.docs = make_configs(workload, seed)
        self.paths = write_configs(self.docs, run_dir / "configs")
        self.attempted = 0
        self.failed = 0

    def op(self, index, out_dir, tracer=None):
        """Run config ``index`` into ``out_dir``; return (latency, cpu, problems)."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = ["run", str(self.paths[index]), "--out-dir", str(out_dir),
                *self.workload.flags]
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        root_span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        with installed, contextlib.redirect_stdout(io.StringIO()):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                with root_span:
                    code = self.cli.main(argv)
            except Exception:   # any escape from the CLI is a failed op
                traceback.print_exc()
                code = -1
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, check_op(self.workload.name, self.docs[index], out_dir, code)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op failed: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def warm_up(self):
        self.record(self.op(0, self.run_dir / "warmup")[2])

    def rerun_warm_up(self):
        """Re-run the warm-up config and require byte-identical files."""
        problems = self.op(0, self.run_dir / "rerun")[2]
        if not problems and (output_bytes(self.docs[0], self.run_dir / "warmup")
                             != output_bytes(self.docs[0], self.run_dir / "rerun")):
            problems.append("re-run of the warm-up config is not byte-identical")
        self.record(problems)


def measure_setup(args, run_dir):
    """Median over fresh processes of the time from spawn to the first timed
    op: (scaled, unscaled)."""
    times, raw, before = [], [], speed.calibrate()
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe", str(run_dir / f"probe{i}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe {i} failed (exit {child.returncode})")
        after = speed.calibrate()
        times.append(speed.scale(elapsed, before, after))
        raw.append(elapsed)
        before = after
    return statistics.median(times), statistics.median(raw)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count).  Too few samples give the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n


def timing(setup_s, latencies, cpus, completed):
    return {"setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail(latencies)[0],
            "ops_per_s": completed / sum(latencies),
            "cpu_per_op_s": statistics.median(cpus)}


def end_to_end(bench, seconds, setup):
    """End-to-end metrics, scaled to reference speed; the unscaled timings go
    to the line before the result."""
    scaled, raw = ([], []), ([], [])
    completed, before = 0, speed.calibrate()
    while sum(raw[0]) < seconds:
        wall, cpu, problems = bench.op(len(raw[0]) % POOL_SIZE, bench.run_dir / "op")
        after = speed.calibrate()
        completed += bench.record(problems)
        for series, value in zip(raw, (wall, cpu)):
            series.append(value)
        for series, value in zip(scaled, (wall, cpu)):
            series.append(speed.scale(value, before, after))
        before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, pct, n = tail(raw[0])
    print(f"{bench.workload.name}: {n} timed ops; latency_tail_s is p{pct:.1f} of "
          f"{n} samples ({TAIL_BEYOND} beyond it); unscaled "
          + json.dumps(timing(setup[1], *raw, completed)))
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "s")
               for name, value in timing(setup[0], *scaled, completed).items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return metrics


PER_LAYER_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count",
                   "iterations": "count", "converged_frac": "fraction",
                   "bytes": "B", "mb_per_s": "MB/s", "overhead_frac": "fraction"}


def per_layer(bench, seconds, trace_path):
    """Rounds over the config pool, each config once plain and once traced
    (the order alternates by round), until ``seconds`` of op time have passed.
    Whole rounds make the per-op counts exact functions of the seed."""
    tracer = Tracer()
    plain, traced, factors, busy, op_id = [], [], {}, 0.0, 0
    rounds, before = 0, speed.calibrate()
    while busy < seconds:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for index in range(POOL_SIZE):
            for with_trace in order:
                op_id += 1
                tracer.op = op_id
                wall, _, problems = bench.op(index, bench.run_dir / "op",
                                             tracer if with_trace else None)
                after = speed.calibrate()
                bench.record(problems)
                (traced if with_trace else plain).append(speed.scale(wall, before, after))
                if with_trace:
                    factors[op_id] = speed.scale(1.0, before, after)
                busy += wall
                before = after
        rounds += 1
    metrics = summarize(tracer.spans, tracer.counts, factors)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tracer.write(trace_path, {"workload": bench.workload.name,
                              "speed_factors": {str(op): f for op, f in factors.items()},
                              "per_layer": metrics})
    print(f"{bench.workload.name}: {rounds} rounds, {len(traced)} traced and "
          f"{len(plain)} plain ops; {len(tracer.spans)} spans written to "
          f"{trace_path.relative_to(ROOT)}")
    return {name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
            for name, value in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print(f"qlesim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        Bench(cli, args.workload, args.seed, args.setup_probe).warm_up()
        print("ready", flush=True)
        return 0

    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        setup = None if args.trace else measure_setup(args, run_dir)
        bench = Bench(cli, args.workload, args.seed, run_dir)
        bench.warm_up()
        if args.trace:
            metrics = per_layer(bench, args.seconds, WORK_DIR / f"trace-{args.workload}.json")
        else:
            metrics = end_to_end(bench, args.seconds, setup)
        bench.rerun_warm_up()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
