"""The varwit benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {report,calibrate,queries} --seed N --seconds S --trace {0,1}

The benchmark drives `varwit.cli.main(argv)` in this one process, with
numpy's thread pools pinned to one thread. After a warm-up it repeats
the workload's pass until the next pass would overrun `--seconds`, and
checks every output. With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and reports
the per-layer metrics (see tracing.py). The last stdout line is one JSON
object; the exit code is 0 only if every output was correct.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import EXIT_OK, WORKLOADS, Result, Wrong  # noqa: E402

SETUP_REPEATS = 7
SETUP_CODE = (
    "import varwit.cli\n"
    "from varwit.noise import spin1_moment_pairs\n"
    "spin1_moment_pairs(0.2)\n"
    "print(varwit.cli.__file__)\n"
)

# The host this runs on is shared: its speed swings by up to 1.8x, in
# phases from seconds to minutes, with no steal time. End-to-end times are
# therefore rescaled to a reference host speed, measured by timing a fixed
# probe unit every SAMPLE_EVERY_S of wall time while the commands run
# (from a SIGALRM handler in this thread, so even inside one long command);
# the probes' own time is taken out of each latency. Rescaled times are
# what the commands would take on a host where one unit takes PROBE_REF_S
# (about the 2-vCPU KVM guest the benchmark was built on, in its fast
# phase); raw times are printed next to them.
PROBE_ROUNDS = 50
PROBE_REF_S = 0.0005
SAMPLE_EVERY_S = 0.005
PROBES_PER_SETUP = 100
_PROBE_A = np.eye(3) + 0.1 * np.ones((3, 3))
_PROBE_B = np.ones((4, 3, 3))
_PROBE_EIGH = np.linalg.eigh

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "certified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

SELF_TIMED = (
    "bounds.seesaw_bound", "bounds.sep_bound_curve", "bounds.grid_bound", "bounds.trace_region",
    "noise.fit_alpha", "simulate.run_calibration", "simulate.sample_variance_tuple",
    "witness.build_global_moments", "witness.detection_window", "cli.main",
)
CALL_COUNTED = ("bounds.seesaw_bound", "bounds.certified_bound", "bounds.grid_bound", "noise.fit_alpha")
COUNTERS = (
    "linalg.eigh_calls", "linalg.eigh_matrices", "linalg.eigvalsh_calls", "linalg.eigvalsh_matrices",
    "operators.constructions", "noise.channel_constructions", "simulate.shots", "witness.interp_evals",
)
LAYERS = ("cli", "bounds", "noise", "simulate", "witness", "operators", "linalg")


def per_layer_units():
    # Self time is given as a share of the traced pass: a layer that a
    # workload never calls then reads 0 %, not a time of exactly 0 s.
    units = {f"{name}.self_pct": "%" for name in SELF_TIMED}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    units.update({name: "count" for name in COUNTERS})
    units.update({f"{layer}.self_pct": "%" for layer in LAYERS})
    units.update({
        "bounds.seesaw_bound.converged_ratio": "ratio",
        "bounds.certified_bound.fallbacks": "count",
        "cli.bytes_written": "B",
        "trace.pass_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def probe_unit():
    """Fixed work shaped like varwit's hot paths (3x3 eigh, small einsum, dicts) from a Python loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        w, _ = _PROBE_EIGH(_PROBE_A)
        acc += float(np.einsum("kij,ij->", _PROBE_B, _PROBE_A)) + w[0]
        acc += len({"i": i, "j": [i, i + 1]}["j"])
    return time.perf_counter() - start


class HostSpeed:
    """Probe unit times: back to back, or sampled on a timer while commands run."""

    def __init__(self):
        self.units = []
        self.probe_s = 0.0  # total time of the sampled units

    def probe(self, count):
        for _ in range(count):
            self.units.append(probe_unit())

    def _sample(self, signum, frame):
        self.units.append(probe_unit())
        self.probe_s += self.units[-1]

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale_since(self, start):
        """Factor that rescales times measured since units[start] to the reference speed."""
        return PROBE_REF_S / statistics.mean(self.units[start:])


def import_cli():
    """Import varwit from this checkout's src/, never from anywhere else."""
    if not (SRC / "varwit" / "cli.py").is_file():
        sys.exit(f"perfbench: no varwit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import varwit
    import varwit.cli

    if Path(varwit.__file__).resolve().parent != SRC / "varwit":
        sys.exit(f"perfbench: imported varwit from {varwit.__file__}, not {SRC}")
    return varwit


def measure_setup(speed):
    """Median wall time (raw, rescaled) of a fresh interpreter importing the CLI and building its first box."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        first = len(speed.units)
        speed.probe(PROBES_PER_SETUP)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        raw.append(time.perf_counter() - start)
        speed.probe(PROBES_PER_SETUP)
        scaled.append(raw[-1] * speed.scale_since(first))
        if Path(proc.stdout.strip()).resolve() != SRC / "varwit" / "cli.py":
            sys.exit(f"perfbench: set-up imported {proc.stdout.strip()}")
    return statistics.median(raw), statistics.median(scaled)


def run_op(varwit, op, speed=None):
    """Run one CLI command in-process; returns (seconds, Result), without probes sampled meanwhile."""
    if op.out_dir:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    probed = speed.probe_s if speed else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = varwit.cli.main(op.argv)
    except Exception:  # a traceback is a failed command, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start - ((speed.probe_s - probed) if speed else 0.0)
    return elapsed, Result(code, out.getvalue(), err.getvalue())


def output_bytes(op, result):
    total = len(result.stdout.encode()) + len(result.stderr.encode())
    if op.out_dir and os.path.isdir(op.out_dir):
        total += sum(entry.stat().st_size for entry in os.scandir(op.out_dir) if entry.is_file())
    return total


class Tally:
    """Latencies, exit codes and check outcomes of every timed command.

    Each latency and pass time is stored raw, with the factor that
    rescales it to the reference host speed (1 when nothing was probed).
    """

    def __init__(self):
        self.latencies = []
        self.scales = []
        self.pass_walls = []
        self.pass_scales = []
        self.codes = []
        self.failures = []
        self.exact_errors = []

    def run_pass(self, varwit, ops, tracer=None, speed=None):
        gc.collect()
        if speed:
            first = len(speed.units)
        if tracer:
            tracer.install(varwit)
        done = []
        try:
            with speed.sampling() if speed else contextlib.nullcontext():
                for op in ops:
                    elapsed, result = run_op(varwit, op, speed)
                    done.append((op, elapsed, result, output_bytes(op, result)))
        finally:
            if tracer:
                tracer.uninstall()
        scale = speed.scale_since(first) if speed else 1.0
        wall = 0.0
        for op, elapsed, result, nbytes in done:
            wall += elapsed
            self.latencies.append(elapsed)
            self.scales.append(scale)
            self.codes.append(result.code)
            try:
                self.exact_errors.extend(op.check(result))
            except Wrong as exc:
                self.failures.append(f"{' '.join(op.argv)}: {exc}")
            if tracer:
                tracer.counts["cli.bytes_written"] += nbytes
        self.pass_walls.append(wall)
        self.pass_scales.append(scale)
        return wall

    @property
    def attempted(self):
        return len(self.codes)

    def end_to_end(self, rescaled=True):
        lat = [t * k for t, k in zip(self.latencies, self.scales)] if rescaled else self.latencies
        walls = [t * k for t, k in zip(self.pass_walls, self.pass_scales)] if rescaled else self.pass_walls
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
        return {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": p90,
            "certified_ratio": self.codes.count(EXIT_OK) / self.attempted,
        }

    def extras(self):
        """Metrics printed for people but not bounded (see README.md): name -> (value, unit, note)."""
        n, failed, uncertified = self.attempted, len(self.failures), self.codes.count(2)
        raw = self.end_to_end(rescaled=False)
        p90 = raw["op_p90_s"]
        return {
            "raw_wall_s": (raw["wall_s"], "s", "not rescaled"),
            "raw_op_p50_s": (raw["op_p50_s"], "s", "not rescaled"),
            "raw_op_p90_s": (raw["op_p90_s"], "s", "not rescaled"),
            "host_speed": (statistics.median(self.pass_scales), "x", "median reference/probe time per pass"),
            "failed_ratio": (failed / n, "ratio", f"{failed}/{n} commands"),
            "uncertified_ratio": (uncertified / n, "ratio", f"{uncertified}/{n} commands exit 2"),
            "bound_err_max": (max(self.exact_errors, default=0.0), "abs",
                              f"over {len(self.exact_errors)} certified c_sep(1/2) values"),
            "op_samples": (n, "count", f"{sum(x > p90 for x in self.latencies)} beyond op_p90_s"),
            "passes": (len(self.pass_walls), "count", ""),
        }


def layer_metrics(tracers, traced_walls, untraced_walls):
    """Per-pass per-layer numbers: counts from the first traced pass, shares as medians."""
    first = tracers[0]
    counts = dict(first.counts)
    metrics = {}

    def pct(self_time):
        """Median over traced passes of 100 * self_time(tracer) / pass wall."""
        return statistics.median(100.0 * self_time(t) / wall for t, wall in zip(tracers, traced_walls))

    for name in SELF_TIMED:
        metrics[f"{name}.self_pct"] = pct(lambda t: t.spans[name][2] if name in t.spans else 0.0)
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = first.spans[name][0] if name in first.spans else 0
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = pct(
            lambda t: sum(rec[2] for name, rec in t.spans.items() if name.startswith(layer + "."))
        )
    calls = metrics["bounds.seesaw_bound.calls"]
    metrics["bounds.seesaw_bound.converged_ratio"] = (
        counts.get("bounds.seesaw_bound.converged", 0) / calls if calls else 1.0
    )
    metrics["bounds.certified_bound.fallbacks"] = first.edges[("bounds.certified_bound", "bounds.grid_bound")]
    metrics["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    metrics["trace.pass_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return metrics


def trace_signature(tracer):
    """The work counts that must repeat exactly for the same inputs."""
    calls = {name: rec[0] for name, rec in tracer.spans.items()}
    return calls, dict(tracer.counts), dict(tracer.edges)


def main(argv=None):
    parser = argparse.ArgumentParser(description="varwit benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    varwit = import_cli()
    shutil.rmtree(WORK, ignore_errors=True)
    work = WORK / args.workload
    workload = WORKLOADS[args.workload](args.seed, str(work))
    speed = None if args.trace else HostSpeed()
    raw_setup_s, setup_s = measure_setup(speed) if speed else (None, None)

    for op in workload.warmup:
        run_op(varwit, op)

    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    tracers, traced_walls, untraced_walls, steps = [], [], [], []
    while True:
        # every pass runs the same inputs, so every traced pass must count the same work
        start = time.perf_counter()
        untraced_walls.append(tally.run_pass(varwit, workload.ops, speed=speed))
        if args.trace:
            tracers.append(Tracer())
            traced_walls.append(tally.run_pass(varwit, workload.ops, tracers[-1]))
        steps.append(time.perf_counter() - start)  # commands, probes and checks
        if time.perf_counter() + statistics.median(steps) > deadline:
            break

    if args.trace:
        if any(trace_signature(t) != trace_signature(tracers[0]) for t in tracers[1:]):
            tally.failures.append("traced passes over the same inputs counted different work")
        metrics = layer_metrics(tracers, traced_walls, untraced_walls)
        units = per_layer_units()
    else:
        metrics = tally.end_to_end()
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} passes={len(untraced_walls)}")
    extras = tally.extras()
    if raw_setup_s is not None:
        extras["raw_setup_s"] = (raw_setup_s, "s", "not rescaled")
    for name, (value, unit, note) in extras.items():
        print(f"  {name:44s} {value:.6g} {unit}  {note}")
    for name in units:
        print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")
    for failure in tally.failures[:20]:
        print(f"perfbench: wrong output: {failure}", file=sys.stderr)

    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
