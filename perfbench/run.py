"""End-to-end and per-layer benchmark of the rjpascal command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Every command runs as ``python -m rjpascal ...`` in a fresh process with
``src`` on PYTHONPATH, one at a time: a closed loop with a single client,
so the program's caches start cold as they do for a user.  Each output is
checked against answers computed here (see workloads.py); checking is
never timed.

``--trace 0`` repeats the workload's command list for about ``--seconds``
and prints the end-to-end metrics as medians over the repetitions.
Before each command it also takes a set-up sample (``show-r --n 1``) and
runs calibrate.py, fixed work that uses no code of rjpascal.  On a shared
host the same command can run 1.5 times slower for minutes at a time, so
every reported time is scaled to a reference host speed: each pass's wall
times are multiplied by CALIBRATION_REF_S over the pass's median
calibration wall time, and its CPU time likewise with CPU times.  Only
the host can change these factors.  The detail line gives them with the
raw times.

``--trace 1`` runs the list once untraced and twice under tracer.py, which
wraps each layer's public functions from outside the package; it prints
the per-layer metrics, requires their counts to repeat exactly between
the two traced runs, and requires every boundary to run on exactly the
workloads meant to exercise it.  ``--quick`` shrinks every input for a
smoke test; its numbers mean nothing.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it describes
the environment and the raw samples.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (SETUP_ARGV, WORKLOADS, Command, Workload, check_calibration,
                       check_setup)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
#: Every run ends well inside the 180 s a run is allowed.
HARD_LIMIT_S = 170.0
TRACED_REPS = 2
SETUP = Command(SETUP_ARGV, check_setup)
CALIBRATION = Command((), check_calibration, program=(str(HERE / "calibrate.py"),))
#: Wall and CPU time of calibrate.py, spawn to reap, at the reference host
#: speed: their medians on the 2-vCPU host (CPython 3.11) where the
#: benchmark was defined.
CALIBRATION_REF_S = 0.22
CALIBRATION_REF_CPU_S = 0.21

#: metric -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),          # the whole command list, as a user waits
    "cpu_s": ("s", "lower"),           # user + sys of the children, from os.wait4
    "slowest_cmd_s": ("s", "lower"),   # the longest wait for a single verdict
    "peak_rss_mb": ("MB", "lower"),    # highest ru_maxrss of any child
    "setup_s": ("s", "lower"),         # median `show-r --n 1`, one before each command
}
PER_LAYER = {
    "ring.elem_mul.count": ("count", "lower"),
    "ring.elem_mul.self_s": ("s", "lower"),
    "ring.poly_mul.count": ("count", "lower"),
    "ring.poly_mul.self_s": ("s", "lower"),
    "ring.poly_mul.max_degree": ("degree", "lower"),
    "ring.poly_add.self_s": ("s", "lower"),
    "ring.a_pow.calls": ("count", "lower"),
    "ring.a_pow.self_s": ("s", "lower"),
    "ring.a_pow.hit_ratio": ("ratio", "higher"),
    "ring.specialize.count": ("count", "lower"),
    "ring.specialize.self_s": ("s", "lower"),
    "ring.divide_exact.self_s": ("s", "lower"),
    "pascal.build.count": ("count", "lower"),
    "pascal.build.self_s": ("s", "lower"),
    "pascal.ring_matmul.count": ("count", "lower"),
    "pascal.ring_matmul.self_s": ("s", "lower"),
    "pascal.ring_matmul.max_coeff_bits": ("bit", "lower"),
    "pascal.int_matmul.self_s": ("s", "lower"),
    "pascal.det.count": ("count", "lower"),
    "pascal.det.self_s": ("s", "lower"),
    "pascal.inverse.self_s": ("s", "lower"),
    "spectral.eigen.self_s": ("s", "lower"),
    "spectral.involution.self_s": ("s", "lower"),
    "spectral.closed_form.self_s": ("s", "lower"),
    "spectral.oracle.self_s": ("s", "lower"),
    "spectral.diag_numeric.self_s": ("s", "lower"),
    "binomial.binom.count": ("count", "lower"),
    "binomial.binom.self_s": ("s", "lower"),
    "binomial.sweep.self_s": ("s", "lower"),
    "binomial.sweep.cases_per_s": ("1/s", "higher"),
    "binomial.sweep.skipped_ratio": ("ratio", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

MEMORY_NOTE = ("peak_rss_mb is each child's own ru_maxrss from os.wait4, "
               "with no cgroup or /proc tuning")


class OutOfTime(Exception):
    """The run reached HARD_LIMIT_S; measuring stops."""


@dataclass
class CmdRun:
    wall: float
    cpu: float
    rss_kb: int
    out_bytes: int
    trace: dict | None


@dataclass
class Rep:
    """One pass over a workload's command list, with the set-up samples and
    calibration runs taken between its commands."""

    wall: float
    runs: list[CmdRun]
    setup: list[float]
    calibration: list[CmdRun]


class Runner:
    """Spawns commands one at a time, measures each and checks its output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._pid = None

    def kill(self, *_):
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
            except ProcessLookupError:  # already reaped
                pass

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def run(self, cmd: Command, trace_id: str | None = None) -> CmdRun:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise OutOfTime
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        trace_path = self.workdir / "trace.json"
        if trace_id is None:
            argv = [sys.executable, *cmd.program, *cmd.argv]
        else:
            argv = [sys.executable, str(TRACER), str(trace_path), trace_id, "--", *cmd.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            t0 = time.perf_counter()
            self._pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, remaining)  # SIGALRM kills the child
            try:
                _, status, usage = os.wait4(self._pid, 0)
                self._pid = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if self._pid is not None:  # interrupted: stop the child, then reap it
                    self.kill()
                    os.waitpid(self._pid, 0)
                    self._pid = None
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        data = out_path.read_bytes()
        text = data.decode()
        self.attempted += 1
        try:
            error = cmd.check(code, text)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is not None:
            self.failed += 1
            stderr_tail = err_path.read_text()[-400:]
            self.fail(f"{' '.join(cmd.program + cmd.argv)}: {error} {stderr_tail}".rstrip())
        if code == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise OutOfTime
        trace = json.loads(trace_path.read_text()) if trace_id and error is None else None
        return CmdRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, len(data), trace)

    def rep(self, cmds: list[Command], traced: str | None = None,
            probes: bool = False) -> Rep:
        """One pass over ``cmds``.  With ``probes``, a set-up sample and a
        calibration run come before each command, so that both span the
        same stretch of time, and the same host load, as the commands."""
        runs, setup, calibration = [], [], []
        for i, cmd in enumerate(cmds):
            if probes:
                setup.append(self.run(SETUP).wall)
                calibration.append(self.run(CALIBRATION))
            runs.append(self.run(cmd, f"{traced}/{i}" if traced else None))
        # spawn-to-reap times only: the output checks between commands are not timed
        return Rep(sum(c.wall for c in runs), runs, setup, calibration)


# ------------------------------------------------------------- metrics

def speed_factors(rep: Rep) -> tuple[float, float]:
    """Scale a pass's wall and CPU times to the reference host speed.

    They differ: time the host gives to other guests stretches wall time
    but not CPU time.
    """
    med = statistics.median
    return (CALIBRATION_REF_S / med(c.wall for c in rep.calibration),
            CALIBRATION_REF_CPU_S / med(c.cpu for c in rep.calibration))


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Medians over the passes, each pass's times scaled by its speed factor.

    The host's speed can change between passes of one run, so a factor per
    pass follows it more closely than one factor for the whole run.
    """
    med = statistics.median
    scaled = [(r, *speed_factors(r)) for r in reps]
    return {
        "wall_s": med(r.wall * k for r, k, _ in scaled),
        "cpu_s": med(sum(c.cpu for c in r.runs) * k for r, _, k in scaled),
        "slowest_cmd_s": med(max(c.wall for c in r.runs) * k for r, k, _ in scaled),
        "peak_rss_mb": med(max(c.rss_kb for c in r.runs) / 1024 for r in reps),
        "setup_s": med(s * k for r, k, _ in scaled for s in r.setup),
    }


def merged_trace(rep: Rep) -> tuple[dict[str, list], dict[str, int]]:
    """Boundary stats summed over a rep's commands, and the exact counts."""
    stats: dict[str, list] = {}
    extra: dict[str, int] = {}
    for run in rep.runs:
        for name, (count, self_s, total_s) in run.trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += self_s
            acc[2] += total_s
        for key, value in run.trace["extra"].items():
            extra[key] = max(extra.get(key, 0), value) if ".max_" in key else extra.get(key, 0) + value
    counts = {f"{name}.count": s[0] for name, s in stats.items()}
    counts.update(extra)
    counts["output_bytes"] = sum(c.out_bytes for c in rep.runs)
    return stats, counts


def layer_metrics(rep: Rep) -> dict[str, float]:
    stats, counts = merged_trace(rep)

    def count(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind in ("count", "calls"):
            out[metric] = count(layer)
        elif kind == "self_s":
            out[metric] = self_s(layer)
    out.update({
        "ring.poly_mul.max_degree": counts["poly_mul.max_degree"],
        "ring.a_pow.hit_ratio": ratio(counts["a_pow.repeats"], count("ring.a_pow")),
        "pascal.ring_matmul.max_coeff_bits": counts["ring_matmul.max_coeff_bits"],
        "binomial.sweep.cases_per_s": ratio(counts["sweep.cases"], stats["binomial.sweep"][2]),
        "binomial.sweep.skipped_ratio": ratio(counts["sweep.skipped"], counts["sweep.cases"]),
        "cli.import_s": statistics.median(c.trace["import_s"] for c in rep.runs),
        "cli.emit_s": stats["cli.emit"][2],
        "cli.output_bytes": counts["output_bytes"],
    })
    return out


# ------------------------------------------------------------- running

def measure(workload: Workload, cmds: list[Command], runner: Runner,
            seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the metrics and the raw samples behind them."""
    runner.run(SETUP)  # warm-up: byte-compiles the package once
    if not trace:
        end = time.perf_counter() + seconds
        reps = []
        while True:
            t0 = time.perf_counter()
            reps.append(runner.rep(cmds, probes=True))
            # start another pass only if its midpoint should fall inside the
            # window, so that runs last about ``seconds`` on average
            now = time.perf_counter()
            if now + (now - t0) / 2 > end:
                break
        samples = {"speed_factors": [speed_factors(r) for r in reps],
                   "calibration_s": [[(c.wall, c.cpu) for c in r.calibration] for r in reps],
                   "setup_s": [r.setup for r in reps], "rep_wall_s": [r.wall for r in reps],
                   "cmd_wall_s": [[c.wall for c in r.runs] for r in reps]}
        return end_to_end(reps), samples

    untraced = runner.rep(cmds)
    traced = [runner.rep(cmds, traced=f"{workload.name}/{k}") for k in range(TRACED_REPS)]
    if runner.failed:
        return {}, {}
    per_rep = [layer_metrics(r) for r in traced]
    metrics = {m: statistics.median(p[m] for p in per_rep) for m in per_rep[0]}
    metrics["trace.overhead_ratio"] = statistics.median(r.wall for r in traced) / untraced.wall

    stats, counts = merged_trace(traced[0])
    for other in traced[1:]:
        diff = {k for k, v in merged_trace(other)[1].items() if counts.get(k) != v}
        if diff:
            runner.fail(f"counts differ between traced runs: {sorted(diff)}")
    ran = {name for name, s in stats.items() if s[0]}
    if ran != workload.exercised:
        runner.fail(f"boundaries run {sorted(ran - workload.exercised)} should be bypassed, "
                    f"{sorted(workload.exercised - ran)} should run")
    spans = {run.trace["trace_id"]: run.trace["spans"] for run in traced[0].runs}
    samples = {"untraced_wall_s": untraced.wall, "traced_wall_s": [r.wall for r in traced],
               "counts": counts, "spans_file": write_spans(workload.name, spans)}
    return metrics, samples


def write_spans(name: str, spans: dict) -> str:
    path = ROOT / ".perfbench" / f"spans-{name}.json"
    path.write_text(json.dumps(spans))
    return str(path.relative_to(ROOT))


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=dict(os.environ, GIT_DIR=str(git_dir)), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args, commands: dict[str, list[list[str]]]) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "loop": "closed, one client, one fresh process per command",
        "memory": MEMORY_NOTE,
        "commands": commands,
    }


def run_one(workload: Workload, args, trace: bool) -> dict:
    cmds = workload.make(random.Random(f"{workload.name}:{args.seed}"), args.quick)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        runner = Runner(Path(tmp), time.monotonic() + HARD_LIMIT_S)
        signal.signal(signal.SIGALRM, runner.kill)
        metrics, samples = {}, {}
        try:
            metrics, samples = measure(workload, cmds, runner, args.seconds, trace)
        except OutOfTime:
            runner.fail(f"stopped at the {HARD_LIMIT_S:.0f} s limit")
    units = {m: unit for m, (unit, _) in (PER_LAYER if trace else END_TO_END).items()}
    correct = not runner.errors and set(metrics) == set(units)
    print(json.dumps({"env": environment(args, {workload.name: [list(c.argv) for c in cmds]}),
                      "workload": workload.name, "trace": int(trace),
                      "fail_ratio": runner.failed / max(runner.attempted, 1),
                      "errors": runner.errors, "samples": samples}))
    return {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: checks correctness and schema only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rjpascal" / "__main__.py").is_file():
        print(f"perfbench: no rjpascal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    print(json.dumps(run_one(workload, args, args.trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
