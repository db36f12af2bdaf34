"""Benchmark of whole `loravg` CLI commands on seeded, generated inputs.

    python3 bench/run.py --workload {sweep,large-line} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports `loravg` from
`src/` only and exits with code 2 when that tree is missing.

--trace 0 (end to end): a closed loop with one client.  Each command of the
workload is a fresh `python -m loravg.cli` process, started only after the
previous one exits.  The workload's command sequence repeats while the
next repetition would end within --seconds.  Reports the median over
repetitions of
  wall_s       wall time of the whole command sequence,
  setup_s      time a fresh process takes to import loravg and build the
               workload's space from its JSON, SETUP_PER_REP per repetition,
  peak_rss_mb  highest peak RSS (os.wait4 rusage) of any command process.

--trace 1 (per layer): the same commands in this process through
`loravg.cli.dispatch`, alternately untraced and traced with `spans.Tracer`,
until the next pair would end past --seconds.  Reports per-layer calls,
counts and self times of the traced pass, and trace.overhead_s.

Every command's output is checked against independent answers
(`oracle.py`) and against the first repetition's bytes.  Earlier lines of
stdout carry the environment record and run details; the last line is the
result object.  BLAS/OpenMP threads are capped at the number of usable CPUs.
"""

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PER_REP = 2
COMMAND_TIMEOUT_S = 120.0
SETUP_CODE = ("import json, sys\nimport loravg\n"
              "loravg.build_space(json.load(open(sys.argv[1])))\n")
IMPORT_CODE = ("import time\nt = time.perf_counter()\nimport loravg.cli\n"
               "print(time.perf_counter() - t)\n")


def _child_env(tmp: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


class Spawner:
    """Client of spawner.py, which runs each measured command and reports
    its exit code, wall time, peak RSS and CPU time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], stdout: Path | str, stderr: Path | str) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "cwd": str(ROOT), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited early")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


def run_sequence(spawner: Spawner, cmds: list[list[str]], tmp: Path):
    """Each command as a fresh CLI process, one after another; returns
    (wall seconds, spawner replies, outcomes).  Outputs are read back
    after the last command exits."""
    paths = [(tmp / f"stdout-{i}", tmp / f"stderr-{i}") for i in range(len(cmds))]
    start = time.perf_counter()
    replies = [spawner.run([sys.executable, "-m", "loravg.cli", *argv], out, err)
               for argv, (out, err) in zip(cmds, paths)]
    wall = time.perf_counter() - start
    outcomes = [oracle.Outcome(argv, reply["exit"], out.read_text(errors="replace"),
                               err.read_text(errors="replace"))
                for argv, reply, (out, err) in zip(cmds, replies, paths)]
    return wall, replies, outcomes


def measure_setup(spawner: Spawner, spec_file: Path) -> float:
    """Wall time of one fresh process that imports loravg and builds the space."""
    reply = spawner.run([sys.executable, "-c", SETUP_CODE, str(spec_file)],
                        os.devnull, os.devnull)
    if reply["exit"] != 0:
        raise RuntimeError(f"set-up process failed with exit code {reply['exit']}")
    return reply["wall_s"]


def measure_import(env: dict) -> float:
    """Median of three fresh `import loravg.cli` times, timed inside the child."""
    times = []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
                             check=True)
        times.append(float(res.stdout))
    return statistics.median(times)


class Checker:
    """Counts commands attempted and failed; a command fails when the oracle
    rejects it or its stdout differs from the first run of the same command."""

    def __init__(self, workload: str, expected: dict):
        self.workload = workload
        self.expected = expected
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, index: int, outcome: oracle.Outcome) -> None:
        self.attempted += 1
        problems = oracle.check(self.workload, outcome, self.expected)
        if self.first.setdefault(index, outcome.stdout) != outcome.stdout:
            problems.append("stdout differs from the first run of this command")
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(outcome.argv[:3])}: {'; '.join(problems)}")


def end_to_end(cmds, checker: Checker, tmp: Path, spawner: Spawner, seconds: float,
               setup_file: Path) -> tuple[dict, dict]:
    """Repeat the command sequence while the next repetition, expected to
    last as long as the previous one, ends within --seconds.  Set-up
    samples are taken before every repetition, so both metrics see the
    same stretch of time; one untimed set-up first fills the bytecode cache."""
    measure_setup(spawner, setup_file)
    walls, rss, cpu, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        setup += [measure_setup(spawner, setup_file) for _ in range(SETUP_PER_REP)]
        wall, replies, outcomes = run_sequence(spawner, cmds, tmp)
        walls.append(wall)
        rss.append(max(reply["maxrss_kb"] for reply in replies) / 1024.0)
        cpu.append(sum(reply["cpu_s"] for reply in replies))
        for i, outcome in enumerate(outcomes):
            checker(i, outcome)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    details = {"repetitions": len(walls), "wall_s": walls, "cpu_s": cpu, "setup_s": setup,
               "peak_rss_mb": rss}
    return metrics, details


def in_process_pass(cmds, checker: Checker, tracer: spans.Tracer | None):
    """All commands through loravg.cli.dispatch; (wall seconds, RuntimeWarnings)."""
    import loravg.cli

    restore = tracer.install() if tracer else None
    runtime_warnings = 0
    outcomes = []
    try:
        start = time.perf_counter()
        for argv in cmds:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # A fresh filter state per command shows each warning once per
                # location, as a new process would.
                warnings.simplefilter("default")
                code = loravg.cli.dispatch(argv)
            runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            outcomes.append(oracle.Outcome(argv, code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        if restore:
            restore()
    for i, outcome in enumerate(outcomes):
        checker(i, outcome)
    return wall, runtime_warnings


def layer_metrics(summary: dict, import_s: float, overhead_s: float, commands: int,
                  runtime_warnings: int) -> dict:
    spans_, counts, layers = summary["spans"], summary["counts"], summary["layers"]

    def span(name, key):
        return spans_.get(name, {}).get(key, 0)

    norm_calls = span("norms.lorentz_norm", "calls")
    values = {
        "norms.lorentz_norm.calls": (norm_calls, "count"),
        "norms.lorentz_norm.self_s": (span("norms.lorentz_norm", "self_s"), "s"),
        "norms.lorentz_norm.total_s": (span("norms.lorentz_norm", "total_s"), "s"),
        "norms.atoms_per_call": (counts.get("norms.atoms", 0) / norm_calls
                                 if norm_calls else 0.0, "atoms"),
        "norms.quad_path.calls": (counts.get("norms.quad_path.calls", 0), "count"),
        "compactness.norm_distance.calls": (span("compactness.norm_distance", "calls"),
                                            "count"),
        "compactness.witness_sequence.self_s": (span("compactness.witness_sequence",
                                                     "self_s"), "s"),
        "compactness.sample_unit_sphere.self_s": (span("compactness.sample_unit_sphere",
                                                       "self_s"), "s"),
        "rearrange.rearrangement.calls": (span("rearrange.rearrangement", "calls"), "count"),
        "rearrange.maximal_profile.calls": (span("rearrange.maximal_profile", "calls"),
                                            "count"),
        "averaging.distribution_constant.calls": (span("averaging.distribution_constant",
                                                       "calls"), "count"),
        "averaging.distribution_constant.self_s": (span("averaging.distribution_constant",
                                                        "self_s"), "s"),
        "averaging.kernel_build.calls": (span("averaging.kernel_build", "calls"), "count"),
        "averaging.kernel_build.self_s": (span("averaging.kernel_build", "self_s"), "s"),
        "averaging.thresholds": (counts.get("averaging.thresholds", 0), "count"),
        "space.ball_measures.calls": (span("space.ball_measures", "calls"), "count"),
        "space.ball_measures.self_s": (span("space.ball_measures", "self_s"), "s"),
        "space.ball_mask.calls": (span("space.ball_mask", "calls"), "count"),
        "space.doubling_constant.calls": (span("space.doubling_constant", "calls"), "count"),
        "space.validate_metric.self_s": (span("space.validate_metric", "self_s"), "s"),
        "space.validate_metric.atoms": (counts.get("space.validate_metric.atoms", 0),
                                        "count"),
        "space.from_cloud.self_s": (span("space.from_cloud", "self_s"), "s"),
        "space.build_space.self_s": (span("space.build_space", "self_s"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.commands": (commands, "count"),
        "cli.warnings": (runtime_warnings, "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.wall_s": (summary["wall_s"], "s"),
        "trace.coverage": (summary["covered_s"] / summary["wall_s"], "share"),
    }
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = (layers.get(layer, {}).get("calls", 0), "count")
        values[f"{layer}.self_s"] = (layers.get(layer, {}).get("self_s", 0.0), "s")
    return values


def per_layer(cmds, checker: Checker, env: dict, seconds: float, trace_file: Path):
    sys.path.insert(0, str(SRC))
    import loravg

    if not Path(loravg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"loravg imported from {loravg.__file__}, not from {SRC}")
    import_s = measure_import(env)
    import loravg.cli  # noqa: F401  (imports stay outside the timed passes,
    import scipy.integrate  # noqa: F401  including quad's lazy import)
    samples, details = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        tracer = spans.Tracer()
        warned = []
        order = (None, tracer) if len(samples) % 2 == 0 else (tracer, None)
        walls = {}
        for t in order:
            wall, count = in_process_pass(cmds, checker, t)
            walls["traced" if t else "untraced"] = wall
            if t:
                warned.append(count)
        summary = tracer.summary(walls["traced"])
        samples.append(layer_metrics(summary, import_s, walls["traced"] - walls["untraced"],
                                     len(cmds), warned[0]))
        details.append({"untraced_wall_s": walls["untraced"], "traced_wall_s": walls["traced"],
                        "spans": len(tracer.names), "self_sum_s": summary["self_sum_s"],
                        "by_name": summary["spans"]})
        pair_time = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair_time > seconds:
            break
    tracer.write(trace_file)
    metrics = {name: {"value": statistics.median(s[name][0] for s in samples),
                      "unit": unit}
               for name, (_, unit) in samples[0].items()}
    return metrics, {"pairs": details, "trace_file": str(trace_file.relative_to(ROOT))}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_thread_cap": NPROC,
            "thread_env": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "loravg" / "cli.py").is_file():
        print(f"error: no loravg source tree at {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        files = wl.generate(args.workload, args.seed, tmp / "inputs")
        cmds = wl.commands(args.workload, files, args.seed)
        checker = Checker(args.workload, oracle.expected(args.workload, files, args.seed))
        env = _child_env(tmp)
        if args.trace:
            metrics, details = per_layer(cmds, checker, env, args.seconds,
                                         WORK / f"trace-{args.workload}.jsonl")
        else:
            spawner = Spawner(env)
            try:
                metrics, details = end_to_end(cmds, checker, tmp, spawner, args.seconds,
                                              files["space"])
            finally:
                spawner.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workload = wl.WORKLOADS[args.workload]
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "environment": environment(),
        "workload": {"name": workload.name, "why": workload.why, "sizes": workload.sizes,
                     "commands": [["loravg", *argv] for argv in cmds],
                     "loop": "closed, one client"},
        "failed_frac": checker.failed / checker.attempted,
        "details": details,
    }))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
