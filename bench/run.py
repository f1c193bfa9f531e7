"""Benchmark of becnlo: end-to-end timings and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory, and becnlo
is imported from its src/.  Workloads (see README.md for why each exists):

    cli_closed_form  the closed-form subcommands, each as a fresh process
    param_scan       seeded random scenarios through the closed forms, in one process
    host_oracle      `becnlo oracle` as a fresh process
    stored_oracle    `becnlo oracle --stored` and `--stored --idealized`

Each run repeats whole rounds of its workload's operations until S seconds
have passed, one process at a time, and checks every output (checks.py).
With --trace 0 it reports the end-to-end metrics; with --trace 1 the same
rounds run with spans recorded around becnlo's public functions, followed by
one round of every other workload and a host solve at three grid sizes, and
it reports the per-layer metrics.  The last line of stdout is the result as
JSON; result and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import add_self_times, parse_importtime
from worker import SWEEP_POINTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# Fresh `import becnlo` + input builds per run, half before and half after the
# measured loop so that they span the run; their median is setup_s.
SETUP_REPEATS = 8
PROBE_LOOPS = 200_000  # fixed pure-Python loop that shows the CPU's speed state
OP_TIMEOUT_S = 60  # an operation takes at most ~7 s; a hung one must not outlast the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cli_rounds(tmp: Path) -> dict:
    """Operations of one round of each fresh-process workload."""
    figures = [["figures", "--fig", str(fig), "--out", str(tmp / f"fig{fig}.csv")] for fig in (2, 3, 4)]
    return {
        "cli_closed_form": [
            ["units"],
            ["phase", "--n", "2", "--time", "1505.4"],
            ["gate", "--amps", "1,1,1"],
            ["lifetime"],
            ["validity"],
            *figures,
        ],
        "host_oracle": [["oracle"]],
        "stored_oracle": [["oracle", "--stored"], ["oracle", "--stored", "--idealized"]],
    }


WORKLOADS = ("cli_closed_form", "param_scan", "host_oracle", "stored_oracle")

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
CLI_SUBCOMMANDS = ("units", "phase", "gate", "lifetime", "validity", "figures")
SCAN_TIMES = (
    "params.derive_scales",
    "host_tf.tf_density",
    "lifetime.estimate_lifetime",
    "validity.validity_report",
    "validity.figure_data",
    "stored_mode.gate",
)
SCAN_COUNTS = ("params.derive_scales", "host_tf.tf_density", "grids.radial_integral")
ORACLE_LABELS = {"host": "gpe.host", "stored": "gpe.stored", "stored_idealized": "gpe.stored_idealized"}
SOLVE = "gpe.solve_ground_state"


def per_layer_units() -> dict:
    units = {"import.scipy_s": "s", "import.becnlo_self_s": "s"}
    units.update({f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS})
    units.update({f"{name}_s": "s" for name in SCAN_TIMES})
    units.update({f"{name}.calls_per_op": "count" for name in SCAN_COUNTS})
    for prefix in ORACLE_LABELS.values():
        units[f"{prefix}.iterations"] = "count"
        units[f"{prefix}.iter_us"] = "us"
    units["gpe.compare_tf_vs_gpe.self_s"] = "s"
    for n in SWEEP_POINTS:
        units[f"gpe.iter_us.n{n}"] = "us"
        units[f"gpe.iterations.n{n}"] = "count"
    units["trace.op_s"] = "s"
    return units


def child_env() -> dict:
    """Fixed environment: becnlo from this checkout, no BECNLO_GRID_POINTS.

    Nothing else is inherited but PATH and the BLAS/OpenMP thread settings,
    which are recorded with the result.
    """
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }
    env.update({k: os.environ[k] for k in THREAD_VARS if k in os.environ})
    return env


def label_of(command: list) -> str:
    if command[0] != "oracle":
        return command[0]
    if "--stored" not in command:
        return "host"
    return "stored_idealized" if "--idealized" in command else "stored"


class Run:
    """One benchmark run: counts, problems and traced operations."""

    def __init__(self, seed: int, traced: bool, tmp: Path):
        self.seed = seed
        self.traced = traced
        self.tmp = tmp
        self.env = child_env()
        self.rounds = cli_rounds(tmp)
        self.counts = {w: {"attempted": 0, "failed": 0} for w in WORKLOADS}
        self.problems = []  # failed checks on operations that completed
        self.failures = []  # operations that did not complete
        self.traced_ops = []  # {"workload", "label", "n_ops", "spans", "imports"}
        self.round_times = {}  # workload -> per round, per operation: [op seconds or None, with check]

    def _python(self, args, timeout=OP_TIMEOUT_S):
        prefix = [sys.executable, "-X", "importtime"] if self.traced else [sys.executable]
        t0 = time.perf_counter()
        proc = subprocess.run(
            prefix + args, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
        return proc, time.perf_counter() - t0

    def _record(self, workload, label, spans_path, stderr, n_ops=1):
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        self.traced_ops.append({
            "workload": workload,
            "label": label,
            "n_ops": n_ops,
            "spans": add_self_times(spans),
            "imports": parse_importtime(stderr),
        })

    def setup_seconds(self, workload: str, repeats: int) -> list:
        times = []
        for _ in range(repeats):
            proc, seconds = self._python([str(WORKER), "setup", workload, str(self.seed)])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
            times.append(seconds)
        return times

    def cli_op(self, workload: str, command: list):
        """One fresh `becnlo` process; its wall time, or None if it failed."""
        count = self.counts[workload]
        count["attempted"] += 1
        if self.traced:
            spans_path = self.tmp / f"spans-{len(self.traced_ops)}.json"
            args = [str(WORKER), "cli", str(spans_path), *command]
        else:
            args = ["-m", "becnlo.cli", *command]
        try:
            proc, seconds = self._python(args)
        except subprocess.TimeoutExpired:
            count["failed"] += 1
            self.failures.append(f"becnlo {' '.join(command)}: timed out after {OP_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            count["failed"] += 1
            self.failures.append(f"becnlo {' '.join(command)}: exit {proc.returncode}: {proc.stderr[-400:]}")
            return None
        files = {}
        if "--out" in command:
            out = Path(command[command.index("--out") + 1])
            files[str(out)] = out.read_text(encoding="utf-8")
            out.unlink()
        found = checks.check_cli_output(command, proc.stdout, checks.SODIUM, files)
        self.problems += [f"becnlo {' '.join(command)}: {msg}" for msg in found]
        if self.traced:
            self._record(workload, label_of(command), spans_path, proc.stderr)
        return seconds

    def scan(self, seconds: float) -> dict:
        spans_path = self.tmp / "spans-scan.json"
        args = [str(WORKER), "scan", str(self.seed), repr(seconds)]
        if self.traced:
            args.append(str(spans_path))
        proc, _ = self._python(args, timeout=seconds + OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"param_scan worker failed with exit {proc.returncode}: {proc.stderr[-400:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        count = self.counts["param_scan"]
        count["attempted"] += result["attempted"]
        count["failed"] += result["failed"]
        self.problems += result["problems"]
        if result["n_problems"] > len(result["problems"]):
            self.problems.append(f"param_scan: {result['n_problems'] - len(result['problems'])} more problems")
        if self.traced:
            self._record("param_scan", "scan", spans_path, proc.stderr, result["traced_ops"])
        return result

    def measure(self, workload: str, seconds: float) -> dict:
        """Whole rounds of the workload until `seconds` have passed."""
        if workload == "param_scan":
            rounds = self.scan(seconds)["rounds"]
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                times = []
                for command in self.rounds[workload]:
                    t0 = time.perf_counter()
                    seconds_op = self.cli_op(workload, command)
                    times.append([seconds_op, time.perf_counter() - t0])
                rounds.append(times)
                if time.perf_counter() - start >= seconds:
                    break
        self.round_times[workload] = rounds
        return summarize(workload, rounds)

    def sweep(self):
        """Host solves at three grid sizes, traced and checked."""
        count = self.counts["host_oracle"]
        count["attempted"] += len(SWEEP_POINTS)
        spans_path = self.tmp / "spans-sweep.json"
        proc, _ = self._python([str(WORKER), "sweep", str(spans_path)])
        if proc.returncode != 0:
            count["failed"] += len(SWEEP_POINTS)
            self.failures.append(f"grid sweep: exit {proc.returncode}: {proc.stderr[-400:]}")
            return
        for n, report in json.loads(proc.stdout).items():
            self.problems += [f"host oracle at {n} points: {msg}" for msg in checks.check_host_oracle(report, checks.SODIUM)]
        self._record("host_oracle", "sweep", spans_path, proc.stderr, len(SWEEP_POINTS))


def summarize(workload: str, rounds: list) -> dict:
    """op_s and ops_per_s of a run from its operation times.

    `rounds` holds, per round and per operation of the round, [seconds in
    the operation or None if it failed, seconds including its check].  op_s
    is the mean over completed operations, ops_per_s the completed
    operations over the loop's time.  Means, not medians or minima: the CPU
    of the reference machine switches between speeds up to 2x apart for
    seconds to minutes at a time, and over ten runs the mean spread least
    (see README.md).
    """
    ops = [op for ops_of_round in rounds for op, _ in ops_of_round if op is not None]
    if not ops:
        raise RuntimeError(f"{workload}: every operation failed")
    loop_s = sum(slot for ops_of_round in rounds for _, slot in ops_of_round)
    return {"op_s": statistics.fmean(ops), "ops_per_s": len(ops) / loop_s}


def _spans_named(op, name):
    return [s for s in op["spans"] if s["name"] == name]


def _inside(span, outer):
    return outer["start"] <= span["start"] and span["end"] <= outer["end"]


def layer_metrics(ops: list) -> dict:
    """Per-layer numbers from the traced operations (see README.md)."""
    values = {
        "import.scipy_s": statistics.median([op["imports"]["scipy_s"] for op in ops]),
        "import.becnlo_self_s": statistics.median([op["imports"]["becnlo_self_s"] for op in ops]),
    }
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}_s"] = statistics.median([
            s["end"] - s["start"]
            for op in ops if op["workload"] == "cli_closed_form" and op["label"] == sub
            for s in _spans_named(op, "cli.main")
        ])
    scans = [op for op in ops if op["label"] == "scan"]
    n_scan = sum(op["n_ops"] for op in scans)
    for name in SCAN_TIMES:
        total = sum(s["end"] - s["start"] for op in scans for s in _spans_named(op, name))
        values[f"{name}_s"] = total / n_scan
    for name in SCAN_COUNTS:
        calls = sum(len(_spans_named(op, name)) for op in scans)
        values[f"{name}.calls_per_op"] = calls / n_scan

    for label, prefix in ORACLE_LABELS.items():
        solves = [s for op in ops if op["label"] == label for s in _spans_named(op, SOLVE)]
        values[f"{prefix}.iterations"] = statistics.median([s["iterations"] for s in solves])
        values[f"{prefix}.iter_us"] = statistics.median([1e6 * (s["end"] - s["start"]) / s["iterations"] for s in solves])
    values["gpe.compare_tf_vs_gpe.self_s"] = statistics.median([
        s["self"] for op in ops if op["label"] == "host" for s in _spans_named(op, "gpe.compare_tf_vs_gpe")
    ])
    for op in (op for op in ops if op["label"] == "sweep"):
        for n in SWEEP_POINTS:
            for outer in _spans_named(op, f"sweep.n{n}"):
                solve = next(s for s in _spans_named(op, SOLVE) if _inside(s, outer))
                values[f"gpe.iter_us.n{n}"] = 1e6 * (solve["end"] - solve["start"]) / solve["iterations"]
                values[f"gpe.iterations.n{n}"] = solve["iterations"]
    return values


def package_version(name: str):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over src/becnlo/*.py, which names the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "becnlo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def speed_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop, in ms.

    Taken at the start and the end of every run, it tells runs made while
    the CPU was in a slow state from runs made while it was fast.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for k in range(PROBE_LOOPS):
            total += k
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "started_unix": time.time(),
        "speed_probe_ms": {"start": speed_probe_ms()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "becnlo" / "__init__.py").is_file():
        print(f"error: no becnlo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = metadata(args)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    run = Run(args.seed, bool(args.trace), tmp)
    try:
        if not args.trace:
            setups = run.setup_seconds(args.workload, SETUP_REPEATS // 2)
            measured = run.measure(args.workload, args.seconds)
            setups += run.setup_seconds(args.workload, SETUP_REPEATS - SETUP_REPEATS // 2)
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            values = {"setup_s": statistics.median(setups), **measured, "peak_rss_mb": rss_mb}
            units = END_TO_END_UNITS
        else:
            measured = run.measure(args.workload, args.seconds)
            for other in WORKLOADS:
                if other != args.workload:
                    run.measure(other, 0.0)
            run.sweep()
            values = {**layer_metrics(run.traced_ops), "trace.op_s": measured["op_s"]}
            units = per_layer_units()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(c["attempted"] for c in run.counts.values())
    failed = sum(c["failed"] for c in run.counts.values())
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta["counts"] = run.counts
    meta["speed_probe_ms"]["end"] = speed_probe_ms()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "rounds": run.round_times, "failures": run.failures, "problems": run.problems}, fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(run.traced_ops, fh)
    for failure in run.failures[:20]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
