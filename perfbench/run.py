"""loqsim benchmark: seeded CLI workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload fock_full --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported
from ``src/`` of the checkout this file sits in.  Each pass runs the
workload's cases in a fresh single-threaded worker process (see
worker.py), so per-process caches start cold as they do for a CLI user.

--trace 0  Passes repeat while one more still ends within --seconds.
           The result holds the end-to-end metrics of BENCHMARK.json: work
           units per second of program CPU time (each case's 90th
           percentile over the passes), interpreter set-up CPU time
           (median over several fresh starts) and peak RSS.
--trace 1  Untraced and traced passes, interleaved, until --seconds have
           elapsed (at least two of each).  The result holds
           the per-layer metrics of BENCHMARK.json.  Counts must repeat
           exactly between the traced passes, and tracing must not change
           a single report byte.

Every report is checked (checks.py); the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Details of the run,
including every case time and digest, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DATA_DIR, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
DEADLINE_S = 170.0
DEFAULT_SEED = 1

# Counts, besides every *_calls, that must repeat exactly for one seed.
COUNT_METRICS = (
    "interferometer.amplitudes_out",
    "heralded.evaluated_amplitudes",
    "teleport.attempts",
    "cluster.max_active_nodes",
    "cluster.amp_bytes_touched",
    "runner.report_bytes",
)

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken worker)."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing is written under src/
    for name in THREAD_ENV:
        env[name] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, out: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = out
        self.env = worker_env()
        self.started = time.monotonic()
        self.setup_samples: list[float] = []  # CPU seconds to "ready"
        self.setup_wall_samples: list[float] = []
        self.cases = generate(workload, seed, ROOT)
        self.units = sum(c.units for c in self.cases)
        self.argvs = {}
        for case in self.cases:
            if case.spec is not None:
                (work / f"{case.id}.lqs").write_text(case.spec)
            self.argvs[case.id] = [
                str((work / f"{a[1:]}.lqs").relative_to(ROOT)) if a.startswith("@") else a
                for a in case.argv
            ]
        self.verdicts: dict[str, tuple[str, str | None]] = {}  # id -> (sha, reason)

    def run_worker(self, *args: str) -> str:
        """Start worker.py, record its set-up time and return its stdout."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if not line.startswith("ready "):
                proc.kill()
                _, err = proc.communicate()
                raise BenchError(f"worker did not start: {line!r} {err[-2000:]}")
            self.setup_samples.append(float(line.split()[1]))
            self.setup_wall_samples.append(elapsed)
            remaining = DEADLINE_S - (time.monotonic() - self.started)
            stdout, stderr = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run deadline") from None
        finally:
            if proc.poll() is None:  # deadline or interrupt: stop the worker first
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {stderr[-2000:]}")
        return stdout

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES + 1):
            self.run_worker("--probe")
        del self.setup_samples[0]  # the first start also warms the file cache
        del self.setup_wall_samples[0]

    def run_pass(self, tag: str, trace: bool) -> dict:
        pass_dir = self.work / tag
        pass_dir.mkdir()
        job = self.work / f"{tag}.json"
        job.write_text(json.dumps({
            "cases": [{"id": c.id, "argv": self.argvs[c.id]} for c in self.cases],
            "out_dir": str(pass_dir),
            "trace": trace,
            "spans_path": str(self.out / f"spans_{self.workload}.json"),
        }))
        summary = json.loads(self.run_worker(str(job)).splitlines()[-1])
        if summary["threads"] not in (None, 1):
            raise BenchError(f"worker ran {summary['threads']} OS threads, expected 1")
        summary["failures"] = self.judge(summary, pass_dir)
        summary["program_s"] = sum(r["seconds"] for r in summary["cases"])
        summary["program_cpu_s"] = sum(r["cpu_seconds"] for r in summary["cases"])
        shutil.rmtree(pass_dir)
        return summary

    def judge(self, summary: dict, pass_dir: Path) -> dict[str, str]:
        """Failure reason per failed case; a report seen before keeps its verdict."""
        failures = {}
        for case, res in zip(self.cases, summary["cases"]):
            if res["code"] != 0 or "Traceback" in res["stderr"]:
                failures[case.id] = f"exit {res['code']}: {res['stderr'][-500:]}"
                continue
            seen = self.verdicts.get(case.id)
            if seen is not None and seen[0] != res["sha256"]:
                failures[case.id] = "report bytes differ from an earlier pass"
                continue
            if seen is None:
                text = (pass_dir / f"{case.id}.out").read_text()
                self.verdicts[case.id] = (res["sha256"], checks.check(case, text))
            reason = self.verdicts[case.id][1]
            if reason is not None:
                failures[case.id] = reason
        return failures


def median(values) -> float:
    return float(statistics.median(values))


def golden_changes(workload: str, seed: int, summary: dict) -> int:
    path = HERE / "golden.json"
    if not path.exists():
        return 0
    golden = json.loads(path.read_text())["seeds"].get(str(seed), {}).get(workload, {})
    return sum(1 for r in summary["cases"] if r["id"] in golden and golden[r["id"]] != r["sha256"])


def environment(summary: dict) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": summary.get("numpy"),
        "commit": commit,
        "threads_per_worker": summary.get("threads"),
    }


def slow_decile(values) -> float:
    """90th percentile, interpolated between the order statistics."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    runner.probe_setup()
    passes, walls = [], []
    t0 = time.monotonic()
    # a pass starts only if a typical pass still ends within --seconds
    while not passes or time.monotonic() - t0 + median(walls) <= seconds:
        started = time.monotonic()
        passes.append(runner.run_pass(f"pass{len(passes)}", trace=False))
        walls.append(time.monotonic() - started)
    # Each case's slow-decile CPU time: on a shared host the speed a process
    # gets flips between a fast and a slow phase, each lasting seconds to
    # minutes.  The slow phase has a sharp ceiling, so a high percentile reads
    # the same whatever mix of phases a run saw, while a mean or median
    # follows the mix.
    program_s = sum(
        slow_decile(p["cases"][i]["cpu_seconds"] for p in passes)
        for i in range(len(runner.cases))
    )
    metrics = {
        "units_per_s": runner.units / program_s,
        "setup_s": median(runner.setup_samples),
        "peak_rss_mb": median(p["peak_rss_kib"] / 1024.0 for p in passes),
    }
    return metrics, passes


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    plain, traced = [], []
    t0 = time.monotonic()
    # interleaved, so drift hits both sides alike; at least two of each
    while len(traced) < 2 or time.monotonic() - t0 < seconds:
        plain.append(runner.run_pass(f"plain{len(plain)}", trace=False))
        traced.append(runner.run_pass(f"traced{len(traced)}", trace=True))
    for t in traced:
        t["layers"]["runner.report_bytes"] = sum(r["bytes"] for r in t["cases"])
    layers = [t["layers"] for t in traced]
    problems = [
        f"count {name} differs between traced passes: {[m[name] for m in layers]}"
        for name in layers[0]
        if (name.endswith("_calls") or name in COUNT_METRICS)
        and any(m[name] != layers[0][name] for m in layers)
    ]
    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            metrics[name] = median(m[name] for m in layers)
        elif name == "fock.norm_drift_max":
            metrics[name] = max(m[name] for m in layers)
        else:
            metrics[name] = value
    metrics["runner.report_bytes_changed"] = golden_changes(runner.workload, runner.seed, plain[0])
    metrics["trace.overhead_ratio"] = (
        median(t["program_cpu_s"] for t in traced) / median(p["program_cpu_s"] for p in plain)
    )
    return metrics, plain + traced, problems


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the worker clean-up


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "loqsim" / "cli.py").is_file() or not (ROOT / DATA_DIR).is_dir():
        print(f"error: no loqsim sources under {ROOT}", file=sys.stderr)
        return 2
    if not bench.is_file():
        print(f"error: {bench} is missing", file=sys.stderr)
        return 2
    declared = json.loads(bench.read_text())["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work, out)
        if args.trace:
            metrics, passes, problems = measure_traced(runner, args.seconds)
        else:
            metrics, passes = measure(runner, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failures = {}
    for p in passes:
        for case_id, reason in p["failures"].items():
            failures.setdefault(case_id, reason)
    attempted = len(runner.cases) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    for case_id, reason in failures.items():
        print(f"FAIL {case_id}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    env = environment(passes[0])
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "units_per_pass": runner.units, "environment": env,
        "setup_cpu_samples_s": runner.setup_samples,
        "setup_wall_samples_s": runner.setup_wall_samples,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "metrics": metrics,
    }
    (out / f"{args.workload}_trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
