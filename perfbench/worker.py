"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --probe       import loqsim.cli, print "ready", exit
    python3 perfbench/worker.py JOB.json      ... then run the job's cases

The "ready" line carries the CPU time the process has used so far:
interpreter start-up plus the import of loqsim.cli.  A job is a list of
cases run back to back through ``loqsim.cli.main(argv)`` (a closed loop
with one client) with stdout and stderr captured in memory; only the
call itself is timed, in wall and in CPU time.  Each report is written to the job's output
directory after its timer stops.  The last stdout line is a JSON summary
with per-case times, exit codes and digests, the process's peak RSS and
its OS thread count, and the tracer's per-layer metrics when the job
asks for a traced pass.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from loqsim import cli


def run_job(path: str) -> None:
    job = json.loads(Path(path).read_text())
    out_dir = Path(job["out_dir"])
    main = cli.main
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)

    results = []
    for index, case in enumerate(job["cases"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.case = index
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = main(case["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
            cpu_seconds = time.process_time() - c0
        data = out.getvalue().encode()
        (out_dir / f"{case['id']}.out").write_bytes(data)
        results.append({
            "id": case["id"],
            "seconds": seconds,
            "cpu_seconds": cpu_seconds,
            "code": code,
            "stderr": err.getvalue() + (error or ""),
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    summary = {
        "cases": results,
        "peak_rss_kib": None,
        "threads": None,
        "numpy": sys.modules["numpy"].__version__,
        "loqsim": cli.__file__,
    }
    # VmHWM is the peak of this process image only; ru_maxrss would also
    # carry the parent's resident size from before exec.
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                summary["peak_rss_kib"] = int(line.split()[1])
            elif line.startswith("Threads:"):
                summary["threads"] = int(line.split()[1])
    if summary["peak_rss_kib"] is None:
        summary["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        summary["layers"] = tracer.summary()
        Path(job["spans_path"]).write_text(json.dumps(tracer.span_dump()))
    print(json.dumps(summary))


if __name__ == "__main__":
    print(f"ready {time.process_time()!r}", flush=True)
    if sys.argv[1] != "--probe":
        run_job(sys.argv[1])
