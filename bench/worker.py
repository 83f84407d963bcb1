"""One round of a workload: every job, one after another, in this process.

Usage: python3 bench/worker.py JOBS_JSON 0
       python3 bench/worker.py JOBS_JSON 1 SPANS_JSONL

Each job calls ``preproj.cli.main`` with its argv, stdout captured, and is
checked at once by checks.py. The last stdout line is a JSON object with
the round's wall time (first job start to last checked verdict), each
job's time, the failures, the peak RSS of this process and, with TRACE=1,
the per-layer metrics. The package is found through PYTHONPATH.
"""

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from checks import CheckError, check


def run(jobs, tracer=None):
    import preproj.cli as cli
    job_s, failures = [], []
    start = perf_counter()
    for k, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = k
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(job["argv"])
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash fails this job, not the round
            code = "%s: %s" % (type(e).__name__, e)
        job_s.append(perf_counter() - t0)
        text = out.getvalue()
        if tracer is not None:
            tracer.stdout_bytes += len(text.encode("utf-8"))
        try:
            check(job, code, text)
        except CheckError as e:
            failures.append("%s (stderr: %s)" % (e, err.getvalue().strip()))
    wall = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "job_s": job_s, "failures": failures,
            "rss_mb": rss_mb}


def main(argv):
    with open(argv[1], encoding="utf-8") as f:
        jobs = json.load(f)
    tracer = None
    if argv[2] == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = run(jobs, tracer)
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        with open(argv[3], "w", encoding="utf-8") as f:
            for rec in tracer.records():
                f.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
