"""Record the reference outcome of every job any seed can draw.

Usage: python3 perfbench/record_reference.py

Run it on the commit whose behaviour is the reference (the parent of a
change under test), from the root of that checkout.  It runs each job
once through ``qgr.cli.run`` and writes ``perfbench/reference.json``:
the exit code, and either each check's name and verdict (verify jobs) or
the SHA-256 of the canonical payload (all other jobs).  Job timings go
to stderr.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from worker import REFERENCE, git_sha, import_qgr, outcome, run_job
from workloads import all_jobs, job_key, weight_pools


def main() -> None:
    qgr = import_qgr()
    pools = weight_pools(qgr.cohomology.genericity_check, qgr.cohomology.GenericityError)
    jobs = {}
    for workload, argvs in all_jobs(pools).items():
        for argv in argvs:
            t0 = time.perf_counter()
            code, text, error = run_job(qgr, argv)
            if code is None:
                raise SystemExit(f"reference job raised: {argv}: {error}")
            jobs[job_key(argv)] = outcome(argv, code, text)
            print(f"{workload} {time.perf_counter() - t0:.3f}s exit={code} {json.dumps(argv)}",
                  file=sys.stderr, flush=True)
    doc = {
        "recorded_from": git_sha(),
        "python": platform.python_version(),
        "jobs": jobs,
    }
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
