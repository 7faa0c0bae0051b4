"""Self-test of the benchmark's correctness gate.

Usage: python3 perfbench/selftest.py

Grades two real workload jobs against the recorded reference, then shows
that each of two faults raises the fail ratio: a corrupted payload
digest, and a fault-injected job whose injection does nothing, so that
it reports a pass where the reference says fail.  Exits 1 if the gate
misses either fault.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, grade, import_qgr, run_job
from workloads import draw_inputs, job_key, weight_pools


def fail_ratio(reasons: list[str]) -> float:
    return sum(bool(r) for r in reasons) / len(reasons)


def main() -> int:
    qgr = import_qgr()
    with open(REFERENCE) as f:
        reference = json.load(f)["jobs"]
    pools = weight_pools(qgr.cohomology.genericity_check, qgr.cohomology.GenericityError)
    digest_job = next(j for j in draw_inputs("closedform", 0, 0, pools)[1] if "z-normalized" in j)
    mutated_job = next(j for j in draw_inputs("fixedpoint", 0, 0, pools)[1]
                       if "--mutate" in j and "recursivity" in j)
    i = mutated_job.index("--mutate")
    unmutated_job = mutated_job[:i] + mutated_job[i + 2:]

    digest_run = run_job(qgr, digest_job)
    mutated_run = run_job(qgr, mutated_job)
    unmutated_run = run_job(qgr, unmutated_job)

    clean = [grade(reference, digest_job, *digest_run), grade(reference, mutated_job, *mutated_run)]
    corrupted = dict(reference)
    corrupted[job_key(digest_job)] = dict(reference[job_key(digest_job)], digest="0" * 64)
    faulty = [grade(corrupted, digest_job, *digest_run), grade(reference, mutated_job, *unmutated_run)]

    print(f"as recorded:             fail_ratio {fail_ratio(clean):.2f}  {clean}")
    print(f"corrupted digest:        {faulty[0] or 'MISSED'}")
    print(f"injection reports pass:  {faulty[1] or 'MISSED'}")
    print(f"with both faults:        fail_ratio {fail_ratio(faulty):.2f}")
    if fail_ratio(clean) != 0 or fail_ratio(faulty) != 1:
        print("self-test FAILED: the correctness gate does not separate these cases", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
