"""One workload pass, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, pass index, whether to trace, the
wall-clock time the parent spawned this process (so set-up time counts
interpreter start), where to write spans, and optionally the index of
the one job of the pass to run.  The process imports qgr from ``src/`` of
the checkout, draws the pass's inputs, loads the reference table, then
runs its jobs in turn through ``qgr.cli.run`` with stdout captured, and
prints one JSON result object as its only stdout line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from workloads import draw_inputs, job_key, weight_pools  # noqa: E402


def import_qgr():
    """Import qgr from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qgr.cli
    import qgr.cohomology

    if os.path.dirname(os.path.dirname(os.path.abspath(qgr.__file__))) != src:
        raise ImportError(f"qgr imported from {qgr.__file__}, not from {src}")
    return qgr


def git_sha(root: str = ROOT) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    "unknown" outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(qgr, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, error) of one CLI invocation in this process;
    exit code None when the job raised."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qgr.cli.run(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a job that raises is a failed job, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
    return code, out.getvalue(), error or err.getvalue().strip()


def outcome(argv: list[str], code: int | None, text: str) -> dict:
    """What the reference records about a job: the exit code, plus each
    check's name and verdict for verify jobs, or the SHA-256 of the
    canonical payload for every other command."""
    rec = {"code": code}
    if code is None or not text.strip():
        return rec
    payload = json.loads(text)["payload"]
    if argv[0] == "verify":
        rec["checks"] = [[r["check"], r["pass"]] for r in payload]
    else:
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        rec["digest"] = hashlib.sha256(canon.encode()).hexdigest()
    return rec


def grade(reference: dict, argv: list[str], code: int | None, text: str, error: str) -> str:
    """Empty string when the job matches its reference, else the reason."""
    ref = reference.get(job_key(argv))
    if ref is None:
        return "no reference recorded for this job"
    if code is None:
        return f"raised {error}"
    try:
        got = outcome(argv, code, text)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    for field in ("code", "checks", "digest"):
        if field in ref and got.get(field) != ref[field]:
            return f"{field} differs from reference"
    return ""


def calibrate() -> float:
    """Seconds, best of three, for a fixed piece of exact sparse arithmetic
    in plain Python, like qgr's inner loops: a product of two dict
    polynomials with Fraction coefficients.  It uses no qgr code, so a
    change to qgr cannot move it; it measures how fast this process runs
    right now."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out: dict = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in a.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(spec: dict) -> dict:
    qgr = import_qgr()
    with open(REFERENCE) as f:
        reference = json.load(f)["jobs"]
    pools = weight_pools(qgr.cohomology.genericity_check, qgr.cohomology.GenericityError)
    inputs, jobs = draw_inputs(spec["workload"], spec["seed"], spec["pass"], pools)
    if spec.get("job") is not None:
        inputs, jobs = inputs[spec["job"]:spec["job"] + 1], jobs[spec["job"]:spec["job"] + 1]
    setup_s = time.time() - spec["spawned"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calib_before = calibrate()
    outputs = []
    t_start = time.perf_counter()
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job[0] = i
        t0 = time.perf_counter()
        code, text, error = run_job(qgr, argv)
        outputs.append((argv, time.perf_counter() - t0, code, text, error))
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_s = (calib_before + calibrate()) / 2

    job_results = []
    for argv, seconds, code, text, error in outputs:
        why = grade(reference, argv, code, text, error)
        job_results.append({"argv": argv, "seconds": seconds, "exit": code, "ok": not why, "why": why})
    result = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(job_results),
        "failed": sum(not j["ok"] for j in job_results),
        "inputs": inputs,
        "jobs": job_results,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["inclusive_s"] = tracer.inclusive()
        result["ancestors"] = {
            name: sorted(tracer.ancestors(name)) for name in ("rings.RatFunc.add", "series.x_coefficients")
        }
        result["spans"] = len(tracer.sp_start)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"], [j["argv"] for j in job_results])
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
