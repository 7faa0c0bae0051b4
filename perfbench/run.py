"""Outside-in benchmark of qgr.

Usage:
  python3 perfbench/run.py --workload {fixedpoint,symbolic,closedform,all}
                           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qgr is imported from its ``src/``.
Each workload is a closed loop: one client, each job starting when the
previous one returns.  Passes over a workload's jobs repeat while
another one still fits in ``--seconds``.

``--trace 0`` runs every job in a fresh process of its own
(``worker.py``) and reports the end-to-end metrics from each job's
median over passes.  ``--trace 1`` runs pairs of passes on the same
inputs, each pass in one fresh process, one untraced and one traced,
and reports the per-layer metrics of the traced ones plus
``trace.overhead_ratio``.
``--workload all`` runs the three workloads in turn; traced, it fails if
any named per-layer function was never called.

Human-readable lines go first; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  The full record,
provenance included, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from tracer import metric_units  # noqa: E402
from worker import git_sha  # noqa: E402
from workloads import TEMPLATES, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB"}
PASS_TIMEOUT_S = 170
# calibration time (worker.calibrate) that end-to-end times are scaled to;
# about what it takes on the 2-vCPU host this was built on when that host
# is otherwise idle
REFERENCE_CALIB_S = 0.012


class PassError(RuntimeError):
    pass


def spawn_pass(workload: str, seed: int, index: int, trace: bool = False,
               spans_path: str | None = None, job: int | None = None) -> dict:
    """Run pass `index` (or only its job `job`) in a fresh process and
    return the process's result record."""
    spec = {
        "workload": workload, "seed": seed, "pass": index, "trace": trace,
        "spans_path": spans_path, "job": job, "spawned": time.time(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise PassError(f"{workload} pass {index} exceeded {PASS_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise PassError(f"{workload} pass {index} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def spawn_jobs(workload: str, seed: int, index: int) -> dict:
    """Run pass `index` with every job in a fresh process of its own.

    On a shared host, the speed of a process varies: the same job ran
    at steady levels anywhere from 0.37 s to 0.67 s in consecutive
    processes.  So a process per job gives each pass several independent
    samples of that level, where a process per pass would give one.
    Each process also times a calibration before and after its job, which
    scales with those levels (see ``reference_seconds``).
    """
    procs = [spawn_pass(workload, seed, index, job=j) for j in range(len(TEMPLATES[workload]))]
    return {
        "setups_s": [p["setup_s"] for p in procs],
        "calibs_s": [p["calib_s"] for p in procs],
        "rss_mb": [p["peak_rss_mb"] for p in procs],
        "jobs": [p["jobs"][0] for p in procs],
        "inputs": [p["inputs"][0] for p in procs],
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
    }


def reference_seconds(seconds: float, calib_s: float) -> float:
    """`seconds` measured in a process whose calibration took `calib_s`,
    scaled to a process whose calibration takes REFERENCE_CALIB_S.

    The host's speed swings by up to 2x for minutes at a time.  The
    calibration and the jobs slow down together: raw times of one job
    spanning 2.2x became ratios to the calibration within a few percent
    of each other.  Scaling keeps those swings out of the comparison
    between two commits.
    """
    return seconds * REFERENCE_CALIB_S / calib_s


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Each job's median over passes of its time at reference speed, then
    summed (wall) or maximized (slowest job; peak memory, unscaled);
    set-up is the median over every process, at reference speed."""
    njobs = len(passes[0]["jobs"])
    seconds = [statistics.median(reference_seconds(p["jobs"][j]["seconds"], p["calibs_s"][j]) for p in passes)
               for j in range(njobs)]
    rss = [statistics.median(p["rss_mb"][j] for p in passes) for j in range(njobs)]
    setups = [reference_seconds(s, c) for p in passes for s, c in zip(p["setups_s"], p["calibs_s"])]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(seconds),
        "slowest_job_s": max(seconds),
        "peak_rss_mb": max(rss),
    }


def repeat(seconds: float, step) -> list:
    """Call step(i) for i = 0, 1, ... while another step of the length of
    the last one still fits in `seconds`; always at least once."""
    out = []
    t0 = time.monotonic()
    while True:
        ts = time.monotonic()
        out.append(step(len(out)))
        now = time.monotonic()
        if (now - t0) + (now - ts) > seconds:
            return out


def largest_subtree(traced: dict, name: str) -> tuple[bool, str]:
    """Whether `name`, children included, takes longer than any wrapped
    function that never calls it."""
    incl = traced["inclusive_s"]
    skip = set(traced["ancestors"][name]) | {name}
    others = {k: v for k, v in incl.items() if k not in skip}
    rival = max(others, key=others.get)
    share = incl[name] / traced["wall_s"]
    return incl[name] > others[rival], (
        f"{name} subtree {incl[name]:.3f} s ({share:.0%} of traced wall) > "
        f"largest other subtree {rival} {others[rival]:.3f} s")


def claims(workload: str, traced: dict) -> list[tuple[str, bool]]:
    """What each workload is meant to stress, checked on one traced pass."""
    layer, incl = traced["per_layer"], traced["inclusive_s"]
    out = []
    if workload == "fixedpoint":
        calls = layer["series.x_coefficients.calls"]
        out.append((f"series.x_coefficients.calls {calls} == 0", calls == 0))
        ok, text = largest_subtree(traced, "rings.RatFunc.add")
        out.append((text, ok))
        verifier = {k: v for k, v in incl.items() if k.startswith("verifier.")}
        top = max(verifier, key=verifier.get)
        out.append((f"largest verifier subtree is {top} ({verifier[top]:.3f} s)", top == "verifier.build_phi"))
    if workload == "symbolic":
        ok, text = largest_subtree(traced, "series.x_coefficients")
        out.append((text, ok))
        ratio = layer["series.x_coefficients.distinct_ratio"]
        out.append((f"series.x_coefficients.distinct_ratio {ratio:.4f} < 0.1", ratio < 0.1))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    if not trace:
        passes = repeat(seconds, lambda i: spawn_jobs(workload, seed, i))
    else:
        spans = os.path.join(OUT, f"spans-{workload}.json")
        pairs = repeat(seconds, lambda i: (spawn_pass(workload, seed, i),
                                           spawn_pass(workload, seed, i, True, spans)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        passes = untraced + traced
    rec = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    rec["fail_ratio"] = rec["failed"] / rec["attempted"]
    if not trace:
        values = end_to_end(passes)
        rec["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        rec["calib_median_s"] = statistics.median(c for p in passes for c in p["calibs_s"])
    else:
        units = metric_units()
        layer = {k: statistics.median(t["per_layer"][k] for t in traced) for k in units if k != "trace.overhead_ratio"}
        layer["trace.overhead_ratio"] = statistics.median(
            reference_seconds(t["wall_s"], t["calib_s"]) / reference_seconds(u["wall_s"], u["calib_s"])
            for u, t in zip(untraced, traced))
        rec["metrics"] = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        rec["claims"] = claims(workload, traced[0])
        rec["spans_file"] = os.path.relpath(spans, ROOT)
    return rec


def print_report(rec: dict) -> None:
    n = len(rec["passes"])
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  passes {n}"
          "  (closed loop, 1 client)")
    for p in rec["passes"]:
        for j in p["jobs"]:
            if not j["ok"]:
                print(f"  FAILED {' '.join(j['argv'])}: {j['why']}")
    print(f"  {'fail_ratio':<14} {rec['fail_ratio']:12.4f} 1   ({rec['failed']} of {rec['attempted']} jobs)")
    if not rec["trace"]:
        for k, m in rec["metrics"].items():
            print(f"  {k:<14} {m['value']:12.4f} {m['unit']}")
        print(f"  (times at reference speed; calibration median {rec['calib_median_s'] * 1000:.2f} ms, "
              f"reference {REFERENCE_CALIB_S * 1000:.2f} ms)")
        return
    m = rec["metrics"]
    top = sorted((k for k in m if k.endswith(".self_s")), key=lambda k: m[k]["value"], reverse=True)[:8]
    for k in top:
        print(f"  {k:<48} {m[k]['value']:10.4f} s")
    print(f"  {'trace.overhead_ratio':<48} {m['trace.overhead_ratio']['value']:10.4f}")
    for text, ok in rec["claims"]:
        print(f"  claim {'holds' if ok else 'DOES NOT HOLD'}: {text}")
    print(f"  spans: {rec['spans_file']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    provenance = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "loadavg_at_start": list(os.getloadavg()),
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        recs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except PassError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for rec in recs:
        print_report(rec)
        rec["provenance"] = provenance
        path = os.path.join(OUT, f"result-{rec['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(rec, f, indent=1)
        print(f"  record: {os.path.relpath(path, ROOT)}")

    if args.workload == "all" and args.trace:
        unused = [k for k in recs[0]["metrics"] if k.endswith(".calls")
                  and not sum(r["metrics"][k]["value"] for r in recs)]
        if unused:
            print(f"error: never called in any workload: {', '.join(unused)}", file=sys.stderr)
            return 1
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in recs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
