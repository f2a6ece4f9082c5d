#!/usr/bin/env python3
"""heatflow benchmark: three seeded workloads, timed end to end or layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smooth-40k --seed 1 --seconds 10 --trace 0

Workloads: smooth-40k, group-study-642, stats-10k (see perfbench/NOTES.md).
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
half of the jobs are traced and the run prints the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, starting with
``#``, record the environment and a summary.

This process has inputs.py generate the inputs (cached per seed), starts
worker.py as the measured process, waits for it, and only then checks every
job's outputs against independent oracles. Input generation and oracles thus
never run in the measured process; this one imports nothing heavier than the
standard library before the worker ends, because a child's peak RSS starts
at its parent's RSS when it is started.
"""

import os
import sys

# The BLAS thread cap has to be in the environment before numpy is imported,
# here and in the worker: threadpoolctl, which heatflow's HEATFLOW_THREADS
# relies on, may not be installed.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HEATFLOW_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("smooth-40k", "group-study-642", "stats-10k")
REQUIRED = ("src/heatflow/__init__.py", "scripts/run_group_study.py")
# A run must end within 180 s; the first run of a seed also generates inputs.
GENERATE_TIMEOUT = 60
WORKER_TIMEOUT = 100
IMPORT_PROBES = 7
IMPORT_PROBE = "import time; t = time.perf_counter(); import heatflow.cli; print(repr(time.perf_counter() - t))"

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def provenance():
    """The commit (when the checkout is a git repository) and a digest of the code run."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heatflow").glob("*.py")) + [ROOT / REQUIRED[1]]:
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def prepare_inputs(args):
    """Generate or reuse the seeded inputs in a child process (see inputs.py)."""
    cmd = [
        sys.executable, str(HERE / "inputs.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
    ]
    out = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=GENERATE_TIMEOUT
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"input generation exited {out.returncode}")
    inputs = Path(out.stdout.strip().splitlines()[-1])
    with open(inputs / "params.json") as fh:
        return inputs, json.load(fh)


def import_setup_seconds():
    """Cold ``import heatflow.cli`` times, one fresh interpreter each."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_worker(args, inputs, rundir):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--inputs", str(inputs),
        "--rundir", str(rundir), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT
    )
    if proc.returncode != 0 or not (rundir / "report.json").exists():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited {proc.returncode} without a report")
    with open(rundir / "report.json") as fh:
        return json.load(fh)


def end_to_end(report, setup_seconds, passed):
    jobs = [j["seconds"] for j in report["jobs"]]
    return {
        "setup_s": statistics.median(setup_seconds),
        "jobs_per_s": passed / report["phase_seconds"],
        "job_p50_s": statistics.median(jobs),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: run from a heatflow checkout; missing {', '.join(missing)}")

    inputs_dir, params = prepare_inputs(args)
    setup_seconds = None
    if args.workload == "stats-10k" and not args.trace:
        setup_seconds = import_setup_seconds()

    cache = inputs_dir.parent.parent
    rundir = cache / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        report = run_worker(args, inputs_dir, rundir)
        env = {**report["env"], **provenance()}
        print("# env " + json.dumps(env, sort_keys=True), flush=True)
        sys.path.insert(0, str(ROOT / "src"))
        import oracles

        jobs = report["jobs"]
        failures = {j["id"]: j["error"].strip().splitlines()[-1] for j in jobs if j["error"]}
        wrong, extras = oracles.check(args.workload, ROOT, inputs_dir, params, rundir, jobs)
        failures.update(wrong)
        if args.trace:
            import layers
            from tracer import read_spans

            metrics = layers.layer_metrics(read_spans(rundir / "spans.jsonl"), report)
        else:
            e2e = end_to_end(report, setup_seconds or report["setup_seconds"], len(jobs) - len(failures))
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
        kept = cache / "last"
        kept.mkdir(exist_ok=True)
        report.update(env=env, seed=args.seed, failures=failures, extras=extras, setup_probe_seconds=setup_seconds)
        with open(kept / f"{args.workload}-trace{args.trace}.report.json", "w") as fh:
            json.dump(report, fh, indent=1)
        if args.trace:
            shutil.move(str(rundir / "spans.jsonl"), kept / f"{args.workload}.spans.jsonl")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for job_id, reason in sorted(failures.items())[:10]:
        print(f"perfbench: job {job_id} failed: {reason}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "traced_jobs": sum(j["traced"] for j in jobs),
        "error_rate": len(failures) / len(jobs),
        **{k: v for k, v in extras.items() if v is not None},
    }
    print("# summary " + json.dumps(summary), flush=True)
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
