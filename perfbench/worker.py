"""The measured process of one benchmark run.

Started by run.py with BLAS already capped and heatflow on the path. It runs
the workload's set-ups, then a closed loop with one client: the next job
starts when the previous one ends, until ``--seconds`` have passed. It writes
its outputs, a JSON report (set-up and job times, peak RSS) and, when traced,
the spans into ``--rundir``; run.py checks the outputs afterwards, so oracle
work never runs in this process.

In a traced run jobs are traced in alternate pairs (2 and 3, 6 and 7, ...),
so the difference of the traced and untraced medians is the tracing
overhead; pairs keep the alternation out of step with the workloads' own
two-way alternations.
"""

import argparse
import importlib
import importlib.util
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import heatflow.cli
from heatflow.expansion import estimate_lambda_max
from heatflow.fields import FieldStack, write_field_csv
from heatflow.mesh import assemble_lb_operator, load_mesh
from heatflow.solvers import heat_smooth
from heatflow.sphere import icosphere
from heatflow.stats import hotelling_t2_map, two_sample_t_map, write_statmap
from tracer import LAYERS, Tracer

TRACED_MIN_JOBS = 4  # at least two traced and two untraced jobs


class Smooth:
    """smooth-40k: load + assemble + first b, then heat_smooth and write_field_csv."""

    def __init__(self, root, inputs, rundir, params):
        self.params = params
        self.mesh_path = inputs / params["mesh"]
        self.fields = np.load(inputs / "fields.npy")
        self.rundir = rundir
        self.setups = params["setups"]
        self.namespaces = []

    def setup(self):
        op = assemble_lb_operator(load_mesh(self.mesh_path))
        estimate_lambda_max(op)
        self.op = op

    def job(self, j):
        sigmas = self.params["sigmas"]
        field = (j // (2 * len(sigmas))) % len(self.fields)
        sigma = sigmas[j % len(sigmas)]
        out = self.rundir / f"job-{j}.csv"
        write_field_csv(out, heat_smooth(self.op, self.fields[field], sigma))
        return {"field": field, "sigma": sigma, "out": out.name}, None

    def keep(self, j, outputs):
        pass


class GroupStudy:
    """group-study-642: one job is one subject's heat stack plus wavelet stack.

    The job that completes a pass over the 2 x per_group subjects also runs
    the study's group statistics, as scripts/run_group_study.py does.
    """

    def __init__(self, root, inputs, rundir, params):
        spec = importlib.util.spec_from_file_location(
            "run_group_study", root / "scripts" / "run_group_study.py"
        )
        self.study = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.study)
        self.params = params
        self.subjects = np.load(inputs / "subjects.npy")
        self.rundir = rundir
        self.setups = params["setups"]
        self.namespaces = [self.study]
        self.features = {}

    def setup(self):
        op = assemble_lb_operator(icosphere(self.params["subdiv"]))
        estimate_lambda_max(op)
        self.op = op

    def job(self, j):
        n = 2 * self.params["per_group"]
        p, s = divmod(j, n)
        data = p % len(self.subjects)
        field = self.subjects[data, s][:, None]
        degree = self.params["degree"]
        heat = self.study.multiscale_features(self.op, field, degree)[0]
        wav = self.study.wavelet_features(self.op, field, degree)[0]
        self.features[s] = (heat, wav)
        meta = {"pass": p, "subject": s, "data": int(data), "out": f"job-{j}.npz"}
        if s == n - 1:
            meta["statmaps"] = self._group_stats(p, data)
        return meta, (heat, wav)

    def _group_stats(self, p, data):
        k = self.params["per_group"]
        n = 2 * k
        q = self.params["fdr"]
        raw = self.subjects[data]
        labels = [f"s{i}" for i in range(n)]
        heat = np.stack([self.features[i][0] for i in range(n)])
        wav = np.stack([self.features[i][1] for i in range(n)])
        maps = {
            "ttest": two_sample_t_map(
                FieldStack(raw[:k].T, labels[:k], "subjects"),
                FieldStack(raw[k:].T, labels[k:], "subjects"),
                fdr_q=q,
            ),
            "hotelling_heat": hotelling_t2_map(heat[:k], heat[k:], fdr_q=q),
            "hotelling_wavelet": hotelling_t2_map(wav[:k], wav[k:], fdr_q=q),
        }
        names = {}
        for name, statmap in maps.items():
            base = self.rundir / f"pass-{p}-{name}"
            write_statmap(statmap, f"{base}.csv", f"{base}.json")
            names[name] = f"{base.name}.csv"
        self.features = {}
        return names

    def keep(self, j, outputs):
        heat, wav = outputs
        np.savez(self.rundir / f"job-{j}.npz", heat=heat, wav=wav)


class Stats:
    """stats-10k: in-process ``heatflow stats hotelling`` and ``stats ttest``.

    Its set-up (a cold import of heatflow.cli) is timed by run.py in fresh
    interpreters, so the worker runs no set-up itself.
    """

    def __init__(self, root, inputs, rundir, params):
        self.inputs = inputs
        self.params = params
        self.rundir = rundir
        self.setups = 0
        self.namespaces = []

    def job(self, j):
        outs = {}
        for test, kind in (("hotelling", "stacks"), ("ttest", "fields")):
            base = self.rundir / f"job-{j}-{test}"
            argv = [
                "stats", test,
                "--group-a", str(self.inputs / f"{kind}_a"),
                "--group-b", str(self.inputs / f"{kind}_b"),
                "--fdr", str(self.params["fdr"]),
                "--out", str(base),
            ]
            code = heatflow.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"heatflow {' '.join(argv)} exited {code}")
            outs[test] = f"{base.name}.csv"
        return outs, None

    def keep(self, j, outputs):
        pass


WORKLOADS = {"smooth-40k": Smooth, "group-study-642": GroupStudy, "stats-10k": Stats}


def environment():
    import scipy

    def blas(config):
        deps = config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--rundir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(args.inputs / "params.json") as fh:
        params = json.load(fh)
    wl = WORKLOADS[args.workload](args.root, args.inputs, args.rundir, params)
    tracer = None
    if args.trace:
        modules = [importlib.import_module(f"heatflow.{name}") for name in LAYERS]
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "heatflow" or name.startswith("heatflow.")
        ]
        tracer = Tracer(modules, namespaces + wl.namespaces + [sys.modules[__name__]])

    def traced(job_id, on):
        return tracer.active(job_id) if on else nullcontext()

    setups = []
    for k in range(wl.setups):
        with traced(f"setup-{k}", tracer is not None):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)

    jobs = []
    min_jobs = TRACED_MIN_JOBS if tracer else 1
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(jobs) < min_jobs:
        j = len(jobs)
        on = tracer is not None and (j // 2) % 2 == 1
        error = None
        meta, outputs = {}, None
        with traced(f"job-{j}", on):
            t0 = time.perf_counter()
            try:
                meta, outputs = wl.job(j)
            except Exception:  # noqa: BLE001  (a failed job is counted, the loop goes on)
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        if error is None:
            wl.keep(j, outputs)
        jobs.append({"id": j, "seconds": seconds, "traced": on, "error": error, **meta})
    phase = time.perf_counter() - start

    report = {
        "workload": args.workload,
        "env": environment(),
        "setup_seconds": setups,
        "jobs": jobs,
        "phase_seconds": phase,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(args.rundir / "spans.jsonl")
        report["traced_functions"] = tracer.names
    with open(args.rundir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
