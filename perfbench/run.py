"""End-to-end and per-layer benchmark for fmlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the parent of this directory, and fmlab is
imported from its src/ (never from an installed copy).  One benchmark process
runs the workload's fmlab runs in a closed loop, each in a fresh interpreter
through ``fmlab.cli.main``, with BLAS/OpenMP threads pinned to 1.  The two
1-worker runs of a repetition go side by side, one per CPU, so that the
machine is as busy as in the 2-worker run (see pairs()).

--trace 0  measures the end-to-end metrics: set-up time, then repetitions of
           two 1-worker runs and one 2-worker run until --seconds is used up;
           each metric is the median over the run's values.
--trace 1  makes one traced 1-worker run (spans around each layer's public
           functions) and untraced repetitions for the overhead and
           efficiency ratios, and reports the per-layer metrics.

Every fmlab run's output is checked (see checks.py).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it, starting
with "record ", holds the seed, environment, every repetition's raw values
and any problems found.  Exit code 2 means the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from checks import check_run
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

WORKLOADS = {
    "decay_chain": [("decay", "decay_chain.json")],
    "decay_block_long": [("decay", "decay_block_long.json")],
    "spectral_mix": [
        ("wegner", "wegner_spencer.json"),
        ("ids", "ids_alloy_2d.json"),
        ("correlator", "correlator_chain.json"),
        ("dynamical", "dynamical_box.json"),
    ],
    "inequalities_battery": [("inequalities", "inequalities_battery.json")],
}


def _declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = _declared_metrics()

SETUP_PER_REP = 2  # set-up measurements (fresh interpreters) per repetition
MIN_SETUP = 5  # set-up measurements per run at least
MAX_REPS = 40  # cap on 1-worker/2-worker pairs per run
HARD_LIMIT_S = 170.0  # every child is killed before the run would pass 180 s


class Budget:
    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard = self.start + HARD_LIMIT_S

    def left(self):
        return self.deadline - time.perf_counter()

    def hard_left(self):
        return self.hard - time.perf_counter()


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILDREN = []  # every child started, so that main() can stop any left running


def start(mode, spec):
    """Start child.py in a fresh interpreter (its own process group)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(spec)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    CHILDREN.append(proc)
    return proc


def stop_children():
    """Kill every child still running, with its pool workers, and wait for it."""
    for proc in CHILDREN:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def finish(proc, mode, budget):
    """Wait for a child started by start(); (parsed last line or None, stderr)."""
    try:
        out, err = proc.communicate(timeout=max(1.0, budget.hard_left()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        return None, f"{mode} child killed at the time limit"
    if proc.returncode != 0 or not out.strip():
        return None, err.strip() or f"{mode} child exited with {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), err


def spawn(mode, spec, budget):
    """Run child.py in a fresh interpreter; (parsed last line or None, stderr)."""
    return finish(start(mode, spec), mode, budget)


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def count_samples(kind, cfg):
    """Indices the engine evaluates for one run, from its config."""
    p = cfg.get("estimator", {})
    if kind == "inequalities":
        samples = int(p["samples"])
        return (int(p["pairs"]) * samples + samples
                + len(p["scales"]) * int(p["draws"]) + int(p["rh_trials"]))
    return int(p["samples"])


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.runs = []  # (kind, config path, config dict, master seed)
        for kind, fname in WORKLOADS[name]:
            path = os.path.join(HERE, "configs", fname)
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            self.runs.append((kind, path, cfg, cfg["master_seed"] if seed is None else seed))
        self.seed = seed
        self.samples = sum(count_samples(kind, cfg) for kind, _, cfg, _ in self.runs)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.attempted = 0
        self.problems = []

    def start_batch(self, workers, outroot, tag=None, resume=False, spans_out=None):
        """Start one child running every kind of the workload; a handle for finish_batch."""
        outdirs = [os.path.join(outroot, tag or f"w{workers}", os.path.basename(path)[:-5])
                   for _, path, _, _ in self.runs]
        spec = {
            "root": ROOT,
            "runs": [[kind, path, out] for (kind, path, _, _), out in zip(self.runs, outdirs)],
            "workers": workers,
            "seed": self.seed,
            "resume": resume,
            "spans_out": spans_out,
        }
        self.attempted += len(self.runs)
        return start("run", spec), workers, resume, outdirs

    def finish_batch(self, handle, budget):
        """Wait for a child from start_batch; its report (None if it failed), outdirs."""
        proc, workers, resume, outdirs = handle
        report, err = finish(proc, "run", budget)
        if report is None:
            self.problems.append(f"{workers}-worker child failed: {err[-2000:]}")
            return None, outdirs
        for entry in report["runs"]:
            if entry["exit"] != 0:
                self.problems.append(f"{entry['kind']} exited with {entry['exit']}: {err[-2000:]}")
            if resume and entry.get("resume_identical") is False:
                self.problems.append(f"{entry['kind']}: resumed run changed results.json")
        return report, outdirs

    def batch(self, workers, outroot, budget, **kwargs):
        """One child running every kind of the workload; its report, outdirs."""
        return self.finish_batch(self.start_batch(workers, outroot, **kwargs), budget)

    def check(self, report, outdirs, other_outdirs=None):
        """Check each run's exit code and results.json; the number of runs that failed."""
        if report is None:
            return len(self.runs)
        failed = 0
        for i, (kind, path, _, seed) in enumerate(self.runs):
            if report["runs"][i]["exit"] != 0:
                failed += 1
                continue
            text = _read(os.path.join(outdirs[i], "results.json"))
            other = _read(os.path.join(other_outdirs[i], "results.json")) if other_outdirs else None
            if text is None:
                problems = [f"{kind}: no results.json"]
            else:
                problems = check_run(kind, text, seed, self.reference[os.path.basename(path)], other)
            self.problems.extend(problems)
            failed += bool(problems)
        return failed

    def throughput(self, report):
        return self.samples / sum(e["wall_s"] for e in report["runs"])


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def measure_setup(workload, budget):
    """Seconds from spawning a fresh interpreter to every kind being ready to sample."""
    spec = {"root": ROOT, "configs": [path for _, path, _, _ in workload.runs]}
    t0 = time.perf_counter()
    report, err = spawn("setup", spec, budget)
    if report is None:
        workload.problems.append(f"set-up child failed: {err[-2000:]}")
        return None
    return report["ready"] - t0


def pairs(workload, workdir, budget, resume=False, setup=None, concurrent=True):
    """Repetitions of two 1-worker runs and one 2-worker run, until the budget is spent.

    Each repetition is (list of the 1-worker reports, 2-worker report, first
    1-worker outdirs); there is always at least one.  With concurrent, the two
    1-worker runs go at once, one per CPU.  On a shared host a lone run is
    sometimes much faster while the other CPU idles; side by side, every
    1-worker run sees a busy machine, as the 2-worker run does, and each
    repetition samples the speed of both CPUs.  With a setup list, each
    repetition first takes SETUP_PER_REP set-up times, so they sample the
    whole run rather than its start.  With resume, the first 1-worker run also
    reruns over its checkpoint.
    """
    reps = []
    failed = 0
    for rep in range(MAX_REPS):
        t0 = time.perf_counter()
        if setup is not None:
            setup.extend(measure_setup(workload, budget) for _ in range(SETUP_PER_REP))
        outroot = os.path.join(workdir, f"rep{rep}")
        order = (1, 2) if rep % 2 == 0 else (2, 1)  # alternate which count runs first
        got = {}
        for workers in order:
            runs_1 = [dict(tag=f"w1{c}", resume=resume and c == 0) for c in range(2)]
            if workers == 2:
                got[2] = workload.batch(2, outroot, budget)
            elif concurrent:
                handles = [workload.start_batch(1, outroot, **kw) for kw in runs_1]
                got[1] = [workload.finish_batch(h, budget) for h in handles]
            else:
                got[1] = [workload.batch(1, outroot, budget, **kw) for kw in runs_1]
        (r1a, out1), (r1b, out1b) = got[1]
        r2, out2 = got[2]
        failed += workload.check(r1a, out1)
        failed += workload.check(r1b, out1b, out1)
        failed += workload.check(r2, out2, out1)
        if r1a and r1b and r2:
            reps.append(([r1a, r1b], r2, out1))
        else:
            break
        if rep > 0:  # rep 0 stays for comparison with the traced run
            shutil.rmtree(outroot, ignore_errors=True)
        took = time.perf_counter() - t0
        if budget.left() < 0.6 * took or budget.hard_left() < 2 * took:
            break  # more than 40% of the next repetition would fall past the budget
    return reps, failed


def summary(values):
    out = {"n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(workload, workdir, budget, concurrent):
    measure_setup(workload, budget)  # fills the bytecode cache, as any earlier use would have
    setup = []
    reps, failed = pairs(workload, workdir, budget, setup=setup, concurrent=concurrent)
    while len(setup) < MIN_SETUP and budget.hard_left() > 10:
        setup.append(measure_setup(workload, budget))
    raw = {
        "samples_per_s_w1": [workload.throughput(r1) for r1s, _, _ in reps for r1 in r1s],
        "samples_per_s_w2": [workload.throughput(r2) for _, r2, _ in reps],
        "setup_s": [v for v in setup if v is not None],
        "peak_rss_mb": [r1["maxrss_kb"] / 1024.0 for r1s, _, _ in reps for r1 in r1s],
    }
    return raw, failed


def per_layer(workload, workdir, budget, concurrent):
    spans_out = os.path.join(workdir, "spans.json")
    outroot = os.path.join(workdir, "traced")
    traced = workload.start_batch(1, outroot, tag="w1t", spans_out=spans_out)
    # like the untraced 1-worker runs it is compared with, the traced run has
    # another 1-worker run beside it on the second CPU
    partner = workload.start_batch(1, outroot, tag="w1p") if concurrent else None
    traced, traced_dirs = workload.finish_batch(traced, budget)
    failed = 0
    if partner is not None:
        failed += workload.check(*workload.finish_batch(partner, budget))
    reps, rep_failed = pairs(workload, workdir, budget, resume=True, concurrent=concurrent)
    failed += rep_failed
    if traced is None or not reps:
        return {}, failed + workload.check(traced, traced_dirs), []
    failed += workload.check(traced, traced_dirs, reps[0][2])  # tracing must not change results
    with open(spans_out, encoding="utf-8") as fh:
        dump = json.load(fh)
    kinds = {i: kind for i, (kind, _, _, _) in enumerate(workload.runs)}
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(dump["spans"], kinds))
    w1 = statistics.median(workload.throughput(r1) for r1s, _, _ in reps for r1 in r1s)
    w2 = statistics.median(workload.throughput(r2) for _, r2, _ in reps)
    # one traced run against the median of every untraced 1-worker run,
    # so one noisy untraced run does not pass for the tracer's cost
    untraced = statistics.median(
        sum(e["wall_s"] for e in r1["runs"]) for r1s, _, _ in reps for r1 in r1s)
    resumed = [r1s[0] for r1s, _, _ in reps]  # the first 1-worker run of each repetition
    metrics.update({
        "engine.parallel_eff": w2 / (2.0 * w1),
        "engine.checkpoint_bytes": statistics.median(
            sum(e["checkpoint_bytes"] for e in r1["runs"]) for r1 in resumed),
        "engine.resume_s": statistics.median(
            sum(e["resume_s"] for e in r1["runs"]) for r1 in resumed),
        "trace.overhead_frac": metrics["trace.wall_s"] / untraced - 1.0,
    })
    return metrics, failed, dump["missing"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master_seed for every run of the workload (default: each config's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fmlab", "__init__.py")):
        print(f"no fmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    env = environment()
    flags = []
    concurrent = env["cpus_available"] >= 2  # 1-worker runs side by side, one per CPU
    if not concurrent:
        flags.append("samples_per_s_w2 measured with fewer than 2 CPUs available; "
                     "1-worker runs made one after the other")
        print(f"warning: {flags[-1]}", file=sys.stderr)

    workload = Workload(args.workload, args.seed)
    budget = Budget(args.seconds)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, failed, missing = per_layer(workload, workdir, budget, concurrent)
            units, raw = PER_LAYER, {}
        else:
            raw, failed = end_to_end(workload, workdir, budget, concurrent)
            metrics = {name: statistics.median(v) for name, v in raw.items() if v}
            units, missing = END_TO_END, []
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another benchmark process still uses it

    for name, unit in units.items():
        if name in metrics:
            extra = ""
            if name in raw:
                s = summary(raw[name])
                extra = f"  (median of {s['n']}" + (
                    f"; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})" if "q1" in s else ")")
            print(f"{name}: {metrics[name]:.6g} {unit}{extra}")
    problems = sorted(set(workload.problems))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seeds": [seed for _, _, _, seed in workload.runs],
        "seconds": args.seconds,
        "trace": args.trace,
        "samples_per_run": workload.samples,
        "environment": env,
        "flags": flags,
        "raw": {name: summary(v) for name, v in raw.items()},
        "missing_bindings": missing,
        "failed_frac": failed / max(workload.attempted, 1),
        "problems": problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    complete = all(name in metrics for name in units)
    result = {
        "correct": failed == 0 and not workload.problems and complete,
        "attempted": max(workload.attempted, 1),
        "failed": failed if complete else max(failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
