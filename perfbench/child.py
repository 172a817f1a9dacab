"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/child.py setup '<json>'   time import + config + model set-up
    python3 perfbench/child.py run '<json>'     run fmlab kinds through fmlab.cli.main

The parent sets PYTHONPATH to the checkout's src/ and pins BLAS/OpenMP
threads to 1.  The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _require_checkout_fmlab(root: str):
    """Import fmlab and insist it is the copy under root/src, not an installed one."""
    import fmlab

    src = os.path.realpath(os.path.join(root, "src"))
    where = os.path.realpath(fmlab.__file__)
    if not where.startswith(src + os.sep):
        print(f"fmlab imported from {where}, not from {src}", file=sys.stderr)
        sys.exit(3)


def setup(spec: dict):
    """Import the program and build every kind's model up to its first sample."""
    _require_checkout_fmlab(spec["root"])
    import fmlab.cli  # noqa: F401  (the user's entry point, imported as a user's run would)
    from fmlab import model, runner

    plan = getattr(model, "assembly_plan", None)
    for config in spec["configs"]:
        cfg = runner.load_config(config)
        mdl = runner.build_model(cfg)
        topo = runner.build_topology(cfg)
        runner.build_disorder(cfg)
        if plan is not None:
            plan(mdl, topo)
    return {"ready": time.perf_counter()}


def _checkpoint_bytes(outdir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(outdir, name))
        for name in os.listdir(outdir)
        if name.startswith("samples") and name.endswith(".jsonl")
    )


def _timed_main(main, argv, tracer=None, run_id=None):
    """(exit code, wall seconds) of one cli.main call; its stdout is discarded."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.run(run_id, main, argv)
    except Exception:  # the benchmark must report a crashing run, not die with it
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - t0


def run(spec: dict):
    """Run each (kind, config, outdir) with the given workers; optionally trace or resume."""
    _require_checkout_fmlab(spec["root"])
    from fmlab import cli

    tracer = None
    if spec.get("spans_out"):
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    out = []
    for run_id, (kind, config, outdir) in enumerate(spec["runs"]):
        argv = [kind, "--config", config, "--workers", str(spec["workers"]), "--out", outdir]
        if spec.get("seed") is not None:
            argv += ["--seed", str(spec["seed"])]
        code, wall = _timed_main(cli.main, argv, tracer, run_id)
        entry = {"kind": kind, "exit": code, "wall_s": wall}
        if code == 0:
            entry["checkpoint_bytes"] = _checkpoint_bytes(outdir)
        if spec.get("resume") and code == 0:
            results = os.path.join(outdir, "results.json")
            with open(results, "rb") as fh:
                first = fh.read()
            entry["resume_exit"], entry["resume_s"] = _timed_main(cli.main, argv)
            with open(results, "rb") as fh:
                entry["resume_identical"] = fh.read() == first
        out.append(entry)
    result = {"runs": out, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return result


if __name__ == "__main__":
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps({"setup": setup, "run": run}[mode](payload)))
