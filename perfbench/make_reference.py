"""Record the reference values of every benchmark config's key scalars.

    python3 perfbench/make_reference.py

Runs each config at SEEDS seeds and rewrites perfbench/reference.json with,
per key scalar, [mean over the seeds, standard error of that mean, standard
deviation over the seeds].  The seeds (FIRST_SEED onwards) are not ones a
benchmark run is likely to be given, so a run's check is out of sample.  It
prints, per scalar, the median error one run reports and the largest
|x - mean| / sqrt(se^2 + se_mean^2) over the seeds, with se as checks.py takes
it, the figure it compares with 4.  Run it only on the commit whose results are the reference; later
commits are checked against the recorded values.
"""

import json
import math
import os
import shutil
import statistics

from checks import key_scalars
from run import HERE, ROOT, WORKLOADS, Budget, spawn

FIRST_SEED = 1001
SEEDS = 32


def main():
    reference = {}
    workdir = os.path.join(ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    try:
        for runs in WORKLOADS.values():
            for kind, fname in runs:
                per_seed = []
                for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
                    outdir = os.path.join(workdir, f"{fname[:-5]}-{seed}")
                    spec = {"root": ROOT, "runs": [[kind, os.path.join(HERE, "configs", fname), outdir]],
                            "workers": 2, "seed": seed}
                    report, err = spawn("run", spec, Budget(0.0))
                    if report is None or report["runs"][0]["exit"] != 0:
                        raise SystemExit(f"{fname} seed {seed}: run failed\n{err}")
                    with open(os.path.join(outdir, "results.json"), encoding="utf-8") as fh:
                        per_seed.append(key_scalars(kind, json.load(fh)))
                    shutil.rmtree(outdir)
                reference[fname] = {}
                for name in per_seed[0]:
                    values = [s[name][0] for s in per_seed]
                    mean = statistics.fmean(values)
                    spread = statistics.stdev(values)
                    se_mean = spread / math.sqrt(len(values))
                    run_se = statistics.median(s[name][1] for s in per_seed)
                    reference[fname][name] = [mean, se_mean, spread]
                    worst = max(abs(v - mean) / math.hypot(max(s[name][1], spread), se_mean)
                                for v, s in zip(values, per_seed))
                    print(f"{fname} {name}: mean {mean:.6g}, se of mean {se_mean:.3g}, "
                          f"spread {spread:.3g}, run se {run_se:.3g}, largest |z| {worst:.2f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
