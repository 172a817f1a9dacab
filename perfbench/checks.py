"""Output check for one fmlab run: worker-count identity, invariants, reference values.

A run passes when
* its results.json is byte-identical to the same run made again (with the
  other worker count, or beside it on the other CPU);
* the invariants of its kind hold (decay rate > 0 with the maximum on the
  diagonal, correlator Q <= k, dynamical sup <= 2Q, IDS mass 1, every
  inequality check passing);
* its key scalars lie within 4 standard errors of the values recorded at the
  seed commit: |x - ref| <= 4 sqrt(se^2 + se_ref^2).  se_ref is the standard
  error of the reference mean; se is the larger of the error the run reports
  and the spread (standard deviation) of the scalar over the reference seeds,
  because for these heavy-tailed moments a run without a large sample reports
  both a low mean and a low error.  reference.json holds, per scalar, the mean
  over many seeds, its standard error and that spread (see make_reference.py).
  Values, not bytes, so a change that moves the last digits of the
  floating-point results still passes, while a wrong leading digit or a
  factor of 2 does not.  With the reported error alone, correct runs fail: a
  decay run at seed 16 reports mean_x0 4.5 errors below the reference, and at
  3 errors the 32 reference seeds themselves reach 3.31 (correlator at x0).
"""

from __future__ import annotations

import json
import math

TOLERANCE_SE = 4.0


def key_scalars(kind: str, res: dict) -> dict:
    """name -> (value, standard error) for the scalars compared against the reference."""
    out = res["outputs"]
    if kind == "inequalities":
        # the one-step pairs (x, y) are drawn from the seed, so they are not compared;
        # the decoupling pair and the vinv moment are fixed by the config
        lem, vinv = out["decoupling"][0], out["vinv"]
        return {
            "decoupling0_num": (lem["num"], lem["num_err"]),
            "decoupling0_den": (lem["den"], lem["den_err"]),
            "vinv": (vinv["value"], vinv["err"]),
        }
    est = out["estimate"]
    if kind in ("decay", "correlator"):
        x0 = est["distances"].index(0)
        scalars = {"mean_x0": (est["means"][x0], est["errs"][x0])}
        # not the correlator at d_min: there it is rare resonances, and the error
        # a run reports is half the spread over seeds (|z| reaches 4.6 in 32 seeds)
        if kind == "decay":
            i = est["distances"].index(out["d_min"])
            scalars["mean_dmin"] = (est["means"][i], est["errs"][i])
        return scalars
    if kind == "dynamical":
        i = est["distances"].index(1)
        return {"mean_d1": (est["means"][i], est["errs"][i])}
    if kind == "wegner":
        return {"mass_widest": (est["masses"][0], est["errs"][0])}
    if kind == "ids":
        edges = est["edges"]
        i = next(j for j in range(len(edges) - 1) if edges[j] <= 0.0 < edges[j + 1])
        return {"mass_at_0": (est["masses"][i], est["errs"][i])}
    raise ValueError(f"no key scalars for kind {kind!r}")


def invariant_problems(kind: str, res: dict) -> list:
    out = res["outputs"]
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{kind}: {what}")

    if kind == "decay":
        need(out["fit"]["rate"] > 0, f"decay rate {out['fit']['rate']} is not > 0")
        need(out["max_at_diagonal"] is True, "moment maximum is not on the diagonal")
    elif kind == "correlator":
        need(out["k_bound_ok"] is True, "correlator exceeds Q <= k")
    elif kind == "dynamical":
        need(out["bound_ok"] is True, "time-evolution sup exceeds 2Q")
    elif kind == "ids":
        need(abs(out["total_mass"] - 1.0) <= 1e-9, f"IDS total mass {out['total_mass']} != 1")
    elif kind == "wegner":
        need(math.isfinite(out["exponent"]), f"Wegner exponent {out['exponent']} not finite")
    elif kind == "inequalities":
        need(out["one_step_all_pass"] is True, "one-step bound failed")
        for scale, scan in out["comparability"].items():
            need(scan["failures"] == 0, f"comparability scan {scale} has failures")
        need(out["reverse_holder"]["failures"] == 0, "reverse-Holder check has failures")
    return problems


def reference_problems(kind: str, res: dict, reference: dict) -> list:
    problems = []
    for name, (value, se) in key_scalars(kind, res).items():
        ref, ref_se, ref_spread = reference[name]
        tol = TOLERANCE_SE * math.hypot(max(se, ref_spread), ref_se)
        if not abs(value - ref) <= tol:  # also catches NaN
            problems.append(
                f"{kind}: {name} = {value!r} is {abs(value - ref):.3g} from the reference "
                f"{ref!r}, beyond {TOLERANCE_SE:g} standard errors ({tol:.3g})"
            )
    return problems


def check_run(kind: str, text: str, seed: int, reference: dict, other_text: str | None = None) -> list:
    """All problems with one run's results.json text; [] when it passes.

    other_text is the results.json of the same run made again: with the other
    worker count, or the other 1-worker run of a side-by-side pair.
    """
    if other_text is not None and other_text != text:
        return [f"{kind}: results.json differs from the same run made again"]
    try:
        res = json.loads(text)
        problems = []
        if res["kind"] != kind:
            problems.append(f"{kind}: results.json is of kind {res['kind']!r}")
        if res["master_seed"] != seed:
            problems.append(f"{kind}: results.json has master_seed {res['master_seed']}, not {seed}")
        return problems + invariant_problems(kind, res) + reference_problems(kind, res, reference)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [f"{kind}: malformed results.json ({type(exc).__name__}: {exc})"]
