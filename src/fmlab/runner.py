"""Experiment orchestration: config parsing, dispatch, artifact emission.

Config files are JSON with a twist: real-valued fields are written as
strings ("1e-3", "1/3", "inf") or integers, never as JSON floats, so the
canonical form (sorted keys, compact separators) hashes identically on every
platform.  Integer fields are JSON integers and lists of reals are JSON
arrays; a boolean or a string in their place is a config error.  The digest
excludes the volatile fields "workers" and "out", which cannot influence
results.

Timing and environment stamps go to run_meta.json; results.json and
series.csv are byte-deterministic functions of (config, master_seed).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256

import numpy as np

from . import disorder as disorder_mod
from . import estimators as est
from . import inequalities as ineq
from .engine import canonical_json
from .errors import ConfigurationError
from .model import alloy_model, singular_covering_model, block_model, spencer_model
from .rng import Stream, derive_sample_seed
from .topology import distances_from, make_lattice_box

_VOLATILE_KEYS = ("workers", "out")


def parse_real(value, path: str = "value") -> float:
    """Parse a config real: int, or a string decimal / scientific / p/q / inf."""
    if isinstance(value, bool) or value is None:
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                return float(Fraction(text))
            return float(text)
        except (ValueError, ZeroDivisionError):
            raise ConfigurationError(f"{path}: cannot parse real {value!r}")
    raise ConfigurationError(f"{path}: reals must be strings or integers, got {value!r}")


def _reject_float(_s):
    raise ConfigurationError(
        "config contains a JSON float; write reals as strings to keep digests stable"
    )


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: the config must be a JSON object")
    return cfg


def section(cfg: dict, name: str, required: bool = True) -> dict:
    """The config section cfg[name], which must be a JSON object; an absent
    optional section reads as {}."""
    if name not in cfg:
        if required:
            raise ConfigurationError(f"{name}: section missing")
        return {}
    if not isinstance(cfg[name], dict):
        raise ConfigurationError(f"{name}: expected a JSON object, got {cfg[name]!r}")
    return cfg[name]


def config_digest(cfg: dict) -> str:
    trimmed = {k: v for k, v in cfg.items() if k not in _VOLATILE_KEYS}
    return sha256(canonical_json(trimmed).encode("utf-8")).hexdigest()


def _reals(values, path: str) -> list:
    """A config list of reals, which must be a JSON array."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{path}: expected a JSON array of reals, got {values!r}")
    return [parse_real(v, path) for v in values]


def _parse_complex_matrix(rows, path: str) -> np.ndarray:
    try:
        mat = np.array(
            [[complex(parse_real(c[0], path), parse_real(c[1], path)) for c in row]
             for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, IndexError):
        raise ConfigurationError(f"{path}: matrices are nested [re, im] pairs")
    return mat


def _parse_offset(key: str):
    return tuple(int(part) for part in str(key).split(","))


def _required(p: dict, key: str, where: str):
    """The value of a field that has no default."""
    if key not in p:
        raise ConfigurationError(f"{where}{key}: required field missing")
    return p[key]


def build_topology(cfg: dict):
    t = section(cfg, "topology")
    sides = _required(t, "sides", "topology.")
    sides = [
        _int({"sides": s}, "sides", None, 1, where="topology.")
        for s in (sides if isinstance(sides, list) else [sides])
    ]
    periodic = t.get("periodic", False)
    if not isinstance(periodic, bool):
        raise ConfigurationError(f"topology.periodic: expected true or false, got {periodic!r}")
    return make_lattice_box(_int(t, "d", len(sides), 1, where="topology."), sides, periodic)


def build_disorder(cfg: dict):
    d = section(cfg, "disorder")
    params = _reals(d.get("params", []), "disorder.params")
    return disorder_mod.make_spec(d.get("family", "uniform"), params)


def build_model(cfg: dict):
    m = section(cfg, "model")
    variant = m.get("variant", "block")
    g = parse_real(m.get("g", 1), "model.g")
    if variant == "spencer":
        return spencer_model(parse_real(m.get("a", 1), "model.a"), g)
    if variant == "singular_covering":
        return singular_covering_model(g)
    if variant == "alloy":
        coeffs = {
            _parse_offset(k): parse_real(v, f"model.coeffs[{k}]")
            for k, v in section(m, "coeffs", required=False).items()
        }
        return alloy_model(coeffs, g)
    if variant == "block":
        a = _parse_complex_matrix(_required(m, "A", "model."), "model.A")
        b = _parse_complex_matrix(_required(m, "B", "model."), "model.B")
        hopping = None
        if "hopping" in m:
            hopping = {
                _parse_offset(k): _parse_complex_matrix(v, f"model.hopping[{k}]")
                for k, v in section(m, "hopping").items()
            }
        return block_model(a, b, g, hopping)
    raise ConfigurationError(f"model.variant: unknown variant {variant!r}")


@dataclass(eq=False)
class ResultRecord:
    kind: str
    config_digest: str
    master_seed: int
    outputs: dict
    columns: list
    rows: list  # per-row lists matching columns
    timing: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def deterministic_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "outputs": self.outputs,
            "series": {"columns": self.columns, "rows": self.rows},
        }

    def to_json(self) -> str:
        return json.dumps(self.deterministic_dict(), sort_keys=True, indent=1) + "\n"


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.16e}"  # 17 significant digits: lossless float64 round-trip
    return str(x)


def emit_csv(record: ResultRecord, path: str):
    """UTF-8 CSV with a header row; floats in 17-significant-digit scientific form."""
    lines = [",".join(record.columns)]
    for row in record.rows:
        lines.append(",".join(_fmt_cell(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# kinds: each runs its estimators on the parsed estimator block and returns
# (outputs, series rows); checkpoint(scan) is the path of one engine scan


def _real(p: dict, key: str, default=None) -> float:
    return parse_real(p.get(key, default), f"estimator.{key}")


def _int(p: dict, key: str, default, lo: int, hi: float = math.inf,
         where: str = "estimator.") -> int:
    """An integer field of a config section (the estimator block unless
    `where` names another): a JSON integer, not a boolean or a string,
    in [lo, hi)."""
    value = p.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value < hi:
        raise ConfigurationError(
            f"{where}{key}: expected an integer in [{lo}, {hi}), got {p.get(key)!r}"
        )
    return value


def _count(p: dict, key: str, default: int) -> int:
    return _int(p, key, default, 1)


def _site(p: dict, topo) -> int:
    """The estimator's x0, a vertex of the box."""
    return _int(p, "x0", 0, 0, topo.n_vertices)


def _series(columns, *constants) -> list:
    """Rows of the equal-length array columns, each followed by the constants."""
    return [[*row, *constants] for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _d_min(p, topo, x0: int) -> int:
    """The decay fit's smallest distance, refused before any sample is drawn
    when fewer than the fit's 3 distinct distances from x0 reach it."""
    d_min = _int(p, "d_min", 1, 0)
    reached = {int(d) for d in distances_from(topo, x0) if d >= d_min}
    if len(reached) < 3:
        raise ConfigurationError(
            f"estimator.d_min: {d_min} leaves {len(reached)} distinct distances from x0 = {x0}; "
            "the decay fit needs >= 3"
        )
    return d_min


def _fit(prof, d_min: int) -> dict:
    return {"fit": est.decay_rate_fit(prof, d_min=d_min), "d_min": d_min}


def _interval(p) -> tuple:
    """The closed energy window [lo, hi], lo < hi."""
    lo_hi = tuple(_reals(p.get("interval", ["-1", "1"]), "estimator.interval"))
    if len(lo_hi) != 2 or not lo_hi[0] < lo_hi[1]:
        raise ConfigurationError(
            f"estimator.interval: expected [lo, hi] with lo < hi, got {p.get('interval')!r}"
        )
    return lo_hi


def _run_decay(p, model, topo, dis, seed, workers, checkpoint):
    x0, s, lam = _site(p, topo), _real(p, "s", "1/3"), _real(p, "lambda", 0)
    d_min = _d_min(p, topo, x0)
    samples = _count(p, "samples", 1000)
    if p.get("eps", "auto") == "auto":  # an eigensolve of sample 0, so after every parse
        eps = est.default_eps(model, topo, dis, seed)
    else:
        eps = _real(p, "eps")
    profile = est.fractional_moment_profile(
        model, topo, dis, x0=x0, s=s, lam=lam, eps=eps, samples=samples,
        master_seed=seed, workers=workers, checkpoint_path=checkpoint(),
    )
    ok, margin = est.moment_max_check(profile)
    outputs = {
        **_fit(profile, d_min),
        "eps_used": eps,
        "max_at_diagonal": ok,
        "max_margin": margin,
        "resamples": profile.resamples,
        "flags": list(profile.flags),
        "estimate": est.to_payload(profile),
    }
    columns = (profile.distances, profile.means, profile.errs)
    return outputs, _series(columns, profile.n_samples, profile.resamples)


def _run_wegner(p, model, topo, dis, seed, workers, checkpoint):
    we = est.wegner_exponent(
        model, topo, dis,
        lambda0=_real(p, "lambda0", 0),
        eps_list=_reals(_required(p, "eps_list", "estimator."), "estimator.eps_list"),
        samples=_count(p, "samples", 1000),
        master_seed=seed,
        workers=workers,
        checkpoint_path=checkpoint(),
    )
    outputs = {"exponent": we.exponent, "flags": list(we.flags), "estimate": est.to_payload(we)}
    return outputs, _series((we.eps_list, we.masses, we.errs), we.n_samples)


def _run_ids(p, model, topo, dis, seed, workers, checkpoint):
    bins = section(p, "bins", required=False)
    if "edges" in bins:
        edges = np.array(_reals(bins["edges"], "estimator.bins.edges"))
    else:
        edges = np.linspace(
            parse_real(bins.get("lo", -3), "estimator.bins.lo"),
            parse_real(bins.get("hi", 3), "estimator.bins.hi"),
            _int(bins, "n", 64, 1, where="estimator.bins.") + 1,
        )
    ids = est.ids_histogram(
        model, topo, dis,
        samples=_count(p, "samples", 200),
        edges=edges,
        master_seed=seed,
        workers=workers,
        checkpoint_path=checkpoint(),
    )
    outputs = {"total_mass": float(np.sum(ids.masses)), "estimate": est.to_payload(ids)}
    return outputs, _series((ids.edges[:-1], ids.edges[1:], ids.masses, ids.errs))


def _run_correlator(p, model, topo, dis, seed, workers, checkpoint):
    x0 = _site(p, topo)
    d_min = _d_min(p, topo, x0)
    prof = est.correlator_decay_profile(
        model, topo, dis,
        interval=_interval(p),
        samples=_count(p, "samples", 500),
        master_seed=seed,
        x0=x0,
        workers=workers,
        checkpoint_path=checkpoint(),
    )
    k_bound = prof.extras["k"] + 1e-8
    outputs = {
        **_fit(prof, d_min),
        "max_correlator": prof.extras["max_correlator"],
        "k_bound_ok": bool(prof.extras["max_correlator"] <= k_bound),
        "estimate": est.to_payload(prof),
    }
    return outputs, _series((prof.distances, prof.means, prof.errs), prof.n_samples)


def _run_dynamical(p, model, topo, dis, seed, workers, checkpoint):
    prof = est.dynamical_profile(
        model, topo, dis,
        interval=_interval(p),
        samples=_count(p, "samples", 200),
        master_seed=seed,
        x0=_site(p, topo),
        t_points=_count(p, "t_points", est.T_GRID_POINTS),
        workers=workers,
        checkpoint_path=checkpoint(),
    )
    outputs = {
        "max_excess_over_2q": prof.extras["max_excess_over_2q"],
        "factor1_hold_fraction": prof.extras["factor1_hold_fraction"],
        "bound_ok": bool(prof.extras["max_excess_over_2q"] <= 1e-8),
        "estimate": est.to_payload(prof),
    }
    return outputs, _series((prof.distances, prof.means, prof.errs), prof.n_samples)


def _run_inequalities(p, model, topo, dis, seed, workers, checkpoint):
    samples = _count(p, "samples", 300)
    draws = _count(p, "draws", 200)
    l_points, m_points = _int(p, "l", 3, 0), _int(p, "m", 3, 0)
    rh_j = _count(p, "rh_j", 2)
    rh_trials = _count(p, "rh_trials", 100)
    eps = _real(p, "eps", "1e-3")
    lam = _real(p, "lambda", 0)
    s_step = _real(p, "one_step_s", "1/3")
    pairs = _int(p, "pairs", 6, 0)
    lam_grid = _reals(p.get("lambda_grid", ["0", "0.5", "1", "2"]), "estimator.lambda_grid")
    scale_keys = p.get("scales", ["5", "10"])
    scales = list(zip(scale_keys, _reals(scale_keys, "estimator.scales")))
    s_dec = _real(p, "decoupling_s", "0.2")
    s_scan, r_scan = _real(p, "s", "0.15"), _real(p, "r", "0.15")
    rh_s, vinv_s = _real(p, "rh_s", "0.2"), _real(p, "vinv_s", "0.5")

    # random (x, y) pairs from a dedicated stream
    pair_stream = Stream(derive_sample_seed(seed, 0xA11))
    n = topo.n_vertices
    one_step = []
    for j in range(pairs):
        w = pair_stream.uniforms(2)
        x, y = int(w[0] * n), int(w[1] * n)
        one_step.append(
            ineq.one_step_bound_check(
                model, topo, dis, x, y, s_step, lam, eps,
                samples, derive_sample_seed(seed, 1000 + j), workers,
                checkpoint_path=checkpoint(f"one_step_{j}"),
            )
        )
    lem = ineq.decoupling_ratio(
        model, topo, dis, 0, min(2, n - 1), s_dec,
        lam_grid, eps, samples, derive_sample_seed(seed, 2000), workers,
        checkpoint_path=checkpoint("decoupling"),
    )
    scan_results = {}
    rows = []
    for j, (scale, param_scale) in enumerate(scales):
        scan = ineq.comparability_scan(
            dis,
            l_points,
            m_points,
            s_scan,
            r_scan,
            draws,
            param_scale,
            derive_sample_seed(seed, 3000),
            workers=workers,
            checkpoint_path=checkpoint(f"scan_{j}"),  # by position: no config string in a path
        )
        scan_results[str(scale)] = {
            "ratio_min": scan["ratio_min"],
            "ratio_max": scan["ratio_max"],
            "failures": len(scan["failures"]),
        }
        rows += [
            [scan["param_scale"], i,
             canonical_json({"a": r["a"], "b": r["b"]}),
             float(r["lhs"]), float(r["rhs"]), float(r["ratio"])]
            for i, r in enumerate(scan["records"])
        ]
    rh = ineq.reverse_holder_check(
        dis,
        rh_s,
        rh_j,
        rh_trials,
        derive_sample_seed(seed, 4000),
        workers=workers,
        checkpoint_path=checkpoint("rh"),
    )
    vinv = None
    if model.variant != "alloy":
        vinv = ineq.vinv_moment(
            model, lam, vinv_s,
            max(samples, 2000), derive_sample_seed(seed, 5000), dis,
        )
    outputs = {
        "one_step": one_step,
        "one_step_all_pass": bool(all(r["pass"] for r in one_step)),
        "decoupling": lem,
        "decoupling_min_ratio": float(
            min((e["ratio"] for e in lem if not e["skipped"]), default=math.nan)
        ),
        "comparability": scan_results,
        "reverse_holder": {
            "worst_constant": rh["worst_constant"],
            "failures": len(rh["failures"]),
        },
        "vinv": vinv,
    }
    return outputs, rows


# kind -> (run function, series columns)
_KINDS = {
    "decay": (_run_decay, ["distance", "mean", "mom_err", "n", "resamples"]),
    "wegner": (_run_wegner, ["eps", "mass", "err", "n"]),
    "ids": (_run_ids, ["bin_lo", "bin_hi", "mass", "err"]),
    "correlator": (_run_correlator, ["distance", "mean", "err", "n"]),
    "dynamical": (_run_dynamical, ["distance", "mean", "err", "n"]),
    "inequalities": (_run_inequalities, ["scale", "draw", "parameters", "lhs", "rhs", "ratio"]),
}
KINDS = tuple(_KINDS)


def _linalg_build() -> dict:
    """Name and version of the BLAS and LAPACK numpy was built against."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        return {}
    return {
        lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
        for lib in ("blas", "lapack")
        if lib in deps
    }


def run(cfg: dict, outdir: str | None = None) -> ResultRecord:
    """Dispatch a config to its estimator suite and return the ResultRecord.

    When outdir is given, artifacts (canonical config copy, checkpoint,
    results.json, run_meta.json) are written there and runs are resumable.
    An outdir holding checkpoints or results.json beside a config.json with
    another config digest is refused, since they belong to that run.
    """
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigurationError(f"kind: expected one of {KINDS}, got {kind!r}")
    seed = cfg.get("master_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError("master_seed: must be an integer")
    workers = _int(cfg, "workers", 1, 1, where="")
    digest = config_digest(cfg)

    estimator = section(cfg, "estimator", required=False)
    model = build_model(cfg)
    topo = build_topology(cfg)
    dis = build_disorder(cfg)

    if outdir:
        os.makedirs(outdir, exist_ok=True)
        # the checkpoints and results in an outdir belong to the run whose config.json
        # they sit beside; a config.json alone (from a refused config) claims nothing
        config_path = os.path.join(outdir, "config.json")
        claimed = any(
            name == "results.json" or (name.startswith("samples") and name.endswith(".jsonl"))
            for name in os.listdir(outdir)
        )
        if (claimed and os.path.exists(config_path)
                and config_digest(load_config(config_path)) != digest):
            raise ConfigurationError(
                f"{outdir} belongs to another run; a different config, seed or sample count "
                "needs a new output directory"
            )
        _atomic_write(config_path, json.dumps(cfg, sort_keys=True, indent=1) + "\n")

    def checkpoint(scan=None):
        if not outdir:
            return None
        return os.path.join(outdir, "samples.jsonl" if scan is None else f"samples.{scan}.jsonl")

    run_kind, columns = _KINDS[kind]
    started = time.time()
    outputs, rows = run_kind(estimator, model, topo, dis, seed, workers, checkpoint)
    elapsed = time.time() - started

    record = ResultRecord(
        kind=kind,
        config_digest=digest,
        master_seed=seed,
        outputs=outputs,
        columns=list(columns),
        rows=rows,
        timing={"elapsed_seconds": elapsed, "finished_unix": time.time()},
        environment={"numpy": np.__version__, **_linalg_build()},
    )
    if outdir:
        _atomic_write(os.path.join(outdir, "results.json"), record.to_json())
        _atomic_write(
            os.path.join(outdir, "run_meta.json"),
            json.dumps(
                {"timing": record.timing, "environment": record.environment},
                sort_keys=True,
                indent=1,
            ) + "\n",
        )
    return record
