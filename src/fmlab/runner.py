"""Experiment orchestration: config parsing, dispatch, artifact emission.

Config files are JSON with a twist: real-valued fields are written as
strings ("1e-3", "1/3", "inf") or integers, never as JSON floats, so the
canonical form (sorted keys, compact separators) hashes identically on every
platform.  Every real is finite but model.g, whose "inf" decouples the
sites.  Integer fields are JSON integers and lists of reals are JSON
arrays; a boolean or a string in their place is a config error.  The digest
excludes the volatile fields "workers" and "out", which cannot influence
results.

Every key a config may hold is declared in a field table mapping key ->
(parser, default): _TOP, _TOPOLOGY, _DISORDER, _MODELS[variant] and each
kind's estimator table in _KINDS.  A parser returns the checked value, range
included, or raises ConfigurationError naming the key's path; an absent key
takes its default through the same parser, _REQUIRED keys must be present,
and a key no table names is refused.  A rule that spans fields stays with
its owner (the model and box builders, assembly_plan for the offsets a box
realizes, check_comparability_regime), called here with the section's path.
The library checks none of these ranges again.

parse_config() parses the whole config and runs every rule; run() calls it
before it touches the outdir, so no config is refused once a run has begun.
_KINDS maps each kind to its library function, kind(p, model, topo,
disorder, master_seed, workers, outdir) -> (outputs, rows), which gets the
parsed estimator fields p and returns what results.json holds.

Timing and environment stamps go to run_meta.json; results.json and
series.csv are byte-deterministic functions of (config, master_seed).
"""

from __future__ import annotations

import json
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
from .model import alloy_model, assembly_plan, block_model, singular_covering_model, spencer_model
from .topology import distances_from, make_lattice_box

_VOLATILE_KEYS = ("workers", "out")
_REQUIRED = object()  # the default of a key that must be present


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


def section(cfg: dict, name: str) -> dict:
    """The config section cfg[name], which must be present and a JSON object."""
    if name not in cfg:
        raise ConfigurationError(f"{name}: section missing")
    return _object(cfg[name], name)


def config_digest(cfg: dict) -> str:
    trimmed = {k: v for k, v in cfg.items() if k not in _VOLATILE_KEYS}
    return sha256(canonical_json(trimmed).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# field tables map key -> (parser, default); a parser maps (raw JSON value,
# key path) to a checked value or raises ConfigurationError naming the path


def _parse_table(raw, table: dict, path: str) -> dict:
    """The JSON object raw, found at path, parsed against a field table."""
    prefix = f"{path}." if path else ""
    unknown = sorted(set(_object(raw, path or "config")) - set(table))
    if unknown:
        raise ConfigurationError(
            f"{prefix}{unknown[0]}: unknown key; expected one of {', '.join(sorted(table))}"
        )
    parsed = {}
    for key, (parse, default) in table.items():
        if key in raw:
            parsed[key] = parse(raw[key], prefix + key)
        elif default is _REQUIRED:
            raise ConfigurationError(f"{prefix}{key}: required field missing")
        else:
            parsed[key] = None if default is None else parse(default, prefix + key)
    return parsed


def _json(kind: type, what: str):
    """A JSON value of exactly this type (so a boolean is never an integer)."""
    def parse(value, path):
        if type(value) is not kind:
            raise ConfigurationError(f"{path}: expected {what}, got {value!r}")
        return value
    return parse


_object, _text = _json(dict, "a JSON object"), _json(str, "a string")
_bool, _integer = _json(bool, "true or false"), _json(int, "an integer")
_array = _json(list, "a JSON array of reals")


def _in(window: str, parse=parse_real):
    """A number read by parse that lies in window, e.g. "(0, 1)" or "[1, inf)"."""
    lo, hi = (float(end) for end in window[1:-1].split(","))

    def check(value, path):
        x = parse(value, path)
        if not ((lo <= x if window[0] == "[" else lo < x)
                and (x <= hi if window[-1] == "]" else x < hi)):
            raise ConfigurationError(f"{path}: expected a number in {window}, got {value!r}")
        return x
    return check


_FINITE, _NONNEGATIVE = _in("(-inf, inf)"), _in("[0, inf)")


def _choice(options: tuple):
    def check(value, path):
        if value not in options:  # a tuple compares, so an unhashable value is refused too
            raise ConfigurationError(f"{path}: expected one of {options}, got {value!r}")
        return value
    return check


def _reals(value, path: str) -> list:
    return [_FINITE(v, path) for v in _array(value, path)]


def _interval(value, path: str) -> tuple:
    """The closed energy window [lo, hi], lo < hi."""
    lo_hi = tuple(_reals(value, path))
    if len(lo_hi) != 2 or not lo_hi[0] < lo_hi[1]:
        raise ConfigurationError(f"{path}: expected [lo, hi] with lo < hi, got {value!r}")
    return lo_hi


def _matrix(rows, path: str) -> np.ndarray:
    """A complex matrix written as nested [re, im] pairs."""
    try:
        return np.array(
            [[complex(parse_real(c[0], path), parse_real(c[1], path)) for c in row]
             for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, IndexError):
        raise ConfigurationError(f"{path}: matrices are nested [re, im] pairs")


def _offset_map(parse_value):
    """A JSON object from lattice offsets ("1", "0,-1", ...) to parsed values."""
    def parse(value, path):
        parsed = {}
        for key, entry in _object(value, path).items():
            try:
                offset = tuple(int(part) for part in key.split(","))
            except ValueError:
                raise ConfigurationError(f"{path}[{key}]: offsets are comma-separated integers")
            parsed[offset] = parse_value(entry, f"{path}[{key}]")
        return parsed
    return parse


_COUNT, _NATURAL = _in("[1, inf)", _integer), _in("[0, inf)", _integer)
_BINS = {"n": (_COUNT, 64), "lo": (_FINITE, -3), "hi": (_FINITE, 3), "edges": (_reals, None)}


def _edges(value, path: str) -> np.ndarray:
    """The ids histogram edges, strictly increasing: bins.edges, or bins.n
    equal bins on [bins.lo, bins.hi]."""
    bins = _parse_table(value, _BINS, path)
    if bins["edges"] is not None:
        edges = np.array(bins["edges"])
    else:
        edges = np.linspace(bins["lo"], bins["hi"], bins["n"] + 1)
    if edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ConfigurationError(f"{path}: expected strictly increasing edges, got {value!r}")
    return edges


def _eps_list(value, path: str) -> np.ndarray:
    """The wegner window half-widths, descending: at least 3, distinct and positive."""
    eps = np.sort(_reals(value, path))[::-1].copy()
    if eps.size < 3 or not (eps[-1] > 0 and np.all(eps[:-1] > eps[1:])):
        raise ConfigurationError(f"{path}: expected >= 3 distinct positive reals, got {value!r}")
    return eps


_TOPOLOGY = {
    "d": (_COUNT, None),  # None: one dimension per side length
    "sides": (lambda v, path: [_COUNT(s, path) for s in (v if type(v) is list else [v])],
              _REQUIRED),
    "periodic": (_bool, False),
}
_DISORDER = {"family": (_text, "uniform"), "params": (_reals, [])}
_MODEL = {"variant": (_text, "block"), "g": (_in("(0, inf]"), 1)}
_MODELS = {  # variant -> (builder, its keywords' field table plus variant)
    "block": (block_model, {**_MODEL, "A": (_matrix, _REQUIRED), "B": (_matrix, _REQUIRED),
                            "hopping": (_offset_map(_matrix), None)}),
    "spencer": (spencer_model, {**_MODEL, "a": (_FINITE, 1)}),
    "singular_covering": (singular_covering_model, _MODEL),
    "alloy": (alloy_model, {**_MODEL, "coeffs": (_offset_map(_FINITE), {})}),
}


def _owned(path: str, rule, *args, **fields):
    """rule(*args, **fields), a builder or cross-field check that owns its
    rule, with the config path prefixed to its ConfigurationError."""
    try:
        return rule(*args, **fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _build(cfg: dict, name: str, make, table: dict):
    """make(**fields) of the section cfg[name] parsed against table."""
    return _owned(name, make, **_parse_table(section(cfg, name), table, name))


def build_topology(cfg: dict):
    def box(d, sides, periodic):
        return make_lattice_box(len(sides) if d is None else d, sides, periodic)
    return _build(cfg, "topology", box, _TOPOLOGY)


def build_disorder(cfg: dict):
    return _build(cfg, "disorder", disorder_mod.make_spec, _DISORDER)


def build_model(cfg: dict):
    variant = section(cfg, "model").get("variant", "block")
    make, table = _MODELS[_choice(tuple(_MODELS))(variant, "model.variant")]
    return _build(cfg, "model", lambda variant, **fields: make(**fields), table)


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
        """Strict JSON: non-finite reals are the strings "nan", "inf", "-inf"."""
        return json.dumps(est._jsonable(self.deterministic_dict()), sort_keys=True, indent=1,
                          allow_nan=False) + "\n"


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


# cross-section checks: (estimator fields, model, topology, disorder) -> None,
# or ConfigurationError for a config whose estimators could not give a result


def _check_site(p, model, topo, dis):
    _in(f"[0, {topo.n_vertices})", _integer)(p["x0"], "estimator.x0")


def _check_decay_fit(p, model, topo, dis):
    """x0 is a site, the sites are coupled, and the fit's 3 distinct distances
    from x0 reach d_min."""
    _check_site(p, model, topo, dis)
    if model.coupling == 0.0:
        raise ConfigurationError("model.g: inf decouples the sites; every bin beyond x0 is zero")
    reached = {int(d) for d in distances_from(topo, p["x0"]) if d >= p["d_min"]}
    if len(reached) < 3:
        raise ConfigurationError(
            f"estimator.d_min: {p['d_min']} leaves {len(reached)} distinct distances from "
            f"x0 = {p['x0']}; the decay fit needs >= 3"
        )


def _check_comparability(p, model, topo, dis):
    _owned("estimator.{s, l, r, m}", ineq.check_comparability_regime,
           dis, p["l"], p["m"], p["s"], p["r"])


_SITE = (_NATURAL, 0)  # x0; below the number of sites, which _check_site checks
# kind -> (kind function, series columns, estimator field table, check or None)
_KINDS = {
    "decay": (est.decay, ["distance", "mean", "mom_err", "n", "resamples"], {
        "s": (_in("(0, 1)"), "1/3"),
        "lambda": (_FINITE, 0),
        "eps": (lambda v, path: v if v == "auto" else _NONNEGATIVE(v, path), "auto"),
        "samples": (_in("[100, inf)", _integer), 1000),
        "x0": _SITE,
        "d_min": (_NATURAL, 1),
    }, _check_decay_fit),
    "wegner": (est.wegner, ["eps", "mass", "err", "n"], {
        "lambda0": (_FINITE, 0),
        "eps_list": (_eps_list, _REQUIRED),
        "samples": (_COUNT, 1000),
    }, None),
    "ids": (est.ids, ["bin_lo", "bin_hi", "mass", "err"], {
        "samples": (_COUNT, 200),
        "bins": (_edges, {}),
    }, None),
    "correlator": (est.correlator, ["distance", "mean", "err", "n"], {
        "interval": (_interval, ["-1", "1"]),
        "samples": (_COUNT, 500),
        "x0": _SITE,
        "d_min": (_NATURAL, 1),
    }, _check_decay_fit),
    "dynamical": (est.dynamical, ["distance", "mean", "err", "n"], {
        "interval": (_interval, ["-1", "1"]),
        "samples": (_COUNT, 200),
        "x0": _SITE,
        "t_points": (_COUNT, est.T_GRID_POINTS),
    }, _check_site),
    "inequalities": (ineq.inequalities, ["scale", "draw", "parameters", "lhs", "rhs", "ratio"], {
        "samples": (_COUNT, 300),
        "draws": (_COUNT, 200),
        "pairs": (_NATURAL, 6),
        # (name, real) pairs: the names, as written, key the comparability outputs
        "scales": (lambda v, path: list(zip(v, _reals(v, path))), ["5", "10"]),
        "s": (_NONNEGATIVE, "0.15"),
        "r": (_NONNEGATIVE, "0.15"),
        "l": (_NATURAL, 3),
        "m": (_NATURAL, 3),
        "rh_trials": (_COUNT, 100),
        "rh_s": (_FINITE, "0.2"),
        "rh_j": (_COUNT, 2),
        "one_step_s": (_in("(0, 1]"), "1/3"),
        "decoupling_s": (_FINITE, "0.2"),
        "lambda": (_FINITE, 0),
        "lambda_grid": (_reals, ["0", "0.5", "1", "2"]),
        "vinv_s": (_in("(0, 1)"), "0.5"),
        "eps": (_NONNEGATIVE, "1e-3"),
    }, _check_comparability),
}
KINDS = tuple(_KINDS)
_TOP = {
    "kind": (_choice(KINDS), _REQUIRED),
    "master_seed": (_integer, 0),
    "workers": (_COUNT, 1),
    "out": (_text, None),
    "topology": (_object, _REQUIRED),
    "disorder": (_object, _REQUIRED),
    "model": (_object, _REQUIRED),
    "estimator": (_object, {}),
}


def parse_config(cfg: dict) -> tuple:
    """(top-level fields, estimator fields, model, topology, disorder) of cfg:
    every key parsed against its table, the model's offsets realizable on the
    box, and the kind's check passed."""
    top = _parse_table(cfg, _TOP, "")
    model, topo, dis = build_model(cfg), build_topology(cfg), build_disorder(cfg)
    _owned("model", assembly_plan, model, topo)
    _, _, fields, check = _KINDS[top["kind"]]
    p = _parse_table(top["estimator"], fields, "estimator")
    if check:
        check(p, model, topo, dis)
    return top, p, model, topo, dis


def _linalg_build() -> dict:
    """Name and version of the BLAS and LAPACK numpy was built against."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
        for lib in ("blas", "lapack")
        if lib in deps
    }


def run(cfg: dict, outdir: str | None = None) -> ResultRecord:
    """Dispatch a config to its estimator suite and return the ResultRecord.

    The whole config is parsed first (parse_config), so a refused config
    leaves the outdir untouched.  When outdir is given, artifacts (canonical
    config copy, checkpoint, results.json, run_meta.json) are written there
    and runs are resumable.  An outdir whose config.json has another config
    digest is refused: it and everything beside it belong to that run.
    """
    top, p, model, topo, dis = parse_config(cfg)
    digest = config_digest(cfg)

    if outdir:
        os.makedirs(outdir, exist_ok=True)
        config_path = os.path.join(outdir, "config.json")
        if os.path.exists(config_path) and config_digest(load_config(config_path)) != digest:
            raise ConfigurationError(
                f"{outdir} belongs to another run; a different config, seed or sample count "
                "needs a new output directory"
            )
        _atomic_write(config_path, json.dumps(cfg, sort_keys=True, indent=1) + "\n")

    run_kind, columns, _, _ = _KINDS[top["kind"]]
    started = time.time()
    outputs, rows = run_kind(p, model, topo, dis, top["master_seed"], top["workers"], outdir)
    elapsed = time.time() - started

    record = ResultRecord(
        kind=top["kind"],
        config_digest=digest,
        master_seed=top["master_seed"],
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
