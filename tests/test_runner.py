"""Runner contracts: config handling, determinism, checkpointing, artifacts."""

import glob
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fmlab import engine
from fmlab.disorder import sample_vector
from fmlab.engine import checkpoint_prefix, run_indexed
from fmlab.errors import ConfigurationError
from fmlab.model import assemble
from fmlab.plotting import emit_plot
from fmlab.runner import (
    ResultRecord,
    build_disorder,
    build_model,
    build_topology,
    config_digest,
    emit_csv,
    load_config,
    parse_config,
    parse_real,
    run,
)
from fmlab.rng import Stream, derive_sample_seed

BASE_CFG = {
    "kind": "decay",
    "topology": {"d": 1, "sides": [8], "periodic": False},
    "disorder": {"family": "uniform", "params": ["-1", "1"]},
    "model": {
        "variant": "block", "g": "10",
        "A": [[["1", "0"]]], "B": [[["0", "0"]]],
    },
    "estimator": {"s": "1/3", "lambda": "0", "eps": "1e-2", "samples": 120,
                  "x0": 0, "d_min": 2},
    "master_seed": 424242,
    "workers": 1,
}


# one small config per kind, each with more samples than one engine chunk
TINY_CFGS = {
    "decay": BASE_CFG,
    "wegner": {
        **BASE_CFG, "kind": "wegner",
        "topology": {"d": 1, "sides": [6], "periodic": True},
        "model": {"variant": "spencer", "a": "1", "g": "10"},
        "estimator": {"lambda0": "0.5", "eps_list": ["0.8", "0.4", "0.2"], "samples": 70},
    },
    "ids": {
        **BASE_CFG, "kind": "ids",
        "topology": {"d": 2, "sides": [3, 3], "periodic": True},
        "disorder": {"family": "gaussian", "params": [0, 1]},
        "model": {"variant": "alloy", "coeffs": {"0,0": "1", "1,0": "-1"}, "g": "8"},
        "estimator": {"samples": 70, "bins": {"n": 16, "lo": "-4", "hi": "4"}},
    },
    "correlator": {
        **BASE_CFG, "kind": "correlator",
        "estimator": {"interval": ["-0.5", "0.5"], "samples": 70, "x0": 0, "d_min": 1},
    },
    "dynamical": {
        **BASE_CFG, "kind": "dynamical",
        "topology": {"d": 1, "sides": [5], "periodic": False},
        "model": {"variant": "spencer", "a": "1", "g": "8"},
        "estimator": {"interval": ["-1", "1"], "samples": 70, "x0": 0, "t_points": 32},
    },
    "inequalities": {
        **BASE_CFG, "kind": "inequalities",
        "topology": {"d": 1, "sides": [5], "periodic": False},
        "model": {"variant": "spencer", "a": "1", "g": "20"},
        "estimator": {"samples": 100, "draws": 40, "pairs": 1, "rh_trials": 40,
                      "scales": ["5"], "s": "0.15", "r": "0.15"},
    },
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_parse_real_forms():
    assert parse_real("1e-3") == 1e-3
    assert parse_real("1/3") == 1.0 / 3.0
    assert parse_real(5) == 5.0
    assert parse_real("inf") == float("inf")
    with pytest.raises(ConfigurationError):
        parse_real("not-a-number")
    with pytest.raises(ConfigurationError):
        parse_real(None)


def test_json_floats_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "decay", "estimator": {"s": 0.3}}')
    with pytest.raises(ConfigurationError):
        load_config(str(path))


def test_config_digest_stable_and_ignores_volatile():
    d1 = config_digest(BASE_CFG)
    reordered = json.loads(json.dumps(BASE_CFG, sort_keys=True))
    assert config_digest(reordered) == d1
    assert config_digest({**BASE_CFG, "workers": 8}) == d1
    assert config_digest({**BASE_CFG, "out": "/elsewhere"}) == d1
    assert config_digest({**BASE_CFG, "master_seed": 1}) != d1


def test_builders():
    topo = build_topology(BASE_CFG)
    assert topo.n_vertices == 8
    dis = build_disorder(BASE_CFG)
    assert dis.family == "uniform"
    model = build_model(BASE_CFG)
    assert model.variant == "block" and model.g == 10.0
    spencer = build_model({"model": {"variant": "spencer", "a": "1", "g": "30"}})
    assert np.array_equal(spencer.B, [[0.0, 1.0], [1.0, 0.0]])  # B = antidiag(a, a)
    alloy = build_model({"model": {"variant": "alloy", "coeffs": {"0": "1", "1": "-1"}, "g": "5"}})
    assert alloy.alloy_coeffs == {(0,): 1.0, (1,): -1.0}
    with pytest.raises(ConfigurationError):
        build_model({"model": {"variant": "nope"}})


def test_build_model_with_hopping_kernel():
    cfg = {
        "model": {
            "variant": "block", "g": "4",
            "A": [[["1", "0"]]], "B": [[["0", "0"]]],
            "hopping": {"1": [[["0", "1"]]]},
        }
    }
    model = build_model(cfg)
    assert model.hopping[(1,)][0, 0] == 1j
    assert model.hopping[(-1,)][0, 0] == -1j  # mirror filled as the adjoint
    alloy2d = build_model(
        {"model": {"variant": "alloy", "coeffs": {"0,0": "1", "0,1": "-1"}, "g": "2"}}
    )
    assert (0, 1) in alloy2d.alloy_coeffs


def test_run_decay_and_rerun_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(dict(BASE_CFG), outdir=out1)
    run({**BASE_CFG, "workers": 2}, outdir=out2)
    r1 = open(os.path.join(out1, "results.json"), "rb").read()
    r2 = open(os.path.join(out2, "results.json"), "rb").read()
    assert r1 == r2
    s1 = open(os.path.join(out1, "samples.jsonl"), "rb").read()
    s2 = open(os.path.join(out2, "samples.jsonl"), "rb").read()
    assert s1 == s2


def _artifacts(outdir) -> dict:
    """results.json and every checkpoint of a run directory, as bytes."""
    names = sorted(n for n in os.listdir(outdir) if n.startswith("samples") or n == "results.json")
    return {n: open(os.path.join(outdir, n), "rb").read() for n in names}


@pytest.mark.parametrize("kind", sorted(TINY_CFGS))
def test_checkpoint_resume_equals_straight_run(kind, tmp_path):
    full, partial = str(tmp_path / "full"), str(tmp_path / "partial")
    run(TINY_CFGS[kind], outdir=full)
    straight = _artifacts(full)
    checkpoints = [n for n in straight if n.startswith("samples")]
    assert checkpoints

    os.makedirs(partial)
    for name in checkpoints:
        lines = straight[name].splitlines(keepends=True)
        keep = len(lines) // 2
        with open(os.path.join(partial, name), "wb") as fh:
            fh.writelines(lines[:keep])
            fh.write(lines[keep][: len(lines[keep]) // 2])  # torn final line from a kill
    run(TINY_CFGS[kind], outdir=partial)
    assert _artifacts(partial) == straight


@pytest.mark.parametrize("fault", ["repeated", "swapped"])
def test_resume_over_a_disordered_checkpoint_equals_straight_run(fault, tmp_path):
    full, partial = str(tmp_path / "full"), str(tmp_path / "partial")
    run(BASE_CFG, outdir=full)
    straight = _artifacts(full)
    lines = straight["samples.jsonl"].splitlines(keepends=True)
    if fault == "repeated":
        lines.insert(41, lines[40])
    else:
        lines[40], lines[41] = lines[41], lines[40]
    os.makedirs(partial)
    with open(os.path.join(partial, "samples.jsonl"), "wb") as fh:
        fh.writelines(lines)  # every index is present, but not each on its own line
    run(BASE_CFG, outdir=partial)
    assert _artifacts(partial) == straight


def _touch_and_fail_on_chunk_1(outdir, indices):
    """A batch function that leaves one file per chunk it starts; chunk 1 fails."""
    open(os.path.join(outdir, f"chunk_{indices[0]}"), "w").close()
    if indices[0] == engine._CHUNK:
        raise RuntimeError("chunk 1 blew up")
    time.sleep(0.05)
    return [{"v": i} for i in indices]


def test_engine_failed_chunk_stops_the_pool(tmp_path):
    started = tmp_path / "started"
    started.mkdir()
    path = str(tmp_path / "ck.jsonl")
    with pytest.raises(RuntimeError, match="chunk 1"):
        run_indexed(_touch_and_fail_on_chunk_1, str(started), 60 * engine._CHUNK,
                    workers=2, checkpoint_path=path)
    done, _ = checkpoint_prefix(path)
    assert done == [{"v": i} for i in range(engine._CHUNK)]  # chunk 0 stays checkpointed
    assert len(os.listdir(started)) < 10  # the pending chunks were cancelled, not run


def test_engine_failure_keeps_checkpoint_prefix(tmp_path, monkeypatch):
    def batch(ctx, indices):
        if 3 in indices:
            raise RuntimeError("worker blew up")
        return [{"v": i} for i in indices]

    monkeypatch.setattr(engine, "_CHUNK", 3)
    path = str(tmp_path / "ck.jsonl")
    with pytest.raises(RuntimeError):
        run_indexed(batch, None, 6, workers=1, checkpoint_path=path)
    done, _ = checkpoint_prefix(path)
    assert done == [{"v": 0}, {"v": 1}, {"v": 2}]  # completed prefix survives the abort


def test_the_pool_has_no_more_processes_than_chunks_or_cpus(monkeypatch):
    sizes = []

    class InProcessPool:
        """Records its size and maps in this process: no process is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    def batch(ctx, indices):
        return [{"v": i} for i in indices]

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessPool)
    straight = [{"v": i} for i in range(2 * engine._CHUNK)]
    for cpus, want in ((64, [2]), (3, [2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        assert run_indexed(batch, None, 2 * engine._CHUNK, workers=5000) == straight
        assert sizes == want, cpus


def test_engine_payload_roundtrip(tmp_path):
    calls = []

    def batch(ctx, indices):
        calls.extend(indices)
        return [{"v": [float(i) * 0.1], "i2": i * i} for i in indices]

    path = str(tmp_path / "ck.jsonl")
    first = run_indexed(batch, None, 5, workers=1, checkpoint_path=path)
    again = run_indexed(batch, None, 5, workers=1, checkpoint_path=path)
    assert first == again
    assert len(calls) == 5  # second pass is checkpoint-only
    done, _ = checkpoint_prefix(path)
    assert done == first


def test_emit_csv_lossless_roundtrip(tmp_path):
    values = [0.1, 1.0 / 3.0, 2.0**-52, 1.2345678901234567e300]
    rec = ResultRecord(
        kind="decay", config_digest="0" * 64, master_seed=1,
        outputs={}, columns=["distance", "mean", "mom_err", "n", "resamples"],
        rows=[[i, v, v / 7.0, 100, 0] for i, v in enumerate(values)],
    )
    path = str(tmp_path / "series.csv")
    emit_csv(rec, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "distance,mean,mom_err,n,resamples"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[1]) == values[i]  # 17 significant digits round-trip
        assert float(cells[2]) == values[i] / 7.0


def test_emit_csv_empty_record(tmp_path):
    rec = ResultRecord("decay", "0" * 64, 1, {}, ["distance", "mean"], [])
    path = str(tmp_path / "empty.csv")
    emit_csv(rec, path)
    assert open(path).read() == "distance,mean\n"


def test_emit_plot_svg(tmp_path):
    rec = ResultRecord(
        kind="decay", config_digest="abc123" + "0" * 58, master_seed=1,
        outputs={}, columns=["distance", "mean", "mom_err", "n", "resamples"],
        rows=[[d, float(np.exp(-0.7 * d)), 0.0, 10, 0] for d in range(8)],
    )
    path = str(tmp_path / "plot.svg")
    assert emit_plot(rec, path)
    svg = open(path).read()
    assert svg.startswith('<?xml version="1.0"')
    assert f"config_digest: {rec.config_digest}" in svg
    assert "graph distance" in svg and "polyline" in svg

    flat = ResultRecord("inequalities", "0" * 64, 1, {}, ["draw"], [[0]])
    assert not emit_plot(flat, str(tmp_path / "no.svg"))
    assert not os.path.exists(tmp_path / "no.svg")


def test_emit_plot_wegner_loglog(tmp_path):
    rec = ResultRecord(
        kind="wegner", config_digest="1" * 64, master_seed=1,
        outputs={}, columns=["eps", "mass", "err", "n"],
        rows=[[e, e**0.5, 0.0, 10] for e in (0.2, 0.1, 0.05, 0.025)],
    )
    path = str(tmp_path / "w.svg")
    assert emit_plot(rec, path)
    assert "window half-width" in open(path).read()


def test_results_json_is_strict_with_decoupled_sites(tmp_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    # g = inf decouples a 4-site Spencer chain: every decoupling denominator off
    # the diagonal is 0, so those ratios are NaN and are written as "nan"
    cfg = _with_estimator("inequalities", samples=40, draws=8, rh_trials=8)
    cfg = {**cfg, "topology": {"d": 1, "sides": [4]}, "model": {**cfg["model"], "g": "inf"}}
    rec = run(cfg, outdir=str(tmp_path / "run"))
    assert math.isnan(rec.outputs["decoupling_min_ratio"])
    with open(tmp_path / "run" / "results.json") as fh:
        results = json.load(fh, parse_constant=refuse)
    assert results["outputs"]["decoupling_min_ratio"] == "nan"
    assert results["outputs"]["decoupling"][0]["ratio"] == "nan"


def test_run_rejects_bad_kind_and_seed():
    with pytest.raises(ConfigurationError):
        run({**BASE_CFG, "kind": "nope"})
    with pytest.raises(ConfigurationError):
        run({**BASE_CFG, "master_seed": "zero"})


def test_run_without_outdir_returns_record():
    rec = run(dict(BASE_CFG))
    assert rec.kind == "decay"
    assert rec.outputs["fit"]["rate"] > 0
    assert rec.columns[0] == "distance"


def test_cli_end_to_end(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "run")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "fmlab.cli", "decay", "--config", cfg_path,
         "--out", out, "--plot"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("results.json", "series.csv", "plot.svg", "config.json",
                 "run_meta.json", "samples.jsonl"):
        assert os.path.exists(os.path.join(out, name)), name
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert "elapsed_seconds" in meta["timing"]
    env = meta["environment"]  # numpy and the BLAS/LAPACK build it links
    assert env["numpy"] == np.__version__ and env["blas"] and env["lapack"]
    results = json.load(open(os.path.join(out, "results.json")))
    assert "timing" not in results  # deterministic artifact carries no timestamps
    assert "environment" not in results
    assert env["blas"] not in open(os.path.join(out, "results.json")).read()


def test_cli_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(__file__))
    bad = write_cfg(tmp_path, {**BASE_CFG, "kind": "wegner"}, "mismatch.json")
    proc = subprocess.run(
        [sys.executable, "-m", "fmlab.cli", "decay", "--config", bad],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert proc.returncode == 2
    missing = subprocess.run(
        [sys.executable, "-m", "fmlab.cli", "decay", "--config", str(tmp_path / "nope.json")],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert missing.returncode == 4


def _with_estimator(kind, **fields):
    cfg = TINY_CFGS[kind]
    return {**cfg, "estimator": {**cfg["estimator"], **fields}}


@pytest.mark.parametrize(
    "cfg,extra,field",
    [
        pytest.param(_with_estimator("decay", x0=-1), [], "estimator.x0", id="decay-x0-negative"),
        pytest.param(_with_estimator("decay", x0=999), [],
                     "estimator.x0", id="decay-x0-beyond-box"),
        pytest.param(_with_estimator("correlator", x0=8), [],
                     "estimator.x0", id="correlator-x0-beyond-box"),
        pytest.param(_with_estimator("dynamical", t_points=0), [],
                     "estimator.t_points", id="dynamical-t-points-0"),
        pytest.param(_with_estimator("inequalities", draws=0), [],
                     "estimator.draws", id="inequalities-draws-0"),
        pytest.param(_with_estimator("inequalities", rh_trials=0), [],
                     "estimator.rh_trials", id="inequalities-rh-trials-0"),
        pytest.param(_with_estimator("inequalities", rh_j=0), [],
                     "estimator.rh_j", id="inequalities-rh-j-0"),
        pytest.param(_with_estimator("inequalities", l=-1), [],
                     "estimator.l", id="inequalities-l-negative"),
        pytest.param(_with_estimator("ids", samples=0), [],
                     "estimator.samples", id="ids-samples-0"),
        pytest.param([1, 2], [], "config.json", id="config-not-an-object"),
        pytest.param({**BASE_CFG, "estimator": "oops"}, [],
                     "estimator", id="estimator-not-an-object"),
        pytest.param({**BASE_CFG, "estimator": "oops"}, ["--samples", "100"],
                     "estimator", id="estimator-not-an-object-with-samples-override"),
        pytest.param({**BASE_CFG, "model": "oops"}, [], "model", id="model-not-an-object"),
        pytest.param({**BASE_CFG, "topology": {"d": 1, "sides": [8], "periodic": "false"}}, [],
                     "topology.periodic", id="topology-periodic-not-a-boolean"),
        pytest.param({**BASE_CFG, "topology": {"d": 1}}, [],
                     "topology.sides", id="topology-sides-missing"),
        pytest.param({**BASE_CFG, "topology": {"d": 1, "sides": ["a"]}}, [],
                     "topology.sides", id="topology-sides-not-an-integer"),
        pytest.param({**BASE_CFG, "topology": {"d": "one", "sides": [8]}}, [],
                     "topology.d", id="topology-d-not-an-integer"),
        pytest.param({**BASE_CFG, "model": {"variant": "block", "g": "10", "B": [[["0", "0"]]]}},
                     [], "model.A", id="block-A-missing"),
        pytest.param({**BASE_CFG, "model": {**BASE_CFG["model"], "hopping": ["1"]}}, [],
                     "model.hopping", id="block-hopping-not-an-object"),
        pytest.param({**BASE_CFG, "model": {**BASE_CFG["model"],
                                            "hopping": {"1": [[["1", "0"]]], "2": [[["1", "0"]]]}}},
                     [], "model", id="block-hopping-beyond-nearest-neighbours"),
        pytest.param({**BASE_CFG, "model": {"variant": "alloy", "coeffs": ["1"], "g": "5"}}, [],
                     "model.coeffs", id="alloy-coeffs-not-an-object"),
        pytest.param({**BASE_CFG, "workers": "two"}, [], "workers", id="workers-not-an-integer"),
        pytest.param({**BASE_CFG, "workers": 0}, [], "workers", id="workers-0"),
        pytest.param(_with_estimator("decay", d_min="x"), [],
                     "estimator.d_min", id="decay-d-min-not-an-integer"),
        pytest.param(_with_estimator("decay", d_min=-1), [],
                     "estimator.d_min", id="decay-d-min-negative"),
        pytest.param({**BASE_CFG, "kind": "wegner", "estimator": {"samples": 10}}, [],
                     "estimator.eps_list", id="wegner-eps-list-missing"),
        pytest.param(_with_estimator("ids", bins=[16]), [],
                     "estimator.bins", id="ids-bins-not-an-object"),
        pytest.param(_with_estimator("ids", bins={"n": "x"}), [],
                     "estimator.bins.n", id="ids-bins-n-not-an-integer"),
        pytest.param(_with_estimator("inequalities", pairs=-1), [],
                     "estimator.pairs", id="inequalities-pairs-negative"),
        pytest.param(_with_estimator("inequalities", pairs="x"), [],
                     "estimator.pairs", id="inequalities-pairs-not-an-integer"),
        pytest.param({**BASE_CFG, "topology": {"sides": [True, 8]}}, [],
                     "topology.sides", id="topology-sides-true"),
        pytest.param({**BASE_CFG, "topology": {"sides": ["8"]}}, [],
                     "topology.sides", id="topology-sides-string"),
        pytest.param({**BASE_CFG, "topology": {"sides": [8], "d": True}}, [],
                     "topology.d", id="topology-d-true"),
        pytest.param(_with_estimator("ids", samples=True), [],
                     "estimator.samples", id="ids-samples-true"),
        pytest.param(_with_estimator("decay", samples="120"), [],
                     "estimator.samples", id="decay-samples-string"),
        pytest.param(_with_estimator("inequalities", draws="20"), [],
                     "estimator.draws", id="inequalities-draws-string"),
        pytest.param({**BASE_CFG, "disorder": {"family": "uniform", "params": "12"}}, [],
                     "disorder.params", id="disorder-params-string"),
        pytest.param({**BASE_CFG, "kind": "wegner", "estimator": {"eps_list": "842"}}, [],
                     "estimator.eps_list", id="wegner-eps-list-string"),
        pytest.param(_with_estimator("correlator", interval="13"), [],
                     "estimator.interval", id="correlator-interval-string"),
        pytest.param(_with_estimator("correlator", interval=["0"]), [],
                     "estimator.interval", id="correlator-interval-one-end"),
        pytest.param(_with_estimator("dynamical", interval=["-1", "0", "1"]), [],
                     "estimator.interval", id="dynamical-interval-three-ends"),
        pytest.param(_with_estimator("correlator", interval=["0.5", "-0.5"]), [],
                     "estimator.interval", id="correlator-interval-reversed"),
        pytest.param(_with_estimator("inequalities", vinv_s="x"), [],
                     "estimator.vinv_s", id="inequalities-vinv-s-malformed"),
        pytest.param(_with_estimator("inequalities", scales="10"), [],
                     "estimator.scales", id="inequalities-scales-string"),
        pytest.param(_with_estimator("inequalities", lambda_grid="0"), [],
                     "estimator.lambda_grid", id="inequalities-lambda-grid-string"),
        pytest.param(_with_estimator("ids", bins={"edges": "012"}), [],
                     "estimator.bins.edges", id="ids-bins-edges-string"),
        pytest.param(_with_estimator("decay", eps="-1e-3"), [],
                     "estimator.eps", id="decay-eps-negative"),
        pytest.param(_with_estimator("inequalities", eps="-1e-3"), [],
                     "estimator.eps", id="inequalities-eps-negative"),
        pytest.param({**BASE_CFG, "model": {**BASE_CFG["model"],
                                            "hopping": {"1,x": [[["1", "0"]]]}}},
                     [], "model.hopping[1,x]", id="block-hopping-offset-malformed"),
        pytest.param({**TINY_CFGS["ids"], "model": {"variant": "alloy", "coeffs": {"1,x": "-1"}}},
                     [], "model.coeffs[1,x]", id="alloy-coeffs-offset-malformed"),
    ],
)
def test_cli_rejects_out_of_range_and_malformed_configs(tmp_path, capsys, cfg, extra, field):
    from fmlab.cli import main

    kind = cfg["kind"] if isinstance(cfg, dict) else "decay"
    out = tmp_path / "run"
    argv = [kind, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{field}:" in err, err
    assert not list(out.glob("samples*.jsonl"))  # refused before any sample ran


def test_cli_exits_3_when_a_solve_fails_its_residual(tmp_path, capsys, monkeypatch):
    from fmlab.cli import main

    # sample 1 is member 1 of the first stack; its solve is off by 1e-6 on one row
    v = sample_vector(build_disorder(BASE_CFG), Stream(derive_sample_seed(424242, 1)), 8)
    digest = assemble(build_model(BASE_CFG), build_topology(BASE_CFG), v).digest
    real = np.linalg.solve

    def off_on_member_1(a, b):
        sol = real(a, b)
        sol[1, 0] += 1e-6
        return sol

    monkeypatch.setattr(np.linalg, "solve", off_on_member_1)
    argv = ["decay", "--config", write_cfg(tmp_path, BASE_CFG), "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: resolvent solve residual")
    assert digest[:16] in err


def test_cli_seed_override_changes_results(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(__file__))
    outs = []
    for seed in (1, 2):
        out = str(tmp_path / f"seed{seed}")
        proc = subprocess.run(
            [sys.executable, "-m", "fmlab.cli", "decay", "--config", cfg_path,
             "--out", out, "--seed", str(seed), "--samples", "100"],
            capture_output=True, text=True, env=env, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(json.load(open(os.path.join(out, "results.json"))))
    assert outs[0]["outputs"]["fit"] != outs[1]["outputs"]["fit"]


def test_rerun_with_another_seed_refuses_the_outdir(tmp_path):
    from fmlab.cli import main

    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "run")
    argv = ["decay", "--config", cfg_path, "--out", out, "--samples", "100"]
    assert main(argv + ["--seed", "1"]) == 0
    first = open(os.path.join(out, "results.json"), "rb").read()
    assert main(argv + ["--seed", "2"]) == 2
    assert open(os.path.join(out, "results.json"), "rb").read() == first
    assert main(argv + ["--seed", "1", "--workers", "2"]) == 0  # the same run resumes
    assert open(os.path.join(out, "results.json"), "rb").read() == first


def test_refused_config_leaves_the_outdir_free(tmp_path, capsys):
    from fmlab.cli import main

    out = str(tmp_path / "run")
    bad = write_cfg(tmp_path, _with_estimator("decay", s="x"), "bad.json")
    assert main(["decay", "--config", bad, "--out", out]) == 2
    assert "estimator.s" in capsys.readouterr().err
    good = write_cfg(tmp_path, BASE_CFG, "good.json")
    assert main(["decay", "--config", good, "--out", out]) == 0
    assert load_config(os.path.join(out, "config.json")) == BASE_CFG


def test_a_config_json_alone_claims_its_outdir(tmp_path, capsys):
    from fmlab.cli import main

    out = tmp_path / "run"
    out.mkdir()
    # what a run leaves that was stopped before its first checkpoint line
    (out / "config.json").write_text(json.dumps({**BASE_CFG, "master_seed": 1}))
    argv = ["decay", "--config", write_cfg(tmp_path, BASE_CFG), "--out", str(out)]
    assert main(argv) == 2
    assert "belongs to another run" in capsys.readouterr().err
    assert os.listdir(out) == ["config.json"]


@pytest.mark.parametrize("kind", ["decay", "correlator"])
def test_d_min_beyond_the_box_is_refused_before_sampling(kind, tmp_path, capsys, monkeypatch):
    from fmlab import estimators
    from fmlab.cli import main

    draws = []
    real = estimators.sample_vector
    monkeypatch.setattr(estimators, "sample_vector", lambda *a: draws.append(a) or real(*a))
    out = str(tmp_path / "run")
    # the 8-site chain's distances from x0 = 0 are 0..7: d_min 6 leaves two to fit
    bad = write_cfg(tmp_path, _with_estimator(kind, d_min=6), "bad.json")
    assert main([kind, "--config", bad, "--out", out]) == 2
    assert "estimator.d_min" in capsys.readouterr().err
    assert draws == [] and not os.path.exists(out)  # refused before the outdir is made
    good = write_cfg(tmp_path, _with_estimator(kind, d_min=5), "good.json")
    assert main([kind, "--config", good, "--out", out]) == 0
    with open(os.path.join(out, "results.json")) as fh:
        assert json.load(fh)["outputs"]["d_min"] == 5


def test_decay_with_auto_eps_parses_every_field_before_sampling(tmp_path, monkeypatch):
    from fmlab.cli import main

    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or real(a))
    cfg = write_cfg(tmp_path, _with_estimator("decay", eps="auto", s="x"))
    assert main(["decay", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert calls == []


def _with_model(kind, **fields):
    cfg = TINY_CFGS[kind]
    return {**cfg, "model": {**cfg["model"], **fields}}


def _heavy_tailed(cfg, q0):
    return {**cfg, "disorder": {"family": "heavy_tail", "params": [q0]}}


def _with_topology(kind, **fields):
    return {**TINY_CFGS[kind], "topology": fields}


_HOP = [[["1", "0"]]]
_COMPARABILITY = "estimator.{s, l, r, m}: "

# the refusal matrix, (bad config, the field path its error names, the corrected
# config): one case per config rule, each once checked only by the library, as
# late as after an earlier scan or eigensolve had run or after config.json was
# written; the field tables and the rules' owners now refuse each in the parse
_REFUSED_BEFORE_THE_FIRST_DRAW = {
    "inequalities-vinv-s-above-1": (
        _with_estimator("inequalities", vinv_s="1.5"), "estimator.vinv_s",
        _with_estimator("inequalities", vinv_s="0.5")),
    "inequalities-r-m-above-alpha": (
        _with_estimator("inequalities", r="0.6", m=3), _COMPARABILITY + "r*m",
        _with_estimator("inequalities", r="0.15", m=3)),
    "inequalities-q-too-small": (
        _heavy_tailed(TINY_CFGS["inequalities"], "1"), _COMPARABILITY + "comparability regime",
        _heavy_tailed(TINY_CFGS["inequalities"], "4")),
    "inequalities-r-negative": (
        _with_estimator("inequalities", r="-0.1"), "estimator.r", TINY_CFGS["inequalities"]),
    "inequalities-one-step-s-above-1": (
        _with_estimator("inequalities", one_step_s="1.5"), "estimator.one_step_s",
        TINY_CFGS["inequalities"]),
    "inequalities-eps-nan": (
        _with_estimator("inequalities", eps="nan"), "estimator.eps", TINY_CFGS["inequalities"]),
    "decay-eps-nan": (_with_estimator("decay", eps="nan"), "estimator.eps", TINY_CFGS["decay"]),
    # non-finite reals: each once ran to exit 0 on NaN or zero draws, or to exit 3
    # after config.json and a checkpoint had claimed the outdir
    "inequalities-decoupling-s-nan": (
        _with_estimator("inequalities", decoupling_s="nan"), "estimator.decoupling_s",
        TINY_CFGS["inequalities"]),
    "inequalities-rh-s-nan": (
        _with_estimator("inequalities", rh_s="nan"), "estimator.rh_s", TINY_CFGS["inequalities"]),
    "inequalities-lambda-inf": (
        _with_estimator("inequalities", **{"lambda": "inf"}), "estimator.lambda",
        TINY_CFGS["inequalities"]),
    "inequalities-eps-inf": (
        _with_estimator("inequalities", eps="inf"), "estimator.eps", TINY_CFGS["inequalities"]),
    "inequalities-lambda-grid-nan": (
        _with_estimator("inequalities", lambda_grid=["nan"]), "estimator.lambda_grid",
        TINY_CFGS["inequalities"]),
    "inequalities-scales-nan": (
        _with_estimator("inequalities", scales=["nan"]), "estimator.scales",
        TINY_CFGS["inequalities"]),
    "decay-lambda-nan": (
        _with_estimator("decay", **{"lambda": "nan"}), "estimator.lambda", TINY_CFGS["decay"]),
    "decay-eps-inf": (_with_estimator("decay", eps="inf"), "estimator.eps", TINY_CFGS["decay"]),
    "wegner-lambda0-nan": (
        _with_estimator("wegner", lambda0="nan"), "estimator.lambda0", TINY_CFGS["wegner"]),
    "decay-heavy-tail-inf": (
        _heavy_tailed(TINY_CFGS["decay"], "inf"), "disorder.params", TINY_CFGS["decay"]),
    "decay-heavy-tail-nan": (
        _heavy_tailed(TINY_CFGS["decay"], "nan"), "disorder.params", TINY_CFGS["decay"]),
    "decay-gaussian-sigma-nan": (
        {**BASE_CFG, "disorder": {"family": "gaussian", "params": ["0", "nan"]}},
        "disorder.params", TINY_CFGS["decay"]),
    "decay-gaussian-mean-inf": (
        {**BASE_CFG, "disorder": {"family": "gaussian", "params": ["inf", "1"]}},
        "disorder.params", TINY_CFGS["decay"]),
    "decay-g-0": (_with_model("decay", g="0"), "model.g", TINY_CFGS["decay"]),
    "ids-alloy-g-0": (_with_model("ids", g="0"), "model.g", TINY_CFGS["ids"]),
    "decay-sides-0": (_with_topology("decay", sides=[0]), "topology.sides", TINY_CFGS["decay"]),
    "decay-d-0": (_with_topology("decay", d=0, sides=[]), "topology.d", TINY_CFGS["decay"]),
    "wegner-eps-list-of-two": (
        _with_estimator("wegner", eps_list=["0.8", "0.4"]), "estimator.eps_list",
        TINY_CFGS["wegner"]),
    "wegner-eps-list-repeated": (
        _with_estimator("wegner", eps_list=["0.4", "0.4", "0.4"]), "estimator.eps_list",
        TINY_CFGS["wegner"]),
    "ids-bins-lo-above-hi": (
        _with_estimator("ids", bins={"n": 16, "lo": "4", "hi": "-4"}), "estimator.bins",
        TINY_CFGS["ids"]),
    "block-2d-hopping-for-1-0-only": (
        {**_with_topology("decay", sides=[3, 3]), "model": _with_model("decay", hopping={
            "1,0": _HOP})["model"]},
        "model: no hopping kernel for offset (0, 1)",
        {**_with_topology("decay", sides=[3, 3]), "model": _with_model("decay", hopping={
            "1,0": _HOP, "0,1": _HOP})["model"]}),
    "alloy-offset-1-on-2d-box": (
        _with_model("ids", coeffs={"1": "1"}), "model: alloy offset (1,)", TINY_CFGS["ids"]),
    "decay-auto-eps-s-above-1": (
        _with_estimator("decay", eps="auto", s="1.5"), "estimator.s",
        _with_estimator("decay", eps="auto", s="1/3")),
    "decay-auto-eps-samples-below-100": (
        _with_estimator("decay", eps="auto", samples=50), "estimator.samples",
        _with_estimator("decay", eps="auto", samples=100)),
    "decay-g-inf": (_with_model("decay", g="inf"), "model.g", _with_model("decay", g="10")),
    "correlator-g-inf": (
        _with_model("correlator", g="inf"), "model.g", _with_model("correlator", g="10")),
    "correlator-g-inf-d-min-0": (
        {**_with_estimator("correlator", d_min=0),
         "model": _with_model("correlator", g="inf")["model"]},
        "model.g", _with_estimator("correlator", d_min=0)),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_BEFORE_THE_FIRST_DRAW))
def test_ranges_checked_during_sampling_are_refused_before_the_first_draw(
    case, tmp_path, capsys, monkeypatch
):
    from fmlab import estimators, inequalities
    from fmlab.cli import main

    bad, field, good = _REFUSED_BEFORE_THE_FIRST_DRAW[case]
    calls = []
    for module, name in ((estimators, "sample_vector"), (inequalities, "sample_vector"),
                         (np.linalg, "eigvalsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    out = tmp_path / "run"
    kind = bad["kind"]
    assert main([kind, "--config", write_cfg(tmp_path, bad, "bad.json"), "--out", str(out)]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    assert main([kind, "--config", write_cfg(tmp_path, good, "good.json"), "--out", str(out)]) == 0


def test_dynamical_runs_with_decoupled_sites(tmp_path):
    rec = run(_with_model("dynamical", g="inf"), outdir=str(tmp_path / "run"))
    assert rec.outputs["bound_ok"]


def _misspelled(key: str) -> str:
    return key[0] + key[2] + key[1] + key[3:] if len(key) > 2 else key + key[-1]


def _misspelled_cases():
    """(config name, key path) of one misspelled key at every level of each shipped config."""
    root = os.path.dirname(os.path.dirname(__file__))
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        cfg = load_config(path)
        levels = [(), ("topology",), ("disorder",), ("model",), ("estimator",)]
        levels += [("estimator", "bins")] if "bins" in cfg["estimator"] else []
        for level in levels:
            name = f"{os.path.basename(path)}:{'.'.join(level) or 'top'}"
            yield pytest.param(path, level, id=name)


@pytest.mark.parametrize("path,level", _misspelled_cases())
def test_a_misspelled_key_at_any_level_is_refused(path, level, tmp_path, capsys):
    from fmlab.cli import main

    cfg = load_config(path)
    section = cfg
    for name in level:
        section = section[name]
    key = sorted(section)[0]
    wrong = _misspelled(key)
    assert wrong not in section
    section[wrong] = section.pop(key)
    out = tmp_path / "run"
    argv = [cfg["kind"], "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert main(argv) == 2
    assert f"config error: {'.'.join((*level, wrong))}: unknown key" in capsys.readouterr().err
    assert not out.exists()  # refused before anything ran or was written


def test_fractional_scale_names_its_checkpoint_by_position(tmp_path):
    cfg = {**TINY_CFGS["inequalities"], "estimator": {
        **TINY_CFGS["inequalities"]["estimator"], "scales": ["1/2", "10"]}}
    out = tmp_path / "iq"
    rec = run(cfg, outdir=str(out))
    assert sorted(rec.outputs["comparability"]) == ["1/2", "10"]
    scans = sorted(p.name for p in out.glob("samples.scan*"))
    assert scans == ["samples.scan_0.jsonl", "samples.scan_1.jsonl"]


def test_shipped_configs_validate():
    # the benchmark's configs too: one the parse refuses would fail every benchmark run
    root = os.path.dirname(os.path.dirname(__file__))
    shipped = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
    bench = sorted(glob.glob(os.path.join(root, "perfbench", "configs", "*.json")))
    assert len(shipped) >= 6 and len(bench) >= 7
    for path in shipped + bench:
        cfg = load_config(path)
        top, _, _, _, _ = parse_config(cfg)  # every key, every range, every check
        assert top["kind"] in os.path.basename(path) or top["kind"] in ("ids",)


# digests of the shipped configs; an encoder change must not move them
SHIPPED_DIGESTS = {
    "correlator_chain": "d5b7ab5a045fc249",
    "decay_chain": "74a5e8e90ff34d49",
    "dynamical_box": "ceaade92c29257cf",
    "ids_alloy_2d": "75139d5a343add4e",
    "inequalities_battery": "0f81fc5b36c87d63",
    "wegner_spencer": "c89a204883dd2831",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_digests_are_stable(name):
    root = os.path.dirname(os.path.dirname(__file__))
    cfg = load_config(os.path.join(root, "configs", f"{name}.json"))
    assert config_digest(cfg)[:16] == SHIPPED_DIGESTS[name]


def test_run_wegner_kind(tmp_path):
    cfg = {
        **BASE_CFG,
        "kind": "wegner",
        "model": {"variant": "spencer", "a": "1", "g": "inf"},
        "topology": {"d": 1, "sides": [16], "periodic": False},
        "estimator": {"lambda0": "1", "eps_list": ["0.2", "0.1", "0.05", "0.02"],
                      "samples": 150},
    }
    rec = run(cfg, outdir=str(tmp_path / "w"))
    assert rec.outputs["exponent"] == pytest.approx(0.5, abs=0.1)


def test_run_ids_kind(tmp_path):
    cfg = {
        **BASE_CFG,
        "kind": "ids",
        "estimator": {"samples": 60, "bins": {"n": 16, "lo": "-2", "hi": "2"}},
    }
    rec = run(cfg, outdir=str(tmp_path / "ids"))
    assert rec.outputs["total_mass"] == pytest.approx(1.0, abs=1e-12)


def test_run_correlator_and_dynamical_kinds(tmp_path):
    base = {
        **BASE_CFG,
        "model": {"variant": "block", "g": "15",
                  "A": [[["1", "0"]]], "B": [[["0", "0"]]]},
        "estimator": {"interval": ["-0.5", "0.5"], "samples": 80, "x0": 0, "d_min": 1},
    }
    rec_c = run({**base, "kind": "correlator"}, outdir=str(tmp_path / "c"))
    assert rec_c.outputs["k_bound_ok"]
    rec_d = run(
        {**base, "kind": "dynamical",
         "estimator": {"interval": ["-0.5", "0.5"], "samples": 80, "x0": 0, "t_points": 64}},
        outdir=str(tmp_path / "d"),
    )
    assert rec_d.outputs["bound_ok"]


def test_run_inequalities_kind(tmp_path):
    cfg = {
        **BASE_CFG,
        "kind": "inequalities",
        "topology": {"d": 1, "sides": [6], "periodic": False},
        "estimator": {"samples": 120, "draws": 20, "pairs": 3, "rh_trials": 10,
                      "scales": ["5"], "s": "0.15", "r": "0.15"},
    }
    rec = run(cfg, outdir=str(tmp_path / "iq"))
    assert rec.outputs["one_step_all_pass"]
    assert rec.outputs["decoupling_min_ratio"] > 0
    assert rec.outputs["comparability"]["5"]["failures"] == 0
    assert rec.columns == ["scale", "draw", "parameters", "lhs", "rhs", "ratio"]
    assert len(rec.rows) == 20


def test_inequalities_series_keeps_every_scale(tmp_path):
    cfg = {
        **BASE_CFG,
        "kind": "inequalities",
        "topology": {"d": 1, "sides": [4], "periodic": False},
        "estimator": {"samples": 100, "draws": 12, "pairs": 1, "rh_trials": 4,
                      "scales": ["5", "10", "20"], "s": "0.15", "r": "0.15"},
    }
    rec = run(cfg, outdir=str(tmp_path / "iq"))
    assert len(rec.rows) == 3 * 12  # len(scales) x draws
    assert [row[0] for row in rec.rows] == [5.0] * 12 + [10.0] * 12 + [20.0] * 12
    assert [row[1] for row in rec.rows] == list(range(12)) * 3
    emit_csv(rec, str(tmp_path / "series.csv"))
    csv = (tmp_path / "series.csv").read_text().splitlines()
    assert csv[0] == "scale,draw,parameters,lhs,rhs,ratio" and len(csv) == 1 + 3 * 12


@pytest.mark.parametrize("kind", sorted(TINY_CFGS))
def test_every_kind_is_identical_across_worker_counts(kind, tmp_path):
    outputs = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        run({**TINY_CFGS[kind], "workers": workers}, outdir=out)
        outputs.append(_artifacts(out))
    assert "results.json" in outputs[0] and len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]


def _key_paths(node, prefix=""):
    """Dotted key paths of a JSON tree, into every dict and into the first
    entry of a list of dicts (written "[]")."""
    if isinstance(node, list) and node and isinstance(node[0], dict):
        node, prefix = node[0], prefix + "[]"
    if not isinstance(node, dict):
        return [prefix]
    return sorted(
        p for k, v in node.items() for p in _key_paths(v, f"{prefix}.{k}" if prefix else k)
    )


# per kind: the key paths of results.json's outputs and its series columns
_RESULTS_SCHEMA = {
    "correlator": (
        "d_min estimate.distances estimate.errs estimate.g estimate.interval "
        "estimate.k estimate.master_seed estimate.max_correlator estimate.means "
        "estimate.n_samples estimate.x0 fit.intercept fit.r2 fit.rate k_bound_ok "
        "max_correlator",
        "distance mean err n",
    ),
    "decay": (
        "d_min eps_used estimate.distances estimate.eps estimate.errs estimate.flags "
        "estimate.g estimate.lambda estimate.master_seed estimate.means estimate.moms "
        "estimate.n_samples estimate.resamples estimate.s estimate.x0 fit.intercept "
        "fit.r2 fit.rate flags max_at_diagonal max_margin resamples",
        "distance mean mom_err n resamples",
    ),
    "dynamical": (
        "bound_ok estimate.distances estimate.errs estimate.factor1_hold_fraction "
        "estimate.g estimate.interval estimate.k estimate.master_seed "
        "estimate.max_excess_over_2q estimate.means estimate.n_samples "
        "estimate.t_points estimate.x0 factor1_hold_fraction max_excess_over_2q",
        "distance mean err n",
    ),
    "ids": (
        "estimate.edges estimate.errs estimate.masses estimate.master_seed "
        "estimate.n_samples total_mass",
        "bin_lo bin_hi mass err",
    ),
    "inequalities": (
        "comparability.5.failures comparability.5.ratio_max comparability.5.ratio_min "
        "decoupling[].den decoupling[].den_err decoupling[].flags decoupling[].lambda "
        "decoupling[].num decoupling[].num_err decoupling[].ratio decoupling[].skipped "
        "decoupling_min_ratio one_step[].lhs one_step[].pass "
        "one_step[].pointwise_violations one_step[].rhs one_step[].sigma one_step[].x "
        "one_step[].y one_step_all_pass reverse_holder.failures "
        "reverse_holder.worst_constant vinv.err vinv.resamples vinv.value",
        "scale draw parameters lhs rhs ratio",
    ),
    "wegner": (
        "estimate.eps_list estimate.errs estimate.exponent estimate.flags "
        "estimate.lambda0 estimate.masses estimate.master_seed estimate.n_samples "
        "exponent flags",
        "eps mass err n",
    ),
}


@pytest.mark.parametrize("kind", sorted(TINY_CFGS))
def test_results_json_keys_are_pinned(kind):
    results = json.loads(run(TINY_CFGS[kind]).to_json())
    paths, columns = _RESULTS_SCHEMA[kind]
    assert _key_paths(results["outputs"]) == paths.split()
    assert results["series"]["columns"] == columns.split()


def test_decay_run_does_not_import_numpy_ma(tmp_path):
    # np.median and np.unique import numpy.ma on first use, ~10 ms of every run
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    script = (
        "import sys\n"
        "from fmlab.cli import main\n"
        f"assert main(['decay', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH="src"), cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_readme_lists_every_key_of_the_field_tables():
    import re

    from fmlab.runner import _BINS, _DISORDER, _KINDS, _MODELS, _TOP, _TOPOLOGY

    tables = {"top level": _TOP, "`topology`": _TOPOLOGY, "`disorder`": _DISORDER,
              "`estimator.bins`, kind `ids`": _BINS}
    tables.update({f"`model`, variant `{v}`": table for v, (_, table) in _MODELS.items()})
    tables.update({f"`estimator`, kind `{k}`": kind[2] for k, kind in _KINDS.items()})
    root = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    listed = readme.split("| where | keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("|").split(" | ") for line in listed.splitlines()]
    keys = {where.strip(): re.findall(r"`([^`]+)`", cells) for where, cells in rows}
    assert {where: sorted(k) for where, k in keys.items()} == {
        where: sorted(table) for where, table in tables.items()
    }
    assert all(len(k) == len(set(k)) for k in keys.values())
