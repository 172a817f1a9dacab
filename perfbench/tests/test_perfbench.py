"""Tests of the benchmark's own logic: self times, the output check, its configs.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
from checks import check_run  # noqa: E402
from run import PER_LAYER, WORKLOADS  # noqa: E402


def span(name, start, end, parent=None, run=0, sample=False):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": run,
            "work": 0.0, "error": None, "sample": sample}


def test_self_time_subtracts_union_of_children():
    spans = [
        span("run", 0.0, 10.0),                      # 0: root
        span("engine.run_indexed", 1.0, 9.0, 0),     # 1
        span("estimators.reduce", 2.0, 5.0, 1, sample=True),  # 2
        span("numerics.solve", 2.5, 4.0, 2),         # 3
        span("kernels.opnorm", 3.5, 4.5, 2),         # 4: overlaps 3 by 0.5
        span("estimators.reduce", 6.0, 8.0, 1, sample=True),  # 5
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.5, 1.0, 2.0])


def test_layer_self_times_sum_to_traced_wall():
    spans = [
        span("run", 0.0, 10.0, run=0),
        span("engine.run_indexed", 1.0, 9.0, 0),
        span("estimators.reduce", 2.0, 5.0, 1, sample=True),
        span("numerics.solve", 2.5, 4.0, 2),
        span("run", 10.0, 13.0, run=1),
        span("disorder.draw", 11.0, 12.0, 4),
    ]
    m = tracer.layer_metrics(spans, {0: "decay", 1: "wegner"})
    layers = set(tracer.SELF_TIME_LAYER.values())
    assert sum(m[name] for name in layers) == pytest.approx(m["trace.wall_s"]) == 13.0
    assert m["trace.unattributed_s"] == pytest.approx(4.0)
    assert m["runner.kind_s.decay"] == 10.0 and m["runner.kind_s.wegner"] == 3.0
    assert m["engine.sample_ms_p50"] == pytest.approx(3000.0)
    assert m["numerics.solve_calls"] == 1
    assert set(m) <= set(PER_LAYER)


def test_missing_bindings_are_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "BINDINGS", tracer.BINDINGS + [
        ("fmlab.kernels", "no_such_kernel", "kernels.jacobi", None),
        ("fmlab.no_such_module", "f", "kernels.jacobi", None),
    ])
    t = tracer.Tracer()
    t.install()
    try:
        assert "fmlab.kernels.no_such_kernel" in t.missing
        assert "fmlab.no_such_module.f" in t.missing
    finally:
        t.uninstall()
    import fmlab.estimators

    assert not hasattr(fmlab.estimators.hermitian_eig, "__wrapped__")


def decay_results(mean_x0=1.5387236404422733):
    res = {
        "kind": "decay",
        "master_seed": 7,
        "config_digest": "0" * 64,
        "outputs": {
            "fit": {"rate": 0.6, "intercept": 0.1, "r2": 0.99},
            "d_min": 4,
            "max_at_diagonal": True,
            "estimate": {
                "x0": 0,
                "distances": [0, 1, 2, 3, 4, 5],
                "means": [mean_x0, 0.9, 0.5, 0.3, 0.129, 0.07],
                "errs": [0.04, 0.03, 0.02, 0.01, 0.007, 0.004],
            },
        },
        "series": {"columns": [], "rows": []},
    }
    return json.dumps(res, sort_keys=True, indent=1) + "\n"


REFERENCE = {"mean_x0": [1.5387236404422733, 0.0072, 0.0405],
             "mean_dmin": [0.1290757060561338, 0.0013, 0.0071]}


def test_output_check_accepts_a_matching_run():
    text = decay_results()
    assert check_run("decay", text, 7, REFERENCE, other_text=text) == []


def test_output_check_rejects_one_perturbed_digit():
    bad = decay_results(mean_x0=2.5387236404422733)  # leading digit of a key scalar
    problems = check_run("decay", bad, 7, REFERENCE, other_text=bad)
    assert problems and "mean_x0" in problems[0]


def test_output_check_rejects_results_that_differ_across_worker_counts():
    w1 = decay_results()
    w2 = decay_results(mean_x0=1.5387236404422734)  # last digit only
    assert w1 != w2
    assert check_run("decay", w2, 7, REFERENCE, other_text=w1)
    assert check_run("decay", w2, 7, REFERENCE) == []  # within tolerance on its own


def test_output_check_rejects_broken_invariants_and_seed():
    res = json.loads(decay_results())
    broken = copy.deepcopy(res)
    broken["outputs"]["max_at_diagonal"] = False
    assert check_run("decay", json.dumps(broken), 7, REFERENCE)
    assert check_run("decay", decay_results(), 8, REFERENCE)


def test_output_check_accepts_a_low_run_that_reports_a_small_error():
    # decay_chain at seed 16: no large sample, so both its mean and its error are low
    ref = json.loads((BENCH / "reference.json").read_text())["decay_chain.json"]
    res = json.loads(decay_results(mean_x0=1.38782888387159))
    res["outputs"]["estimate"]["errs"][0] = 0.0221
    res["outputs"]["estimate"]["means"][4] = ref["mean_dmin"][0]
    assert check_run("decay", json.dumps(res), 7, ref) == []


def spectral_results(kind, scale=1.0):
    """A results.json of kind correlator or ids at the reference values, key scalars times scale."""
    ref = json.loads((BENCH / "reference.json").read_text())
    if kind == "correlator":
        x0, _, spread = ref["correlator_chain.json"]["mean_x0"]
        outputs = {"k_bound_ok": True, "d_min": 4, "estimate": {
            "distances": [0, 1, 2, 3, 4],
            "means": [scale * x0, 0.1, 0.05, 0.01, 0.004],
            "errs": [scale * spread, 0.01, 0.005, 0.001, 0.001]}}
        fname = "correlator_chain.json"
    else:
        mass, _, spread = ref["ids_alloy_2d.json"]["mass_at_0"]
        outputs = {"total_mass": 1.0, "estimate": {
            "edges": [-1.0, 0.0, 1.0], "masses": [0.5, scale * mass], "errs": [0.01, scale * spread]}}
        fname = "ids_alloy_2d.json"
    text = json.dumps({"kind": kind, "master_seed": 7, "outputs": outputs})
    return text, ref[fname]


@pytest.mark.parametrize("kind", ["correlator", "ids"])
def test_output_check_rejects_a_spectral_result_off_by_a_factor_of_two(kind):
    text, reference = spectral_results(kind)
    assert check_run(kind, text, 7, reference) == []
    for scale in (2.0, 0.5):
        text, reference = spectral_results(kind, scale)
        problems = check_run(kind, text, 7, reference)
        assert problems and "standard errors" in problems[0]


def test_decay_block_long_config_loads_through_the_runner():
    from fmlab import runner

    cfg = runner.load_config(str(BENCH / "configs" / "decay_block_long.json"))
    model = runner.build_model(cfg)
    topo = runner.build_topology(cfg)
    runner.build_disorder(cfg)
    assert model.k == 3 and topo.n_vertices * model.k_ambient >= 144
    assert cfg["estimator"]["samples"] >= 100


@pytest.mark.parametrize("fname", sorted({f for runs in WORKLOADS.values() for _, f in runs}))
def test_every_workload_config_loads_and_has_a_reference(fname):
    from fmlab import runner

    cfg = runner.load_config(str(BENCH / "configs" / fname))
    runner.build_model(cfg)
    runner.build_topology(cfg)
    runner.build_disorder(cfg)
    reference = json.loads((BENCH / "reference.json").read_text())
    assert all(se_mean > 0 and spread > 0 for _, se_mean, spread in reference[fname].values())
