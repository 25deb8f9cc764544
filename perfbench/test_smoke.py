"""Smoke test of the benchmark at reduced sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Runs each workload once untraced and once traced at a reduced size, in this
process, and checks that every metric BENCHMARK.json lists is emitted with its
unit, that all outputs pass their checks, and that the traced counts are the
ones the design predicts.  Full-size predictions are checked from the
workloads' own predictors without running the full sizes.
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "mc-concurrence": {"n": 2000},
    "mc-negativity": {"n": 2000},
    "cli-grid": {"grid": {"delta": (-2.0, 4.0, 11), "b": (-3.0, 3.0, 11)}, "samples": 200},
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def package():
    return worker.load_package()


@pytest.fixture(scope="module")
def runs(package, tmp_path_factory):
    """{(workload, trace): (workload object, worker result)} at reduced size."""
    out = {}
    for name, size in SMALL.items():
        for trace in (False, True):
            tmp = str(tmp_path_factory.mktemp(f"{name}-{int(trace)}"))
            w = workloads.WORKLOADS[name](package, 3, tmp, **size)
            out[name, trace] = w, worker.measure(w, package, 1e-3, trace, os.path.join(tmp, "spans.json"))
    return out


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(SMALL) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(spec, runs, name, trace):
    _, result = runs[name, trace]
    assert result["failed"] == 0, result["messages"]
    line = run.result_line(spec, result, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 1
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_counts_match_prediction(runs, name):
    w, result = runs[name, True]
    for metric, (predicted, measured) in result["predicted_counts"].items():
        assert measured == predicted, metric


def test_reduced_counts_by_formula(runs):
    conc = runs["mc-concurrence", True][1]["metrics"]
    assert conc["rng.normals.count"] == 36 * SMALL["mc-concurrence"]["n"]
    assert conc["linalg.eig.calls"] == conc["model.hamiltonian.calls"] == 0
    assert conc["haar.samples"] == conc["measures.concurrence.states"] == 7 * SMALL["mc-concurrence"]["n"]
    neg = runs["mc-negativity", True][1]["metrics"]
    assert neg["linalg.eig.matrices"] == neg["measures.negativity.matrices"] == SMALL["mc-negativity"]["n"]
    assert neg["model.hamiltonian.calls"] == 0
    grid = runs["cli-grid", True][1]["metrics"]
    assert grid["cli.rows"] == 3 * 11 * 11


def test_full_size_predictions(package, tmp_path):
    args = (package, 3, str(tmp_path))
    conc = workloads.McConcurrence(*args).predicted_counts()
    assert conc == {"rng.normals.count": 36_000_000, "linalg.eig.calls": 0, "model.hamiltonian.calls": 0}
    assert workloads.McNegativity(*args).predicted_counts() == {"linalg.eig.matrices": 1_000_000}
    grid = workloads.CliGrid(*args)
    assert grid.items == 30_603
    assert grid.predicted_counts()["linalg.eig.matrices"] == 20_404


@pytest.mark.parametrize("name", list(SMALL))
def test_self_times_add_up_to_traced_wall(runs, name):
    m = runs[name, True][1]["metrics"]
    parts = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["bench.self_s"]
    assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert min(m[f"{layer}.self_s"] for layer in tracing.LAYERS) >= 0.0


def test_tracer_restores_the_package(package):
    def targets():
        return [owner.__dict__[leaf] for owner, leaf in
                (tracing.owner_of(package, mod, attr) for mod, attr, _ in tracing.WRAPPED)]

    before = targets()
    with tracing.Tracer().installed(package):
        assert all(a is not b for a, b in zip(targets(), before))
    assert all(a is b for a, b in zip(targets(), before))


def test_program_seeds_follow_the_workload_seed(package, tmp_path):
    a = workloads.McNegativity(package, 3, str(tmp_path)).record()
    b = workloads.McNegativity(package, 3, str(tmp_path)).record()
    c = workloads.McNegativity(package, 4, str(tmp_path)).record()
    assert a == b and a["program_seed"] != c["program_seed"]
    assert workloads.derive_seed(3, "mc-negativity") != workloads.derive_seed(3, "cli-grid")


def test_oracles_are_consistent():
    d = np.linspace(-2.0, 4.0, 7)
    b = np.linspace(-3.0, 3.0, 7)
    h = oracles.block_hamiltonians(d[:, None], b[None, :])
    np.testing.assert_allclose(oracles.block_spectra(d[:, None], b[None, :]),
                               np.linalg.eigvalsh(h), atol=1e-12)
    e = np.eye(6)
    mean, sd = oracles.doublet_moments((e[5], e[0]))
    assert mean == pytest.approx(np.pi / 4, abs=1e-9) and 0.1 < sd < 0.3
    q = oracles.quartet_basis()
    np.testing.assert_allclose(q @ oracles.block_hamiltonians(-1.0, 0.0) @ q.T, -0.5 * np.eye(4), atol=1e-12)


def test_setup_invocations_are_checked(runs):
    _, result = runs["cli-grid", False]
    assert len(result["record"]["setup_s"]) == 2 * worker.SETUP_PER_GAP
    assert 0 < result["metrics"]["setup_s"] < 60


def test_checks_catch_wrong_outputs(package, tmp_path, monkeypatch):
    spectrum, average = package["model"].spectrum, package["haar"].average_concurrence

    def shifted(params):
        eig = spectrum(params)
        return eig._replace(values=eig.values + 1e-6)

    def biased(*args):
        est = average(*args)
        return dataclasses.replace(est, mean=est.mean + 0.05)

    grid = workloads.CliGrid(package, 3, str(tmp_path), **SMALL["cli-grid"])
    with monkeypatch.context() as patch:
        patch.setattr(package["model"], "spectrum", shifted)
        assert worker.measure(grid, package, 1e-3, False)["failed"] == 2 * grid.points
    conc = workloads.McConcurrence(package, 3, str(tmp_path), **SMALL["mc-concurrence"])
    with monkeypatch.context() as patch:
        patch.setattr(package["haar"], "average_concurrence", biased)
        assert worker.measure(conc, package, 1e-3, False)["failed"] == 7
