"""Self-tests of the benchmark: the reference computations reproduce
known values, every check rejects a deliberately perturbed output, and
the tracer records nested spans without changing results.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

SEED = 3

# independent 1D quadrature values quoted by acceptance criterion 2
CRITERION_2 = {10.0: 1.068044510, 20.0: 1.033672125,
               40.0: 1.016750676, 80.0: 1.008354251}


def _failed(results):
    return {name for name, ok, _ in results if not ok}


def test_quadrature_reproduces_criterion_2_constants():
    for radius, value in CRITERION_2.items():
        assert abs(checks.schwarzschild_sphere_energy(radius) - value) \
            <= 1e-9


def test_polar_grid_solves_harmonic_data():
    # with c = 0 the problem is Laplace's with solution z = r cos(theta)
    r, th, u = checks.polar_grid_solution(c=0.0)
    exact = r[:, None] * np.cos(th)[None, :]
    assert np.abs(u - exact).max() <= 1e-4


# -- mass-search ---------------------------------------------------------------

def _mass_outputs():
    spec = workloads.MASS_SEARCH
    grid = workloads.fibonacci_directions(spec["grid"],
                                          workloads.grid_rotation(SEED))
    return {"grid_a": grid, "grid_E": 0.05 - 0.15 * grid[:, 2],
            "grid_admissible": np.array(["admissible"] * len(grid)),
            "mass": np.float64(-0.1), "argmin": np.array([0.0, 0.0, 1.0])}


def _mass_check_rejects(change, expected):
    out = _mass_outputs()
    assert not _failed(checks.check_mass_search(out, SEED))
    change(out)
    failed = _failed(checks.check_mass_search(out, SEED))
    assert any(expected in name for name in failed), failed


def test_mass_check_rejects_other_grid():
    def change(out):
        out["grid_a"] = workloads.fibonacci_directions(
            len(out["grid_a"]), workloads.grid_rotation(SEED + 1))
    _mass_check_rejects(change, "seeded Fibonacci grid")


def test_mass_check_rejects_inadmissible_direction():
    def change(out):
        out["grid_admissible"][5] = "not admissible"
    _mass_check_rejects(change, "every grid direction admissible")


def test_mass_check_rejects_nonfinite_energy():
    def change(out):
        out["grid_E"][2] = np.nan
    _mass_check_rejects(change, "energies finite")


def test_mass_check_rejects_tilted_argmin():
    def change(out):
        t = np.radians(12.0)
        out["argmin"] = np.array([np.sin(t), 0.0, np.cos(t)])
    _mass_check_rejects(change, "argmin within")


def test_mass_check_rejects_mass_above_grid_minimum():
    def change(out):
        out["mass"] = np.float64(out["grid_E"].min() + 1e-3)
    _mass_check_rejects(change, "at most the smallest")


def test_mass_check_rejects_mass_off_target():
    def change(out):
        out["mass"] = np.float64(-0.11)
    _mass_check_rejects(change, "E_ADM - |P|")


# -- asymptotics-ladder ----------------------------------------------------------

def _ladder_outputs():
    spec = workloads.ASYMPTOTICS_LADDER
    a_list = workloads.fibonacci_directions(spec["observers"],
                                            workloads.grid_rotation(SEED))
    radii = np.array(spec["radii"])
    row = [checks.schwarzschild_sphere_energy(r) * 1.001 for r in radii]
    return {"radii": radii, "a_list": a_list,
            "energies": np.array([row] * len(a_list)),
            "E_inf": np.full(len(a_list), 1.002)}


def _ladder_check_rejects(change, expected):
    out = _ladder_outputs()
    assert not _failed(checks.check_asymptotics_ladder(out, SEED))
    change(out)
    failed = _failed(checks.check_asymptotics_ladder(out, SEED))
    assert any(expected in name for name in failed), failed


def test_ladder_check_rejects_other_observers():
    def change(out):
        out["a_list"] = out["a_list"][::-1]
    _ladder_check_rejects(change, "seeded Fibonacci grid")


def test_ladder_check_rejects_dropped_radius():
    def change(out):
        out["radii"] = out["radii"][1:]
        out["energies"] = out["energies"][:, 1:]
    _ladder_check_rejects(change, "no radius dropped")


def test_ladder_check_rejects_energy_off_quadrature():
    def change(out):
        out["energies"][3, 2] *= 1.01
    _ladder_check_rejects(change, "of quadrature")


def test_ladder_check_rejects_limit_off_adm_mass():
    def change(out):
        out["E_inf"][1] = 1.02
    _ladder_check_rejects(change, "ADM mass")


# -- interior-identity -----------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return checks.polar_grid_solution()


def _interior_outputs(oracle):
    rng = np.random.default_rng(0)
    boundary = workloads.fibonacci_directions(400, 0.0)
    inner = rng.normal(size=(3000, 3))
    inner *= (rng.uniform(0.05, 0.95, size=3000)
              / np.linalg.norm(inner, axis=1))[:, None]
    verts = np.vstack([boundary, inner])
    bidx = np.arange(len(boundary))
    r_o, th_o, u_o = oracle
    r = np.linalg.norm(inner, axis=1)
    th = np.arccos(inner[:, 2] / r)
    from scipy.interpolate import RegularGridInterpolator
    u_inner = RegularGridInterpolator((r_o, th_o), u_o)(
        np.column_stack([np.clip(r, r_o[0], r_o[-1]),
                         np.clip(th, th_o[0], th_o[-1])]))
    a = workloads.observer_direction(SEED)
    return {"ball_vertices": verts, "ball_boundary": bidx,
            "u_linear": verts @ a,
            "u_uniform_expansion": np.concatenate([boundary[:, 2], u_inner]),
            "schw_vertices": 10.0 * verts, "schw_boundary": bidx,
            "u_schw": 10.0 * verts @ a,
            "slack": np.float64(-1e-8), "scale": np.float64(12.5)}


def _interior_check_rejects(oracle, change, expected):
    out = _interior_outputs(oracle)
    assert not _failed(checks.check_interior_identity(out, SEED, oracle))
    change(out)
    failed = _failed(checks.check_interior_identity(out, SEED, oracle))
    assert any(expected in name for name in failed), failed


def test_interior_check_rejects_linear_error(oracle):
    def change(out):
        out["u_linear"][500] += 1e-9
    _interior_check_rejects(oracle, change, "linear data")


def test_interior_check_rejects_maximum_principle_breach(oracle):
    def change(out):
        out["u_schw"][700] = out["u_schw"].max() + 1e-6
    _interior_check_rejects(oracle, change, "maximum principle")


def test_interior_check_rejects_oracle_mismatch(oracle):
    def change(out):
        verts = out["ball_vertices"]
        r = np.linalg.norm(verts, axis=1)
        k = int(np.flatnonzero((r > 0.4) & (r < 0.6)
                               & (np.abs(verts[:, 2]) < 0.3 * r))[0])
        out["u_uniform_expansion"][k] += 0.03
    _interior_check_rejects(oracle, change, "polar grid")


def test_interior_check_rejects_negative_slack(oracle):
    def change(out):
        out["slack"] = np.float64(-1e-5 * out["scale"])
    _interior_check_rejects(oracle, change, "identity slack")


# -- tracing and the result format ---------------------------------------------

def test_traced_untraced_comparison_sees_one_ulp():
    a = {"u": np.linspace(0.0, 1.0, 11)}
    b = {"u": a["u"].copy()}
    assert run._identical(a, b)
    b["u"][4] = np.nextafter(b["u"][4], 2.0)
    assert not run._identical(a, b)


def test_layer_metrics_self_time_excludes_children():
    spans = [
        {"name": "search.mass_infimum", "parent": None, "start": 0.0,
         "end": 10.0},
        {"name": "volume.admissibility_verdict", "parent": 0, "start": 1.0,
         "end": 5.0},
        {"name": "volume.level_set_topology", "parent": 1, "start": 1.5,
         "end": 4.5, "counts": {"levels": 64, "nudged_levels": 1}},
        {"name": "energy.energy", "parent": 0, "start": 6.0, "end": 7.0},
    ]
    m = tracing.layer_metrics(spans, wall_s=10.5)
    assert m["search.mass_infimum.s"] == 10.0
    assert m["search.mass_infimum.self_s"] == 5.0
    assert m["volume.admissibility_verdict.self_s"] == 1.0
    assert m["volume.level_set_topology.levels"] == 64
    assert m["energy.energy.calls"] == 1
    assert m["pass.self_s"] == 0.5


def test_tracer_records_nested_layers_without_changing_results():
    qlmass_volume = pytest.importorskip("qlmass.volume")
    from qlmass.embedding import align_embedding, embed_metric
    from qlmass.energy import make_observer
    from qlmass.initialdata import FlatData, extract_boundary_data

    def verdict():
        bd = extract_boundary_data(FlatData(), 1.0, level=1)
        emb = align_embedding(embed_metric(bd.geom.mesh, bd.geom.metric),
                              bd.positions)
        fill = qlmass_volume.build_fill_in(emb, layers=3)
        obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
        report = qlmass_volume.admissibility_verdict(fill, obs, n_levels=8)
        return report["verdict"], report["fillInTopology"].chi

    plain = verdict()
    tracer = tracing.Tracer(pass_id="test")
    tracer.install()
    try:
        traced = verdict()
    finally:
        tracer.uninstall()
    assert plain[0] == traced[0]
    assert np.array_equal(plain[1], traced[1])
    names = [s["name"] for s in tracer.spans]
    # build_fill_in and admissibility_verdict were reached through the
    # module attribute, level_set_topology from inside qlmass.volume
    assert "volume.build_fill_in" in names
    topo = names.index("volume.level_set_topology")
    parent = tracer.spans[topo]["parent"]
    assert names[parent] == "volume.admissibility_verdict"
    assert tracer.spans[topo]["counts"]["levels"] == 8
    m = tracing.layer_metrics(tracer.spans, wall_s=1.0)
    assert m["operators.OperatorSet.calls"] >= 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] \
        == ["setup_s", "wall_s", "cpu_s", "peak_rss_mib"]
