"""Tests for the observer-infimum search and the asymptotics driver."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from qlmass import search
from qlmass.embedding import align_embedding, embed_metric
from qlmass.energy import SurfaceData
from qlmass.initialdata import (
    BowenYorkData,
    FlatData,
    SchwarzschildData,
    extract_boundary_data,
)
from qlmass.mesh import icosphere
from qlmass.search import (
    SearchError,
    _nelder_mead,
    asymptotics_driver,
    mass_infimum,
    write_asymptotics_csv,
    write_mass_grid_csv,
)
from qlmass.volume import VolumeError, VolumeMesh, _split_prism, build_fill_in


def _setup(provider, radius, level):
    bd = extract_boundary_data(provider, radius, level=level)
    emb = embed_metric(bd.geom.mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    return (SurfaceData.from_embedding(emb), SurfaceData.from_boundary(bd),
            emb)


@pytest.fixture(scope="module")
def flat3():
    ref, phys, emb = _setup(FlatData(), 1.0, 3)
    return ref, phys, emb, build_fill_in(emb)


@pytest.fixture(scope="module")
def schw4():
    return _setup(SchwarzschildData(1.0), 10.0, 4)


@pytest.fixture(scope="module")
def by3():
    return _setup(BowenYorkData(np.array([0.0, 0.0, 0.1])), 40.0, 3)


def _spherical_shell(level=2, inner=0.5, n_layers=4):
    """Thick spherical shell: no linear height function is admissible
    (mid levels are annuli with two boundary traces but chi = 0)."""
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    V = mesh.n_vertices
    scales = np.linspace(1.0, inner, n_layers + 1)
    verts = np.vstack([s * pos for s in scales])
    tets = []
    for l in range(n_layers):
        lo, hi = l * V, (l + 1) * V
        for f in mesh.faces:
            tets.extend(_split_prism((lo + f[0], lo + f[1], lo + f[2],
                                      hi + f[0], hi + f[1], hi + f[2])))
    return VolumeMesh(verts, np.asarray(tets))


# -- mass infimum ----------------------------------------------------------

def test_flat_mass_zero_and_grid_uniform(flat3):
    ref, phys, emb, fill = flat3
    rep = mass_infimum(ref, phys, emb, fill_in=fill, grid_n=64,
                       refine_iters=10)
    assert abs(rep.mass_value) < 1e-4
    assert all(r["admissible"] == "admissible" for r in rep.energy_grid)
    grid_e = [r["E"] for r in rep.energy_grid]
    assert np.ptp(grid_e) < 1e-12
    assert rep.mass_value <= min(grid_e) + 1e-15


def test_schwarzschild_energy_isotropic(schw4):
    ref, phys, emb = schw4
    rep = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=5)
    grid_e = np.array([r["E"] for r in rep.energy_grid])
    assert np.ptp(grid_e) <= 1e-7 * grid_e.mean()
    assert abs(rep.mass_value - grid_e.mean()) <= 1e-7 * grid_e.mean()


def test_rounding_spread_notes_an_undetermined_argmin(flat3, schw4, by3):
    # flat grid energies agree to rounding; Schwarzschild's spread of
    # about 1e-7 and Bowen-York's of about 0.2 determine the direction
    ref, phys, emb, _ = flat3
    notes = mass_infimum(ref, phys, emb, grid_n=16, refine_iters=0).notes
    assert len(notes) == 1
    assert "the energy does not determine argminA" in notes[0]
    for ref, phys, emb in (schw4, by3):
        assert mass_infimum(ref, phys, emb, grid_n=16,
                            refine_iters=0).notes == []


def test_bowen_york_argmin_aligned_with_momentum(by3):
    ref, phys, emb = by3
    rep = mass_infimum(ref, phys, emb, grid_n=64, refine_iters=20)
    cosang = float(rep.argmin_a @ np.array([0.0, 0.0, 1.0]))
    assert np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) < 10.0


def test_mass_monotone_under_refinement(by3):
    ref, phys, emb = by3
    m0 = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=0)
    m1 = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=30)
    m2 = mass_infimum(ref, phys, emb, grid_n=128, refine_iters=30)
    assert m1.mass_value <= m0.mass_value
    assert m2.mass_value <= m1.mass_value + 1e-9


def test_mass_search_deterministic(by3):
    ref, phys, emb = by3
    r1 = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=10)
    r2 = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=10)
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_empty_feasible_set_raises(flat3):
    ref, phys, emb, _ = flat3
    shell = _spherical_shell()
    with pytest.raises(SearchError, match="diagnostics"):
        mass_infimum(ref, phys, emb, fill_in=shell, grid_n=8,
                     refine_iters=0)


def test_mass_grid_reads_no_tet_topology(flat3, monkeypatch):
    # with or without a fill-in of zero times the verdicts come from the
    # boundary surface alone
    def unread(vol):
        raise AssertionError("topology_arrays read on the mass path")

    monkeypatch.setattr(VolumeMesh, "topology_arrays", property(unread))
    ref, phys, emb, fill = flat3
    for fill_in in (fill, None):
        rep = mass_infimum(ref, phys, emb, fill_in=fill_in, grid_n=16,
                           refine_iters=5)
        assert all(r["admissible"] == "admissible" for r in rep.energy_grid)


def test_timed_fill_in_takes_sampled_levels(flat3, monkeypatch):
    # u = -t + a.x is not linear when interior times are nonzero
    ref, phys, emb, fill = flat3
    times = np.full(fill.n_vertices, 0.05)
    times[fill.boundary_vertices] = 0.0
    timed = VolumeMesh(fill.vertices, fill.tets, times=times)
    routes = []
    table_of = search.admissibility_table

    def spy(a, fill_in, surface, n_levels):
        route, tables = table_of(a, fill_in, surface, n_levels=n_levels)
        routes.append((route, [len(table.levels) for table in tables]))
        return route, tables

    monkeypatch.setattr(search, "admissibility_table", spy)
    rep = mass_infimum(ref, phys, emb, fill_in=timed, grid_n=8,
                       refine_iters=0, admissibility_levels=12)
    # the grid's eight directions in one call
    assert routes == [("sampledTets", [12] * 8)]
    assert all(r["admissible"] == "admissible" for r in rep.energy_grid)


def test_mass_without_fill_in_needs_a_star_shaped_surface():
    mesh = icosphere(2)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    pos[pos[:, 2] > 0.8] -= np.array([0.0, 0.0, 2.5])
    with pytest.raises(VolumeError, match="not star-shaped"):
        mass_infimum(None, None, SimpleNamespace(positions=pos, mesh=mesh))


def test_mass_grid_csv(flat3, tmp_path):
    ref, phys, emb, fill = flat3
    rep = mass_infimum(ref, phys, emb, fill_in=fill, grid_n=16,
                       refine_iters=0)
    path = tmp_path / "mass_grid.csv"
    write_mass_grid_csv(path, rep)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a_x", "a_y", "a_z", "E", "admissible"]
    assert len(rows) == 17
    assert rows[1][4] == "admissible"


# -- the local search against scipy's Nelder-Mead -------------------------

def _scipy_nelder_mead(func, simplex, maxiter, xatol, fatol, callback=None):
    """scipy.optimize.minimize with the arguments of _nelder_mead."""
    from scipy.optimize import minimize

    res = minimize(func, np.zeros(simplex.shape[1]), method="Nelder-Mead",
                   callback=callback,
                   options={"maxiter": maxiter, "xatol": xatol,
                            "fatol": fatol, "initial_simplex": simplex})
    return res.x, res.fun


def _rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def _cusp(x):
    return np.sqrt(abs(x[0] - 0.3)) + np.sqrt(abs(x[1] + 0.1))


@pytest.mark.parametrize("func, maxiter", [(_rosenbrock, 5),
                                           (_rosenbrock, 50),
                                           (_rosenbrock, 400),
                                           (_cusp, 200)])
def test_nelder_mead_evaluates_as_scipy_does(func, maxiter):
    simplex = np.array([[-1.2, 1.0], [-1.0, 1.0], [-1.2, 1.2]])
    seen = {"ours": [], "scipy": []}
    marks = []  # evaluations made when scipy finishes each iteration

    def recorded(name):
        def f(x):
            seen[name].append(np.array(x))
            return func(x)
        return f

    x, fx = _nelder_mead(recorded("ours"), simplex, maxiter, 1e-10, 1e-14)
    x_ref, fx_ref = _scipy_nelder_mead(
        recorded("scipy"), simplex, maxiter, 1e-10, 1e-14,
        callback=lambda _: marks.append(len(seen["scipy"])))
    assert np.array_equal(np.array(seen["ours"]), np.array(seen["scipy"]))
    assert np.array_equal(x, x_ref) and fx == fx_ref
    # the cap stops the short searches (the start counts as iteration 1),
    # the xatol/fatol test the long ones
    assert (len(marks) + 1 == maxiter) == (maxiter <= 50)
    # a step evaluates once or twice, or four times when it shrinks
    per_step = np.diff([3] + marks)
    assert (4 in per_step) == (func is _cusp)


def test_mass_refinement_trace_matches_scipy(monkeypatch):
    ref, phys, emb = _setup(BowenYorkData(np.array([0.0, 0.0, 0.1])),
                            40.0, 2)
    fill = build_fill_in(emb, layers=4)
    ours = mass_infimum(ref, phys, emb, fill_in=fill, grid_n=16,
                        refine_iters=50, admissibility_levels=16)
    monkeypatch.setattr(search, "_nelder_mead", _scipy_nelder_mead)
    theirs = mass_infimum(ref, phys, emb, fill_in=fill, grid_n=16,
                          refine_iters=50, admissibility_levels=16)
    assert len(ours.refinement_trace) > 20
    assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())


# -- asymptotics -----------------------------------------------------------

def test_flat_energies_vanish_at_all_radii():
    rep = asymptotics_driver(FlatData(),
                             [np.array([0.0, 0.0, 1.0])],
                             [1.0, 2.0], mesh_level=2)
    assert np.abs(np.asarray(rep.energies)).max() < 1e-3
    assert np.abs(np.asarray(rep.adm_target)).max() < 1e-10


def test_schwarzschild_limit_matches_mass():
    a_list = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    rep = asymptotics_driver(SchwarzschildData(1.0), a_list,
                             [10.0, 20.0, 40.0, 80.0], mesh_level=3)
    for fit, target in zip(rep.fits, rep.adm_target):
        assert abs(fit["E_inf"] - 1.0) < 0.01
        # four radii support all three terms
        assert fit["d"] is not None
        assert abs(target - 1.0) < 5e-3
    # energies decrease toward the limit
    for row in rep.energies:
        assert all(np.diff(row) < 0.0)


def test_bowen_york_antisymmetric_limit():
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    rep = asymptotics_driver(
        BowenYorkData(np.array([0.0, 0.0, 0.1])),
        [up, down], [10.0, 20.0, 40.0], mesh_level=3)
    anti = rep.fits[0]["E_inf"] - rep.fits[1]["E_inf"]
    assert abs(anti + 0.2) < 0.01
    target_anti = rep.adm_target[0] - rep.adm_target[1]
    assert abs(target_anti + 0.2) < 1e-6


def test_failed_radius_dropped_with_notice():
    rep = asymptotics_driver(SchwarzschildData(1.0),
                             [np.array([0.0, 0.0, 1.0])],
                             [0.3, 4.0, 8.0, 16.0], mesh_level=2)
    assert rep.radii == [4.0, 8.0, 16.0]
    assert len(rep.notices) == 1 and "0.3" in rep.notices[0]


def test_growing_energy_differences_get_a_notice():
    # at a fixed mesh level the flat sphere's energy (all discretization
    # error) grows with r, so the fit has no limit to find
    rep = asymptotics_driver(FlatData(), [np.array([0.0, 0.0, 1.0])],
                             [1.0, 2.0, 4.0], mesh_level=2)
    assert rep.notices == ["energy differences between successive radii "
                           "grow for observer rows [0]: there is no limit "
                           "in 1/r to fit"]


def test_repeated_radius_rejected():
    with pytest.raises(SearchError, match=r"repeated radius in "
                                          r"\[10\.0, 10\.0, 20\.0\]"):
        asymptotics_driver(SchwarzschildData(1.0),
                           [np.array([0.0, 0.0, 1.0])], [10.0, 10.0, 20.0],
                           mesh_level=2)


def test_asymptotics_csv(tmp_path):
    rep = asymptotics_driver(FlatData(),
                             [np.array([0.0, 0.0, 1.0])],
                             [1.0, 2.0], mesh_level=2)
    path = tmp_path / "asymptotics.csv"
    write_asymptotics_csv(path, rep)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "a_x", "a_y", "a_z", "E",
                       "E_inf", "c", "d", "admTarget"]
    assert len(rows) == 3
    # two radii support E_inf and c, not d
    assert rows[1][6] != "" and rows[1][7] == ""
