"""Tests for the observer-infimum search and the asymptotics driver."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlmass import search
from qlmass.embedding import align_embedding, embed_metric
from qlmass.energy import ObserverKernel, SurfaceData
from qlmass.initialdata import (
    BowenYorkData,
    FlatData,
    SchwarzschildData,
    extract_boundary_data,
)
from qlmass.mesh import icosphere
from qlmass.search import (
    SearchError,
    _polish,
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
    # one admissible direction has a spread of 0 but no second candidate
    assert mass_infimum(ref, phys, emb, grid_n=1).notes == []
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


# -- the local polish ------------------------------------------------------

def _scipy_nelder_mead(func, simplex, maxiter, xatol, fatol):
    """Best value of scipy.optimize.minimize(method="Nelder-Mead") from
    `simplex`, the search `mass_infimum` made before the polish."""
    from scipy.optimize import minimize

    return minimize(func, np.zeros(simplex.shape[1]), method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": xatol,
                             "fatol": fatol,
                             "initial_simplex": simplex}).fun


def _cusp(x):
    return np.sqrt(abs(x[..., 0] - 0.3)) + np.sqrt(abs(x[..., 1] + 0.1))


@pytest.mark.parametrize("provider, radius, level", [
    (BowenYorkData(np.array([0.0, 0.0, 0.1])), 40.0, 2),
    (BowenYorkData(np.array([0.0, 0.0, 0.1])), 40.0, 3),
    (BowenYorkData(np.array([0.3, -0.2, 0.5])), 10.0, 3),
    (SchwarzschildData(1.0), 10.0, 3),
    (FlatData(), 1.0, 3),
], ids=["bowen_york_z-40-2", "bowen_york_z-40-3", "bowen_york_xyz-10-3",
        "schwarzschild-10-3", "flat-1-3"])
def test_polish_reaches_scipy_nelder_mead(provider, radius, level):
    # the oracle: scipy's Nelder-Mead on the one-direction energy in the
    # same chart about the best grid direction, from the grid-spacing
    # simplex, with the iteration cap and tolerances it had in mass_infimum
    ref, phys, emb = _setup(provider, radius, level)
    grid = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=0)
    ours = mass_infimum(ref, phys, emb, grid_n=32, refine_iters=50)
    kernel = ObserverKernel(emb.positions, [ref, phys])
    a0 = grid.argmin_a
    t1, t2 = search._tangent_basis(a0)

    def energy(v):
        theta = np.hypot(*v)
        a = (np.cos(theta) * a0 + np.sin(theta) / theta * (v[0] * t1
                                                          + v[1] * t2)
             if theta > 0.0 else a0)
        return kernel.energies(a[None])[0][0]

    h = 2.0 / np.sqrt(32)
    oracle = min(grid.mass_value, _scipy_nelder_mead(
        energy, np.array([[0.0, 0.0], [h, 0.0], [0.0, h]]), 50, 1e-10,
        1e-14))
    grid_a = np.array([row["a"] for row in grid.energy_grid])
    largest_term = np.abs(kernel.energies(grid_a)[1]).max()
    assert ours.mass_value <= oracle + 1e-14 * largest_term
    assert ours.mass_value <= grid.mass_value


def test_polish_finds_the_bowen_york_direction(by3):
    # P || z: the energy's minimum is at a = z to the mesh's symmetry
    ref, phys, emb = by3
    rep = mass_infimum(ref, phys, emb, grid_n=24, refine_iters=50)
    assert np.arccos(min(1.0, rep.argmin_a[2])) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(0.0, np.pi), st.floats(-0.25, 0.25),
       st.floats(-0.25, 0.25), st.floats(0.0, 0.1), st.floats(-1.0, 1.0))
def test_polish_finds_the_minimum_of_a_smooth_bowl(l1, l2, angle, x1, x2,
                                                   quartic, offset):
    # a positive-definite quadratic plus a quartic at most a tenth of its
    # smaller curvature, minimized at x* inside the first stencil
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    hess = rot @ np.diag([l1, l2]) @ rot.T
    x_min = np.array([x1, x2])
    calls = []

    def bowl(points):
        calls.append(len(points))
        d = points - x_min
        return (offset + 0.5 * np.einsum("ki,ij,kj->k", d, hess, d)
                + quartic * min(l1, l2) * (d ** 4).sum(axis=1))

    x, fx = _polish(bowl, 0.25, 20)
    assert np.hypot(*(x - x_min)) <= 1e-8
    assert len(calls) <= 20 and set(calls) == {6}


@pytest.mark.parametrize("rounds", [1, 5, 50, 400])
def test_polish_never_climbs_on_a_cusp(rounds):
    calls = []

    def cusp(points):
        calls.append(len(points))
        return _cusp(points)

    x, fx = _polish(cusp, 0.5, rounds)
    assert fx <= _cusp(np.zeros(2)) and fx == _cusp(x)
    assert len(calls) <= rounds


def test_polish_makes_one_kernel_call_per_round(by3, monkeypatch):
    ref, phys, emb = by3
    energies = ObserverKernel.energies
    sizes = []

    def spy(kernel, dirs):
        sizes.append(len(dirs))
        return energies(kernel, dirs)

    monkeypatch.setattr(ObserverKernel, "energies", spy)
    for cap in (3, 50):
        sizes.clear()
        rep = mass_infimum(ref, phys, emb, grid_n=24, refine_iters=cap)
        rounds = sizes[1:]  # after the grid's call
        assert sizes[0] == 24
        assert 1 <= len(rounds) <= cap and max(rounds) <= 6
        assert len(rep.refinement_trace) == sum(rounds)
    assert len(rounds) < 50  # the search stopped before its cap


def test_identical_sides_keep_the_grid_direction(by3):
    # every energy is exactly 0: the polish must not move, nor divide by
    # its flat model (RuntimeWarnings are errors)
    ref, _, emb = by3
    grid = mass_infimum(ref, ref, emb, grid_n=16, refine_iters=0)
    rep = mass_infimum(ref, ref, emb, grid_n=16, refine_iters=50)
    assert rep.mass_value == 0.0 and not np.signbit(rep.mass_value)
    assert np.array_equal(rep.argmin_a, grid.argmin_a)
    assert {it["E"] for it in rep.refinement_trace} == {0.0}


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
