"""Tests for the observer-infimum search and the asymptotics driver."""

import csv
import json

import numpy as np
import pytest

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
    asymptotics_driver,
    mass_infimum,
    write_asymptotics_csv,
    write_mass_grid_csv,
)
from qlmass.volume import VolumeMesh, _split_prism, build_fill_in


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
    inner_faces = mesh.faces + n_layers * V
    bfaces = np.vstack([mesh.faces, inner_faces])
    return VolumeMesh(verts, np.asarray(tets), bfaces,
                      np.arange(len(bfaces)), quality_floor=1.0)


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
        assert fit["p"] is None or 0.5 <= fit["p"] <= 2.0
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


def test_asymptotics_csv(tmp_path):
    rep = asymptotics_driver(FlatData(),
                             [np.array([0.0, 0.0, 1.0])],
                             [1.0, 2.0], mesh_level=2)
    path = tmp_path / "asymptotics.csv"
    write_asymptotics_csv(path, rep)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "a_x", "a_y", "a_z", "E",
                       "E_inf", "c", "p", "admTarget"]
    assert len(rows) == 3
