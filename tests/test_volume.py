"""Tests for the fill-in builder, the interior solver, level-set
topology, admissibility verdicts, and the integral identity check."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse import csr_matrix, diags, lil_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg, splu
from click.testing import CliRunner
from scipy.spatial import Delaunay

from qlmass import volume
from qlmass.cli import main
from qlmass.config import default_config
from qlmass.embedding import align_embedding, embed_metric
from qlmass.initialdata import (
    BowenYorkData,
    FlatData,
    SchwarzschildData,
    UniformExpansionData,
    extract_boundary_data,
)
from qlmass.mesh import icosphere
from qlmass.operators import incidence
from qlmass.volume import (
    HarmonicRepresentative,
    LevelSetTopology,
    VolumeError,
    VolumeMesh,
    _conformal_structure,
    _exact_coarea,
    _interpolate_boundary,
    _split_prism,
    admissibility_verdict,
    build_fill_in,
    integral_identity_check,
    level_set_topology,
    read_volume_mesh,
    solve_spacetime_harmonic,
    write_volume_mesh,
)


def _unit_sphere(level):
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    return mesh, pos


def _ball_fill_in(level, radius=1.0, layers=8):
    mesh, pos = _unit_sphere(level)
    return mesh, build_fill_in(radius * pos, mesh=mesh, layers=layers)


def _solid_torus(n_major=48, n_rings=3, major=2.0, minor=0.7):
    """Programmatic solid torus: Delaunay disc sections swept around a
    circle of radius `major` in the xy plane, prisms split into tets."""
    pts2 = [(0.0, 0.0)]
    for ring in range(1, n_rings + 1):
        rad = minor * ring / n_rings
        k = 6 * ring
        ang = 2.0 * np.pi * np.arange(k) / k
        pts2.extend(zip(rad * np.cos(ang), rad * np.sin(ang)))
    pts2 = np.asarray(pts2)
    tri = Delaunay(pts2).simplices
    P = len(pts2)
    sections = []
    for s in range(n_major):
        phi = 2.0 * np.pi * s / n_major
        x = (major + pts2[:, 0]) * np.cos(phi)
        y = (major + pts2[:, 0]) * np.sin(phi)
        sections.append(np.column_stack([x, y, pts2[:, 1]]))
    verts = np.vstack(sections)
    tets = []
    for s in range(n_major):
        a, b = s * P, ((s + 1) % n_major) * P
        for p0, p1, p2 in tri:
            tets.extend(_split_prism((a + p0, a + p1, a + p2,
                                      b + p0, b + p1, b + p2)))
    tets = np.asarray(tets, dtype=np.int64)
    faces = np.vstack([tets[:, [1, 2, 3]], tets[:, [0, 2, 3]],
                       tets[:, [0, 1, 3]], tets[:, [0, 1, 2]]])
    sf = np.sort(faces, axis=1)
    uniq, cnt = np.unique(sf, axis=0, return_counts=True)
    bf = uniq[cnt == 1]
    return VolumeMesh(verts, tets, bf, np.arange(len(bf)))


# -- fill-in construction --------------------------------------------------

def _sliver(h):
    """One tet over the unit right triangle with its apex at height h above
    the centroid: its smallest dihedral angle is arctan(3 h), at the two
    legs."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [1.0 / 3.0, 1.0 / 3.0, h]])
    faces = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    return verts, np.array([[0, 1, 2, 3]]), faces, np.arange(4)


def test_sliver_tet_refused():
    h = 0.005
    with pytest.raises(VolumeError,
                       match=f"min dihedral {np.degrees(np.arctan(3 * h)):.2f}"
                             f" deg < {volume.MIN_DIHEDRAL_DEGREES} deg"):
        VolumeMesh(*_sliver(h))
    assert VolumeMesh(*_sliver(0.1)).min_dihedral == pytest.approx(
        np.degrees(np.arctan(0.3)), rel=1e-12)


def test_mass_refuses_a_sliver_volume_mesh_file(tmp_path):
    h = 0.005
    verts, tets, faces, bmap = _sliver(h)
    rows = ([f"vertices {len(verts)}"]
            + [" ".join(map(repr, [0.0, *map(float, v)])) for v in verts]
            + [f"tets {len(tets)}"] + [" ".join(map(str, t)) for t in tets]
            + [f"boundary {len(faces)}"]
            + [" ".join(map(str, [*f, m])) for f, m in zip(faces, bmap)])
    mesh_path = tmp_path / "sliver.vmesh"
    mesh_path.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n")
    result = CliRunner().invoke(main, ["mass", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert (f"min dihedral {np.degrees(np.arctan(3 * h)):.2f} deg < 1.0 deg"
            in result.output)
    assert "internal error" not in result.output


def test_fill_in_ball_geometry():
    mesh, vol = _ball_fill_in(3)
    V = mesh.n_vertices
    assert vol.n_vertices % V == 1  # shells plus the center vertex
    assert np.all(vol.tet_volumes > 0.0)
    assert vol.min_dihedral > 1.0
    # conforming boundary: the first V vertices are the surface vertices
    assert np.allclose(vol.vertices[:V],
                       mesh.vertices / np.linalg.norm(
                           mesh.vertices, axis=1, keepdims=True))
    assert np.array_equal(vol.boundary_faces, mesh.faces)
    assert np.array_equal(vol.boundary_map, np.arange(mesh.n_faces))
    assert np.array_equal(vol.boundary_vertices, np.arange(V))
    # total volume approximates the ball
    total = vol.tet_volumes.sum()
    assert abs(total - 4.0 * np.pi / 3.0) < 0.02 * 4.0 * np.pi / 3.0


def test_fill_in_scales_with_radius():
    _, vol1 = _ball_fill_in(2, radius=1.0)
    _, vol7 = _ball_fill_in(2, radius=7.0)
    assert np.allclose(vol7.vertices, 7.0 * vol1.vertices, atol=1e-12)
    assert abs(vol7.tet_volumes.sum() - 343.0 * vol1.tet_volumes.sum()) < 1e-9


def test_fill_in_ellipsoid_builds():
    mesh, pos = _unit_sphere(2)
    vol = build_fill_in(pos * np.array([1.0, 1.0, 1.5]), mesh=mesh)
    assert vol.min_dihedral > 1.0
    exact = 1.5 * 4.0 * np.pi / 3.0
    assert abs(vol.tet_volumes.sum() - exact) < 0.05 * exact


def test_fill_in_rejects_non_star_shaped():
    mesh, pos = _unit_sphere(2)
    dent = pos.copy()
    # push a cap far past the centroid
    cap = dent[:, 2] > 0.8
    dent[cap] -= np.array([0.0, 0.0, 2.5])
    with pytest.raises(VolumeError, match="star-shaped"):
        build_fill_in(dent, mesh=mesh)


def test_volume_mesh_file_round_trip(tmp_path):
    _, vol = _ball_fill_in(2)
    path = tmp_path / "ball.vmesh"
    write_volume_mesh(path, vol)
    back = read_volume_mesh(path)
    assert np.array_equal(back.vertices, vol.vertices)
    assert np.array_equal(back.tets, vol.tets)
    assert np.array_equal(back.boundary_faces, vol.boundary_faces)
    assert np.array_equal(back.boundary_map, vol.boundary_map)
    assert np.array_equal(back.times, vol.times)


def test_volume_mesh_file_malformed(tmp_path):
    path = tmp_path / "bad.vmesh"
    path.write_text("nodes 3\n0 0 0 0\n")
    with pytest.raises(VolumeError, match="malformed"):
        read_volume_mesh(path)


def _cross_normals(vertices, tets):
    p = vertices[tets]
    return np.stack([np.cross(p[:, j] - p[:, i], p[:, k] - p[:, i])
                     for i, j, k in volume._TET_FACES], axis=1)


def test_face_normals_match_cross_products(tmp_path):
    _, vol = _ball_fill_in(3)
    assert np.array_equal(volume._face_normals(vol.vertices, vol.tets),
                          _cross_normals(vol.vertices, vol.tets))
    # a mesh file with every third tet negatively oriented, which the
    # reader flips back before the normals are taken
    path = tmp_path / "flipped.vmesh"
    write_volume_mesh(path, vol)
    tets = vol.tets.copy()
    tets[::3] = tets[::3][:, [1, 0, 2, 3]]
    lines = path.read_text().splitlines()
    first = vol.n_vertices + 2
    lines[first:first + vol.n_tets] = [" ".join(map(str, t)) for t in tets]
    path.write_text("\n".join(lines) + "\n")
    back = read_volume_mesh(path)
    assert not np.array_equal(back.tets, tets)
    normals = _cross_normals(back.vertices, back.tets)
    assert np.array_equal(volume._face_normals(back.vertices, back.tets),
                          normals)
    assert np.array_equal(back.hat_gradients[0],
                          volume._hat_gradients(normals,
                                                back.tet_volumes))


def test_rebuilt_fill_in_reproduces_volumes_and_solves():
    # build_fill_in flips negatively oriented tets; a mesh rebuilt from
    # the flipped tets must compute the same volumes and solutions
    _, vol = _ball_fill_in(3)
    rebuilt = VolumeMesh(vol.vertices, vol.tets, vol.boundary_faces,
                         vol.boundary_map)
    assert np.array_equal(rebuilt.tets, vol.tets)
    assert np.array_equal(rebuilt.tet_volumes, vol.tet_volumes)
    assert np.array_equal(rebuilt.hat_gradients[0], vol.hat_gradients[0])
    bvals = vol.vertices[vol.boundary_vertices, 2]
    data = UniformExpansionData(1.0)
    assert np.array_equal(solve_spacetime_harmonic(rebuilt, data, bvals).u,
                          solve_spacetime_harmonic(vol, data, bvals).u)


def test_volume_mesh_rejects_boundary_map_length_mismatch():
    _, vol = _ball_fill_in(1)
    with pytest.raises(VolumeError, match="boundary_map has 79 entries "
                                          "for 80 boundary faces"):
        VolumeMesh(vol.vertices, vol.tets, vol.boundary_faces,
                   vol.boundary_map[:-1])


# the per-prism split rule, kept as the oracle of the vectorized split
_REFERENCE_PRISM_MAPS = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
)


def _split_prism_reference(ids):
    v = [ids[m] for m in _REFERENCE_PRISM_MAPS[int(np.argmin(ids))]]
    if min(v[1], v[5]) < min(v[2], v[4]):
        return [(v[0], v[1], v[2], v[5]),
                (v[0], v[1], v[5], v[4]),
                (v[0], v[4], v[5], v[3])]
    return [(v[0], v[1], v[2], v[4]),
            (v[0], v[4], v[2], v[5]),
            (v[0], v[4], v[5], v[3])]


_PRISMS = st.lists(
    st.lists(st.integers(0, 10**6), min_size=6, max_size=6, unique=True),
    min_size=1, max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_PRISMS)
@example([[0, 1, 2, 3, 4, 5]])
# solid-torus wrap-around: the last section's prism has its smallest ids
# on the top triangle
@example([[47 * 19 + 3, 47 * 19 + 7, 47 * 19 + 4, 3, 7, 4],
          [960, 950, 955, 12, 5, 9]])
def test_split_prism_matches_per_prism_rule(prisms):
    expected = [tet for ids in prisms for tet in _split_prism_reference(ids)]
    assert _split_prism(np.array(prisms)).tolist() == \
        [list(t) for t in expected]
    assert _split_prism(tuple(prisms[0])).tolist() == \
        [list(t) for t in _split_prism_reference(prisms[0])]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_fill_in_tets_match_per_prism_reference(level):
    mesh, vol = _ball_fill_in(level)
    V = mesh.n_vertices
    layers = (vol.n_vertices - 1) // V
    tets = []
    for l in range(layers - 1):
        lo, hi = l * V, (l + 1) * V
        for f in mesh.faces:
            tets.extend(_split_prism_reference(
                (lo + f[0], lo + f[1], lo + f[2],
                 hi + f[0], hi + f[1], hi + f[2])))
    lo = (layers - 1) * V
    tets.extend((lo + a, lo + b, lo + c, layers * V)
                for a, b, c in mesh.faces)
    # the mesh orients the reference tets as it oriented the fill-in's
    reference = VolumeMesh(vol.vertices, np.array(tets, dtype=np.int64),
                           vol.boundary_faces, vol.boundary_map)
    assert np.array_equal(vol.tets, reference.tets)


# -- interior solver -------------------------------------------------------

def test_flat_linear_boundary_is_exact():
    _, vol = _ball_fill_in(3)
    bvals = vol.vertices[vol.boundary_vertices] @ np.array([0.3, -0.2, 1.0])
    sol = solve_spacetime_harmonic(vol, FlatData(), bvals)
    exact = vol.vertices @ np.array([0.3, -0.2, 1.0])
    assert np.abs(sol.u - exact).max() <= 1e-12
    assert sol.picard_iters == 0
    assert len(sol.step_cg_iterations) == 1
    assert sol.residual_norm <= 1e-12


class _IndefiniteMetricData(FlatData):
    """diag(-1, -1, 1): positive determinant, not positive definite."""

    def metric(self, x):
        return np.diag([-1.0, -1.0, 1.0]) * np.ones((len(x), 1, 1))


def test_indefinite_metric_is_rejected():
    # det g = 1 > 0, but the leading minor g_00 = -1 is not positive
    _, vol = _ball_fill_in(2)
    z = vol.vertices[vol.boundary_vertices, 2]
    with pytest.raises(VolumeError, match="not positive definite"):
        solve_spacetime_harmonic(vol, _IndefiniteMetricData(), z)


def test_flat_quadratic_second_order_convergence():
    # u = z^2 - (x^2 + y^2 + z^2 - 1)/3 is harmonic with boundary value z^2
    errs = []
    for level in (2, 3, 4):
        _, vol = _ball_fill_in(level, layers=2 ** level)
        z = vol.vertices[vol.boundary_vertices, 2]
        sol = solve_spacetime_harmonic(vol, FlatData(), z ** 2)
        r2 = np.einsum("ni,ni->n", vol.vertices, vol.vertices)
        exact = vol.vertices[:, 2] ** 2 - (r2 - 1.0) / 3.0
        w = np.zeros(vol.n_vertices)
        np.add.at(w, vol.tets.reshape(-1),
                  np.repeat(vol.tet_volumes / 4.0, 4))
        errs.append(np.sqrt(np.sum(w * (sol.u - exact) ** 2)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 3.0


def _polar_oracle(n_r, n_t, c):
    """Independent axisymmetric fixed-point solve on a staggered polar
    grid of the unit ball: Lap u = -3c sqrt(u_r^2 + u_theta^2 / r^2)
    with u(1, theta) = cos(theta)."""
    hr, ht = 1.0 / n_r, np.pi / n_t
    r = (np.arange(n_r) + 0.5) * hr
    th = (np.arange(n_t) + 0.5) * ht
    idx = lambda i, j: i * n_t + j
    A = lil_matrix((n_r * n_t, n_r * n_t))
    b_bc = np.zeros(n_r * n_t)
    for i in range(n_r):
        ri = r[i]
        cr, cthe = 1.0 / hr ** 2, 1.0 / (ri ** 2 * ht ** 2)
        for j in range(n_t):
            k = idx(i, j)
            cot = np.cos(th[j]) / np.sin(th[j])
            cp, cm = cr + 1.0 / (ri * hr), cr - 1.0 / (ri * hr)
            A[k, k] -= 2.0 * cr
            if i + 1 < n_r:
                A[k, idx(i + 1, j)] += cp
            else:
                A[k, k] -= cp  # ghost = 2 u_b - u
                b_bc[k] += 2.0 * np.cos(th[j]) * cp
            if i - 1 >= 0:
                A[k, idx(i - 1, j)] += cm
            else:
                A[k, idx(0, n_t - 1 - j)] += cm  # through the origin
            ctp = cthe + cot / (ri ** 2 * 2.0 * ht)
            ctm = cthe - cot / (ri ** 2 * 2.0 * ht)
            A[k, k] -= 2.0 * cthe
            A[k, idx(i, j + 1 if j + 1 < n_t else n_t - 1)] += ctp
            A[k, idx(i, j - 1 if j - 1 >= 0 else 0)] += ctm
    lu = splu(A.tocsc())
    u = np.zeros((n_r, n_t))
    cth = np.cos(th)
    for _ in range(200):
        ug = np.empty((n_r + 2, n_t + 2))
        ug[1:-1, 1:-1] = u
        ug[0, 1:-1] = u[0, ::-1]
        ug[-1, 1:-1] = 2.0 * cth - u[-1]
        ug[:, 0] = ug[:, 1]
        ug[:, -1] = ug[:, -2]
        ur = (ug[2:, 1:-1] - ug[:-2, 1:-1]) / (2.0 * hr)
        ut = (ug[1:-1, 2:] - ug[1:-1, :-2]) / (2.0 * ht)
        rhs = -3.0 * c * np.sqrt(ur ** 2 + (ut / r[:, None]) ** 2)
        new = lu.solve(rhs.reshape(-1) - b_bc).reshape(n_r, n_t)
        if np.abs(new - u).max() < 1e-12:
            u = new
            break
        u = new
    return r, th, u


def test_quadratic_solve_needs_no_splu_fallback():
    # preconditioned CG has to converge by itself; a stalled CG is redone
    # by sparse LU, which is correct but far slower
    _, vol = _ball_fill_in(3, layers=8)
    z = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), z ** 2)
    assert sol.splu_fallbacks == 0
    assert sol.cg_iterations > 0


@pytest.fixture(scope="module")
def flat_balls():
    return {level: _ball_fill_in(level)[1] for level in (2, 3)}


@settings(max_examples=20, deadline=None)
@given(level=st.sampled_from([2, 3]),
       provider=st.sampled_from(["flat", "bowen_york"]),
       c=st.floats(-10.0, 10.0),
       b=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
@example(level=3, provider="flat", c=0.0, b=[0.0, 0.0, 1.0])
@example(level=2, provider="bowen_york", c=1.5, b=[0.3, -0.2, 1.0])
# tiny data: ||b|| of the first solve used to underflow to 0, and
# subnormal data lost their digits in the products with K
@example(level=2, provider="flat", c=7.876350857072722e-194,
         b=[0.0, 0.0, 0.0])
@example(level=3, provider="flat", c=5e-324, b=[0.0, 0.0, 0.0])
def test_affine_boundary_values_start_at_the_solution(flat_balls, level,
                                                      provider, c, b):
    # both providers have a flat metric, on which P1 elements reproduce
    # c + b.x exactly, and the first solve starts from its affine fit
    vol = flat_balls[level]
    data = (FlatData() if provider == "flat"
            else BowenYorkData(np.array([0.0, 0.0, 0.1])))
    bvals = c + vol.vertices[vol.boundary_vertices] @ np.array(b)
    sol = solve_spacetime_harmonic(vol, data, bvals)
    exact = c + vol.vertices @ np.array(b)
    assert np.abs(sol.u - exact).max() <= 1e-12 * np.abs(bvals).max()
    assert sol.step_cg_iterations[0] <= 10
    assert sol.splu_fallbacks == 0


@pytest.mark.parametrize("rtol", [1e-15, 1e-6])
def test_jacobi_cg_matches_scipy_cg_bit_for_bit(rtol):
    _, vol = _ball_fill_in(2, radius=10.0)
    K = _reference_stiffness(vol, SchwarzschildData(1.0))[0]
    bv = vol.boundary_vertices
    free = np.setdiff1d(np.arange(vol.n_vertices), bv)
    Kff = K[free][:, free]
    rhs = -K[free][:, bv] @ vol.vertices[bv, 2]
    inv_diag = 1.0 / Kff.diagonal()
    for x0 in (np.zeros(len(free)), 0.1 * vol.vertices[free, 0]):
        calls = []
        x, info = cg(Kff, rhs, x0=x0, M=diags(inv_diag), rtol=rtol,
                     atol=0.0, maxiter=2000, callback=calls.append)
        start = x0.copy()
        mine, iterations, converged = volume._jacobi_cg(
            Kff, rhs, x0, inv_diag, rtol, 2000)
        assert info == 0 and converged
        assert iterations == len(calls) > 0
        assert np.array_equal(mine, x)
        assert np.array_equal(x0, start)


@pytest.mark.parametrize("data", [SchwarzschildData(1.0),
                                  UniformExpansionData(0.3)])
def test_picard_source_operators_match_gather_and_bincount(data):
    _, vol = _ball_fill_in(3, radius=10.0)
    grads, vols = vol.hat_gradients
    n = vol.n_vertices
    D, S = volume._gradient_and_scatter(vol.tets, grads, n)
    _, ginv, trk, weight = _reference_stiffness(vol, data)
    u = vol.vertices[:, 2] + np.random.default_rng(3).normal(size=n)
    du = np.einsum("tm,tmi->ti", u[vol.tets], grads)
    assert np.array_equal((D @ u).reshape(-1, 3), du)
    gnorm = np.sqrt(np.einsum("ti,ti->t", du,
                              np.einsum("tij,tj->ti", ginv, du)) + 1e-12)
    per_tet = trk * gnorm * weight / 4.0
    assert np.array_equal(S @ per_tet,
                          np.bincount(vol.tets.reshape(-1),
                                      weights=np.repeat(per_tet, 4),
                                      minlength=n))


@pytest.mark.parametrize("data", [SchwarzschildData(1.0),
                                  UniformExpansionData(0.3)])
def test_solver_stiffness_matches_reference_assembly(monkeypatch, data):
    # the matrix every CG solve of the solver receives: D^T M D with the
    # diagonal rule, against an independent einsum assembly
    matrices = []
    jacobi_cg = volume._jacobi_cg

    def spy(A, *args):
        matrices.append(A)
        return jacobi_cg(A, *args)

    monkeypatch.setattr(volume, "_jacobi_cg", spy)
    _, vol = _ball_fill_in(3, radius=10.0)
    bv = vol.boundary_vertices
    solve_spacetime_harmonic(vol, data, vol.vertices[bv, 2])
    K = _reference_stiffness(vol, data)[0]
    free = np.setdiff1d(np.arange(vol.n_vertices), bv)
    assert matrices and all(A is matrices[0] for A in matrices)
    assert abs(matrices[0] - K[free][:, free]).max() <= 1e-13 * abs(K).max()


def _reference_recovery(vol, u):
    """The field recovery gathered by einsum and scattered by np.add.at,
    tet by tet: (du, dU, hess, vertex hess, vols)."""
    grads, vols = vol.hat_gradients
    idx, w = vol.tets.reshape(-1), np.repeat(vols, 4)

    def vertex_average(per_tet):
        tail = (1,) * (per_tet.ndim - 1)
        num = np.zeros((vol.n_vertices,) + per_tet.shape[1:])
        den = np.zeros(vol.n_vertices)
        np.add.at(num, idx,
                  np.repeat(per_tet, 4, axis=0) * w.reshape(-1, *tail))
        np.add.at(den, idx, w)
        return num / den.reshape(-1, *tail)

    du = np.einsum("tm,tmi->ti", u[vol.tets], grads)
    dU = vertex_average(du)
    hess = np.einsum("tmj,tmi->tij", dU[vol.tets], grads)
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    return du, dU, hess, vertex_average(hess), vols


def test_recovered_fields_match_gather_and_add_at():
    _, vol = _ball_fill_in(3, radius=10.0)
    n = vol.n_vertices
    u = vol.vertices[:, 2] + np.random.default_rng(5).normal(size=n)
    for mine, ref in zip(volume.recovered_fields(vol, u),
                         _reference_recovery(vol, u)):
        assert np.array_equal(mine, ref)
    # the vertex weights of the harmonic fit
    w = np.zeros(n)
    np.add.at(w, vol.tets.reshape(-1), np.repeat(vol.tet_volumes / 4.0, 4))
    assert np.array_equal(incidence(vol.tets, n) @ (vol.tet_volumes / 4.0),
                          w)


def test_stalled_cg_is_redone_by_one_lu_factorization(monkeypatch):
    factored = []
    splu = volume.splu

    def spy(matrix):
        factored.append(matrix.shape)
        return splu(matrix)

    def stalled(A, b, x, inv_diag, rtol, maxiter):
        return x.copy(), maxiter, False

    monkeypatch.setattr(volume, "_jacobi_cg", stalled)
    monkeypatch.setattr(volume, "splu", spy)
    # Bowen-York data take Picard steps on a flat metric, so linear
    # boundary data stay the solution over several solves
    _, vol = _ball_fill_in(2)
    a = np.array([0.3, -0.2, 1.0])
    sol = solve_spacetime_harmonic(vol, BowenYorkData(np.array([0.0, 0.0,
                                                                0.1])),
                                   vol.vertices[vol.boundary_vertices] @ a)
    assert len(sol.step_cg_iterations) > 1
    assert sol.splu_fallbacks == len(sol.step_cg_iterations)
    assert len(factored) == 1
    assert np.abs(sol.u - vol.vertices @ a).max() <= 1e-12


def test_uniform_expansion_matches_polar_oracle():
    data = UniformExpansionData(1.0)
    _, vol = _ball_fill_in(3)
    z = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, data, z)
    r, th, u = _polar_oracle(96, 96, 1.0)
    oracle = RegularGridInterpolator((r, th), u)
    vr = np.linalg.norm(vol.vertices, axis=1)
    vth = np.arccos(np.clip(
        vol.vertices[:, 2] / np.maximum(vr, 1e-300), -1.0, 1.0))
    sel = (vr > 0.1) & (vr < 0.9) & (vth > 0.2) & (vth < np.pi - 0.2)
    diff = np.abs(sol.u[sel]
                  - oracle(np.column_stack([vr[sel], vth[sel]])))
    assert diff.max() <= 0.01 * np.ptp(sol.u)


def test_maximum_principle():
    for data, radius in ((UniformExpansionData(0.7), 1.0),
                         (SchwarzschildData(1.0), 10.0)):
        _, vol = _ball_fill_in(2, radius=radius)
        bpos = vol.vertices[vol.boundary_vertices]
        bvals = bpos[:, 2] / radius + 0.3 * (bpos[:, 0] / radius) ** 2
        sol = solve_spacetime_harmonic(vol, data, bvals)
        rng = np.ptp(bvals)
        assert sol.u.max() <= bvals.max() + 1e-10 * rng
        assert sol.u.min() >= bvals.min() - 1e-10 * rng


def _reference_stiffness(vol, data):
    """Stiffness matrix of an independent einsum assembly, with the
    centroid fields: (K, g^-1, Tr k, tet volume x sqrt det g)."""
    centroids = vol.vertices[vol.tets].mean(axis=1)
    g = data.metric(centroids)
    ginv = np.linalg.inv(g)
    trk = np.einsum("tij,tij->t", ginv, data.extrinsic(centroids))
    grads, vols = vol.hat_gradients
    weight = vols * np.sqrt(np.linalg.det(g))
    n = vol.n_vertices
    local = np.einsum("tmi,tij,tlj,t->tml", grads, ginv, grads, weight)
    K = csr_matrix((local.ravel(),
                    (np.repeat(vol.tets, 4, axis=1).ravel(),
                     np.tile(vol.tets, (1, 4)).ravel())), shape=(n, n))
    return K, ginv, trk, weight


def _plain_picard(vol, data, bvals, tol=1e-10):
    """Reference loop: every Picard step solved to CG rtol 1e-15 from the
    last iterate, no mixing.  Returns (u, residual norm, last step)."""
    K, ginv, trk, weight = _reference_stiffness(vol, data)
    grads = vol.hat_gradients[0]
    n = vol.n_vertices
    delta = 1e-6 * np.ptp(bvals) / vol.diameter()
    bv = vol.boundary_vertices
    free = np.setdiff1d(np.arange(n), bv)
    Kff = K[free][:, free]
    jacobi = diags(1.0 / Kff.diagonal())

    def source(u):
        du = np.einsum("tm,tmi->ti", u[vol.tets], grads)
        gnorm = np.sqrt(np.einsum("ti,tij,tj->t", du, ginv, du) + delta**2)
        return np.bincount(vol.tets.ravel(),
                           np.repeat(trk * gnorm * weight / 4.0, 4),
                           minlength=n)

    def solve(rhs, x0):
        x, info = cg(Kff, rhs, x0=x0, M=jacobi, rtol=1e-15, atol=0.0,
                     maxiter=2000)
        assert info == 0
        return x

    u = np.zeros(n)
    u[bv] = bvals
    base = -K[free][:, bv] @ bvals
    u[free] = solve(base, u[free])
    for _ in range(100):
        new = u.copy()
        new[free] = solve(base + source(u)[free], u[free])
        step = np.abs(new - u).max()
        u = new
        if step <= tol:
            return u, np.abs((K @ u - source(u))[free]).max(), step
    raise AssertionError("reference Picard loop did not converge")


@pytest.fixture(scope="module")
def ball2():
    return _ball_fill_in(2)[1]


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.2, 1.5), b=st.floats(-1.0, 1.0))
@example(c=0.4, b=0.5)
def test_mixed_inexact_picard_matches_plain_picard(ball2, c, b):
    x = ball2.vertices[ball2.boundary_vertices]
    bvals = x[:, 2] + b * x[:, 0] * x[:, 1]
    data = UniformExpansionData(c)
    sol = solve_spacetime_harmonic(ball2, data, bvals)
    u, residual, last_step = _plain_picard(ball2, data, bvals)
    rng = np.ptp(bvals)
    assert np.abs(sol.u - u).max() <= 10 * 1e-10 * rng
    # a residual scales with the last accurate step, which either loop
    # bounds only by tol; at c = 0.4, b = 0.5 the plain loop happens to
    # end on a step of about 3e-11 and its residual is the smaller one
    assert sol.residual_norm <= residual * 1e-10 / last_step
    assert sol.u.max() <= bvals.max() + 1e-10 * rng
    assert sol.u.min() >= bvals.min() - 1e-10 * rng
    assert sum(sol.step_cg_iterations) == sol.cg_iterations
    assert len(sol.history) == len(sol.anderson_depths) == sol.picard_iters


def test_polish_solve_is_not_a_picard_step():
    _, vol = _ball_fill_in(2, layers=4)
    z = vol.vertices[vol.boundary_vertices, 2]
    data = UniformExpansionData(1.0)
    sol = solve_spacetime_harmonic(vol, data, z)
    # the last Picard step met tol with a loose solve, so a polish followed
    assert len(sol.step_cg_iterations) == sol.picard_iters + 2
    capped = solve_spacetime_harmonic(vol, data, z,
                                      max_picard=sol.picard_iters)
    assert np.array_equal(capped.u, sol.u)
    with pytest.raises(VolumeError, match=f"did not converge in "
                                          f"{sol.picard_iters - 1} steps"):
        solve_spacetime_harmonic(vol, data, z,
                                 max_picard=sol.picard_iters - 1)


def test_scaling_equivariance():
    lam = 2.5
    _, vol1 = _ball_fill_in(2, radius=1.0)
    _, vol2 = _ball_fill_in(2, radius=lam)
    b1 = vol1.vertices[vol1.boundary_vertices]
    bvals = b1[:, 2] + 0.2 * b1[:, 0] * b1[:, 1]
    sol1 = solve_spacetime_harmonic(vol1, UniformExpansionData(0.8), bvals)
    sol2 = solve_spacetime_harmonic(vol2, UniformExpansionData(0.8 / lam),
                                    lam * bvals)
    assert np.allclose(vol2.vertices, lam * vol1.vertices, atol=1e-12)
    rng = np.ptp(sol2.u)
    assert np.abs(sol2.u - lam * sol1.u).max() <= 1e-10 * rng


def test_solver_is_deterministic():
    data = UniformExpansionData(0.5)
    _, vol = _ball_fill_in(2)
    bvals = vol.vertices[vol.boundary_vertices, 2]
    u1 = solve_spacetime_harmonic(vol, data, bvals).u
    u2 = solve_spacetime_harmonic(vol, data, bvals).u
    assert np.array_equal(u1, u2)


def test_hat_gradients_are_built_once_per_mesh(monkeypatch):
    calls = []
    hat_gradients = volume._hat_gradients

    def spy(*args):
        calls.append(args)
        return hat_gradients(*args)

    monkeypatch.setattr(volume, "_hat_gradients", spy)
    _, vol = _ball_fill_in(2)
    bvals = vol.vertices[vol.boundary_vertices]
    for data, values in ((UniformExpansionData(0.5), bvals[:, 2]),
                         (FlatData(), bvals[:, 0])):
        sol = solve_spacetime_harmonic(vol, data, values)
    volume.recovered_fields(vol, sol.u)
    assert len(calls) == 1


def test_level_set_topology_reads_no_hat_gradients():
    # the mass path only runs topology on its fill-in
    _, vol = _ball_fill_in(2, layers=4)
    obs = SimpleNamespace(a=np.array([0.0, 0.0, 1.0]))
    assert admissibility_verdict(vol, obs)["verdict"] == "admissible"
    assert "hat_gradients" not in vars(vol)


def test_solver_default_regularization_scales_with_data():
    _, vol = _ball_fill_in(2)
    bvals = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), bvals)
    expected = 1e-6 * np.ptp(bvals) / vol.diameter()
    assert np.isclose(sol.delta, expected)
    custom = solve_spacetime_harmonic(vol, FlatData(), bvals, delta=1e-3)
    assert custom.delta == 1e-3


def test_solver_input_validation():
    _, vol = _ball_fill_in(2)
    bvals = vol.vertices[vol.boundary_vertices, 2]
    with pytest.raises(VolumeError, match="count"):
        solve_spacetime_harmonic(vol, FlatData(), bvals[:-1])
    bad = bvals.copy()
    bad[0] = np.nan
    with pytest.raises(VolumeError, match="finite"):
        solve_spacetime_harmonic(vol, FlatData(), bad)


# -- level-set topology ----------------------------------------------------

def test_ball_height_levels_are_discs():
    _, vol = _ball_fill_in(3)
    topo = level_set_topology(vol, vol.vertices[:, 2], n_levels=64)
    assert np.all(topo.chi == 1)
    assert np.all(topo.n_components == 1)
    assert np.all(topo.boundary_components == 1)
    # coarea integral of chi: integral of 1 over the height range
    assert abs(topo.coarea_integral() - 2.0) <= 2.0 / 64


def test_quadratic_levels_split_into_two_discs():
    _, vol = _ball_fill_in(3, layers=8)
    z = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), z ** 2)
    topo = level_set_topology(vol, sol.u, n_levels=64)
    lo = topo.levels < 1.0 / 3.0 - 0.05
    hi = topo.levels > 1.0 / 3.0 + 0.05
    assert np.all(topo.chi[lo] == 0)
    assert np.all(topo.chi[hi] == 2)
    assert np.all(topo.n_components[hi] == 2)


@pytest.mark.parametrize("field", ["quantized", "rounding-level-range"])
def test_levels_are_bin_midpoints_even_at_vertex_values(field):
    # a quantized field has every level on vertex values, and a range of
    # a few ulps puts every level on one; neither moves a level, and the
    # rank rule still counts each as the reference does
    x = _SMALL_BALL.vertices
    if field == "quantized":
        u, n_levels = np.round(x[:, 2] * 4.0) / 4.0, 4
    else:
        u, n_levels = 1.0 + 1e-16 * x[:, 0], 24
    topo = level_set_topology(_SMALL_BALL, u, n_levels=n_levels)
    u_min = float(u.min())
    ds = (float(u.max()) - u_min) / n_levels
    assert np.array_equal(topo.levels,
                          u_min + (np.arange(n_levels) + 0.5) * ds)
    assert np.isin(topo.levels, u).all()
    assert topo.notes == []
    _assert_matches_level_stats(
        _SMALL_BALL, u, topo.levels,
        (topo.chi, topo.n_components, topo.boundary_components))


def test_constant_field_rejected():
    _, vol = _ball_fill_in(2)
    with pytest.raises(VolumeError, match="non-constant"):
        level_set_topology(vol, np.ones(vol.n_vertices))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_rejected(bad):
    # a NaN field used to give chi = 0 = boundary_components at every
    # level, which admissibility_verdict read as admissible
    u = _SMALL_BALL.vertices[:, 2].copy()
    u[5] = bad
    with pytest.raises(VolumeError, match="finite"):
        level_set_topology(_SMALL_BALL, u)


def test_torus_height_levels_are_annuli():
    vol = _solid_torus()
    topo = level_set_topology(vol, vol.vertices[:, 2], n_levels=16)
    mid = np.abs(topo.levels) < 0.5
    assert np.all(topo.chi[mid] == 0)
    assert np.all(topo.boundary_components[mid] == 2)


def _trace_curve_oracle(vol, u, levels):
    """Curves of {u = s} on a genus-0 boundary, counted apart from the
    marching-triangles faces: the sphere minus k disjoint curves has k + 1
    pieces, and the pieces are the components of the boundary vertex
    subgraphs induced by u > s and by u < s."""
    f = vol.boundary_faces
    edges = np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    bverts = vol.boundary_vertices
    n = vol.n_vertices
    counts = []
    for s in levels:
        pieces = 0
        for side in (u > s, u < s):
            keep = side[edges[:, 0]] & side[edges[:, 1]]
            graph = csr_matrix(
                (np.ones(keep.sum()), (edges[keep, 0], edges[keep, 1])),
                shape=(n, n),
            )
            _, labels = connected_components(graph, directed=False)
            pieces += len(np.unique(labels[bverts[side[bverts]]]))
        counts.append(pieces - 1)
    return np.array(counts)


@pytest.mark.parametrize("level", [2, 3])
def test_boundary_trace_counts_separate_curves(level):
    # u = -z^2 cuts the sphere in two circles of latitude; near the poles
    # they run through one strip of triangles without sharing a cut edge
    _, vol = _ball_fill_in(level, layers=4)
    u = -vol.vertices[:, 2] ** 2
    topo = level_set_topology(vol, u, n_levels=64)
    oracle = _trace_curve_oracle(vol, u, topo.levels)
    assert np.array_equal(topo.boundary_components, oracle)
    assert np.all(topo.boundary_components[topo.levels < -0.05] == 2)


_SMALL_BALL = _ball_fill_in(2, layers=4)[1]
_WAVES = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=15,
                  max_size=15)


@settings(max_examples=40, deadline=None)
@given(_WAVES)
def test_boundary_trace_counts_match_oracle_on_smooth_fields(coefs):
    # three plane waves a sin(k.x + p) with random wave vectors
    c = np.reshape(coefs, (3, 5))
    x = _SMALL_BALL.vertices
    u = sum(a * np.sin(x @ k + p) for *k, p, a in c) + 1e-3 * x[:, 0]
    topo = level_set_topology(_SMALL_BALL, u, n_levels=32)
    oracle = _trace_curve_oracle(_SMALL_BALL, u, topo.levels)
    assert np.array_equal(topo.boundary_components, oracle)


def _component_count(n_items, links):
    if n_items == 0:
        return 0
    if len(links) == 0:
        return n_items
    graph = csr_matrix(
        (np.ones(len(links)), (links[:, 0], links[:, 1])),
        shape=(n_items, n_items),
    )
    count, _ = connected_components(graph, directed=False)
    return int(count)


def _level_stats(vol, u, s):
    """Reference: (chi, surface components, boundary-trace components) of
    the marching-tetrahedra level set u = s, one level at a time."""
    edges, faces, pair_faces, t1, t2, bfaces, bshared, b1, b2 = \
        vol.topology_arrays
    above = u > s
    cut_edges = above[edges[:, 0]] != above[edges[:, 1]]
    fsig = above[faces]
    cut_faces = ~(fsig.all(axis=1) | (~fsig).all(axis=1))
    tsig = above[vol.tets]
    cut_tets = ~(tsig.all(axis=1) | (~tsig).all(axis=1))
    chi = (int(cut_edges.sum()) - int(cut_faces.sum())
           + int(cut_tets.sum()))
    # components of the extracted surface: cut tets linked through shared
    # cut interior faces
    active = np.flatnonzero(cut_tets)
    remap = -np.ones(vol.n_tets, dtype=np.int64)
    remap[active] = np.arange(len(active))
    keep = cut_faces[pair_faces] & cut_tets[t1] & cut_tets[t2]
    links = np.column_stack([remap[t1[keep]], remap[t2[keep]]])
    ncomp = _component_count(len(active), links)
    # boundary trace curves: cut boundary faces linked through shared cut
    # boundary edges
    bsig = above[bfaces]
    bcut = ~(bsig.all(axis=1) | (~bsig).all(axis=1))
    bactive = np.flatnonzero(bcut)
    bremap = -np.ones(len(bfaces), dtype=np.int64)
    bremap[bactive] = np.arange(len(bactive))
    bkeep = above[bshared[:, 0]] != above[bshared[:, 1]]
    blinks = np.column_stack([bremap[b1[bkeep]], bremap[b2[bkeep]]])
    bcomp = _component_count(len(bactive), blinks)
    return chi, ncomp, bcomp


def _assert_matches_level_stats(vol, u, levels, topo):
    expected = np.array([_level_stats(vol, u, s) for s in levels],
                        dtype=np.int64).reshape(-1, 3).T
    for got, want in zip(topo, expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


_TORUS = _solid_torus(n_major=24)
_MESHES = st.sampled_from(["ball", "torus"])
_COEFS = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=15,
                  max_size=15)


def _mesh(name):
    return _SMALL_BALL if name == "ball" else _TORUS


def _plane_waves(x, coefs):
    c = np.reshape(coefs, (3, 5))
    return sum(a * np.sin(x @ k + p) for *k, p, a in c)


@settings(max_examples=25, deadline=None)
@given(_MESHES, _COEFS, st.sampled_from(["affine", "waves"]))
def test_level_set_topology_matches_per_level_reference(name, coefs, kind):
    vol = _mesh(name)
    x = vol.vertices
    if kind == "affine":
        u = x @ np.array(coefs[:3]) + coefs[3]
    else:
        u = _plane_waves(x, coefs) + 1e-3 * x[:, 0]
    if np.ptp(u) == 0.0:
        return
    topo = level_set_topology(vol, u, n_levels=24)
    _assert_matches_level_stats(
        vol, u, topo.levels,
        (topo.chi, topo.n_components, topo.boundary_components))


@settings(max_examples=25, deadline=None)
@given(_MESHES, _COEFS, st.integers(2, 6))
def test_level_topology_matches_reference_at_vertex_values(name, coefs,
                                                            steps):
    # quantized fields put many vertices on each level exactly, and the
    # levels are not nudged (as at the midpoints of the exact coarea)
    vol = _mesh(name)
    u = np.round(_plane_waves(vol.vertices, coefs) * steps) / steps
    values = np.unique(u)
    levels = np.sort(np.concatenate([values,
                                     0.5 * (values[:-1] + values[1:])]))
    topo = LevelSetTopology(vol, u, levels)
    _assert_matches_level_stats(
        vol, u, levels,
        (topo.chi, topo.n_components, topo.boundary_components))


def test_level_set_topology_needs_ascending_levels():
    u = _SMALL_BALL.vertices[:, 2]
    with pytest.raises(VolumeError, match="ascending"):
        LevelSetTopology(_SMALL_BALL, u, [0.5, -0.5])


def _spy_component_graphs(monkeypatch):
    """List that gets one entry per _components_per_level call."""
    calls = []
    build = volume._components_per_level

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(volume, "_components_per_level", spy)
    return calls


def test_chi_builds_no_component_graph(monkeypatch):
    calls = _spy_component_graphs(monkeypatch)
    topo = level_set_topology(_SMALL_BALL, _SMALL_BALL.vertices[:, 2],
                              n_levels=16)
    assert abs(topo.coarea_integral() - 2.0) <= 2.0 / 16
    assert len(calls) == 0
    # each count builds its graph once, on first read
    assert np.all(topo.n_components == 1)
    assert np.all(topo.n_components == 1)
    assert len(calls) == 1
    assert np.all(topo.boundary_components == 1)
    assert len(calls) == 2


def test_exact_coarea_builds_no_component_graph(monkeypatch):
    vol = _SMALL_BALL
    rep = HarmonicRepresentative(FlatData(), vol, vol.vertices[:, 2])
    calls = _spy_component_graphs(monkeypatch)
    total, intervals, _ = _exact_coarea(rep, vol,
                                        rep.evaluate(vol.vertices)[0], 1.0)
    assert [iv["chi"] for iv in intervals] == [1]
    assert abs(total - 4.0 * np.pi) <= 1e-8
    assert len(calls) == 0


def test_newton_searches_stop_once_every_point_has_converged(monkeypatch):
    vol = _SMALL_BALL
    rep = HarmonicRepresentative(FlatData(), vol, vol.vertices[:, 2])
    calls = []
    evaluate = HarmonicRepresentative.evaluate

    def spy(self, pts):
        calls.append(len(pts))
        return evaluate(self, pts)

    monkeypatch.setattr(HarmonicRepresentative, "evaluate", spy)
    _, intervals, (lo, hi) = _exact_coarea(rep, vol, vol.vertices[:, 2], 1.0)
    # u = z: the boundary searches end at the poles within a few steps,
    # and the interior seeds, with no critical point to find, leave the
    # ball at the step cap
    assert abs(lo + 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12
    assert [iv["chi"] for iv in intervals] == [1]
    assert len(calls) < 40


@pytest.mark.parametrize("n_levels", [0, -3])
def test_level_set_topology_needs_a_level(n_levels):
    with pytest.raises(VolumeError, match="at least one level"):
        level_set_topology(_SMALL_BALL, _SMALL_BALL.vertices[:, 2],
                           n_levels=n_levels)


def _interpolate_boundary_brute_force(pos, faces, fields, directions,
                                      cap=np.inf):
    """Per-direction reference for _interpolate_boundary over every face
    whose direction lies within `cap` of the direction: the inside face
    with the smallest (distance, face index), else the face whose
    smallest weight is largest."""
    d_verts = pos - pos.mean(axis=0)
    d_verts /= np.linalg.norm(d_verts, axis=1, keepdims=True)
    face_dirs = d_verts[faces].mean(axis=1)
    face_dirs /= np.linalg.norm(face_dirs, axis=1, keepdims=True)
    tri = np.swapaxes(d_verts[faces], 1, 2)
    out = []
    for direction in directions:
        dist = ((direction - face_dirs) ** 2).sum(axis=1)
        lam = np.linalg.solve(tri, np.broadcast_to(direction[:, None],
                                                   tri.shape[:2] + (1,)))
        lam_min = lam[..., 0].min(axis=1)
        keys = [((0, dist[fi], fi) if lam_min[fi] >= -1e-12
                 else (1, -lam_min[fi], fi))
                for fi in np.flatnonzero(dist <= cap * cap)]
        fi = min(keys)[2]
        weights = np.clip(lam[fi, :, 0], 0.0, None)
        weights /= weights.sum()
        out.append([np.einsum("m,m...->...", weights, field[faces[fi]])
                    for field in fields])
    return [np.array(values) for values in zip(*out)]


def _bumpy_sphere_fields(seed):
    mesh, pos = _unit_sphere(2)
    rng = np.random.default_rng(seed)
    pos = pos * rng.uniform(0.7, 1.3, (len(pos), 1))
    dirs = rng.normal(size=(300, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # the shapes of the recovered gradient and Hessian fields
    fields = [rng.normal(size=(len(pos), 3)),
              rng.normal(size=(len(pos), 3, 3))]
    return mesh, pos, dirs, fields


def test_interpolate_boundary_matches_brute_force_pick():
    # a closed star-shaped boundary holds every direction in some face's
    # cone, a vertex direction in several
    mesh, pos, dirs, fields = _bumpy_sphere_fields(7)
    centred = pos - pos.mean(axis=0)
    dirs = np.vstack([dirs, centred / np.linalg.norm(centred, axis=1,
                                                     keepdims=True)])
    got = _interpolate_boundary(pos, mesh.faces, fields, dirs)
    ref = _interpolate_boundary_brute_force(pos, mesh.faces, fields, dirs)
    for values, expected in zip(got, ref):
        assert np.array_equal(values, expected)


def test_interpolate_boundary_outside_every_face():
    # the upper half of a bumpy boundary: a direction near its rim lies in
    # no face's cone and takes, among the faces within the largest
    # face-to-corner distance, the one whose smallest weight is largest;
    # a direction with no face that near is an error
    mesh, pos, dirs, fields = _bumpy_sphere_fields(7)
    faces = mesh.faces[pos[mesh.faces, 2].mean(axis=1) > 0.0]
    d_verts = pos - pos.mean(axis=0)
    d_verts /= np.linalg.norm(d_verts, axis=1, keepdims=True)
    face_dirs = d_verts[faces].mean(axis=1)
    face_dirs /= np.linalg.norm(face_dirs, axis=1, keepdims=True)
    cap = np.sqrt(((d_verts[faces] - face_dirs[:, None]) ** 2)
                  .sum(axis=2).max())
    d2 = ((dirs[:, None] - face_dirs[None]) ** 2).sum(axis=2)
    near = (d2 <= cap * cap).any(axis=1)
    below = dirs[:, 2] < 0.0
    assert (near & below).sum() > 10 and not near.all()
    got = _interpolate_boundary(pos, faces, fields, dirs[near])
    ref = _interpolate_boundary_brute_force(pos, faces, fields, dirs[near],
                                            cap)
    for values, expected in zip(got, ref):
        assert np.array_equal(values, expected)
    with pytest.raises(VolumeError, match="no regular boundary face near "
                                          "direction"):
        _interpolate_boundary(pos, faces, fields, dirs)


def test_interpolate_boundary_rejects_degenerate_faces():
    # all vertices on the equator: no face spans a cone around a direction
    pos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                    [0.0, -1.0, 0.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [1, 2, 3], [0, 1, 3]])
    with pytest.raises(VolumeError, match=r"direction \[0\. 0\. 1\.\]"):
        _interpolate_boundary(pos, faces, [np.ones(4)],
                              np.array([[0.0, 0.0, 1.0]]))


# -- admissibility ---------------------------------------------------------

def test_ball_admissible_for_all_observers():
    _, vol = _ball_fill_in(2)
    for a in (np.array([0.0, 0.0, 1.0]),
              np.array([1.0, 0.0, 0.0]),
              np.array([0.6, -0.48, 0.64])):
        report = admissibility_verdict(vol, SimpleNamespace(a=a))
        assert report["verdict"] == "admissible"
        topo = report["fillInTopology"]
        assert all(chi == n == 1 for chi, n in zip(topo.chi,
                                                   topo.boundary_components))


def test_verdict_takes_every_piece_of_a_level_to_be_a_disc():
    # a peanut, radius 0.6 + 0.9 z^2 along the unit directions: the levels
    # of x near its extremes are two discs, one in each lobe, and the
    # verdict compares chi with the trace-curve count, not with one
    mesh = icosphere(3)
    dirs = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                          keepdims=True)
    vol = build_fill_in((0.6 + 0.9 * dirs[:, 2:] ** 2) * dirs, mesh=mesh,
                        layers=4)
    across = admissibility_verdict(vol, SimpleNamespace(a=np.array(
        [1.0, 0.0, 0.0])))
    assert across["verdict"] == "admissible"
    topo = across["fillInTopology"]
    assert np.array_equal(topo.chi, topo.boundary_components)
    two = topo.chi == 2
    assert two.any() and np.all(topo.n_components[two] == 2)
    along = admissibility_verdict(vol, SimpleNamespace(a=np.array(
        [0.0, 0.0, 1.0])))
    assert along["verdict"] == "admissible"
    topo = along["fillInTopology"]
    assert np.all(topo.chi == 1) and np.all(topo.boundary_components == 1)


def test_verdict_builds_only_the_trace_curve_graph(monkeypatch):
    # the verdict compares chi with the trace curves; the surface pieces
    # are left for a reader of n_components
    calls = _spy_component_graphs(monkeypatch)
    obs = SimpleNamespace(a=np.array([0.0, 0.0, 1.0]))
    u = _SMALL_BALL.vertices[:, 2]
    report = admissibility_verdict(_SMALL_BALL, obs, n_levels=16)
    assert report["verdict"] == "admissible"
    assert len(calls) == 1
    admissibility_verdict(_SMALL_BALL, obs, n_levels=16,
                          physical={"vol": _SMALL_BALL, "u": u})
    assert len(calls) == 2


def test_admissibility_command_rows_match_per_level_reference(tmp_path):
    result = CliRunner().invoke(main, ["admissibility", "--level", "2",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "admissibility.json") as fh:
        rows = json.load(fh)["levels"]
    # the fill-in and observer function of the command, rebuilt from the
    # defaults
    cfg = default_config()
    bd = extract_boundary_data(FlatData(), cfg["radius"], level=2)
    emb = embed_metric(bd.geom.mesh, bd.geom.metric,
                       degree=cfg["embedding.degree"],
                       tol=cfg["embedding.tol"],
                       max_iterations=cfg["embedding.max_iterations"])
    vol = build_fill_in(align_embedding(emb, bd.positions),
                        layers=cfg["volume.layers"])
    a = np.asarray(cfg["observer.a"]) / np.linalg.norm(cfg["observer.a"])
    u = -vol.times + vol.vertices @ a
    assert len(rows) == cfg["topology.levels"]
    for row in rows:
        chi, ncomp, bcomp = _level_stats(vol, u, row["s"])
        assert (row["chi"], row["components"], row["n"]) == (chi, ncomp,
                                                            bcomp)


def test_torus_not_admissible_through_hole():
    vol = _solid_torus()
    report = admissibility_verdict(
        vol, SimpleNamespace(a=np.array([0.0, 0.0, 1.0])))
    assert report["verdict"] == "not admissible"


@pytest.fixture(scope="module")
def torus24():
    return _solid_torus(n_major=24)


_VECTORS = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)


@settings(max_examples=20, deadline=None)
@given(a=_VECTORS, rotvec=_VECTORS, shift=_VECTORS)
def test_verdict_invariant_under_rigid_motion(torus24, a, rotvec, shift):
    from scipy.spatial.transform import Rotation

    a = np.asarray(a)
    if np.linalg.norm(a) < 0.1:
        a = np.array([0.0, 0.0, 1.0])
    a = a / np.linalg.norm(a)
    R = Rotation.from_rotvec(np.pi * np.asarray(rotvec)).as_matrix()
    vol = torus24
    moved = VolumeMesh(vol.vertices @ R.T + np.asarray(shift), vol.tets,
                       vol.boundary_faces, vol.boundary_map,
                       times=vol.times)
    base = admissibility_verdict(vol, SimpleNamespace(a=a), n_levels=16)
    motion = admissibility_verdict(moved, SimpleNamespace(a=R @ a),
                                   n_levels=16)
    assert motion["verdict"] == base["verdict"]
    topo, ref = motion["fillInTopology"], base["fillInTopology"]
    assert np.array_equal(topo.chi, ref.chi)
    assert np.array_equal(topo.boundary_components, ref.boundary_components)


def test_missing_fill_in_is_unchecked():
    report = admissibility_verdict(
        None, SimpleNamespace(a=np.array([0.0, 0.0, 1.0])))
    assert report["verdict"] == "unchecked"


def test_generalized_integral_with_physical_solution():
    _, vol = _ball_fill_in(2)
    bvals = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), bvals)
    report = admissibility_verdict(
        vol, SimpleNamespace(a=np.array([0.0, 0.0, 1.0])),
        physical={"vol": vol, "u": sol.u})
    assert report["verdict"] == "admissible"
    assert report["generalizedIntegral"] is not None
    assert report["generalizedNonnegative"]


# -- integral identity -----------------------------------------------------

def test_identity_flat_linear_is_tight():
    _, vol = _ball_fill_in(3)
    bvals = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), bvals)
    report = integral_identity_check(FlatData(), vol, sol, 1.0)
    assert report["method"] == "harmonicFit"
    assert abs(report["slack"]) <= 1e-8 * report["scale"]


def test_identity_flat_quadratic_nonnegative():
    _, vol = _ball_fill_in(3, layers=8)
    z = vol.vertices[vol.boundary_vertices, 2]
    sol = solve_spacetime_harmonic(vol, FlatData(), z ** 2)
    report = integral_identity_check(FlatData(), vol, sol, 1.0)
    assert report["method"] == "harmonicFit"
    assert report["bulkDirichlet"] > 0.0
    assert report["slack"] >= -1e-6 * report["scale"]


def test_identity_schwarzschild_nonnegative():
    data = SchwarzschildData(1.0)
    _, vol = _ball_fill_in(2, radius=10.0)
    bvals = vol.vertices[vol.boundary_vertices, 2] / 10.0
    sol = solve_spacetime_harmonic(vol, data, bvals)
    report = integral_identity_check(data, vol, sol, 10.0)
    assert report["method"] == "harmonicFit"
    assert report["slack"] >= -1e-6 * report["scale"]


def test_identity_falls_back_to_recovery_for_generic_data():
    data = BowenYorkData(np.array([0.0, 0.0, 0.1]))
    _, vol = _ball_fill_in(2, radius=10.0)
    bvals = vol.vertices[vol.boundary_vertices, 2] / 10.0
    sol = solve_spacetime_harmonic(vol, data, bvals)
    report = integral_identity_check(data, vol, sol, 10.0)
    assert report["method"] == "fieldRecovery"
    assert (report["harmonicFitUnavailable"]
            == "harmonic basis needs time-symmetric data")
    for key in ("lhsBoundary", "rhsEuler", "bulkDirichlet", "bulkEnergy",
                "slack", "scale"):
        assert np.isfinite(report[key])


def test_dec_margin_point_survives_a_rebuilt_fill_in():
    # Bowen-York data are mirror symmetric, so mirror points share the
    # smallest DEC margin.  Rebuilding each tet from an even permutation of
    # its vertices moves the centroids by rounding only, and must not move
    # the reported point to its mirror
    data, radius = BowenYorkData(np.array([0.0, 0.0, 0.1])), 1.0
    _, vol = _ball_fill_in(3, radius=radius)
    sol = solve_spacetime_harmonic(vol, data,
                                   vol.vertices[vol.boundary_vertices, 2])
    rebuilt = VolumeMesh(vol.vertices, vol.tets[:, [1, 2, 0, 3]],
                         vol.boundary_faces, vol.boundary_map)
    first, second = (integral_identity_check(data, v, sol, radius,
                                             n_levels=16)
                     for v in (vol, rebuilt))
    assert first["method"] == "fieldRecovery"
    np.testing.assert_allclose(second["decMarginAt"], first["decMarginAt"],
                               rtol=0.0, atol=1e-12 * radius)


# -- harmonic representative -----------------------------------------------

@pytest.fixture(scope="module")
def schwarzschild_rep():
    """Representative fitted to a smooth function outside its span on a
    radius-10 ball of Schwarzschild data with m = 1."""
    _, vol = _ball_fill_in(1, radius=10.0)
    x, y, z = vol.vertices.T / 10.0
    u = np.exp(x) * np.cos(y) + z**3
    return HarmonicRepresentative(SchwarzschildData(1.0), vol, u)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_representative_is_harmonic_for_schwarzschild(schwarzschild_rep,
                                                      seed):
    # Lap_g u = psi^-4 (tr Hess u + (2 psi'/psi) d_r u) for g = psi^4 delta;
    # 32 interior points with log-uniform radii from 1e-9 R to R, four in
    # nine of them below 1e-5 R on average
    rng = np.random.default_rng(seed)
    xhat = rng.normal(size=(32, 3))
    xhat /= np.linalg.norm(xhat, axis=1, keepdims=True)
    r = 10.0 * 10.0 ** rng.uniform(-9.0, 0.0, 32)
    _, du, hess = schwarzschild_rep.evaluate(r[:, None] * xhat)
    psi = 1.0 + 0.5 / r
    radial = (-1.0 / r**2) / psi * np.einsum("ni,ni->n", xhat, du)
    trace = np.einsum("nii->n", hess)
    size = np.abs(np.einsum("nii->ni", hess)).sum(axis=1) + np.abs(radial)
    assert np.all(np.abs(trace + radial) <= 1e-12 * size)


class _QuadraticConformalData(FlatData):
    """Time-symmetric g = psi^4 delta with psi = 1 + r^2/200, which is not
    of the form a + b/r."""

    def conformal_factor(self, r):
        return 1.0 + np.asarray(r, dtype=float) ** 2 / 200.0

    def metric(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        psi = self.conformal_factor(np.linalg.norm(x, axis=1))
        return psi[:, None, None] ** 4 * np.eye(3)


def test_conformal_factor_not_a_plus_b_over_r_is_rejected():
    with pytest.raises(VolumeError, match=r"conformal factor a \+ b/r"):
        _conformal_structure(_QuadraticConformalData(), 10.0)
