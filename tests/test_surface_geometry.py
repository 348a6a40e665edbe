import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from qlmass.mesh import (
    MeshError,
    SurfaceMesh,
    icosphere,
    pairs_within,
    unique_rows,
)
from qlmass.operators import MetricError, OperatorSet, SurfaceMetric


def _round_sphere(level):
    """Operators of the icosphere with its induced round metric."""
    mesh = icosphere(level)
    return OperatorSet(mesh, SurfaceMetric.from_positions(mesh, mesh.vertices))


@pytest.fixture(scope="module")
def sphere4():
    return _round_sphere(4)


def test_icosphere_euler_formula():
    for lvl in (0, 2, 4):
        m = icosphere(lvl)
        assert m.euler_characteristic == 2
        assert m.genus == 0


def test_non_manifold_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(MeshError):
        SurfaceMesh(verts, faces)


def test_degenerate_face_rejected():
    m = icosphere(1)
    lengths = SurfaceMetric.from_positions(m, m.vertices).edge_lengths.copy()
    lengths[0] = lengths[0] * 1e-16
    with pytest.raises(MetricError):
        OperatorSet(m, SurfaceMetric(m, lengths))


def test_round_sphere_eigenfunction(sphere4):
    z = sphere4.mesh.vertices[:, 2]
    err = np.abs(sphere4.laplace(z) + 2.0 * z)
    assert err.max() < 1e-2


def test_laplace_error_decreases_under_refinement():
    errs = []
    for lvl in (3, 4, 5):
        g = _round_sphere(lvl)
        z = g.mesh.vertices[:, 2]
        errs.append(np.abs(g.laplace(z) + 2.0 * z).max())
    assert errs[0] > errs[1] > errs[2]


def test_gauss_bonnet_exact(sphere4):
    assert abs(sphere4.angle_defects.sum() - 4.0 * np.pi) < 1e-10


def test_gauss_bonnet_scaled_sphere():
    m = icosphere(3)
    ops = OperatorSet(m, SurfaceMetric.from_positions(m, 2.0 * m.vertices))
    assert abs(ops.angle_defects.sum() - 4.0 * np.pi) < 1e-10
    assert abs(ops.total_area - 16.0 * np.pi) < 16.0 * np.pi * 5e-3


def test_integrate_constants_and_odd(sphere4):
    one = np.ones(sphere4.mesh.n_vertices)
    assert abs(sphere4.integrate(one) - 4.0 * np.pi) < 4.0 * np.pi * 5e-3
    z = sphere4.mesh.vertices[:, 2]
    assert abs(sphere4.integrate(z)) < 1e-12


def test_integrate_z_squared(sphere4):
    # oracle: 2 pi * int_{-1}^{1} z^2 dz computed by Gauss-Legendre quadrature
    nodes, weights = np.polynomial.legendre.leggauss(20)
    exact = 2.0 * np.pi * float(weights @ nodes**2)
    z = sphere4.mesh.vertices[:, 2]
    assert abs(sphere4.integrate(z**2) - exact) < exact * 6e-3


def test_integrate_rejects_nonfinite(sphere4):
    bad = np.zeros(sphere4.mesh.n_vertices)
    bad[17] = np.nan
    with pytest.raises(ValueError, match="17"):
        sphere4.integrate(bad)


def test_second_order_contraction_of_integrated_errors():
    # operator errors in the integrated norms contract by >= 3.5 per level
    area_err, zz_err, dir_err = [], [], []
    nodes, weights = np.polynomial.legendre.leggauss(20)
    zz_exact = 2.0 * np.pi * float(weights @ nodes**2)
    for lvl in (3, 4, 5):
        g = _round_sphere(lvl)
        z = g.mesh.vertices[:, 2]
        area_err.append(abs(g.total_area - 4.0 * np.pi))
        zz_err.append(abs(g.integrate(z**2) - zz_exact))
        dir_err.append(abs(g.dirichlet_pairing(z, z) - 8.0 * np.pi / 3.0))
    for errs in (area_err, zz_err, dir_err):
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


def test_laplace_is_div_grad(sphere4):
    rng = np.random.default_rng(7)
    v = sphere4.mesh.vertices
    for _ in range(20):
        c = rng.normal(size=3)
        u = np.sin(v @ c) + np.cos(2.0 * (v @ c[::-1]))
        lap = sphere4.laplace(u)
        dg = sphere4.divergence(sphere4.gradient(u))
        scale = np.abs(lap).max()
        assert np.abs(lap - dg).max() < 1e-12 * max(scale, 1.0)


def test_self_adjointness(sphere4):
    rng = np.random.default_rng(13)
    v = sphere4.mesh.vertices
    for _ in range(20):
        u = np.sin(v @ rng.normal(size=3))
        w = np.cos(v @ rng.normal(size=3))
        a = sphere4.integrate(u * sphere4.laplace(w))
        b = sphere4.integrate(w * sphere4.laplace(u))
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_divergence_theorem(sphere4):
    rng = np.random.default_rng(3)
    v = sphere4.mesh.vertices
    for _ in range(20):
        u = np.sin(v @ rng.normal(size=3))
        total = sphere4.integrate(sphere4.laplace(u))
        assert abs(total) < 1e-10 * max(abs(u).max(), 1.0)


def test_divergence_is_minus_the_area_weighted_adjoint_of_gradient(sphere4):
    # sum_v div(X) u A_v = -sum_f A_f X . grad(u)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=sphere4.mesh.n_vertices)
        X = rng.normal(size=(sphere4.mesh.n_faces, 2))
        lhs = sphere4.integrate(sphere4.divergence(X) * u)
        rhs = -float(sphere4.face_areas
                     @ np.einsum("fk,fk->f", X, sphere4.gradient(u)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def _chart(ops):
    """Each face laid out isometrically from the metric's edge lengths
    (p0 at the origin, p1 on the x-axis), (F, 3, 2)."""
    L = ops.metric.edge_lengths[ops.mesh.face_edges]
    l01, l12, l20 = L[:, 0], L[:, 1], L[:, 2]
    chart = np.zeros((ops.mesh.n_faces, 3, 2))
    chart[:, 1, 0] = l01
    chart[:, 2, 0] = (l01**2 + l20**2 - l12**2) / (2.0 * l01)
    chart[:, 2, 1] = np.sqrt(l20**2 - chart[:, 2, 0] ** 2)
    return chart


def _chart_solve(ops, edge_values):
    """The 2x2 solve that face_covector replaced: the chart covector whose
    pairings with halfedges 0 (v0 -> v1) and 1 (v1 -> v2) of each face are
    the signed edge values."""
    mesh, chart = ops.mesh, _chart(ops)
    f = mesh.faces
    b0 = np.where(f[:, 0] < f[:, 1], 1.0, -1.0) \
        * edge_values[mesh.face_edges[:, 0]]
    b1 = np.where(f[:, 1] < f[:, 2], 1.0, -1.0) \
        * edge_values[mesh.face_edges[:, 1]]
    h0 = chart[:, 1] - chart[:, 0]
    h1 = chart[:, 2] - chart[:, 1]
    det = h0[:, 0] * h1[:, 1] - h0[:, 1] * h1[:, 0]
    return np.column_stack([(b0 * h1[:, 1] - b1 * h0[:, 1]) / det,
                            (b1 * h0[:, 0] - b0 * h1[:, 0]) / det])


def _reference_operators(ops):
    """The per-face assembly that D^T A D and the one corner pass replaced:
    (3x3-per-face COO stiffness, mixed Voronoi areas with cotangents and
    squared lengths recomputed from the charts, arccos angle sums)."""
    mesh, chart, areas = ops.mesh, _chart(ops), ops.face_areas
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(mesh.faces[:, a])
            cols.append(mesh.faces[:, b])
            vals.append(areas * np.einsum("fk,fk->f", ops.grad_phi[:, a],
                                          ops.grad_phi[:, b]))
    K = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_vertices, mesh.n_vertices))
    cots = np.empty((mesh.n_faces, 3))
    angles = np.empty((mesh.n_faces, 3))
    for a in range(3):
        u = chart[:, (a + 1) % 3] - chart[:, a]
        v = chart[:, (a + 2) % 3] - chart[:, a]
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        cots[:, a] = np.einsum("fk,fk->f", u, v) / cross
        cosang = np.einsum("fk,fk->f", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, a] = np.arccos(np.clip(cosang, -1.0, 1.0))
    contrib = np.empty((mesh.n_faces, 3))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        l_ab2 = np.sum((chart[:, b] - chart[:, a]) ** 2, axis=1)
        l_ac2 = np.sum((chart[:, c] - chart[:, a]) ** 2, axis=1)
        contrib[:, a] = (l_ab2 * cots[:, c] + l_ac2 * cots[:, b]) / 8.0
    rows = np.flatnonzero(cots.min(axis=1) < 0.0)
    contrib[rows] = areas[rows, None] / 4.0
    contrib[rows, np.argmin(cots[rows], axis=1)] = areas[rows] / 2.0
    faces, n = mesh.faces.ravel(), mesh.n_vertices
    return (K, np.bincount(faces, contrib.ravel(), n),
            np.bincount(faces, angles.ravel(), n), len(rows))


def _jittered(level, seed, jitter):
    """Operators of an icosphere whose vertices moved by up to `jitter`
    of the mean edge length, with the random generator that moved them."""
    mesh = icosphere(level)
    edge = np.linalg.norm(mesh.vertices[mesh.edges[:, 0]]
                          - mesh.vertices[mesh.edges[:, 1]], axis=1).mean()
    rng = np.random.default_rng(seed)
    pos = mesh.vertices + jitter * edge * rng.uniform(-1.0, 1.0,
                                                      mesh.vertices.shape)
    return SurfaceMetric.from_positions(mesh, pos).ops, rng


@settings(max_examples=25, deadline=None)
@given(level=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.3, 0.4))
def test_operators_match_the_per_face_assembly(level, seed, jitter):
    # a jitter of 0.3-0.4 of the mean edge length makes obtuse faces on
    # every draw
    ops, _ = _jittered(level, seed, jitter)
    mesh = ops.mesh
    K, vertex_areas, angle_sums, n_obtuse = _reference_operators(ops)
    assert n_obtuse > 0
    scale = abs(K).max()
    assert abs(ops.stiffness - K).max() <= 1e-13 * scale
    assert np.abs(ops.stiffness @ np.ones(mesh.n_vertices)).max() \
        <= 1e-13 * scale
    np.testing.assert_allclose(ops.vertex_areas, vertex_areas, rtol=1e-13)
    np.testing.assert_allclose(ops.angle_sums, angle_sums, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(level=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.3, 0.4))
def test_face_covector_is_the_gradient_of_the_face_potential(level, seed,
                                                             jitter):
    ops, rng = _jittered(level, seed, jitter)
    mesh = ops.mesh
    assert np.shares_memory(ops.grad_phi, ops.D.data)
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    # exact edge values df give the P1 gradient of f
    f = rng.normal(size=mesh.n_vertices)
    grad = ops.gradient(f)
    np.testing.assert_allclose(ops.face_covector(f[j] - f[i]), grad,
                               rtol=0.0, atol=1e-13 * np.abs(grad).max())
    # any edge values: the signed pairings of halfedges 0 and 1 come back,
    # as the old 2x2 chart solve gave them
    values = rng.normal(size=mesh.n_edges)
    cov = ops.face_covector(values)
    ref = _chart_solve(ops, values)
    assert np.abs(cov - ref).max() <= 1e-13 * np.abs(ref).max()
    chart, faces = _chart(ops), mesh.faces
    for k in (0, 1):
        sign = np.where(faces[:, k] < faces[:, k + 1], 1.0, -1.0)
        paired = np.einsum("fk,fk->f", cov, chart[:, k + 1] - chart[:, k])
        np.testing.assert_allclose(
            paired, sign * values[mesh.face_edges[:, k]], rtol=0.0,
            atol=1e-13 * np.abs(cov).max() * ops.metric.edge_lengths.max())


def test_critical_mask_poles(sphere4):
    z = sphere4.mesh.vertices[:, 2]
    mask, frac = sphere4.critical_set_mask(sphere4.gradient(z), 0.05)
    # masked faces (if any) concentrate at the poles
    if mask.any():
        face_z = np.abs(sphere4.face_average(z)[mask])
        assert face_z.min() > 0.99
    assert frac < 0.01


def test_critical_mask_zero_field(sphere4):
    mask, frac = sphere4.critical_set_mask(
        sphere4.gradient(np.zeros(sphere4.mesh.n_vertices)), 0.01
    )
    assert mask.all()
    assert frac == 1.0


def test_critical_mask_area_scales_with_threshold():
    # area where |grad z| < t is O(t^2); oracle from 1D quadrature of sin(theta)
    g = _round_sphere(5)
    z = g.mesh.vertices[:, 2]
    for t in (0.05, 0.1, 0.2):
        mask, frac = g.critical_set_mask(g.gradient(z), t)
        gmag_med = np.median(np.linalg.norm(g.gradient(z), axis=1))
        # exact spherical-cap area fraction where sin(theta) < t * median
        s = t * gmag_med
        cap_frac = 1.0 - np.sqrt(1.0 - s**2)
        assert frac <= cap_frac + 4.0 / g.mesh.n_faces


def test_unique_rows_matches_numpy_unique():
    raw = np.random.default_rng(7).integers(0, 40, size=(3000, 3))
    keys, inv = unique_rows(raw)
    ref_keys, ref_inv = np.unique(np.sort(raw, 1), axis=0,
                                  return_inverse=True)
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(inv, ref_inv.reshape(-1))
    edges = raw[:, :2]
    keys, inv = unique_rows(edges)
    ref_keys, ref_inv = np.unique(np.sort(edges, 1), axis=0,
                                  return_inverse=True)
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(inv, ref_inv.reshape(-1))


def test_unique_rows_refuses_overflowing_keys():
    # 2^21 vertices still fit three-vertex keys in int64, one more does not
    fits = np.array([[0, 1, 2 ** 21 - 1], [2 ** 21 - 1, 0, 1]])
    keys, inv = unique_rows(fits)
    assert np.array_equal(keys, [[0, 1, 2 ** 21 - 1]])
    assert np.array_equal(inv, [0, 0])
    with pytest.raises(MeshError, match="overflow"):
        unique_rows(np.array([[0, 1, 2 ** 21]]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 50),
       radius=st.floats(0.01, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_pairs_within_matches_all_pairs(n, m, radius, seed):
    # clustered points and queries partly outside their box
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, size=3)
    queries = 1.5 * rng.normal(size=(m, 3))
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    i, j, got = pairs_within(points, radius)
    ref = np.argwhere(np.triu(d2 <= radius * radius, 1))
    assert (i < j).all()
    assert np.array_equal(np.sort(i * n + j), ref[:, 0] * n + ref[:, 1])
    assert np.allclose(got, d2[i, j], rtol=1e-12, atol=0.0)
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    q, p, got = pairs_within(points, radius, queries)
    ref = np.argwhere(d2 <= radius * radius)
    assert (np.diff(q) >= 0).all()
    assert np.array_equal(np.sort(q * n + p), ref[:, 0] * n + ref[:, 1])
    assert np.allclose(got, d2[q, p], rtol=1e-12, atol=0.0)


def test_pairs_within_zero_radius_pairs_coincident_points():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                       [1e-9, 0.0, 0.0]])
    i, j, d2 = pairs_within(points, 0.0)
    assert i.tolist() == [0] and j.tolist() == [2] and d2.tolist() == [0.0]
    i, j, _ = pairs_within(points[:1], 0.0)
    assert len(i) == 0
