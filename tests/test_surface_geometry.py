import numpy as np
import pytest

from qlmass.mesh import (
    MeshError,
    SurfaceMesh,
    icosphere,
    read_off,
    unique_rows,
    write_off,
)
from qlmass.operators import (
    MetricError,
    OperatorSet,
    SurfaceMetric,
    read_metric,
    unit_sphere_geometry,
    write_metric,
)


@pytest.fixture(scope="module")
def sphere4():
    return unit_sphere_geometry(4)


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


def test_off_roundtrip(tmp_path, sphere4):
    path = tmp_path / "mesh.off"
    write_off(path, sphere4.mesh)
    back = read_off(path)
    assert np.array_equal(back.faces, sphere4.mesh.faces)
    np.testing.assert_allclose(back.vertices, sphere4.mesh.vertices, atol=1e-15)


def test_metric_roundtrip(tmp_path, sphere4):
    path = tmp_path / "metric.txt"
    write_metric(path, sphere4.metric)
    back = read_metric(path, sphere4.mesh)
    np.testing.assert_allclose(back.edge_lengths, sphere4.metric.edge_lengths,
                               rtol=1e-15)


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


@pytest.mark.parametrize("edit, match", [
    (lambda ls: [], "first line must be the edge count"),
    (lambda ls: ls[:-1], "header says 120 edges and 119 rows follow"),
    # one edge listed twice, another omitted: same row count
    (lambda ls: ls[:2] + [ls[1]] + ls[3:], "line 3: edge .* already listed "
                                           "on line 2"),
    (lambda ls: ls[:1] + ["0 1\n"] + ls[2:], "line 2: expected `i j length`"),
    (lambda ls: ls[:1] + ["0 0 1.0\n"] + ls[2:], "line 2: edge \\(0, 0\\) "
                                                  "not present"),
    (lambda ls: ls[:1] + [ls[1].rsplit(" ", 1)[0] + " nan\n"] + ls[2:],
     "line 2: .* not finite and positive"),
], ids=["empty", "short", "duplicate", "bad-row", "unknown-edge", "nan"])
def test_malformed_metric_file_rejected(tmp_path, edit, match):
    mesh = icosphere(1)
    path = tmp_path / "metric.txt"
    write_metric(path, SurfaceMetric.from_positions(mesh, mesh.vertices))
    _edit_lines(path, edit)
    with pytest.raises(MetricError, match=match):
        read_metric(path, mesh)


@pytest.mark.parametrize("edit, match", [
    (lambda ls: [], "not an OFF file"),
    (lambda ls: ls[:1] + ["42 x 120\n"] + ls[2:], "must be the counts"),
    (lambda ls: ls[:-1], "42 vertex and 80 face lines expected after the "
                         "counts, 121 found"),
    (lambda ls: ls[:2] + ["nan 0 1\n"] + ls[3:],
     "line 3: vertex 0 is not three finite numbers"),
    (lambda ls: ls[:2] + ["0 1\n"] + ls[3:],
     "line 3: vertex 0 is not three finite numbers"),
    (lambda ls: ls[:44] + ["4 0 1 2 3\n"] + ls[45:], "line 45: face 0 is not"),
    (lambda ls: ls[:44] + ["3 0 1 42\n"] + ls[45:],
     "line 45: face 0 is not `3 i j k` with indices below 42"),
], ids=["empty", "bad-counts", "short", "nan-vertex", "short-vertex", "quad",
        "index-range"])
def test_malformed_off_file_rejected(tmp_path, edit, match):
    path = tmp_path / "mesh.off"
    write_off(path, icosphere(1))
    _edit_lines(path, edit)
    with pytest.raises(MeshError, match=match):
        read_off(path)


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
        g = unit_sphere_geometry(lvl)
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
        g = unit_sphere_geometry(lvl)
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
    g = unit_sphere_geometry(5)
    z = g.mesh.vertices[:, 2]
    for t in (0.05, 0.1, 0.2):
        mask, frac = g.critical_set_mask(g.gradient(z), t)
        gmag_med = np.median(np.linalg.norm(g.gradient(z), axis=1))
        # exact spherical-cap area fraction where sin(theta) < t * median
        s = t * gmag_med
        cap_frac = 1.0 - np.sqrt(1.0 - s**2)
        assert frac <= cap_frac + 4.0 / g.mesh.n_faces


def test_vertex_average_roundtrip(sphere4):
    const = np.full(sphere4.mesh.n_faces, 3.25)
    out = sphere4.vertex_average(const)
    np.testing.assert_allclose(out, 3.25, rtol=1e-12)


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
