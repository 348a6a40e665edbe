import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from qlmass.embedding import (
    EmbeddingError,
    EmbeddingResult,
    align_embedding,
    crossing_pair,
    embed_metric,
    embeddability_check,
    real_harmonic_basis,
    write_embedding,
)
from qlmass.initialdata import SchwarzschildData, extract_boundary_data
from qlmass.mesh import icosphere
from qlmass.operators import OperatorSet, SurfaceMetric


@pytest.fixture(scope="module")
def mesh3():
    return icosphere(3)


def test_harmonic_basis_orthonormal(mesh3):
    # Gram matrix under the mesh area weights approaches the identity
    ops = OperatorSet(mesh3, SurfaceMetric.from_positions(mesh3, mesh3.vertices))
    B = real_harmonic_basis(mesh3.vertices, 3)
    gram = B.T @ (B * ops.vertex_areas[:, None])
    assert np.abs(gram - np.eye(B.shape[1])).max() < 2e-2


def test_harmonic_basis_matches_scipy_formula(mesh3):
    # the columns scipy.special.sph_harm_y gives: Y_n0, then sqrt(2) (-1)^m
    # times the real and imaginary parts of Y_nm, on mesh, random and pole
    # points (the random ones off the unit sphere)
    from scipy.special import sph_harm_y

    rng = np.random.default_rng(11)
    pts = np.vstack([mesh3.vertices, rng.normal(size=(300, 3)),
                     [[0.0, 0.0, 1.0], [0.0, 0.0, -2.0]]])
    r = np.linalg.norm(pts, axis=1)
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))[:, None]
    phi = np.arctan2(pts[:, 1], pts[:, 0])[:, None]
    cols = []
    for n in range(17):
        ynm = sph_harm_y(n, np.arange(0, n + 1), theta, phi)
        cols.append(ynm[:, 0].real)
        for m in range(1, n + 1):
            cols += [np.sqrt(2.0) * (-1.0) ** m * ynm[:, m].real,
                     np.sqrt(2.0) * (-1.0) ** m * ynm[:, m].imag]
    assert np.abs(real_harmonic_basis(pts, 16)
                  - np.column_stack(cols)).max() < 1e-13


def test_round_sphere_recovered(mesh3):
    rho = 1.7
    met = SurfaceMetric.from_positions(mesh3, rho * mesh3.vertices)
    res = embed_metric(mesh3, met, degree=12)
    # the area-matched round start is exact: no Gauss-Newton step is taken
    assert res.iterations == 0
    assert res.defect_l2 < 1e-10
    assert res.consistency_residual(met) < 1e-10
    radii = np.linalg.norm(res.positions, axis=1)
    np.testing.assert_allclose(radii, rho, rtol=1e-8)
    np.testing.assert_allclose(res.mean_curvature, 2.0 / rho, rtol=1e-4)
    out = np.einsum("vk,vk->v", res.normals, res.positions / radii[:, None])
    assert out.min() > 1.0 - 1e-4


def test_ellipsoid_recovered_up_to_gauge(mesh3):
    axes = np.array([1.0, 0.85, 0.7])
    pos = mesh3.vertices * axes
    met = SurfaceMetric.from_positions(mesh3, pos)
    res = embed_metric(mesh3, met, degree=16)
    assert res.defect_l2 < 1e-8
    assert np.abs(align_embedding(res, pos).positions - pos).max() < 1e-6


@pytest.mark.parametrize("axes, level", [((1.0, 0.5, 0.3), 3),
                                         ((1.0, 0.6, 0.4), 4)])
def test_far_ellipsoid_recovered_up_to_gauge(axes, level):
    # from the round start the vertex stage alone lands on another
    # isometric shape 1e-2 away; the spectral stage must first bring the
    # surface into its basin
    mesh = icosphere(level)
    pos = mesh.vertices * np.array(axes)
    res = embed_metric(mesh, SurfaceMetric.from_positions(mesh, pos))
    assert np.abs(align_embedding(res, pos).positions - pos).max() < 1e-6


def test_near_start_needs_no_spectral_factorization(monkeypatch):
    # a Schwarzschild sphere starts inside the spectral basin, so only the
    # vertex stage runs: no harmonic basis is built and no dense normal
    # matrix is factorized
    import qlmass.embedding as embedding_mod

    calls = []
    factor = embedding_mod.linalg.cho_factor
    basis = embedding_mod.real_harmonic_basis
    monkeypatch.setattr(embedding_mod.linalg, "cho_factor",
                        lambda *a, **k: calls.append(1) or factor(*a, **k))
    monkeypatch.setattr(embedding_mod, "real_harmonic_basis",
                        lambda *a: calls.append(2) or basis(*a))
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=3)
    res = embed_metric(bd.geom.mesh, bd.geom.metric)
    assert res.defect_l2 < 1e-8
    assert res.iterations > 0
    assert calls == []


def test_vertex_steps_stop_by_tolerance(monkeypatch):
    # each LSQR solve of a level-4 Schwarzschild sphere meets its stop
    # tolerance (istop 1 or 2) well inside the iteration cap (istop 7)
    import qlmass.embedding as embedding_mod

    stops = []
    solve = embedding_mod.lsqr

    def spy(*args, **kwargs):
        out = solve(*args, **kwargs)
        stops.append(out[1:3])
        return out

    monkeypatch.setattr(embedding_mod, "lsqr", spy)
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=4)
    res = embed_metric(bd.geom.mesh, bd.geom.metric)
    assert res.defect_l2 < 1e-8
    assert stops
    assert all(istop in (1, 2) and itn < 300 for istop, itn in stops)


def test_ellipsoid_mean_curvature_oracle():
    # spheroid with semi-axes (a, a, c): poles carry two equal principal
    # curvatures c/a^2; the equator carries a/c^2 and 1/a.  The generic
    # vertex is checked against the implicit-surface curvature formula.
    mesh = icosphere(4)
    a, c = 1.0, 0.8
    pos = mesh.vertices * np.array([a, a, c])
    met = SurfaceMetric.from_positions(mesh, pos)
    res = embed_metric(mesh, met, degree=16)
    r = res.positions

    def h_exact(p):
        g = 2.0 * p / np.array([a**2, a**2, c**2])
        hess = np.diag([2.0 / a**2, 2.0 / a**2, 2.0 / c**2])
        n = np.linalg.norm(g)
        return (np.trace(hess) * n**2 - g @ hess @ g) / n**3

    k = np.argmax(np.abs(r[:, 2]))
    assert abs(res.mean_curvature[k] - 2.0 * c / a**2) < 2e-2
    eq = np.argmin(np.abs(r[:, 2]))
    assert abs(res.mean_curvature[eq] - (a / c**2 + 1.0 / a)) < 3e-2
    sample = np.arange(0, len(r), 37)
    exact = np.array([h_exact(r[i]) for i in sample])
    rel = np.abs(res.mean_curvature[sample] - exact) / exact
    assert np.median(rel) < 2e-3
    assert rel.max() < 2e-2


def test_mean_curvature_takes_one_laplacian_of_the_positions(mesh3):
    # the (V, 3) Laplacian gives the bits of one call per coordinate
    pos = mesh3.vertices * np.array([1.0, 0.9, 0.7])
    res = EmbeddingResult(mesh3, pos, 0.0, 0)
    lap = np.column_stack([res.ops.laplace(pos[:, k]) for k in range(3)])
    np.testing.assert_array_equal(
        res.mean_curvature, -np.einsum("vk,vk->v", lap, res.normals))


def test_perturbed_sphere_consistency():
    mesh = icosphere(3)
    v = mesh.vertices
    rad = 1.0 + 0.08 * (v[:, 0] ** 2 - v[:, 1] ** 2)
    met = SurfaceMetric.from_positions(mesh, v * rad[:, None])
    res = embed_metric(mesh, met, degree=16)
    assert res.defect_l2 < 1e-8
    assert res.consistency_residual(met) < 1e-6


@pytest.fixture(scope="module")
def schwarzschild_embedding():
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=2)
    return embed_metric(bd.geom.mesh, bd.geom.metric), bd.positions


_VECTORS = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)


@settings(max_examples=30, deadline=None)
@given(rotvec=_VECTORS, shift=_VECTORS)
def test_alignment_invariant_under_rigid_motion(schwarzschild_embedding,
                                                rotvec, shift):
    # the embedding is fixed only up to a rigid motion; Procrustes
    # alignment onto the data places every motion of it the same way
    emb, target = schwarzschild_embedding
    R = Rotation.from_rotvec(np.pi * np.asarray(rotvec)).as_matrix()
    radius = np.linalg.norm(target, axis=1).max()
    moved = EmbeddingResult(emb.mesh,
                            emb.positions @ R.T + radius * np.asarray(shift),
                            emb.defect_l2, emb.iterations)
    np.testing.assert_allclose(align_embedding(moved, target).positions,
                               align_embedding(emb, target).positions,
                               rtol=0, atol=1e-12 * radius)


def test_embeddability_check(mesh3):
    ops = OperatorSet(mesh3, SurfaceMetric.from_positions(mesh3, mesh3.vertices))
    ok, kmin = embeddability_check(ops)
    assert ok
    assert kmin > 0.9
    # strongly flattened shape develops negative curvature vertices
    pinch = mesh3.vertices * np.array([1.0, 1.0, 0.08])
    ops2 = OperatorSet(mesh3, SurfaceMetric.from_positions(mesh3, pinch))
    ok2, kmin2 = embeddability_check(ops2)
    assert kmin2 < kmin


def test_genus_zero_required():
    # duplicate sphere lengths onto an unembeddable combinatorial torus is
    # out of scope here; just check the genus gate raises on a fake metric
    mesh = icosphere(1)

    class FakeMesh:
        pass

    with pytest.raises(EmbeddingError):
        fake = FakeMesh()
        fake.genus = 1
        embed_metric(fake, None)


def test_embedding_file_roundtrip(tmp_path, mesh3):
    met = SurfaceMetric.from_positions(mesh3, 1.3 * mesh3.vertices)
    res = embed_metric(mesh3, met, degree=10)
    path = tmp_path / "emb.txt"
    write_embedding(path, res)
    table = np.loadtxt(path, ndmin=2)
    np.testing.assert_allclose(table[:, 1:], res.positions, atol=1e-15)
    np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-15)


def _segment_crosses_triangle(p, q, tri):
    # Moeller-Trumbore against segment pq, one pair at a time
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    d = q - p
    h = np.cross(d, e2)
    a = e1 @ h
    if abs(a) < 1e-15:
        return False
    s = p - tri[0]
    u = (s @ h) / a
    if u < 0.0 or u > 1.0:
        return False
    qv = np.cross(s, e1)
    v = (d @ qv) / a
    if v < 0.0 or u + v > 1.0:
        return False
    t = (e2 @ qv) / a
    return 0.0 <= t <= 1.0


def _crossing_pairs_reference(positions, faces):
    """Every crossing pair of triangles sharing no vertex, by a loop over
    all pairs whose centroids lie within the sum of their radii and whose
    bounding boxes overlap."""
    tri = positions[faces]
    cent = tri.mean(axis=1)
    rad = np.linalg.norm(tri - cent[:, None, :], axis=2).max(axis=1)
    dist = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=2)
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    boxes = (lo[:, None, :] <= hi[None, :, :]).all(axis=2)
    close = np.triu((dist <= rad[:, None] + rad[None, :]) & boxes & boxes.T,
                    1)
    found = []
    for i, j in zip(*np.nonzero(close)):
        if set(faces[i]) & set(faces[j]):
            continue
        t1, t2 = tri[i], tri[j]
        if any(_segment_crosses_triangle(t1[a], t1[b], t2)
               or _segment_crosses_triangle(t2[a], t2[b], t1)
               for a, b in ((0, 1), (1, 2), (2, 0))):
            found.append((int(i), int(j)))
    return found


def test_self_intersection_check(mesh3):
    assert crossing_pair(mesh3.vertices, mesh3.faces) is None
    # collapse one vertex deep into the opposite hemisphere
    bad = mesh3.vertices.copy()
    bad[0] = -1.2 * bad[0]
    assert crossing_pair(bad, mesh3.faces) is not None


@pytest.mark.parametrize("shape", ["round", "collapsed", "jittered",
                                   "crumpled"])
def test_crossing_pair_matches_reference_loop(shape):
    mesh = icosphere(2)
    pos = mesh.vertices.copy()
    rng = np.random.default_rng(3)
    if shape == "collapsed":
        pos[0] = -1.2 * pos[0]
    elif shape == "jittered":
        pos *= 1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=(len(pos), 1))
    elif shape == "crumpled":
        pos += 0.1 * rng.normal(size=pos.shape)
    found = _crossing_pairs_reference(pos, mesh.faces)
    pair = crossing_pair(pos, mesh.faces)
    if found:
        assert pair == found[0]
    else:
        assert pair is None
    assert (shape in ("collapsed", "crumpled")) == bool(found)


@settings(max_examples=25, deadline=None)
@given(amplitude=st.floats(0.0, 0.15), seed=st.integers(0, 2 ** 32 - 1))
def test_crossing_pair_matches_reference_loop_under_jitter(amplitude,
                                                           seed):
    mesh = icosphere(2)
    rng = np.random.default_rng(seed)
    pos = mesh.vertices + amplitude * rng.normal(size=mesh.vertices.shape)
    found = _crossing_pairs_reference(pos, mesh.faces)
    assert crossing_pair(pos, mesh.faces) == (found[0] if found else None)


def test_self_crossing_embedding_rejected(monkeypatch, mesh3):
    # a fit that lands on a crossing surface is not an embedding
    import qlmass.embedding as embedding_mod

    crossed = mesh3.vertices.copy()
    crossed[0] = -1.2 * crossed[0]
    monkeypatch.setattr(embedding_mod, "_polish_positions",
                        lambda *args: (crossed, 0.0, 1))
    met = SurfaceMetric.from_positions(mesh3, mesh3.vertices)
    with pytest.raises(EmbeddingError, match="crosses itself: faces 0 and"):
        embed_metric(mesh3, met, degree=8)


def test_one_surface_builds_one_operator_set(monkeypatch):
    # the extraction's metric builds it; the embedding solve, the aligned
    # result and both sides read that one
    from qlmass.energy import SurfaceData

    built = []
    init = OperatorSet.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OperatorSet, "__init__", spy)
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=2)
    emb = embed_metric(bd.geom.mesh, bd.geom.metric)
    emb = align_embedding(emb, bd.positions)
    SurfaceData.from_embedding(emb)
    SurfaceData.from_boundary(bd)
    assert len(built) == 1


def test_aligned_reference_shares_the_physical_operator_set():
    from qlmass.energy import SurfaceData

    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=2)
    emb = align_embedding(embed_metric(bd.geom.mesh, bd.geom.metric),
                          bd.positions)
    assert emb.metric is bd.geom.metric
    assert (SurfaceData.from_embedding(emb).ops
            is SurfaceData.from_boundary(bd).ops)
