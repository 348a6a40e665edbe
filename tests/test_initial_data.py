import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlmass.initialdata import (
    BowenYorkData,
    CovectorField,
    FlatData,
    InitialDataError,
    QuasiLocalBoundaryData,
    SchwarzschildData,
    UniformExpansionData,
    adm_integrals,
    central_partials,
    dec_margin,
    extract_boundary_data,
    fibonacci_directions,
    read_boundary_fields,
    write_boundary_fields,
)
from qlmass.mesh import icosphere


@pytest.fixture(scope="module")
def schw():
    return SchwarzschildData(1.0)


def test_schwarzschild_metric_factor(schw):
    g = schw.metric(np.array([[10.0, 0.0, 0.0]]))[0]
    assert abs(g[0, 0] - 1.05**4) < 1e-14
    assert abs(g[0, 0] - 1.21550625) < 1e-12


def test_flat_provider_trivial():
    flat = FlatData()
    x = np.array([[1.0, 2.0, 3.0], [0.1, 0.0, -4.0]])
    mu, J = flat.constraint_fields(x)
    assert np.all(mu == 0.0) and np.all(J == 0.0)
    np.testing.assert_allclose(
        flat.metric(x), np.broadcast_to(np.eye(3), (2, 3, 3))
    )


def test_schwarzschild_vacuum(schw):
    dirs = fibonacci_directions(12)
    for r in (5.0, 12.0, 20.0):
        mu, J = schw.constraint_fields(r * dirs)
        assert np.abs(mu).max() < 1e-6
        assert np.abs(J).max() < 1e-6


def test_schwarzschild_scalar_curvature_vanishes(schw):
    pts = np.array([[6.0, 1.0, -2.0], [0.0, 8.0, 3.0]])
    assert np.abs(schw.scalar_curvature(pts)).max() < 1e-8


def test_bowen_york_constraints():
    by = BowenYorkData(np.array([0.0, 0.0, 0.1]))
    pts = 7.0 * fibonacci_directions(16)
    mu, J = by.constraint_fields(pts)
    k = by.extrinsic(pts)
    ksq = np.einsum("nij,nij->n", k, k)
    np.testing.assert_allclose(mu, -0.5 * ksq, atol=1e-10)
    assert np.abs(J).max() < 1e-9
    assert _dec_margin_on_shells(by).min() < -1e-6


def _dec_margin_on_shells(data, radii=(5.0, 10.0, 20.0), n_dirs=32):
    """mu - |J|_g on Fibonacci points of three coordinate shells."""
    pts = np.concatenate([r * fibonacci_directions(n_dirs) for r in radii])
    mu, J = data.constraint_fields(pts)
    return dec_margin(mu, J, np.linalg.inv(data.metric(pts)))


def test_dec_classifier(schw):
    assert _dec_margin_on_shells(FlatData()).min() >= -1e-6
    assert _dec_margin_on_shells(schw).min() >= -1e-6


def test_domain_errors(schw):
    with pytest.raises(InitialDataError):
        schw.metric(np.zeros((1, 3)))
    with pytest.raises(InitialDataError):
        SchwarzschildData(-1.0)
    with pytest.raises(InitialDataError):
        BowenYorkData(np.array([np.inf, 0.0, 0.0]))


def test_sphere_mean_curvature_closed_form(schw):
    # isotropic coordinate sphere: H = 2/(psi^2 R) - 2m/(R^2 psi^3)
    for R in (5.0, 10.0):
        psi = 1.0 + 0.5 / R
        exact = 2.0 / (psi**2 * R) - 2.0 / (R**2 * psi**3)
        pts = R * fibonacci_directions(8)
        np.testing.assert_allclose(
            schw.sphere_mean_curvature(pts), exact, rtol=1e-9
        )


def test_flat_boundary_data_trivial():
    bd = extract_boundary_data(FlatData(), 1.0, level=3)
    np.testing.assert_allclose(bd.H, 2.0, rtol=2e-3)
    assert np.abs(bd.trk).max() == 0.0
    assert np.abs(bd.alpha.ambient).max() == 0.0


def test_schwarzschild_boundary_data(schw):
    R, m = 10.0, 1.0
    bd = extract_boundary_data(schw, R, level=3)
    psi = 1.0 + m / (2.0 * R)
    exact = 2.0 / (psi**2 * R) - 2.0 * m / (R**2 * psi**3)
    np.testing.assert_allclose(bd.H, exact, rtol=1e-9)
    # conformal flatness: each edge length is psi(|mid|)^2 times the chord
    mesh = bd.geom.mesh
    X = bd.positions
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    mid = 0.5 * (X[i] + X[j])
    psi_mid = 1.0 + m / (2.0 * np.linalg.norm(mid, axis=1))
    chord = np.linalg.norm(X[j] - X[i], axis=1)
    np.testing.assert_allclose(
        bd.geom.metric.edge_lengths, psi_mid**2 * chord, rtol=1e-12
    )
    # and agrees with the constant-factor scaling at the sphere radius
    flat_bd = extract_boundary_data(FlatData(), R, level=3)
    np.testing.assert_allclose(
        bd.geom.metric.edge_lengths,
        psi**2 * flat_bd.geom.metric.edge_lengths,
        rtol=1e-3,
    )


def test_bowen_york_boundary_data():
    p = 0.1
    by = BowenYorkData(np.array([0.0, 0.0, p]))
    R = 10.0
    bd = extract_boundary_data(by, R, level=3)
    np.testing.assert_allclose(bd.H, 2.0 / R, rtol=1e-10)
    # closed form: tangential trace of k on the coordinate sphere
    z = bd.positions[:, 2] / R
    exact = (3.0 / (2.0 * R**2)) * (2.0 * p * z - 2.0 * p * z)
    k = by.extrinsic(bd.positions)
    nu = bd.positions / R
    trk_exact = np.einsum("nii->n", k) - np.einsum("nij,ni,nj->n", k, nu, nu)
    np.testing.assert_allclose(bd.trk, trk_exact, atol=1e-10)
    assert np.abs(exact).max() < 1e-15  # the two radial terms cancel


def test_spacelike_invariant_enforced():
    # strong uniform expansion makes |trK| exceed H on a unit sphere
    data = UniformExpansionData(c=3.0)
    with pytest.raises(InitialDataError, match="spacelike"):
        extract_boundary_data(data, 1.0, level=2)


def test_adm_schwarzschild(schw):
    rep = adm_integrals(schw, [10.0, 20.0, 40.0, 80.0])
    assert abs(rep["E"] - 1.0) < 0.005
    assert np.abs(rep["P"]).max() < 1e-3


def test_adm_flat():
    rep = adm_integrals(FlatData(), [5.0, 10.0])
    assert abs(rep["E"]) < 1e-12
    assert np.abs(rep["P"]).max() < 1e-12


def test_adm_bowen_york():
    p = np.array([0.0, 0.0, 0.1])
    rep = adm_integrals(BowenYorkData(p), [10.0, 20.0])
    np.testing.assert_allclose(rep["P"], p, atol=1e-3)
    assert abs(rep["E"]) < 1e-3


def test_boundary_consistency_with_embedding():
    # flat provider on the unit sphere must match the reference data of
    # the identity embedding
    from qlmass.embedding import EmbeddingResult

    mesh = icosphere(3)
    bd = extract_boundary_data(FlatData(), 1.0, mesh=mesh)
    emb = EmbeddingResult(mesh, mesh.vertices, 0.0, 0)
    # the analytic H is exactly 2; the discrete mean curvature matches it
    # to the scheme's second-order accuracy
    np.testing.assert_allclose(bd.H, emb.mean_curvature, atol=1e-4)
    np.testing.assert_allclose(
        bd.geom.metric.edge_lengths,
        emb.achieved_metric.edge_lengths,
        rtol=1e-12,
    )


def test_boundary_fields_roundtrip(tmp_path):
    by = BowenYorkData(np.array([0.03, -0.02, 0.1]))
    bd = extract_boundary_data(by, 10.0, level=2)
    path = tmp_path / "fields.txt"
    write_boundary_fields(path, bd)
    back = read_boundary_fields(path, bd.geom, radius=10.0)
    np.testing.assert_allclose(back.H, bd.H, rtol=1e-12)
    np.testing.assert_allclose(back.trk, bd.trk, atol=1e-15)
    np.testing.assert_allclose(
        back.alpha_edge_values(), bd.alpha_edge_values(), atol=1e-12
    )


# exponents (a, b, c) of the 35 monomials x^a y^b z^c of degree <= 4
_QUARTIC = np.array([(a, b, c) for a in range(5) for b in range(5 - a)
                     for c in range(5 - a - b)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=70,
                max_size=70),
       st.floats(1e-3, 0.5), st.booleans())
def test_central_partials_exact_on_quartics(coefs, h, per_point):
    # a fourth-order central difference is exact through degree 4, so
    # only round-off separates it from the analytic gradient
    c = np.reshape(coefs, (35, 2))
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(40, 3))

    def field(x):
        mono = np.prod(x[:, None, :] ** _QUARTIC[None], axis=2)
        return mono @ c

    grad = np.empty((len(pts), 3, 2))
    for i in range(3):
        e = _QUARTIC.copy()
        scale = e[:, i].astype(float)
        e[:, i] = np.maximum(e[:, i] - 1, 0)
        grad[:, i] = np.prod(pts[:, None, :] ** e[None], axis=2) \
            @ (scale[:, None] * c)
    step = np.full(len(pts), h) if per_point else h
    d = central_partials(field, pts, step)
    assert d.shape == grad.shape
    # values on the stencil are at most sum|c| 3^4; differencing divides
    # their round-off by h
    bound = 16.0 * np.finfo(float).eps * np.abs(c).sum() * 3.0**4 / h
    assert np.abs(d - grad).max() <= bound


@pytest.mark.parametrize("data", [
    FlatData(), UniformExpansionData(0.7),
    BowenYorkData(np.array([0.03, -0.02, 0.1]))])
def test_flat_metric_curvature_is_exactly_the_difference_quotients(data):
    # the finite differences of a constant metric are exact +0.0, so the
    # closed-form zeros change no output
    from qlmass.initialdata import InitialDataSample

    pts = np.concatenate([r * fibonacci_directions(50)
                          for r in (0.5, 3.0, 40.0)])
    for name in ("metric_derivatives", "christoffels", "scalar_curvature"):
        exact = getattr(data, name)(pts)
        generic = getattr(InitialDataSample, name)(data, pts)
        assert np.array_equal(exact, generic)
        assert not np.signbit(generic).any()
    mu, J = data.constraint_fields(pts)
    mu_g, J_g = InitialDataSample.constraint_fields(data, pts)
    assert np.array_equal(mu, mu_g) and np.array_equal(J, J_g)
    if data.excludes_origin:
        with pytest.raises(InitialDataError, match="r = 0"):
            data.christoffels(np.zeros((1, 3)))
