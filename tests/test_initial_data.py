import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlmass.initialdata import (
    BowenYorkData,
    CovectorField,
    FlatData,
    InitialDataError,
    InitialDataSample,
    QuasiLocalBoundaryData,
    SchwarzschildData,
    UniformExpansionData,
    adm_integrals,
    central_partials,
    dec_margin,
    extract_boundary_data,
    fibonacci_directions,
    growing_differences,
    metric_inverse,
    radius_fit,
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


def test_adm_schwarzschild_limit_has_the_inverse_square_term(schw):
    # E_r = 1 + 1/(2 r) + O(1/r^2) on the isotropic slice: a fit in 1/r
    # alone leaves 1.6e-3 of the 1/r^2 term in the limit
    rep = adm_integrals(schw, [10.0, 20.0, 40.0, 80.0])
    assert abs(rep["E"] - 1.0) < 1e-4


class _SpatialKerrSchildData(InitialDataSample):
    """g = delta + (2 m(r) / r) n n with k = 0, whose ADM energy integral
    over the sphere of radius r is m(r)."""

    excludes_origin = True

    def __init__(self, mass_of_r):
        self.mass_of_r = mass_of_r

    def metric(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = self._check_domain(x)
        n = x / r[:, None]
        return np.eye(3) + ((2.0 * self.mass_of_r(r) / r)[:, None, None]
                            * n[:, :, None] * n[:, None, :])

    def extrinsic(self, x):
        return self._zeros(x, (3, 3))


_ADM_LADDERS = ([10.0, 20.0, 40.0, 80.0], [5.0, 10.0, 20.0],
                [10.0, 15.0, 20.0, 25.0, 30.0])


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_adm_convergence_warning_ignores_rounding(schw, m):
    # a constant E_r whose differences grow by rounding only is not
    # flagged; E_r growing as r^2 and Schwarzschild's decaying 1/r are
    # told apart
    for radii in _ADM_LADDERS:
        flat_tail = adm_integrals(
            _SpatialKerrSchildData(lambda r: np.full_like(r, m)), radii)
        np.testing.assert_allclose(flat_tail["E_r"], m, rtol=1e-12)
        assert flat_tail["warnings"] == []
        growing = adm_integrals(
            _SpatialKerrSchildData(lambda r: m * (r / 10.0) ** 2), radii)
        assert growing["warnings"] == ["non-monotone energy convergence"]
        assert adm_integrals(schw, radii)["warnings"] == []


def test_growing_differences():
    assert growing_differences([1.0, 2.0, 4.0, 8.0])
    assert not growing_differences([4.0, 2.0, 1.5, 1.25])
    # two values have one difference; growth by rounding does not count
    assert not growing_differences([1.0, 3.0])
    assert not growing_differences([1.0, 1.0 + 1e-15, 1.0 - 1e-15])


def test_adm_rejects_a_repeated_radius(schw):
    with pytest.raises(InitialDataError, match="repeated radius"):
        adm_integrals(schw, [10.0, 20.0, 10.0])


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
        emb.metric.edge_lengths,
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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1.0), st.floats(-3.0, 3.0))
# a stack where the cofactor expansion of det cancels to 1.3e-12 relative
@example(seed=1355109, eps=0.001, log_scale=0.001)
def test_metric_inverse_of_spd_stacks(seed, eps, log_scale):
    # g = s (A A^T + eps I) is symmetric positive definite, with condition
    # number up to about 1e4
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(20, 3, 3))
    g = 10.0**log_scale * (a @ a.swapaxes(1, 2) + eps * np.eye(3))
    ginv, det = metric_inverse(g)
    cond = np.linalg.cond(g)
    assert np.all(np.abs(ginv @ g - np.eye(3)).max(axis=(1, 2))
                  <= 1e-12 * cond)
    np.testing.assert_allclose(det, np.linalg.det(g), rtol=1e-12, atol=0)
    assert np.array_equal(ginv, ginv.swapaxes(1, 2))


def test_metric_inverse_is_exact_on_identity_stacks():
    ginv, det = metric_inverse(np.broadcast_to(np.eye(3), (7, 3, 3)))
    assert np.array_equal(ginv, np.broadcast_to(np.eye(3), (7, 3, 3)))
    assert not np.signbit(ginv).any()
    assert np.array_equal(det, np.ones(7))


def test_metric_inverse_det_of_diagonal_stacks_is_the_product():
    # the conformally flat providers give g = psi^4 delta
    diag = np.random.default_rng(5).uniform(0.5, 3.0, size=(9, 3))
    g = np.zeros((9, 3, 3))
    g[:, [0, 1, 2], [0, 1, 2]] = diag
    ginv, det = metric_inverse(g)
    assert np.array_equal(det, diag[:, 0] * (diag[:, 1] * diag[:, 2]))
    assert np.array_equal(ginv[:, 0, 0], diag[:, 1] * diag[:, 2] / det)


# -- the radius fit ---------------------------------------------------------

# ladders r_min * ratio products, and each term's size at r_min, so that
# c = size_c * r_min and d = size_d * r_min^2
_TERM_SIZES = st.tuples(*[st.floats(0.5, 2.0).flatmap(
    lambda m: st.sampled_from([m, -m]))] * 3)
_LADDERS = st.tuples(st.floats(1.0, 100.0),
                     st.lists(st.floats(1.5, 3.0), min_size=2, max_size=5))


def _ladder(r_min, ratios, sizes):
    radii = r_min * np.cumprod([1.0] + ratios)
    truth = np.array(sizes) * r_min ** np.arange(3)
    values = truth[0] + truth[1] / radii + truth[2] / radii**2
    return radii, truth, values


@settings(max_examples=200, deadline=None)
@given(ladder=_LADDERS, sizes=_TERM_SIZES)
def test_radius_fit_recovers_the_coefficients(ladder, sizes):
    radii, truth, values = _ladder(*ladder, sizes)
    # the fit takes the radii in any order
    fit = radius_fit(radii[::-1], values[::-1])
    got = np.array([fit["E_inf"], fit["c"], fit["d"]])
    assert np.all(np.abs(got - truth) <= 1e-12 * np.abs(truth))


@settings(max_examples=200, deadline=None)
@given(ladder=_LADDERS, sizes=_TERM_SIZES,
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6))
def test_radius_fit_is_insensitive_to_rounding(ladder, sizes, signs):
    # a 1e-13 relative change of the values moves each coefficient by at
    # most 1e-11 of the largest value, in that term's units of r_min
    radii, _, values = _ladder(*ladder, sizes)
    moved = values * (1.0 + 1e-13 * np.array(signs[:len(values)]))
    fits = [radius_fit(radii, v) for v in (values, moved)]
    shift = np.array([abs(fits[0][k] - fits[1][k]) for k in ("E_inf", "c",
                                                             "d")])
    scale = np.abs(values).max() * radii.min() ** np.arange(3)
    assert np.all(shift <= 1e-11 * scale)


def test_radius_fit_takes_the_terms_the_ladder_supports():
    assert radius_fit([10.0], [0.75]) == {"E_inf": 0.75, "c": None,
                                          "d": None}
    fit = radius_fit([10.0, 40.0], [1.05, 1.0125])
    assert fit["d"] is None
    assert fit["E_inf"] == pytest.approx(1.0, rel=1e-14)
    assert fit["c"] == pytest.approx(0.5, rel=1e-13)


def test_radius_fit_rejects_a_repeated_radius():
    with pytest.raises(InitialDataError,
                       match=r"repeated radius in \[10\.0, 20\.0, 10\.0\]"):
        radius_fit([10.0, 20.0, 10.0], [1.0, 0.5, 1.0])
