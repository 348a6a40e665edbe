"""Analytic initial data sets (g, k) and their derived quantities.

Providers are closed-form samplers over R^3; curvature-level quantities
(scalar curvature, sphere mean curvature, constraint densities) come from
fourth-order central finite differences of the samplers.  Boundary-data
extraction pulls the quintuple (sigma, H, trK, alpha) back to an icosphere
coordinate sphere for the energy machinery.
"""

import numpy as np

from .config import InputError
from .mesh import icosphere
from .operators import SurfaceMetric

FD_STEP = 1e-3


class InitialDataError(ValueError, InputError):
    """Raised for out-of-domain evaluation or invalid provider input."""


def central_partials(fn, points, h):
    """Fourth-order central partials of the pointwise field fn at points,
    stacked on axis 1: shape (N, 3) + fn's value shape.  The step h is a
    scalar or one value per point."""
    h = np.asarray(h, dtype=float)
    step = h[:, None] if h.ndim else h
    out = []
    for c in range(3):
        e = np.zeros(3)
        e[c] = 1.0
        fp1 = fn(points + step * e)
        fm1 = fn(points - step * e)
        fp2 = fn(points + 2.0 * step * e)
        fm2 = fn(points - 2.0 * step * e)
        d = 8.0 * (fp1 - fm1) - (fp2 - fm2)
        out.append(d / (12.0 * h).reshape(h.shape + (1,) * (d.ndim - 1)))
    return np.stack(out, axis=1)


def metric_inverse(g):
    """Inverse and determinant of a stack of symmetric 3 x 3 matrices,
    (N, 3, 3) -> ((N, 3, 3), (N,)), as adjugate over determinant from the
    cofactors of the upper triangle; exact on identity matrices.  The
    determinant is the product of the LDL^T pivots a, d2, d3: the
    cofactor expansion along the first row cancels on positive definite
    matrices of condition 1e3 and more."""
    a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 0, 2]
    d, e, f = g[:, 1, 1], g[:, 1, 2], g[:, 2, 2]
    inv = np.empty(g.shape)
    inv[:, 0, 0] = d * f - e * e
    inv[:, 0, 1] = inv[:, 1, 0] = c * e - b * f
    inv[:, 0, 2] = inv[:, 2, 0] = b * e - c * d
    inv[:, 1, 1] = a * f - c * c
    inv[:, 1, 2] = inv[:, 2, 1] = b * c - a * e
    inv[:, 2, 2] = a * d - b * b
    d2 = d - b * (b / a)
    l32 = (e - c * (b / a)) / d2
    det = a * (d2 * (f - c * (c / a) - l32 * l32 * d2))
    inv /= det[:, None, None]
    return inv, det


class InitialDataSample:
    """Closed-form initial data (g, k)."""

    name = "abstract"
    # punctured providers are singular at the origin
    excludes_origin = False

    def metric(self, x):
        """Metric tensor g_ij at points x, shape (N, 3, 3)."""
        raise NotImplementedError

    def extrinsic(self, x):
        """Extrinsic curvature k_ij at points x, shape (N, 3, 3)."""
        raise NotImplementedError

    def _check_domain(self, x):
        """The radii |x| of the points x when the origin is excluded (None
        otherwise), after checking that none is at r = 0."""
        if not self.excludes_origin:
            return None
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        if np.any(r < 1e-12):
            raise InitialDataError("evaluation at r = 0")
        return r

    def _zeros(self, x, shape):
        """Exact zeros of the given per-point shape at points x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._check_domain(x)
        return np.zeros((len(x),) + shape)

    # -- finite-difference machinery ------------------------------------

    def _fd_scale(self, x):
        r = np.linalg.norm(x, axis=-1)
        return FD_STEP * np.maximum(1.0, r)

    def metric_derivatives(self, x):
        """d_c g_ij by fourth-order central differences, shape (N, 3, 3, 3)
        indexed [point, c, i, j]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return central_partials(self.metric, x, self._fd_scale(x))

    def christoffels(self, x):
        """Gamma^a_bc at points x, shape (N, 3, 3, 3) indexed [point, a, b, c]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        dg = self.metric_derivatives(x)
        ginv = metric_inverse(self.metric(x))[0]
        # Gamma_{d,bc} = (d_b g_dc + d_c g_db - d_d g_bc) / 2
        low = 0.5 * (
            np.einsum("nbdc->ndbc", dg) + np.einsum("ncdb->ndbc", dg) - dg
        )
        return np.einsum("nad,ndbc->nabc", ginv, low)

    def scalar_curvature(self, x):
        """Scalar curvature of g by differencing the Christoffel symbols."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        dgamma = central_partials(self.christoffels, x, self._fd_scale(x))
        gam = self.christoffels(x)
        ginv = metric_inverse(self.metric(x))[0]
        # Ricci_bc = d_a Gamma^a_bc - d_b Gamma^a_ac + G^a_ad G^d_bc - G^a_cd G^d_ab
        ricci = (
            np.einsum("naabc->nbc", dgamma)
            - np.einsum("nbaac->nbc", dgamma)
            + np.einsum("naad,ndbc->nbc", gam, gam)
            - np.einsum("nacd,ndab->nbc", gam, gam)
        )
        return np.einsum("nbc,nbc->n", ginv, ricci)

    def sphere_normal(self, x):
        """Outward g-unit normal (upper index) of the coordinate sphere
        through each point."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _unit_normal(x, metric_inverse(self.metric(x))[0])

    def sphere_mean_curvature(self, x):
        """Mean curvature H = div_g(nu) of the coordinate sphere through x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))

        def flux(y):
            # sqrt(det g) nu^i
            ginv, det = metric_inverse(self.metric(y))
            return np.sqrt(det)[:, None] * _unit_normal(y, ginv)

        d = central_partials(flux, x, self._fd_scale(x))
        div = d[:, 0, 0] + d[:, 1, 1] + d[:, 2, 2]
        return div / np.sqrt(metric_inverse(self.metric(x))[1])

    # -- constraint quantities -------------------------------------------

    def constraint_fields(self, x):
        """Energy/momentum densities mu = (R + (Tr k)^2 - |k|^2)/2 and
        J = div(k - (Tr k) g); returns (mu, J) with J lower-index."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = self.metric(x)
        ginv = metric_inverse(g)[0]
        k = self.extrinsic(x)
        trk = np.einsum("nij,nij->n", ginv, k)
        ksq = ((ginv @ k @ ginv) * k).sum(axis=(1, 2))
        mu = 0.5 * (self.scalar_curvature(x) + trk**2 - ksq)

        def pi(y):
            gy = self.metric(y)
            ky = self.extrinsic(y)
            trky = np.einsum("nij,nij->n", metric_inverse(gy)[0], ky)
            return ky - trky[:, None, None] * gy

        dpi = central_partials(pi, x, self._fd_scale(x))
        gam = self.christoffels(x)
        pix = pi(x)
        # J_i = g^{ab}(d_a pi_bi - G^c_ab pi_ci - G^c_ai pi_bc)
        term1 = np.einsum("nab,nabi->ni", ginv, dpi)
        term2 = np.einsum("nab,ncab,nci->ni", ginv, gam, pix)
        term3 = np.einsum("nab,ncai,nbc->ni", ginv, gam, pix)
        return mu, term1 - term2 - term3


def _unit_normal(x, ginv):
    """Outward g-unit normal (upper index) of the coordinate sphere through
    each point x, given the inverse metric there."""
    n = x / np.linalg.norm(x, axis=1, keepdims=True)
    nu = np.einsum("nij,nj->ni", ginv, n)
    norm = np.sqrt(np.einsum("ni,ni->n", nu, n))
    return nu / norm[:, None]


def dec_margin(mu, J, ginv):
    """Pointwise mu - |J|_g of the constraint densities of
    `constraint_fields`, with ginv the inverse metric at the same points;
    nonnegative where the dominant energy condition holds."""
    jsq = np.einsum("ni,ni->n", J, np.einsum("nij,nj->ni", ginv, J))
    jn = np.sqrt(np.maximum(jsq, 0.0))
    return mu - jn


def fibonacci_directions(n, rotation=0.0):
    """Fibonacci lattice of n nearly uniform unit vectors."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i + rotation
    s = np.sqrt(1.0 - z**2)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


# -- providers -----------------------------------------------------------


class FlatMetricData(InitialDataSample):
    """Data on the Euclidean metric g = delta, whose derivatives,
    Christoffel symbols and scalar curvature are exact zeros."""

    def metric(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._check_domain(x)
        return np.broadcast_to(np.eye(3), (len(x), 3, 3)).copy()

    def metric_derivatives(self, x):
        return self._zeros(x, (3, 3, 3))

    def christoffels(self, x):
        return self._zeros(x, (3, 3, 3))

    def scalar_curvature(self, x):
        return self._zeros(x, ())


class FlatData(FlatMetricData):
    """Euclidean slice: g = delta, k = 0."""

    name = "flat"

    def extrinsic(self, x):
        return self._zeros(x, (3, 3))

    def constraint_fields(self, x):
        # vacuum; the generic route differences k to return the same zeros
        return self._zeros(x, ()), self._zeros(x, (3,))


class UniformExpansionData(FlatMetricData):
    """Flat metric with k = c * delta; exercises the Tr k terms alone."""

    def __init__(self, c=1.0):
        self.c = float(c)
        self.name = "uniform_expansion"

    def extrinsic(self, x):
        return self.c * self.metric(x)


class SchwarzschildData(InitialDataSample):
    """Time-symmetric isotropic slice: g = psi^4 delta, psi = 1 + m/2r."""

    excludes_origin = True

    def __init__(self, mass):
        if mass <= 0:
            raise InitialDataError("mass must be positive")
        self.mass = float(mass)
        self.name = "schwarzschild"

    def conformal_factor(self, r):
        return 1.0 + self.mass / (2.0 * np.asarray(r, dtype=float))

    def metric(self, x):
        r = self._check_domain(np.atleast_2d(np.asarray(x, dtype=float)))
        psi4 = self.conformal_factor(r) ** 4
        return psi4[:, None, None] * np.eye(3)

    def extrinsic(self, x):
        return self._zeros(x, (3, 3))

    def constraint_fields(self, x):
        return self._zeros(x, ()), self._zeros(x, (3,))


class BowenYorkData(FlatMetricData):
    """Flat metric with the momentum-carrying extrinsic curvature
    k_ij = (3/2r^2)(P_i n_j + P_j n_i - (delta_ij - n_i n_j) P.n)."""

    excludes_origin = True

    def __init__(self, momentum):
        momentum = np.asarray(momentum, dtype=float)
        if momentum.shape != (3,) or not np.all(np.isfinite(momentum)):
            raise InitialDataError("momentum must be a finite 3-vector")
        self.momentum = momentum
        self.name = "bowen_york"

    def extrinsic(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = self._check_domain(x)
        n = x / r[:, None]
        P = self.momentum
        pn = n @ P
        eye = np.eye(3)
        sym = P[None, :, None] * n[:, None, :] + P[None, None, :] * n[:, :, None]
        proj = eye[None] - n[:, :, None] * n[:, None, :]
        k = (3.0 / (2.0 * r**2))[:, None, None] * (
            sym - proj * pn[:, None, None]
        )
        return k


# -- boundary-data extraction ---------------------------------------------


class QuasiLocalBoundaryData:
    """Boundary quintuple (sigma, H, trK, alpha) on a surface mesh.

    H and trK are per-vertex; alpha, (V, 3), holds the ambient
    (lower-index) components at each vertex of the normal-bundle
    connection 1-form in the slice gauge, alpha(X) = -k(X, nu), a
    covector tangent to the coordinate sphere at `positions`.
    """

    def __init__(self, geom, H, trk, alpha, positions, name=""):
        self.geom = geom
        self.H = np.asarray(H, dtype=float)
        self.trk = np.asarray(trk, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.positions = positions
        self.name = name
        bad = self.H <= np.abs(self.trk)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InitialDataError(
                "mean curvature vector not outward spacelike: H <= |trK| at "
                f"vertex {i} (H = {self.H[i]:.6g}, trK = {self.trk[i]:.6g})"
            )

    def alpha_edge_values(self):
        """Pairings of alpha with the oriented mesh edges (low vertex to
        high vertex), by the trapezoid rule along the chord."""
        i, j = self.geom.mesh.edges[:, 0], self.geom.mesh.edges[:, 1]
        chord = self.positions[j] - self.positions[i]
        avg = 0.5 * (self.alpha[i] + self.alpha[j])
        return np.einsum("ek,ek->e", avg, chord)


def extract_boundary_data(data, radius, mesh=None, level=4):
    """Pull back (sigma, H, trK, alpha) to a coordinate sphere of the
    given radius, meshed by an icosphere."""
    if mesh is None:
        mesh = icosphere(level)
    verts = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    X = radius * verts

    # sigma: midpoint-metric chord lengths
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    chord = X[j] - X[i]
    mid = 0.5 * (X[i] + X[j])
    gmid = data.metric(mid)
    lengths = np.sqrt(np.einsum("ei,eij,ej->e", chord, gmid, chord))
    geom = SurfaceMetric(mesh, lengths).ops

    H = data.sphere_mean_curvature(X)
    g = data.metric(X)
    ginv = metric_inverse(g)[0]
    k = data.extrinsic(X)
    nu = data.sphere_normal(X)
    trk_full = np.einsum("nij,nij->n", ginv, k)
    knn = np.einsum("nij,ni,nj->n", k, nu, nu)
    trk = trk_full - knn

    # alpha_nu(X) = -k(X, nu), tangentially projected (lower index)
    a = -np.einsum("nij,nj->ni", k, nu)
    nu_low = np.einsum("nij,nj->ni", g, nu)
    a = a - np.einsum("ni,ni->n", a, nu)[:, None] * nu_low
    return QuasiLocalBoundaryData(
        geom, H, trk, a, positions=X,
        name=f"{data.name}_r{radius:g}",
    )


# -- ADM surface integrals --------------------------------------------------


def _sphere_quadrature(radius=1.0, n_theta=48, n_phi=96):
    """Gauss-Legendre in cos(theta) times the midpoint rule in phi: points
    on the sphere of the given radius, unit-sphere weights, and the
    sin(theta) and cos(theta) columns of the points."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(th), np.cos(th)
    points = radius * np.stack(
        [st * np.cos(ph), st * np.sin(ph), ct], axis=-1
    ).reshape(-1, 3)
    # leggauss weights absorb sin(theta) d theta through the cos substitution
    w = (weights[:, None] * np.full(n_phi, 2.0 * np.pi / n_phi)).reshape(-1)
    return points, w, st.reshape(-1), ct.reshape(-1)


def radius_fit(radii, values):
    """Linear least-squares fit of values(r) = E_inf + c / r + d / r^2
    over distinct radii: {E_inf, c, d}.  The fit takes as many terms as
    the ladder supports, E_inf alone for one radius and E_inf and c for
    two; a term it leaves out is None.

    The design is taken in x = r_min / r, whose columns 1, x, x^2 have
    condition number 24 on radii 10-80 (1.3e3 in 1 / r), and c and
    d are rescaled to units of r afterwards.
    """
    radii = np.asarray(radii, dtype=float)
    if len(np.unique(radii)) < len(radii):
        raise InitialDataError(f"repeated radius in {radii.tolist()}")
    scale = radii.min()
    powers = np.arange(min(len(radii), 3))
    design = (scale / radii)[:, None] ** powers
    coefs = np.linalg.lstsq(design, values, rcond=None)[0] * scale ** powers
    fit = dict.fromkeys(("E_inf", "c", "d"))
    fit.update(zip(fit, map(float, coefs)))
    return fit


def growing_differences(values):
    """Whether the differences between successive values (in radius
    order) grow in magnitude by more than rounding, 1e-12 of the largest
    |value|: then the values do not settle to a limit."""
    diffs = np.abs(np.diff(values))
    floor = 1e-12 * np.max(np.abs(values))
    return len(diffs) >= 2 and bool(np.any(np.diff(diffs) > floor))


def adm_integrals(data, radii):
    """ADM energy and momentum surface integrals per radius, and their
    large-radius limits E and P: the constant term E_inf of `radius_fit`
    (E_inf + c / r + d / r^2 with as many terms as the radii support)
    of the energies and of each momentum component.  Raises
    InitialDataError on a repeated radius.  A warning is added when the
    energy differences between successive radii grow
    (`growing_differences`)."""
    radii = sorted(radii)
    dirs, w, _, _ = _sphere_quadrature()
    energies, momenta = [], []
    for R in radii:
        X = R * dirs
        dg = data.metric_derivatives(X)
        # (d_j g_ij - d_i g_jj) n_i over the Euclidean sphere
        integrand = np.einsum("njij->ni", dg) - np.einsum("nijj->ni", dg)
        flux = np.einsum("ni,ni->n", integrand, dirs)
        energies.append(float((w * flux).sum() * R**2 / (16.0 * np.pi)))
        g = data.metric(X)
        k = data.extrinsic(X)
        ginv = metric_inverse(g)[0]
        trk = np.einsum("nij,nij->n", ginv, k)
        pi = k - trk[:, None, None] * g
        p_flux = np.einsum("nij,nj->ni", pi, dirs)
        momenta.append((w[:, None] * p_flux).sum(axis=0) * R**2 / (8.0 * np.pi))
    momenta = np.array(momenta)
    report = {
        "radii": list(radii),
        "E_r": energies,
        "P_r": momenta.tolist(),
        "warnings": [],
        "E": radius_fit(radii, energies)["E_inf"],
        "P": [radius_fit(radii, column)["E_inf"] for column in momenta.T],
    }
    if growing_differences(energies):
        report["warnings"].append("non-monotone energy convergence")
    return report


# -- file provider ----------------------------------------------------------


def write_boundary_fields(path, bd):
    """Per-vertex table `H trK alpha_1 alpha_2`; alpha components are taken
    against the unit polar/azimuthal coordinate vectors at each vertex of
    the parameterization sphere, scaled by the ambient radius."""
    mesh = bd.geom.mesh
    e_th, e_ph = _sphere_frames(mesh.vertices)
    scale = np.linalg.norm(bd.positions, axis=1)
    a1 = np.einsum("ni,ni->n", bd.alpha, e_th) * scale
    a2 = np.einsum("ni,ni->n", bd.alpha, e_ph) * scale
    with open(path, "w") as fh:
        for vals in zip(bd.H, bd.trk, a1, a2):
            fh.write(" ".join(f"{v:.17g}" for v in vals) + "\n")


def read_boundary_fields(path, geom, radius=None):
    """Inverse of write_boundary_fields; reconstructs ambient alpha on the
    coordinate sphere of the given radius (default: unit sphere)."""
    mesh = geom.mesh
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split()]
            except ValueError as exc:
                raise InitialDataError(f"{path}:{lineno}: {exc}") from None
            if len(row) != 4 or not np.all(np.isfinite(row)):
                raise InitialDataError(
                    f"{path}:{lineno}: expected four finite numbers "
                    f"`H trK a1 a2`, got {line.strip()!r}")
            rows.append(row)
    if len(rows) != mesh.n_vertices:
        raise InitialDataError(
            f"{path}: expected {mesh.n_vertices} rows of `H trK a1 a2`"
        )
    data = np.array(rows)
    e_th, e_ph = _sphere_frames(mesh.vertices)
    if radius is None:
        radius = 1.0
    amb = (data[:, 2, None] * e_th + data[:, 3, None] * e_ph) / radius
    verts = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    return QuasiLocalBoundaryData(
        geom, data[:, 0], data[:, 1], amb,
        positions=radius * verts, name="file",
    )


def _sphere_frames(vertices):
    """Unit polar and azimuthal coordinate vectors at unit-sphere points."""
    v = vertices / np.linalg.norm(vertices, axis=1, keepdims=True)
    z = np.array([0.0, 0.0, 1.0])
    e_ph = np.cross(z, v)
    n = np.linalg.norm(e_ph, axis=1)
    polar = n < 1e-12
    if np.any(polar):
        e_ph[polar] = np.array([0.0, 1.0, 0.0])
        n[polar] = 1.0
    e_ph /= n[:, None]
    e_th = np.cross(e_ph, v)
    return e_th, e_ph
