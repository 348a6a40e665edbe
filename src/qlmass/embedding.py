"""Isometric embedding of metric spheres into Euclidean 3-space.

Vertex positions are fitted to the prescribed edge lengths in two damped
Gauss-Newton stages: a band-limited spectral fit over spherical-harmonic
coefficients brings the surface near its target, and a sparse fit over
the free vertex positions finishes it.  The converged shape stays in the
frame of the area-matched round start; an embedding is fixed only up to
a rigid motion, and `align_embedding` places it in the frame of the
physical data, where observer directions are expressed.
"""

from functools import cached_property

import numpy as np
from scipy import linalg
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import lsqr

from .config import InputError
from .mesh import pairs_within, unique_rows
from .operators import SurfaceMetric


class EmbeddingError(RuntimeError, InputError):
    """Raised when the embedding iteration fails to converge."""


def real_harmonic_basis(points, degree):
    """Real orthonormal spherical harmonics up to `degree`, sampled at unit
    vectors `points`; returns a (V, (degree+1)^2) matrix.

    Degree n takes columns n^2 .. (n+1)^2 - 1: Y_n0, then cos and sin
    parts of each order m = 1..n, that is sqrt(2) (-1)^m times the real
    and imaginary parts of the complex harmonic Y_n^m (with the
    Condon-Shortley phase).  The fully normalised associated Legendre
    functions come from the stable three-term recurrence: the diagonal
    P_m^m from P_{m-1}^{m-1}, then P_{m+1}^m and upward in n.
    """
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=1)
    cos_t = np.clip(points[:, 2] / r, -1.0, 1.0)
    sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
    phi = np.arctan2(points[:, 1], points[:, 0])
    basis = np.empty((len(points), (degree + 1) ** 2))
    p_mm = np.full(len(points), 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(degree + 1):
        # column offset within each degree -> the factor in phi
        if m == 0:
            parts = {0: 1.0}
        else:
            p_mm = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * p_mm
            parts = {2 * m - 1: np.sqrt(2.0) * np.cos(m * phi),
                     2 * m: np.sqrt(2.0) * np.sin(m * phi)}
        prev, cur = 0.0, p_mm
        for n in range(m, degree + 1):
            if n > m:
                a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
                b = np.sqrt(((n - 1.0) ** 2 - m * m)
                            / (4.0 * (n - 1.0) ** 2 - 1.0))
                prev, cur = cur, a * (cos_t * cur - b * prev)
            for offset, factor in parts.items():
                basis[:, n * n + offset] = cur * factor
    return basis


def embeddability_check(ops):
    """Convexity precondition for a well-posed isometric embedding.

    Returns (ok, min_curvature): ok is True when the discrete Gauss
    curvature is positive at every vertex.
    """
    kappa = ops.gauss_curvature
    return bool(np.all(kappa > 0.0)), float(kappa.min())


class EmbeddingResult:
    """Converged embedding; its derived extrinsic reference data are
    computed when first read.

    Attributes
    ----------
    positions : (V, 3) vertex positions in the t = 0 slice of Minkowski
        space, in the frame of the round start of `embed_metric` (or of
        the target of `align_embedding`).
    metric : SurfaceMetric the embedding was solved for (that of the
        positions when none is given).
    ops : OperatorSet of that metric, shared with the physical side.
    mean_curvature : (V,) discrete mean curvature of the embedded surface.
    normals : (V, 3) outward unit normals.
    defect_l2 : RMS relative edge-length mismatch against the target metric.
    defect_max : max relative edge-length mismatch against the target
        metric (None when not given).
    iterations : Gauss-Newton steps taken, spectral and vertex stages
        together (0 for an exact start).
    """

    def __init__(self, mesh, positions, defect_l2, iterations,
                 defect_max=None, metric=None):
        self.mesh = mesh
        self.positions = positions
        self.defect_l2 = defect_l2
        self.defect_max = defect_max
        self.iterations = iterations
        self.metric = (SurfaceMetric.from_positions(mesh, positions)
                       if metric is None else metric)

    @property
    def ops(self):
        return self.metric.ops

    @cached_property
    def normals(self):
        tri = self.positions[self.mesh.faces]
        fnorm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        vnorm = self.ops.S @ fnorm
        return vnorm / np.linalg.norm(vnorm, axis=1, keepdims=True)

    @cached_property
    def mean_curvature(self):
        lap = self.ops.laplace(self.positions)
        return -np.einsum("vk,vk->v", lap, self.normals)

    def consistency_residual(self, metric):
        """Max relative deviation of embedded edge lengths from a metric."""
        embedded = SurfaceMetric.from_positions(self.mesh, self.positions)
        return float(np.max(
            np.abs(embedded.edge_lengths - metric.edge_lengths)
            / metric.edge_lengths
        ))


# RMS relative edge residual at which the spectral stage hands over to the
# vertex stage: close enough for the vertex Gauss-Newton to converge to the
# right isometric shape, far above the band-limited floor of the spectral
# fit, which it would otherwise grind against.
SPECTRAL_BASIN = 1e-3

# relative stop tolerance of each LSQR solve of the vertex stage: a
# Gauss-Newton step solved to this share of its residual still converges
# to rounding, while 1e-14 is not met on a level-4 sphere within the
# 400-iteration cap
LSQR_TOL = 1e-10


def embed_metric(mesh, metric, degree=16, tol=1e-8, max_iterations=200):
    """Fit vertex positions in R^3 whose edge lengths match `metric`.

    Two damped Gauss-Newton stages run in turn from the area-matched
    scaling of the parameterization sphere.  The spectral stage fits
    spherical-harmonic coefficients of the position field until the RMS
    relative edge residual is below `SPECTRAL_BASIN`; it carries a far
    start into the basin of the right shape.  The vertex stage then moves
    every vertex freely until the residual is below `tol`.  The positions
    stay in the frame of the start; `align_embedding` places them in the
    frame of the data.

    Parameters
    ----------
    mesh : SurfaceMesh with genus 0.
    metric : SurfaceMetric of target edge lengths.
    degree : spherical-harmonic cutoff of the spectral stage.
    tol : convergence threshold on the RMS relative edge residual.
    max_iterations : Gauss-Newton step cap of each stage.
    """
    if mesh.genus != 0:
        raise EmbeddingError("only genus-0 surfaces admit this embedding")
    lengths = metric.edge_lengths
    scale = float(np.mean(lengths))
    ei, ej = mesh.edges[:, 0], mesh.edges[:, 1]
    s = np.median(lengths / np.linalg.norm(
        mesh.vertices[ei] - mesh.vertices[ej], axis=1))
    positions, spectral_steps = _spectral_fit(
        mesh, lengths, scale, s * mesh.vertices, degree, max_iterations)
    positions, rms, vertex_steps = _polish_positions(
        mesh, lengths, positions, scale, tol, max_iterations)
    iterations = spectral_steps + vertex_steps
    if rms >= tol:
        raise EmbeddingError(
            f"no convergence after {iterations} iterations (rms {rms:.3e})"
        )
    pair = crossing_pair(positions, mesh.faces)
    if pair is not None:
        raise EmbeddingError(f"embedded surface crosses itself: faces "
                             f"{pair[0]} and {pair[1]} intersect")
    emb = EmbeddingResult(mesh, positions, rms, iterations, metric=metric)
    emb.defect_max = emb.consistency_residual(metric)
    return emb


def align_embedding(emb, target_positions):
    """Rigidly move an embedding onto target vertex positions (orthogonal
    Procrustes plus translation); used to express observers in the
    coordinate frame of the physical data."""
    src = emb.positions - emb.positions.mean(axis=0)
    tgt = np.asarray(target_positions, dtype=float)
    tc = tgt.mean(axis=0)
    u, _, vt = np.linalg.svd(src.T @ (tgt - tc))
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        u[:, -1] *= -1.0
        rot = u @ vt
    moved = src @ rot + tc
    return EmbeddingResult(emb.mesh, moved, emb.defect_l2, emb.iterations,
                           defect_max=emb.defect_max, metric=emb.metric)


def _edge_residual(d, lengths, scale):
    """Unit vectors of the edge vectors `d` and their relative length
    residuals against the target `lengths`."""
    norms = np.linalg.norm(d, axis=1)
    return d / norms[:, None], (norms - lengths) / scale


def _rms(r):
    return float(np.sqrt(r @ r / len(r)))


def _spectral_fit(mesh, lengths, scale, start, degree, max_iterations):
    """Levenberg-Marquardt over the spherical-harmonic coefficients of the
    position field, from the least-squares fit of `start`, until the RMS
    residual is below `SPECTRAL_BASIN`; a start already inside it is kept
    as it is.  Returns the fitted positions and the number of steps taken."""
    d = start[mesh.edges[:, 0]] - start[mesh.edges[:, 1]]
    if _rms(_edge_residual(d, lengths, scale)[1]) < SPECTRAL_BASIN:
        return start, 0
    B = real_harmonic_basis(mesh.vertices, degree)
    dB = B[mesh.edges[:, 0]] - B[mesh.edges[:, 1]]
    n_basis = B.shape[1]
    coeffs, *_ = np.linalg.lstsq(B, start, rcond=None)
    unit, r = _edge_residual(dB @ coeffs, lengths, scale)
    lam = 1e-6
    steps = 0
    while steps < max_iterations and _rms(r) >= SPECTRAL_BASIN:
        # J[e, k * n_basis + m] = unit[e, k] * dB[e, m] / scale
        J = (unit[:, :, None] * dB[:, None, :]).reshape(len(r), -1) / scale
        JtJ, Jtr = J.T @ J, J.T @ r
        for _ in range(40):
            A = JtJ + lam * np.diag(np.maximum(np.diag(JtJ), 1e-12))
            try:
                step = linalg.cho_solve(linalg.cho_factor(A), -Jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = coeffs + step.reshape(3, n_basis).T
            unit_t, r_t = _edge_residual(dB @ trial, lengths, scale)
            if _rms(r_t) < _rms(r):
                coeffs, unit, r = trial, unit_t, r_t
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 4.0
        else:
            break
        steps += 1
    return B @ coeffs, steps


def _polish_positions(mesh, lengths, positions, scale, tol, max_iterations):
    """Gauss-Newton over all vertex coordinates until the RMS residual is
    below a tenth of `tol`; the sparse Jacobian has one row of six entries
    per edge.
    Returns the positions, their RMS residual and the steps taken."""
    ei, ej = mesh.edges[:, 0], mesh.edges[:, 1]
    n_edges, n = len(ei), mesh.n_vertices
    cols = np.column_stack([3 * ei[:, None] + np.arange(3),
                            3 * ej[:, None] + np.arange(3)]).ravel()
    indptr = np.arange(0, 6 * n_edges + 1, 6)
    x = positions
    unit, r = _edge_residual(x[ei] - x[ej], lengths, scale)
    steps = 0
    while steps < max_iterations and _rms(r) >= 0.1 * tol:
        vals = np.concatenate([unit, -unit], axis=1).ravel() / scale
        J = csr_matrix((vals, cols, indptr), shape=(n_edges, 3 * n))
        step = lsqr(J, -r, damp=1e-10, atol=LSQR_TOL, btol=LSQR_TOL,
                    iter_lim=400)[0]
        x = x + step.reshape(n, 3)
        unit, r = _edge_residual(x[ei] - x[ej], lengths, scale)
        steps += 1
    return x, _rms(r), steps


def crossing_pair(positions, faces):
    """First pair (i, j), i < j, of triangles that share no vertex and
    intersect, or None when the surface is embedded.

    Two triangles touch only if their centroids lie within the sum of
    their radii.  A cell hash of the centroids (`pairs_within`) gives the
    pairs of triangles no wider than the reach (at most twice the median
    radius) within twice the reach; the triangles wider than the reach
    query it again with twice the widest radius, so a few long triangles
    add O(F) candidates each, not O(F^2).  Candidates are tested by
    Moeller-Trumbore, each edge of one triangle against the other.
    """
    tri = positions[faces]
    cent = tri.mean(axis=1)
    rad = np.linalg.norm(tri - cent[:, None, :], axis=2).max(axis=1)
    reach = min(rad.max(), 2.0 * np.median(rad))
    i, j, d2 = pairs_within(cent, 2.0 * reach)
    wide = np.flatnonzero(rad > reach)
    if len(wide):
        wi, wj, wd2 = pairs_within(cent, 2.0 * rad[wide].max(), cent[wide])
        i = np.concatenate([i, np.minimum(wide[wi], wj)])
        j = np.concatenate([j, np.maximum(wide[wi], wj)])
        d2 = np.concatenate([d2, wd2])
    close = (i < j) & (np.sqrt(d2) <= rad[i] + rad[j])
    i, j = i[close], j[close]
    fi, fj = faces[i], faces[j]
    shared = np.zeros(len(i), dtype=bool)
    for a in range(3):
        for b in range(3):
            shared |= fi[:, a] == fj[:, b]
    pairs, _ = unique_rows(np.column_stack([i[~shared], j[~shared]]))
    a, b = tri[pairs[:, 0]], tri[pairs[:, 1]]
    hit = np.zeros(len(pairs), dtype=bool)
    for k in range(3):
        hit |= _segments_cross(a[:, k], a[:, (k + 1) % 3], b)
        hit |= _segments_cross(b[:, k], b[:, (k + 1) % 3], a)
    return tuple(map(int, pairs[np.argmax(hit)])) if hit.any() else None


def _segments_cross(p, q, tri):
    """Moeller-Trumbore test of each segment pq against its triangle."""
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    s, d = p - tri[:, 0], q - p
    h, qv = np.cross(d, e2), np.cross(s, e1)
    a = np.einsum("nk,nk->n", e1, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.einsum("nk,nk->n", s, h) / a
        v = np.einsum("nk,nk->n", d, qv) / a
        t = np.einsum("nk,nk->n", e2, qv) / a
        return ((np.abs(a) >= 1e-15) & (u >= 0.0) & (u <= 1.0)
                & (v >= 0.0) & (u + v <= 1.0) & (t >= 0.0) & (t <= 1.0))


# -- embedding file I/O -------------------------------------------------


def write_embedding(path, result):
    """One line per vertex: `t x y z` in mesh vertex order, with t = 0 (the
    surface lies in the t = 0 slice)."""
    with open(path, "w") as fh:
        for p in result.positions:
            fh.write(f"0 {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
