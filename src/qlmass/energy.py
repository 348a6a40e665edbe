"""Observer functions, canonical frames, the Hamiltonian side integrals,
and the regularized quasi-local energy.

Both sides of the energy (reference and physical) are reduced to the same
SurfaceData form: a surface geometry plus the mean curvature vector norm,
its slice-gauge decomposition (H, trK), and the connection 1-form pairings
on edges, on one surface with one metric, whose operators and observer
fields both sides share.  u = a.x is linear in a: an `ObserverKernel`
holds the parts linear in a, and a call for N directions runs only the
nonlinear part, on (N, F) and (N, V) arrays; `energy` is its N = 1 case.
All integrals reduce over a fixed vertex order, so results are bit-stable.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve

from .config import InputError
from .embedding import EmbeddingError


class EnergyError(RuntimeError, InputError):
    """Raised for degenerate frames or invalid observer input."""


class Observer:
    """Null observer restricted to the surface: u = a.x on the reference
    surface, which lies in the t = 0 slice of Minkowski space.

    Attributes
    ----------
    a : unit 3-vector.
    positions : (V, 3) vertex points of the embedding.
    uA : per-vertex observer function on the embedding.
    """

    def __init__(self, embedding, a):
        self.a = unit_rows(a)[0]
        self.positions = embedding.positions
        self.uA = self.positions @ self.a


def unit_rows(dirs):
    """The observer directions, rows of `dirs` (N, 3), scaled to unit
    length; raises EnergyError naming the first row whose length is not
    within 1e-6 of 1 (a zero row included)."""
    a = np.atleast_2d(np.asarray(dirs, dtype=float))
    norm = np.linalg.norm(a, axis=1)
    for i in np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-6))[:1]:
        raise EnergyError(f"observer direction {i} is not a unit vector: "
                          f"|a| = {norm[i]}")
    return a / norm[:, None]


def make_observer(embedding, a):
    return Observer(embedding, a)


class SurfaceData:
    """One side of the energy: geometry plus extrinsic scalars.

    field_norm is |H_vec| = sqrt(H^2 - trK^2); phi is the hyperbolic angle
    of H_vec from the slice normal frame (zero for reference data);
    alpha_edges are the pairings of the slice-gauge connection form with
    oriented mesh edges.
    """

    def __init__(self, ops, H, trk, alpha_edges):
        self.ops = ops
        self.mesh = ops.mesh
        self.H = np.asarray(H, dtype=float)
        self.trk = np.asarray(trk, dtype=float)
        sq = self.H**2 - self.trk**2
        if np.any(sq <= 0.0):
            raise EnergyError(
                "mean curvature vector not spacelike at vertex "
                f"{int(np.argmax(sq <= 0.0))}"
            )
        self.field_norm = np.sqrt(sq)
        self.phi = -np.arcsinh(self.trk / self.field_norm)
        if alpha_edges is None:
            alpha_edges = np.zeros(self.mesh.n_edges)
        self.alpha_edges = np.asarray(alpha_edges, dtype=float)

    @classmethod
    def from_boundary(cls, bd):
        # Boundary extraction stores (trK, alpha) for the future-pointing
        # slice normal of the provider convention; the density formulas
        # take the opposite time orientation so that the large-sphere
        # energy limit comes out as (ADM energy) - <a, ADM momentum>.
        return cls(bd.geom, bd.H, -bd.trk, -bd.alpha_edge_values())

    @classmethod
    def from_embedding(cls, emb):
        # on a time slice |H_vec| is the mean curvature H0 of the image
        H0 = emb.mean_curvature
        if np.min(H0) <= 0.0:
            raise EmbeddingError(
                f"non-convex image: H0 <= 0 at vertex {int(np.argmin(H0))}"
            )
        return cls(emb.ops, H0, np.zeros(len(H0)), None)

    @cached_property
    def gauge_covector(self):
        """Per-face connection form in the mean-curvature gauge: alpha_nu
        minus the differential of the frame angle phi."""
        i, j = self.mesh.edges[:, 0], self.mesh.edges[:, 1]
        return self.ops.face_covector(
            self.alpha_edges - (self.phi[j] - self.phi[i]))

    @cached_property
    def slice_covector(self):
        """Per-face connection form alpha_nu of the slice gauge."""
        return self.ops.face_covector(self.alpha_edges)


# the canonical frames of every side for N observers: hyperbolic frame
# angle f (sides, N, V) from the mean-curvature gauge, with the squared
# observer gradient gsq (N, V), the vertices the integrands skip, and the
# masked critical faces (N, F; None for eps > 0)
FrameField = namedtuple("FrameField", "f eps gsq dead_vertices mask")


def _vertex_grad_sq(ops, grad, face_mask=None):
    """Vertex averages (N, V) of the squared magnitudes of per-face
    gradients (N, F, 2), optionally ignoring masked faces (N, F), with the
    vertices that no weighted face reaches."""
    gsq = grad[..., 0] ** 2 + grad[..., 1] ** 2
    w = np.broadcast_to(ops.face_areas, gsq.shape)
    if face_mask is not None:
        w = np.where(face_mask, 0.0, w)
    sums = (ops.S @ np.vstack([w * gsq, w]).T).T
    num, den = sums[:len(gsq)], sums[len(gsq):]
    ok = den > 0.0
    out = np.divide(num, den, out=np.zeros_like(num), where=ok)
    return np.maximum(out, 0.0), ~ok


# the eps = 0 frame masks faces whose |grad u| is below this share of its
# median; the radii of the Euler-Lagrange charge caps and mollifier are
# shares of the area radius; a block of directions holds at most
# OBSERVER_BLOCK face values (and at least one direction), which bounds
# its memory at every mesh level
CRITICAL_FRACTION = 1e-3
CAP_FRACTION = 0.2
MOLLIFICATION_FRACTION = 0.15
OBSERVER_BLOCK = 2**15


class ObserverKernel:
    """The parts of the observer fields linear in the direction a, for the
    `sides` (SurfaceData) on one surface with reference vertex `positions`
    (V, 3): grad x (2F, 3), laplace(x) and K x (V, 3) of the coordinate
    fields x, each side's gauge covector paired with grad x (sides, 3, F),
    |H_vec| (sides, 1, V), and `block`, the directions per block.  Raises
    EnergyError unless the sides' meshes and edge lengths agree."""

    def __init__(self, positions, sides):
        ops = sides[0].ops
        for sd in sides[1:]:
            if sd.ops is not ops and not (
                    np.array_equal(ops.mesh.faces, sd.ops.mesh.faces)
                    and np.array_equal(ops.metric.edge_lengths,
                                       sd.ops.metric.edge_lengths)):
                raise EnergyError("the sides differ in mesh or edge lengths")
        x = np.asarray(positions, dtype=float)
        grad = ops.gradient(x)
        self.ops, self.sides = ops, sides
        self.grad = grad.reshape(-1, 3)
        self.lap = ops.laplace(x)
        self.Kx = ops.stiffness @ x
        self.gauge = np.stack([np.einsum("fk,fkj->jf", sd.gauge_covector,
                                         grad) for sd in sides])
        self.norm = np.stack([sd.field_norm for sd in sides])[:, None]
        self.block = max(1, OBSERVER_BLOCK // ops.mesh.n_faces)

    def fields(self, dirs):
        """The `ObserverFields` of the directions, rows of `dirs` (N, 3)."""
        return ObserverFields(self, unit_rows(dirs))

    def energies(self, dirs):
        """Energies (N,) of the directions, rows of `dirs`
        (N, 3), and the side terms (sides, N) whose difference they are,
        one block of directions at a time."""
        a = unit_rows(dirs)
        terms = np.hstack([
            ObserverFields(self, a[i:i + self.block]).terms(0.0).sum(axis=1)
            for i in range(0, len(a), self.block)]) / (8.0 * np.pi)
        return terms[0] - terms[1], terms


class ObserverFields:
    """The observer functions u = a.x of N unit directions, the rows of
    `a`, on the surface of `kernel`, with the fields its sides and every
    frame share: grad u (N, F, 2), laplace(u) and K u (N, V) and the
    sides' gauge pairings (sides, N, F), products of the kernel's on
    construction; |grad u|^2 at the vertices with and without the
    critical-set mask when first read."""

    def __init__(self, kernel, a):
        self.kernel, self.ops = kernel, kernel.ops
        self.grad = (a @ kernel.grad.T).reshape(len(a), -1, 2)
        self.lap = a @ kernel.lap.T
        self.Ku = a @ kernel.Kx.T
        self.gauge = a @ kernel.gauge

    @cached_property
    def masked(self):
        """(critical face mask, its area fraction, gsq, dead vertices)."""
        mask, frac = self.ops.critical_set_mask(self.grad, CRITICAL_FRACTION)
        return (mask, frac) + _vertex_grad_sq(self.ops, self.grad, mask)

    @cached_property
    def unmasked(self):
        """(gsq, dead vertices) over every face."""
        return _vertex_grad_sq(self.ops, self.grad)

    def frame(self, eps):
        """Energy-minimizing frame angles of every side from the
        mean-curvature gauge:
        sinh f = laplace(u) / (|H_vec| sqrt(|grad u|^2 + eps^2)).

        With eps = 0 the critical set is masked and f is zero on the
        vertices it leaves without gradient.
        """
        if eps < 0:
            raise EnergyError("eps must be nonnegative")
        if eps == 0.0:
            mask, _, gsq, dead = self.masked
        else:
            mask, (gsq, dead) = None, self.unmasked
        norm = self.kernel.norm
        if np.any((norm < 1e-14) & ~dead):
            raise EnergyError("degenerate mean curvature vector on the "
                              "unmasked set")
        live = ~dead & (gsq + eps**2 > 0.0)
        ratio = np.divide(self.lap, norm * np.sqrt(gsq + eps**2),
                          out=np.zeros(norm.shape[:1] + gsq.shape),
                          where=live)
        return FrameField(np.arcsinh(ratio), eps, gsq, ~live, mask)

    def side_terms(self, frame):
        """The three integrals (sides, 3, N) of every side in `frame`:
        sqrt term, frame-gradient term by parts, gauge term; masked
        vertices and faces carry zero weight."""
        w, fa = _weights(self.ops, frame)
        sqrt_vals = (np.sqrt(frame.gsq + frame.eps**2) * self.kernel.norm
                     * np.cosh(frame.f))
        return np.stack([(w * sqrt_vals).sum(axis=-1),
                         (self.Ku * frame.f).sum(axis=-1),
                         (fa * self.gauge).sum(axis=-1)], axis=1)

    def terms(self, eps):
        """The side terms (sides, 3, N) in the canonical frames at eps."""
        return self.side_terms(self.frame(eps))


def _weights(ops, frame):
    """Vertex and face areas, zero on the frame's dead and masked parts."""
    w = np.where(frame.dead_vertices, 0.0, ops.vertex_areas)
    fa = ops.face_areas
    if frame.mask is not None:
        fa = np.where(frame.mask, 0.0, fa)
    return w, fa


def side_integral(sd, obs, eps):
    """(Hamiltonian integral of one side in its canonical frame, frame),
    the frame's arrays those of the one observer."""
    fields = ObserverKernel(obs.positions, [sd]).fields(obs.a)
    frame = fields.frame(eps)
    return float(fields.side_terms(frame).sum()), FrameField(
        *(np.ravel(x) if isinstance(x, np.ndarray) else x for x in frame))


class EnergyReport:
    """Energy evaluation record; E = reference_term - physical_term."""

    def __init__(self, E, reference_term, physical_term, term_breakdown,
                 critical_area_fraction):
        self.E = E
        self.reference_term = reference_term
        self.physical_term = physical_term
        self.term_breakdown = term_breakdown
        self.critical_area_fraction = critical_area_fraction

    def to_dict(self):
        return {
            "E": self.E,
            "referenceTerm": self.reference_term,
            "physicalTerm": self.physical_term,
            "termBreakdown": self.term_breakdown,
            "criticalAreaFraction": self.critical_area_fraction,
            "admissibleFlag": "unchecked",
        }


def energy(ref_sd, phys_sd, obs):
    """Quasi-local energy of the observer, with its side terms and
    critical area fraction: the limit formula on the complement of the
    critical set, as `ObserverKernel.energies` takes it for N directions;
    both sides must lie on one mesh with one set of edge lengths."""
    fields = ObserverKernel(obs.positions, [ref_sd, phys_sd]).fields(obs.a)
    terms_r, terms_p = fields.terms(0.0)[..., 0].tolist()
    ref_term = sum(terms_r) / (8.0 * np.pi)
    phys_term = sum(terms_p) / (8.0 * np.pi)
    return EnergyReport(ref_term - phys_term, ref_term, phys_term,
                        {"reference": terms_r, "physical": terms_p},
                        float(fields.masked[1][0]))


def hamilton_jacobi_check(ref_sd, phys_sd, obs, eps_list):
    """Cross-check of the density route against the surface-Hamiltonian
    route (slice gauge with the total frame angle), per eps."""
    fields = ObserverKernel(obs.positions, [ref_sd, phys_sd]).fields(obs.a)
    rows = []
    for eps in eps_list:
        frame = fields.frame(eps)
        density = fields.side_terms(frame).sum(axis=1)[:, 0].tolist()
        hamiltonian = _slice_gauge_integrals(fields, frame)[:, 0].tolist()
        ea = (density[0] - density[1]) / (8.0 * np.pi)
        eb = (hamiltonian[0] - hamiltonian[1]) / (8.0 * np.pi)
        scale = max(map(abs, density + hamiltonian))
        denom = max(scale / (8.0 * np.pi), 1e-30)
        rows.append({
            "eps": float(eps),
            "densityRoute": ea,
            "hamiltonianRoute": eb,
            "relDifference": abs(ea - eb) / denom,
        })
    return rows


def _slice_gauge_integrals(fields, frame):
    """Every side (sides, N) evaluated entirely in the slice gauge, given
    its canonical frame: the frame angle from the slice normal is phi - f
    and the connection form is alpha_nu."""
    sides = fields.kernel.sides
    w, fa = _weights(fields.ops, frame)
    H, trk, phi = (np.stack([getattr(sd, key) for sd in sides])[:, None]
                   for key in ("H", "trk", "phi"))
    q = phi - frame.f
    vals = np.sqrt(frame.gsq + frame.eps**2) * (
        H * np.cosh(q) + trk * np.sinh(q))
    slice_pairing = np.stack([np.einsum("fk,nfk->nf", sd.slice_covector,
                                        fields.grad) for sd in sides])
    return ((w * vals).sum(axis=-1) - (fields.Ku * q).sum(axis=-1)
            + (fa * slice_pairing).sum(axis=-1))


def optimal_frame_gap(sd, obs, eps, trial_frames):
    """Functional gaps of trial frame angles (V,) against the canonical
    frame; convexity makes every gap nonnegative up to round-off."""
    fields = ObserverKernel(obs.positions, [sd]).fields(obs.a)
    frame = fields.frame(eps)
    base = fields.side_terms(frame).sum()
    return [float(fields.side_terms(frame._replace(
        f=np.reshape(f, (1, 1, -1)))).sum() - base) for f in trial_frames]


def euler_lagrange_residual(sd, obs):
    """Residual of the first-variation equation in u and the point charges
    at the observer extrema.

    The flux |H_vec| cosh(f) grad u / |grad u| + grad f + (gauge vector) has
    distributional divergence 2 pi (delta_min - delta_max) at criticality.
    Charges are area integrals of the discrete divergence over geodesic caps
    of fixed radius CAP_FRACTION * (area radius) around the extremum
    vertices.  Away from the caps the equation only holds against smooth
    test functions, so the interior norm is taken of the residual mollified
    at the fixed physical scale MOLLIFICATION_FRACTION * (area radius);
    the raw field stays noisy at fourth-difference level by construction.
    """
    fields = ObserverKernel(obs.positions, [sd]).fields(obs.a)
    u, ops, grad = obs.uA, fields.ops, fields.grad[0]
    f = fields.frame(0.0).f[0, 0]
    gmag = np.maximum(np.linalg.norm(grad, axis=1), 1e-300)
    coshf_face = ops.face_average(np.cosh(f))
    hvec_face = ops.face_average(sd.field_norm)
    flux = (
        (hvec_face * coshf_face / gmag)[:, None] * grad + ops.gradient(f)
        + sd.gauge_covector
    )
    residual = ops.divergence(flux)

    vmax = _extremum_vertex(u, np.argmax)
    vmin = _extremum_vertex(u, np.argmin)
    warnings = []
    if (u == u[vmax]).sum() > 1 or (u == u[vmin]).sum() > 1:
        warnings.append("non-unique extremum vertices; smallest index used")

    radius = np.sqrt(ops.total_area / (4.0 * np.pi))
    cap = CAP_FRACTION * radius
    scale = MOLLIFICATION_FRACTION * radius
    # the mollifier spreads the point charges over a few lengths `scale`,
    # so the interior region keeps that margin beyond the charge caps
    margin = cap + 3.0 * scale
    dist = _geodesic_distances(ops, [vmax, vmin], margin)
    charges = {}
    for row, label in ((0, "max"), (1, "min")):
        disk = dist[row] <= cap
        charges[label] = float(
            residual[disk] @ ops.vertex_areas[disk]
        )
    interior = (dist[0] > margin) & (dist[1] > margin)
    lhs = (diags(ops.vertex_areas) + scale**2 * ops.stiffness).tocsc()
    mollified = spsolve(lhs, ops.vertex_areas * residual)
    interior_l2 = float(np.sqrt(
        (mollified[interior] ** 2) @ ops.vertex_areas[interior]
    ))
    total = float(residual @ ops.vertex_areas)
    return {
        "residualField": residual,
        "mollifiedResidual": mollified,
        "distributionalCharges": charges,
        "interiorL2": interior_l2,
        "totalIntegral": total,
        "warnings": warnings,
    }


def _geodesic_distances(ops, sources, limit):
    """Graph geodesic distances (edge-length weights) from source vertices,
    capped at just above the limit."""
    mesh = ops.mesh
    n = mesh.n_vertices
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    w = ops.metric.edge_lengths
    graph = csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])),
                       shape=(n, n))
    return dijkstra(graph, indices=sources, limit=limit * (1.0 + 1e-9))


def _extremum_vertex(u, arg):
    k = int(arg(u))
    ties = np.flatnonzero(u == u[k])
    return int(ties.min())
