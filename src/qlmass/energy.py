"""Observer functions, canonical frames, the Hamiltonian side integrals,
and the regularized quasi-local energy.

Both sides of the energy (reference and physical) are reduced to the same
SurfaceData form: a surface geometry plus the mean curvature vector norm,
its slice-gauge decomposition (H, trK), and the connection 1-form pairings
on edges.  All integrals reduce over a fixed vertex order, so results are
bit-stable.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve

from .config import ENERGY_MODES
from .embedding import EmbeddingError


class EnergyError(RuntimeError):
    """Raised for degenerate frames or invalid observer input."""


class Observer:
    """Null observer restricted to the surface: u = a.x on the reference
    surface, which lies in the t = 0 slice of Minkowski space.

    Attributes
    ----------
    a : unit 3-vector.
    uA : per-vertex observer function on the embedding.
    """

    def __init__(self, embedding, a):
        a = np.asarray(a, dtype=float)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise EnergyError("observer direction must be nonzero")
        if abs(norm - 1.0) > 1e-6:
            raise EnergyError(f"observer direction far from unit: |a| = {norm}")
        self.a = a / norm
        self.uA = embedding.positions @ self.a


def make_observer(embedding, a):
    return Observer(embedding, a)


class SurfaceData:
    """One side of the energy: geometry plus extrinsic scalars.

    field_norm is |H_vec| = sqrt(H^2 - trK^2); phi is the hyperbolic angle
    of H_vec from the slice normal frame (zero for reference data);
    alpha_edges are the pairings of the slice-gauge connection form with
    oriented mesh edges.
    """

    def __init__(self, ops, H, trk, alpha_edges, name=""):
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
        self.name = name

    @classmethod
    def from_boundary(cls, bd):
        # Boundary extraction stores (trK, alpha) for the future-pointing
        # slice normal of the provider convention; the density formulas
        # take the opposite time orientation so that the large-sphere
        # energy limit comes out as (ADM energy) - <a, ADM momentum>.
        return cls(bd.geom, bd.H, -bd.trk, -bd.alpha_edge_values(),
                   name=bd.name)

    @classmethod
    def from_embedding(cls, emb):
        # on a time slice |H_vec| is the mean curvature H0 of the image
        H0 = emb.mean_curvature
        if np.min(H0) <= 0.0:
            raise EmbeddingError(
                f"non-convex image: H0 <= 0 at vertex {int(np.argmin(H0))}"
            )
        return cls(emb.ops, H0, np.zeros(len(H0)), None, name="reference")

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


# hyperbolic frame angle f from the mean-curvature gauge, with the squared
# observer gradient gsq, the vertices the integrands skip, and the masked
# critical faces (None for eps > 0)
FrameField = namedtuple("FrameField", "f eps gsq dead_vertices mask")


def _vertex_grad_sq(ops, grad, face_mask=None):
    """Vertex-averaged squared magnitude of a per-face gradient,
    optionally ignoring masked faces."""
    gsq = np.einsum("fk,fk->f", grad, grad)
    w = ops.face_areas.copy()
    if face_mask is not None:
        w[face_mask] = 0.0
    faces, n = ops.mesh.faces.ravel(), ops.mesh.n_vertices
    num = np.bincount(faces, weights=np.repeat(w * gsq, 3) / 3.0, minlength=n)
    den = np.bincount(faces, weights=np.repeat(w, 3) / 3.0, minlength=n)
    out = np.zeros(n)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return np.maximum(out, 0.0), ~ok


# the eps = 0 frame masks faces whose |grad u| is below this share of its
# median
CRITICAL_FRACTION = 1e-3


class ObserverFields:
    """The observer function u on one side and its fields, each computed
    once for every frame of that side: grad u, laplace(u) and the gauge
    pairing on construction, the rest when first read.  The connection
    covectors belong to the side and are shared by all its observers."""

    def __init__(self, sd, obs):
        self.sd, self.ops, self.u = sd, sd.ops, obs.uA
        self.grad = self.ops.gradient(self.u)
        self.lap = self.ops.laplace(self.u)
        self.gauge_pairing = self.ops.pair_fields(sd.gauge_covector,
                                                  self.grad)

    @cached_property
    def masked(self):
        """(critical face mask, its area fraction, gsq, dead vertices)."""
        mask, frac = self.ops.critical_set_mask(self.grad, CRITICAL_FRACTION)
        return (mask, frac) + _vertex_grad_sq(self.ops, self.grad, mask)

    @cached_property
    def unmasked(self):
        """(gsq, dead vertices) over every face."""
        return _vertex_grad_sq(self.ops, self.grad)

    @cached_property
    def slice_pairing(self):
        """grad u paired with the slice-gauge connection form alpha_nu."""
        return self.ops.pair_fields(self.sd.slice_covector, self.grad)


def canonical_frame(fields, eps):
    """Energy-minimizing frame angle from the mean-curvature gauge:
    sinh f = laplace(u) / (|H_vec| sqrt(|grad u|^2 + eps^2)).

    With eps = 0 the critical set is masked and f is zero on the vertices
    it leaves without gradient.
    """
    if eps < 0:
        raise EnergyError("eps must be nonnegative")
    if eps == 0.0:
        mask, _, gsq, dead = fields.masked
    else:
        mask, (gsq, dead) = None, fields.unmasked
    norm = fields.sd.field_norm
    if np.any(norm[~dead] < 1e-14):
        raise EnergyError("degenerate mean curvature vector on the "
                          "unmasked set")
    live = ~dead & (gsq + eps**2 > 0.0)
    f = np.zeros(len(gsq))
    f[live] = np.arcsinh(
        fields.lap[live] / (norm[live] * np.sqrt(gsq[live] + eps**2))
    )
    return FrameField(f, eps, gsq, ~live, mask)


def _weights(ops, frame):
    """Vertex and face areas, zero on the frame's dead and masked parts."""
    w = ops.vertex_areas.copy()
    w[frame.dead_vertices] = 0.0
    fa = ops.face_areas.copy()
    if frame.mask is not None:
        fa[frame.mask] = 0.0
    return w, fa


def _side_terms(fields, frame):
    """The three integrals of one side: (sqrt term, frame-gradient term by
    parts, gauge term); masked vertices and faces carry zero weight."""
    w, fa = _weights(fields.ops, frame)
    sqrt_vals = (np.sqrt(frame.gsq + frame.eps**2) * fields.sd.field_norm
                 * np.cosh(frame.f))
    sqrt_int = float(sqrt_vals @ w)
    grad_int = fields.ops.dirichlet_pairing(fields.u, frame.f)
    gauge_int = float(fields.gauge_pairing @ fa)
    return sqrt_int, grad_int, gauge_int


def side_integral(sd, obs, eps):
    """(Hamiltonian integral of one side in its canonical frame, frame)."""
    fields = ObserverFields(sd, obs)
    frame = canonical_frame(fields, eps)
    return sum(_side_terms(fields, frame)), frame


class EnergyReport:
    """Energy evaluation record; E = reference_term - physical_term."""

    def __init__(self, E, reference_term, physical_term, term_breakdown,
                 eps_sequence, critical_area_fraction, warnings=None,
                 context=None):
        self.E = E
        self.reference_term = reference_term
        self.physical_term = physical_term
        self.term_breakdown = term_breakdown
        self.eps_sequence = eps_sequence
        self.critical_area_fraction = critical_area_fraction
        self.warnings = warnings or []
        self.context = context or {}

    def to_dict(self):
        return {
            "E": self.E,
            "referenceTerm": self.reference_term,
            "physicalTerm": self.physical_term,
            "termBreakdown": self.term_breakdown,
            "epsSequence": self.eps_sequence,
            "criticalAreaFraction": self.critical_area_fraction,
            "admissibleFlag": "unchecked",
            "warnings": self.warnings,
            "context": self.context,
        }


def default_eps_list(fields, n=7):
    """Geometric sequence 1e-1 .. 1e-4 times the mean gradient scale of
    one side's observer fields."""
    gsq, _ = fields.unmasked
    scale = float(np.sqrt(gsq).mean())
    return list(scale * np.logspace(-1, -4, n))


def energy(ref_sd, phys_sd, obs, eps_list=None, mode="explicit",
           context=None):
    """Quasi-local energy of the observer.

    mode "explicit" evaluates the limit formula on the complement of the
    critical set; mode "epsLimit" extrapolates the regularized sequence;
    mode "both" reports the explicit value with the sequence attached and
    warns when the routes disagree beyond the discretization estimate.
    """
    if mode not in ENERGY_MODES:
        raise EnergyError(f"energy mode {mode!r} not in {ENERGY_MODES}")
    if ref_sd.mesh.n_vertices != phys_sd.mesh.n_vertices:
        raise EnergyError("reference and physical data on different meshes")
    warnings = []
    eps_sequence = []

    ref, phys = ObserverFields(ref_sd, obs), ObserverFields(phys_sd, obs)
    frame_r, frame_p = canonical_frame(ref, 0.0), canonical_frame(phys, 0.0)
    terms_r = _side_terms(ref, frame_r)
    terms_p = _side_terms(phys, frame_p)
    breakdown = {"reference": list(terms_r), "physical": list(terms_p)}
    ref_term = sum(terms_r) / (8.0 * np.pi)
    phys_term = sum(terms_p) / (8.0 * np.pi)
    e_explicit = ref_term - phys_term
    crit_frac = max(ref.masked[1], phys.masked[1])

    e_val = e_explicit
    if mode != "explicit":
        if eps_list is None:
            eps_list = default_eps_list(ref)
        if len(eps_list) == 0:
            raise EnergyError(f"energy mode {mode!r} needs at least one eps, "
                              f"got an empty eps_list")
        for eps in eps_list:
            r, p = (sum(_side_terms(fields, canonical_frame(fields, eps)))
                    for fields in (ref, phys))
            eps_sequence.append((float(eps), (r - p) / (8.0 * np.pi)))
        e_limit = _extrapolate_eps(eps_sequence)
        scale = max(abs(ref_term), abs(phys_term), 1e-30)
        h = float(np.mean(ref_sd.ops.metric.edge_lengths))
        diam = float(np.ptp(obs.uA)) + 1e-30
        disc = (h / diam) ** 2 * scale
        if abs(e_limit - e_explicit) > 10.0 * max(disc, 1e-14 * scale):
            warnings.append(
                f"explicit and eps-limit routes disagree: "
                f"{e_explicit:.6e} vs {e_limit:.6e}"
            )
        if mode == "epsLimit":
            # terms reported from the last (smallest) eps of the sequence
            e_val = e_limit
            ref_term, phys_term = r / (8.0 * np.pi), p / (8.0 * np.pi)
    return EnergyReport(
        e_val, ref_term, phys_term, breakdown, eps_sequence, crit_frac,
        warnings=warnings, context=context,
    )


def _extrapolate_eps(seq):
    """Power-law extrapolation of the tail of the (eps, E_eps) sequence."""
    if len(seq) < 3:
        return seq[-1][1]
    e = np.array([v for _, v in seq[-3:]])
    d1, d2 = e[1] - e[0], e[2] - e[1]
    if abs(d1) < 1e-15 or abs(d2) < 1e-15 or abs(d1 - d2) < 1e-15:
        return float(e[-1])
    # geometric eps sequence: Aitken acceleration on the energy tail
    accel = e[2] - d2**2 / (d2 - d1)
    if not np.isfinite(accel):
        return float(e[-1])
    return float(accel)


def hamilton_jacobi_check(ref_sd, phys_sd, obs, eps_list):
    """Cross-check of the density route against the surface-Hamiltonian
    route (slice gauge with the total frame angle), per eps."""
    sides = (ObserverFields(ref_sd, obs), ObserverFields(phys_sd, obs))
    rows = []
    for eps in eps_list:
        density, hamiltonian = [], []
        for fields in sides:
            frame = canonical_frame(fields, eps)
            density.append(sum(_side_terms(fields, frame)))
            hamiltonian.append(_slice_gauge_integral(fields, frame))
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


def _slice_gauge_integral(fields, frame):
    """One side evaluated entirely in the slice gauge, given its canonical
    frame: the frame angle from the slice normal is phi - f and the
    connection form is alpha_nu."""
    sd = fields.sd
    w, fa = _weights(fields.ops, frame)
    q = sd.phi - frame.f
    vals = np.sqrt(frame.gsq + frame.eps**2) * (
        sd.H * np.cosh(q) + sd.trk * np.sinh(q)
    )
    return (float(vals @ w) - fields.ops.dirichlet_pairing(fields.u, q)
            + float(fields.slice_pairing @ fa))


def optimal_frame_gap(sd, obs, eps, trial_frames):
    """Functional gaps of trial frame angles against the canonical frame;
    convexity makes every gap nonnegative up to round-off."""
    fields = ObserverFields(sd, obs)
    base_frame = canonical_frame(fields, eps)
    base = sum(_side_terms(fields, base_frame))
    return [sum(_side_terms(fields, base_frame._replace(f=f))) - base
            for f in trial_frames]


def euler_lagrange_residual(sd, obs, cap_fraction=0.2,
                            mollification_fraction=0.15):
    """Residual of the first-variation equation in u and the point charges
    at the observer extrema.

    The flux |H_vec| cosh(f) grad u / |grad u| + grad f + (gauge vector) has
    distributional divergence 2 pi (delta_min - delta_max) at criticality.
    Charges are area integrals of the discrete divergence over geodesic caps
    of fixed radius cap_fraction * (area radius) around the extremum
    vertices.  Away from the caps the equation only holds against smooth
    test functions, so the interior norm is taken of the residual mollified
    at the fixed physical scale mollification_fraction * (area radius);
    the raw field stays noisy at fourth-difference level by construction.
    """
    fields = ObserverFields(sd, obs)
    u, ops = fields.u, fields.ops
    frame = canonical_frame(fields, 0.0)
    gmag = np.maximum(np.linalg.norm(fields.grad, axis=1), 1e-300)
    coshf_face = ops.face_average(np.cosh(frame.f))
    hvec_face = ops.face_average(sd.field_norm)
    gf = ops.gradient(frame.f)
    flux = (
        (hvec_face * coshf_face / gmag)[:, None] * fields.grad + gf
        + sd.gauge_covector
    )
    residual = ops.divergence(flux)

    vmax = _extremum_vertex(u, np.argmax)
    vmin = _extremum_vertex(u, np.argmin)
    warnings = []
    if (u == u[vmax]).sum() > 1 or (u == u[vmin]).sum() > 1:
        warnings.append("non-unique extremum vertices; smallest index used")

    radius = np.sqrt(ops.total_area / (4.0 * np.pi))
    cap = cap_fraction * radius
    scale = mollification_fraction * radius
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
    graph = coo_matrix(
        (np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n)
    ).tocsr()
    return dijkstra(graph, indices=sources, limit=limit * (1.0 + 1e-9))


def _extremum_vertex(u, arg):
    k = int(arg(u))
    ties = np.flatnonzero(u == u[k])
    return int(ties.min())
