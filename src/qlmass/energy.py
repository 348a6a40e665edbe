"""Observer functions, canonical frames, the Hamiltonian side integrals,
and the regularized quasi-local energy.

Both sides of the energy (reference and physical) are reduced to the same
SurfaceData form: a surface geometry plus the mean curvature vector norm,
its slice-gauge decomposition (H, trK), and the connection 1-form pairings
on edges.  All integrals reduce over a fixed vertex order, so results are
bit-stable.
"""

import csv
import json

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve


class EnergyError(RuntimeError):
    """Raised for degenerate frames or invalid observer input."""


class Observer:
    """Null observer restricted to the surface: u = -t + a.x.

    Attributes
    ----------
    a : unit 3-vector.
    uA : per-vertex observer function from the embedding.
    embedding : the EmbeddingResult supplying positions and times.
    """

    def __init__(self, embedding, a):
        a = np.asarray(a, dtype=float)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise EnergyError("observer direction must be nonzero")
        if abs(norm - 1.0) > 1e-6:
            raise EnergyError(f"observer direction far from unit: |a| = {norm}")
        self.a = a / norm
        self.embedding = embedding
        self.uA = -embedding.times + embedding.positions @ self.a


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
        return cls(bd.geom.ops, bd.H, -bd.trk, -bd.alpha_edge_values(),
                   name=bd.name)

    @classmethod
    def from_embedding(cls, emb):
        from .embedding import reference_data

        ref = reference_data(emb)
        return cls(emb.ops, ref.H0, np.zeros(len(ref.H0)), None,
                   name="reference")

    def gauge_edge_values(self):
        """Pairings of the connection form in the mean-curvature gauge:
        alpha_nu minus the differential of the frame angle phi."""
        i, j = self.mesh.edges[:, 0], self.mesh.edges[:, 1]
        return self.alpha_edges - (self.phi[j] - self.phi[i])


class FrameField:
    """Hyperbolic frame angle measured from the mean-curvature gauge.

    canonical_frame also sets gsq, the vertex-averaged squared observer
    gradient over the faces outside mask (shared by every frame with the
    same mask), dead_vertices and critical_fraction.
    """

    def __init__(self, f, eps, mask=None):
        self.f = np.asarray(f, dtype=float)
        self.eps = float(eps)
        self.mask = mask


def _vertex_grad_sq(ops, u, face_mask=None):
    """Vertex-averaged squared gradient magnitude, optionally ignoring
    masked faces."""
    g = ops.gradient(u)
    gsq = np.einsum("fk,fk->f", g, g)
    w = ops.face_areas.copy()
    if face_mask is not None:
        w[face_mask] = 0.0
    num = np.bincount(
        ops.mesh.faces.ravel(),
        weights=np.repeat(w * gsq, 3) / 3.0,
        minlength=ops.mesh.n_vertices,
    )
    den = np.bincount(
        ops.mesh.faces.ravel(),
        weights=np.repeat(w, 3) / 3.0,
        minlength=ops.mesh.n_vertices,
    )
    out = np.zeros(ops.mesh.n_vertices)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return np.maximum(out, 0.0), ~ok


def canonical_frame(sd, obs, eps, threshold_fraction=1e-3):
    """Energy-minimizing frame angle from the mean-curvature gauge:
    sinh f = laplace(u) / (|H_vec| sqrt(|grad u|^2 + eps^2)).

    With eps = 0 the critical set is masked and f set to zero there.
    """
    u = obs.uA
    ops = sd.ops
    if eps < 0:
        raise EnergyError("eps must be nonnegative")
    lap = ops.laplace(u)
    if eps == 0.0:
        face_mask, frac = ops.critical_set_mask(u, threshold_fraction)
        gsq, dead = _vertex_grad_sq(ops, u, face_mask)
        if np.any(sd.field_norm[~dead] < 1e-14):
            raise EnergyError("degenerate mean curvature vector on the "
                              "unmasked set")
        f = np.zeros(len(u))
        live = ~dead & (gsq > 0.0)
        f[live] = np.arcsinh(
            lap[live] / (sd.field_norm[live] * np.sqrt(gsq[live]))
        )
        frame = FrameField(f, eps, mask=face_mask)
        frame.gsq = gsq
        frame.dead_vertices = dead | (gsq <= 0.0)
        frame.critical_fraction = frac
        return frame
    gsq, _ = _vertex_grad_sq(ops, u)
    if np.any(sd.field_norm < 1e-14):
        raise EnergyError("degenerate mean curvature vector")
    f = np.arcsinh(lap / (sd.field_norm * np.sqrt(gsq + eps**2)))
    frame = FrameField(f, eps, mask=None)
    frame.gsq = gsq
    frame.dead_vertices = np.zeros(len(u), dtype=bool)
    frame.critical_fraction = 0.0
    return frame


def _side_terms(sd, obs, frame):
    """The three integrals of one side: (sqrt term, frame-gradient term by
    parts, gauge term); masked vertices and faces carry zero weight."""
    u = obs.uA
    ops = sd.ops
    w = ops.vertex_areas.copy()
    w[frame.dead_vertices] = 0.0
    sqrt_vals = (np.sqrt(frame.gsq + frame.eps**2) * sd.field_norm
                 * np.cosh(frame.f))
    sqrt_int = float(sqrt_vals @ w)
    grad_int = ops.dirichlet_pairing(u, frame.f)
    gu = ops.gradient(u)
    gauge_cov = ops.face_covector(sd.gauge_edge_values())
    pair = ops.pair_fields(gauge_cov, gu)
    fa = ops.face_areas.copy()
    if frame.mask is not None:
        fa[frame.mask] = 0.0
    gauge_int = float(pair @ fa)
    return sqrt_int, grad_int, gauge_int


def side_integral(sd, obs, eps, frame=None, threshold_fraction=1e-3):
    """Total Hamiltonian integral of one side, canonical frame by default."""
    if frame is None:
        frame = canonical_frame(sd, obs, eps, threshold_fraction)
    return sum(_side_terms(sd, obs, frame)), frame


class EnergyReport:
    """Energy evaluation record; E = reference_term - physical_term."""

    def __init__(self, E, reference_term, physical_term, term_breakdown,
                 eps_sequence, critical_area_fraction,
                 admissible_flag="unchecked", warnings=None, context=None):
        self.E = E
        self.reference_term = reference_term
        self.physical_term = physical_term
        self.term_breakdown = term_breakdown
        self.eps_sequence = eps_sequence
        self.critical_area_fraction = critical_area_fraction
        self.admissible_flag = admissible_flag
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
            "admissibleFlag": self.admissible_flag,
            "warnings": self.warnings,
            "context": self.context,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def default_eps_list(sd, obs, n=7):
    """Geometric sequence 1e-1 .. 1e-4 times the mean gradient scale."""
    gsq, _ = _vertex_grad_sq(sd.ops, obs.uA)
    scale = float(np.sqrt(gsq).mean())
    return list(scale * np.logspace(-1, -4, n))


def energy(ref_sd, phys_sd, obs, eps_list=None, mode="explicit",
           threshold_fraction=1e-3, context=None):
    """Quasi-local energy of the observer.

    mode "explicit" evaluates the limit formula on the complement of the
    critical set; mode "epsLimit" extrapolates the regularized sequence;
    mode "both" reports the explicit value with the sequence attached and
    warns when the routes disagree beyond the discretization estimate.
    """
    if ref_sd.mesh.n_vertices != phys_sd.mesh.n_vertices:
        raise EnergyError("reference and physical data on different meshes")
    warnings = []
    eps_sequence = []

    frame_r = canonical_frame(ref_sd, obs, 0.0, threshold_fraction)
    frame_p = canonical_frame(phys_sd, obs, 0.0, threshold_fraction)
    terms_r = _side_terms(ref_sd, obs, frame_r)
    terms_p = _side_terms(phys_sd, obs, frame_p)
    breakdown = {"reference": list(terms_r), "physical": list(terms_p)}
    ref_term = sum(terms_r) / (8.0 * np.pi)
    phys_term = sum(terms_p) / (8.0 * np.pi)
    e_explicit = ref_term - phys_term
    crit_frac = max(frame_r.critical_fraction, frame_p.critical_fraction)

    e_val = e_explicit
    if mode in ("epsLimit", "both"):
        if eps_list is None:
            eps_list = default_eps_list(ref_sd, obs)
        for eps in eps_list:
            r, _ = side_integral(ref_sd, obs, eps)
            p, _ = side_integral(phys_sd, obs, eps)
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
    rows = []
    for eps in eps_list:
        ea = 0.0
        eb = 0.0
        scale = 0.0
        for sign, sd in ((1.0, ref_sd), (-1.0, phys_sd)):
            a, frame = side_integral(sd, obs, eps)
            b = _slice_gauge_integral(sd, obs, frame)
            ea += sign * a
            eb += sign * b
            scale = max(scale, abs(a), abs(b))
        ea /= 8.0 * np.pi
        eb /= 8.0 * np.pi
        denom = max(scale / (8.0 * np.pi), 1e-30)
        rows.append({
            "eps": float(eps),
            "densityRoute": ea,
            "hamiltonianRoute": eb,
            "relDifference": abs(ea - eb) / denom,
        })
    return rows


def _slice_gauge_integral(sd, obs, frame):
    """One side evaluated entirely in the slice gauge, given its canonical
    frame: the frame angle from the slice normal is phi - f and the
    connection form is alpha_nu."""
    u = obs.uA
    ops = sd.ops
    q = sd.phi - frame.f
    vals = np.sqrt(frame.gsq + frame.eps**2) * (
        sd.H * np.cosh(q) + sd.trk * np.sinh(q)
    )
    w = ops.vertex_areas.copy()
    w[frame.dead_vertices] = 0.0
    total = float(vals @ w)
    total -= ops.dirichlet_pairing(u, q)
    gu = ops.gradient(u)
    cov = ops.face_covector(sd.alpha_edges)
    pair = ops.pair_fields(cov, gu)
    fa = ops.face_areas.copy()
    if frame.mask is not None:
        fa[frame.mask] = 0.0
    total += float(pair @ fa)
    return total


def optimal_frame_gap(sd, obs, eps, trial_frames):
    """Functional gaps of trial frame angles against the canonical frame;
    convexity makes every gap nonnegative up to round-off."""
    base_frame = canonical_frame(sd, obs, eps)
    base = sum(_side_terms(sd, obs, base_frame))
    gaps = []
    for f in trial_frames:
        trial = FrameField(np.asarray(f, dtype=float), eps,
                           mask=base_frame.mask)
        trial.gsq = base_frame.gsq
        trial.dead_vertices = base_frame.dead_vertices
        gaps.append(sum(_side_terms(sd, obs, trial)) - base)
    return gaps


def euler_lagrange_residual(sd, obs, threshold_fraction=1e-3,
                            cap_fraction=0.2, mollification_fraction=0.15):
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
    u = obs.uA
    ops = sd.ops
    frame = canonical_frame(sd, obs, 0.0, threshold_fraction)
    gu = ops.gradient(u)
    gmag = np.linalg.norm(gu, axis=1)
    gmag = np.maximum(gmag, 1e-300)
    coshf_face = ops.face_average(np.cosh(frame.f))
    hvec_face = ops.face_average(sd.field_norm)
    gf = ops.gradient(frame.f)
    gauge_cov = ops.face_covector(sd.gauge_edge_values())
    flux = (
        (hvec_face * coshf_face / gmag)[:, None] * gu + gf + gauge_cov
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


def write_sweep_csv(path, rows):
    """Observer sweep table: a_x,a_y,a_z,E,refTerm,physTerm,criticalFraction."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["a_x", "a_y", "a_z", "E", "refTerm", "physTerm",
             "criticalFraction"]
        )
        for a, rep in rows:
            writer.writerow([
                f"{a[0]:.17g}", f"{a[1]:.17g}", f"{a[2]:.17g}",
                f"{rep.E:.17g}", f"{rep.reference_term:.17g}",
                f"{rep.physical_term:.17g}",
                f"{rep.critical_area_fraction:.17g}",
            ])
