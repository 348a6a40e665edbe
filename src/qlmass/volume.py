"""Tetrahedral fill-in meshes, the regularized spacetime-harmonic
Dirichlet problem, the level-set integral identity, and admissibility
verdicts.

The volume machinery is P1 finite elements on tetrahedra: stiffness
matrices carry the inverse metric at tet centroids, so linear solutions
of the flat problem are reproduced exactly.  Level-set topology uses
marching tetrahedra and counts the Euler characteristic of the extracted
polygonal complex exactly from its cut-cell counts.
"""

from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .initialdata import (
    _sphere_quadrature,
    central_partials,
    dec_margin,
    fibonacci_directions,
    metric_inverse,
)
from .mesh import expand_ranges, pairs_within, unique_rows
from .operators import gradient_matrix, incidence, stiffness_matrix


class VolumeError(RuntimeError):
    pass


# -- tetrahedral meshes ---------------------------------------------------

def _tet_volumes(vertices, tets):
    a = vertices[tets[:, 1]] - vertices[tets[:, 0]]
    b = vertices[tets[:, 2]] - vertices[tets[:, 0]]
    c = vertices[tets[:, 3]] - vertices[tets[:, 0]]
    return np.einsum("ti,ti->t", np.cross(a, b), c) / 6.0


# smallest dihedral angle, in degrees, that a tet of a volume mesh may have
MIN_DIHEDRAL_DEGREES = 1.0

# vertex triples of the four faces, face m opposite vertex m, ordered so
# that the cross product points outward on a positively oriented tet
_TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def _face_normals(vertices, tets):
    """Outward normals of the four faces per tet, twice the face area
    long, (T, 4, 3), written by component as np.cross forms them."""
    x, y, z = (c[tets] for c in vertices.T)
    normals = np.empty((len(tets), 4, 3))
    for m, (i, j, k) in enumerate(_TET_FACES):
        ux, uy, uz = x[:, j] - x[:, i], y[:, j] - y[:, i], z[:, j] - z[:, i]
        vx, vy, vz = x[:, k] - x[:, i], y[:, k] - y[:, i], z[:, k] - z[:, i]
        normals[:, m, 0] = uy * vz - uz * vy
        normals[:, m, 1] = uz * vx - ux * vz
        normals[:, m, 2] = ux * vy - uy * vx
    return normals


def _min_dihedral_degrees(normals):
    """Smallest dihedral angle over the mesh, in degrees, from the face
    normals of every tet."""
    normals = normals / np.linalg.norm(normals, axis=2, keepdims=True)
    # dihedral angle along a shared edge is arccos(-n1.n2); the smallest
    # angle corresponds to the largest value of -n1.n2
    largest = -1.0
    for m in range(4):
        for l in range(m + 1, 4):
            cosang = np.einsum("ti,ti->t", normals[:, m], normals[:, l])
            largest = max(largest, float((-cosang).max()))
    return float(np.degrees(np.arccos(np.clip(largest, -1.0, 1.0))))


class VolumeMesh:
    """Conforming tetrahedral mesh with a boundary-face correspondence.

    Attributes
    ----------
    vertices : (N, 3) points; the first boundary vertices coincide with
        the surface mesh vertex order when built by build_fill_in.
    tets : (T, 4) positively oriented vertex quadruples.
    boundary_faces : (F, 3) triangles on the boundary (volume indices).
    boundary_map : (F,) surface-mesh face index per boundary face.
    times : (N,) Minkowski time coordinates (zero unless given, as a
        volume mesh file may); zero on every boundary vertex.
    hat_gradients : (constant gradients of the four hat functions per tet,
        (T, 4, 3), tet volumes), from the face normals, computed when
        first read: only the interior solver and the field recovery read
        them, not level-set topology.
    """

    def __init__(self, vertices, tets, boundary_faces, boundary_map,
                 times=None):
        self.vertices = np.asarray(vertices, dtype=float)
        n = len(self.vertices)
        self.times = np.asarray(np.zeros(n) if times is None else times,
                                dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        self.boundary_faces = np.asarray(boundary_faces, dtype=np.int64)
        self.boundary_map = np.asarray(boundary_map, dtype=np.int64)
        for name, rows in (("tet", tets),
                           ("boundary face", self.boundary_faces)):
            if len(rows) == 0:
                raise VolumeError(f"volume mesh has no {name}s")
            bad = (rows < 0) | (rows >= n)
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                raise VolumeError(f"{name} {i} names vertex {rows[i, j]}, "
                                  f"outside [0, {n})")
        # a vertex of no tet has an empty stiffness row
        unnamed = np.bincount(tets.ravel(), minlength=n) == 0
        if np.any(unnamed):
            raise VolumeError(f"vertex {unnamed.argmax()} is named by no tet")
        if len(self.boundary_map) != len(self.boundary_faces):
            raise VolumeError(
                f"boundary_map has {len(self.boundary_map)} entries for "
                f"{len(self.boundary_faces)} boundary faces")
        bad = ~(np.isfinite(self.vertices).all(axis=1)
                & np.isfinite(self.times))
        if np.any(bad):
            raise VolumeError(f"vertex {np.argmax(bad)} has a non-finite "
                              f"coordinate or time")
        # the reference surface lies in t = 0 (no Wang-Yau lift yet), so a
        # boundary time would reach the verdict but not the energy
        bv = self.boundary_vertices
        timed = bv[self.times[bv] != 0.0]
        if len(timed):
            raise VolumeError(f"boundary vertex {timed[0]} has time "
                              f"{float(self.times[timed[0]])!r}; boundary times "
                              f"must be 0, as on the reference surface")
        vols = _tet_volumes(self.vertices, tets)
        flip = vols < 0.0
        if np.any(flip):
            tets = tets.copy()
            # swapping the first two edge vectors negates their cross
            # product bit for bit, so |vols| is the volume in the stored
            # order, as a mesh rebuilt from these tets computes it
            tets[flip] = tets[flip][:, [0, 2, 1, 3]]
            vols = np.abs(vols)
        if np.any(vols <= 0.0):
            raise VolumeError("degenerate tetrahedra in volume mesh")
        self.tets = tets
        self.tet_volumes = vols
        self.min_dihedral = _min_dihedral_degrees(
            _face_normals(self.vertices, tets))
        if self.min_dihedral < MIN_DIHEDRAL_DEGREES:
            raise VolumeError(
                f"tet quality below floor: min dihedral "
                f"{self.min_dihedral:.2f} deg < {MIN_DIHEDRAL_DEGREES} deg"
            )

    @cached_property
    def hat_gradients(self):
        normals = _face_normals(self.vertices, self.tets)
        return _hat_gradients(normals, self.tet_volumes), self.tet_volumes

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def boundary_vertices(self):
        return np.unique(self.boundary_faces)

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @cached_property
    def topology_arrays(self):
        """Simplices and adjacencies the level-set topology reads: (unique
        edges, unique faces, indices of the interior faces, the two tets
        of each interior face, sorted boundary faces, boundary edges shared
        by two boundary faces, the two boundary faces of each)."""
        tets = self.tets
        edges, _ = unique_rows(np.vstack([
            tets[:, [0, 1]], tets[:, [0, 2]], tets[:, [0, 3]],
            tets[:, [1, 2]], tets[:, [1, 3]], tets[:, [2, 3]],
        ]))
        # tets adjacent through each interior face
        faces, pair_faces, t1, t2 = _shared_pairs(np.vstack([
            tets[:, [1, 2, 3]], tets[:, [0, 2, 3]],
            tets[:, [0, 1, 3]], tets[:, [0, 1, 2]],
        ]), np.tile(np.arange(len(tets)), 4))
        # boundary faces adjacent through each shared boundary edge
        bfaces = np.sort(self.boundary_faces, axis=1)
        bedges, shared, b1, b2 = _shared_pairs(np.vstack([
            bfaces[:, [0, 1]], bfaces[:, [0, 2]], bfaces[:, [1, 2]],
        ]), np.tile(np.arange(len(bfaces)), 3))
        return (edges, faces, pair_faces, t1, t2, bfaces, bedges[shared],
                b1, b2)


# prism splitting: rotate the smallest global index into slot 0, then pick
# the compatible 3-tet pattern (quad diagonals toward smallest vertices)
_PRISM_MAPS = np.array([
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
])
# the two patterns in rotated slots, the first taken when
# min(v1, v5) < min(v2, v4)
_PRISM_SPLITS = np.array([
    [(0, 1, 2, 5), (0, 1, 5, 4), (0, 4, 5, 3)],
    [(0, 1, 2, 4), (0, 4, 2, 5), (0, 4, 5, 3)],
])


def _split_prism(ids):
    """Split prisms (rows bottom i0,i1,i2; top i3,i4,i5 with i3 above i0)
    into three tets each, compatibly with neighboring prisms: (P, 6) or
    one 6-tuple -> (3P, 4), prism by prism."""
    prisms = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    v = np.take_along_axis(prisms, _PRISM_MAPS[prisms.argmin(axis=1)],
                           axis=1)
    second = np.minimum(v[:, 1], v[:, 5]) >= np.minimum(v[:, 2], v[:, 4])
    rows = np.arange(len(v))[:, None, None]
    return v[rows, _PRISM_SPLITS[second.astype(np.intp)]].reshape(-1, 4)


def build_fill_in(emb, mesh=None, layers=8):
    """Star-shaped tetrahedral fill-in by radial coning to the centroid.

    Accepts an embedding result or explicit positions with their `mesh`.
    Interior vertices sit on graded scaled copies of the boundary: shells
    of thickness 1/layers near the boundary, switching to thickness
    proportional to the distance from the centroid once that is smaller
    (which keeps tet shapes bounded), and the last shell cones to the
    centroid.  Boundary vertex indices coincide with the surface mesh
    vertex order.
    """
    if mesh is None:
        surface, positions = emb.mesh, emb.positions
    else:
        surface, positions = mesh, np.asarray(emb, dtype=float)
    V = len(positions)
    center = positions.mean(axis=0)

    # star-shape test: every boundary face must subtend positive volume
    # from the centroid
    a = positions[surface.faces[:, 0]] - center
    b = positions[surface.faces[:, 1]] - center
    c = positions[surface.faces[:, 2]] - center
    signed = np.einsum("fi,fi->f", np.cross(a, b), c)
    if signed.min() <= 0.0:
        raise VolumeError(
            "boundary is not star-shaped with respect to its centroid; "
            "supply a tetrahedral mesh file instead"
        )

    edge_len = np.linalg.norm(
        positions[surface.edges[:, 0]] - positions[surface.edges[:, 1]],
        axis=1,
    ).mean()
    h_rel = edge_len / np.linalg.norm(positions - center, axis=1).mean()
    t_shell = 1.0 / layers
    fracs = [1.0]
    while True:
        step = min(t_shell, 3.0 * h_rel * fracs[-1])
        nxt = fracs[-1] - step
        if nxt <= t_shell:
            break
        fracs.append(nxt)
    fracs = np.asarray(fracs)
    layers = len(fracs)
    verts = [center + t * (positions - center) for t in fracs]
    vertices = np.vstack(verts + [center])
    center_id = layers * V
    faces = surface.faces
    shells = V * np.arange(layers - 1)[:, None, None]
    prisms = np.concatenate([faces + shells, faces + shells + V], axis=2)
    tets = np.vstack([
        _split_prism(prisms.reshape(-1, 6)),
        np.column_stack([faces + (layers - 1) * V,
                         np.full(len(faces), center_id)]),
    ])

    return VolumeMesh(vertices, tets, faces.copy(), np.arange(len(faces)))


def write_volume_mesh(path, vol):
    """Plain-text node/element lists with the boundary correspondence."""
    with open(path, "w") as fh:
        fh.write(f"vertices {vol.n_vertices}\n")
        for (x, y, z), t in zip(vol.vertices, vol.times):
            fh.write(f"{float(t)!r} {float(x)!r} {float(y)!r} {float(z)!r}\n")
        fh.write(f"tets {vol.n_tets}\n")
        for t in vol.tets:
            fh.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")
        fh.write(f"boundary {len(vol.boundary_faces)}\n")
        for f, m in zip(vol.boundary_faces, vol.boundary_map):
            fh.write(f"{f[0]} {f[1]} {f[2]} {m}\n")


def read_volume_mesh(path):
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0
    sections = []
    for word, dtype in (("vertices", float), ("tets", np.int64),
                        ("boundary", np.int64)):
        try:
            n = int(tokens[pos + 1])
            if tokens[pos] != word or n < 0:
                raise ValueError
            pos += 2 + 4 * n
            sections.append(np.array(tokens[pos - 4 * n:pos],
                                     dtype=dtype).reshape(n, 4))
        except (IndexError, ValueError):
            raise VolumeError(f"malformed volume mesh file: expected "
                              f"`{word} <count>` and that many rows of "
                              f"four numbers") from None
    if pos != len(tokens):
        raise VolumeError("malformed volume mesh file: content after the "
                          "boundary rows")
    data, tets, rows = sections
    vol = VolumeMesh(data[:, 1:], tets, rows[:, :3], rows[:, 3],
                     times=data[:, 0])
    # the boundary rows, as unordered triples, must be the faces of one
    # tet, each once: a built fill-in is right by construction, a file
    # may not be
    n_faces = 4 * vol.n_tets
    keys, inv = unique_rows(np.vstack([
        vol.tets[:, _TET_FACES].reshape(n_faces, 3), vol.boundary_faces]))
    of_tets = np.bincount(inv[:n_faces], minlength=len(keys))
    listed = np.bincount(inv[n_faces:], minlength=len(keys))
    bad = np.flatnonzero(listed != (of_tets == 1))
    if len(bad):
        k = bad[0]
        raise VolumeError(
            f"face {tuple(map(int, keys[k]))} of {of_tets[k]} tet(s) is "
            f"listed {listed[k]} time(s) as a boundary face; the boundary "
            f"faces must be the faces of one tet, each listed once")
    return vol


# -- P1 finite elements ---------------------------------------------------

def _hat_gradients(normals, vols):
    """Constant gradients of the four hat functions per tet, (T, 4, 3),
    made in place from the face normals."""
    normals /= (-6.0 * vols)[:, None, None]
    return normals


def _gradient_and_scatter(tets, grads, n):
    """The P1 gradient operator D, (3T, n), and the vertex x tet
    incidence S, (n, T), of the tets (`gradient_matrix`, `incidence`)."""
    return gradient_matrix(tets, grads, n), incidence(tets, n)


def _jacobi_cg(A, b, x, inv_diag, rtol, maxiter):
    """Conjugate gradients (Hestenes & Stiefel 1952) on the symmetric
    positive definite A with the Jacobi preconditioner z = inv_diag * r,
    from x (left unchanged), stopping once ||r|| < rtol ||b||: the
    recurrence of scipy's `cg` with M = diag(inv_diag), whose iterates and
    counts it reproduces bit for bit.  Returns (x, iterations, whether it
    converged)."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b.copy(), 0, True
    atol = rtol * bnorm
    x = x.copy()
    r = b - A @ x if x.any() else b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration, True
        z = inv_diag * r
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


def _tet_centroids(vol):
    """Centroids of the tets of a volume mesh, (T, 3)."""
    v, t = vol.vertices, vol.tets
    return (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]] + v[t[:, 3]]) / 4.0


def _point_fields(data, points):
    """(g, g^-1, sqrt det g, k) of the data at points; raises unless g is
    positive definite there, by Sylvester's criterion (all three leading
    principal minors positive)."""
    g = data.metric(points)
    ginv, det = metric_inverse(g)
    minor2 = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    if not np.all((g[:, 0, 0] > 0.0) & (minor2 > 0.0) & (det > 0.0)):
        raise VolumeError("metric not positive definite on the volume")
    return g, ginv, np.sqrt(det), data.extrinsic(points)


# Picard loop constants: Anderson mixing depth (Walker & Ni, SINUM 2011),
# the factor of the inexact forcing term (Eisenstat & Walker, SISC 1996),
# the CG stop of every solve that ends the loop (or starts it), and the
# CG iterations after which a solve is redone by sparse LU
ANDERSON_DEPTH = 5
FORCING = 1e-3
EXACT_RTOL = 1e-15
CG_MAXITER = 2000


class SpacetimeHarmonicSolution:
    """Converged Picard solution of the regularized Dirichlet problem.

    `history` holds the fixed-point step max |G(x) - x| of each Picard
    step, `picard_iters` their count.  `cg_iterations` is the total number
    of conjugate gradient iterations over all linear solves and
    `step_cg_iterations` the count of each solve in order (the first
    solve, one per Picard step, and each polish solve); they sum to
    `cg_iterations`.  `anderson_depths` gives, per Picard step, how many
    earlier differences were mixed into the iterate it evaluated.
    `splu_fallbacks` counts the linear solves that did not converge under
    CG and were solved by sparse LU instead.
    """

    def __init__(self, u, residual_norm, delta, history, step_cg_iterations,
                 anderson_depths, splu_fallbacks):
        self.u = u
        self.residual_norm = residual_norm
        self.picard_iters = len(history)
        self.delta = delta
        self.history = history
        self.step_cg_iterations = step_cg_iterations
        self.cg_iterations = sum(step_cg_iterations)
        self.anderson_depths = anderson_depths
        self.splu_fallbacks = splu_fallbacks


def solve_spacetime_harmonic(vol, data, boundary_values, delta=None,
                             tol=1e-10, max_picard=100):
    """Picard iteration for Lap_g u = -(Tr_g k) sqrt(|grad u|^2 + delta^2)
    with Dirichlet boundary trace.

    One Picard step evaluates G(x), the solution of the linear problem
    whose source is taken at the current iterate x, and its fixed-point
    step max |G(x) - x|.  The next iterate is Anderson-mixed (depth
    ANDERSON_DEPTH): G(x) minus the combination of the last differences
    of G whose coefficients best cancel f = G(x) - x against the last
    differences of f in least squares.

    Each linear solve runs conjugate gradients on the fixed metric
    stiffness matrix with the Jacobi (inverse diagonal) preconditioner
    (`_jacobi_cg`), warm-started, with no absolute floor.  The first solve
    starts from the least-squares affine fit c + b.x of the boundary
    values over the boundary vertices: P1 elements reproduce affine
    functions exactly, so on a flat metric with affine boundary values it
    starts at the solution up to rounding.  The solve of a Picard step is
    inexact: it stops at a relative residual of
    max(1e-15, FORCING * min(previous step, 1)).  The first solve (the
    boundary data alone) stops at 1e-15, and the loop ends only on a step
    of at most `tol` that came from a 1e-15 solve.  When a looser solve
    meets `tol`, one polish solve evaluates G at the next iterate to
    1e-15, warm-started from it; the solution is that G if its step is
    at most `tol`, and otherwise the loop goes on.  The polish is not a
    Picard step: it adds nothing to `history`, `picard_iters` or
    `anderson_depths`, and its CG count is the last of
    `step_cg_iterations`.  When Tr k is exactly zero at every tet
    centroid there is no source: the first solve is the solution, with no
    Picard step and one entry in `step_cg_iterations`.  A 1e-12 relative
    stop would leave errors near 2e-12 on linear boundary data, which must
    be reproduced to 1e-12.  A solve that does not converge within
    CG_MAXITER iterations is redone by sparse LU (`splu`, factored at most
    once per call); `splu_fallbacks` on the solution counts those solves.
    """
    boundary_values = np.asarray(boundary_values, dtype=float)
    if not np.all(np.isfinite(boundary_values)):
        raise VolumeError("boundary values must be finite")
    bverts = vol.boundary_vertices
    if len(boundary_values) != len(bverts):
        raise VolumeError("boundary value count does not match the mesh")
    _, ginv, sqrtdet, k = _point_fields(data, _tet_centroids(vol))
    trk = np.einsum("tij,tij->t", ginv, k)
    grads, vols = vol.hat_gradients
    weight = vols * sqrtdet

    n = vol.n_vertices
    D, S = _gradient_and_scatter(vol.tets, grads, n)
    # K = D^T M D, M the blocks weight * g^-1 per tet
    K = stiffness_matrix(D, ((ginv * weight[:, None, None])
                             @ grads.swapaxes(1, 2)).reshape(-1))

    if delta is None:
        rng = float(np.ptp(boundary_values))
        delta = 1e-6 * rng / vol.diameter()
    # the equation is homogeneous of degree one in (u, delta), so it is
    # solved for the boundary values divided by the power of two just
    # above their largest magnitude: that moves no bit of the arithmetic
    # on data of moderate size, and keeps tiny (down to subnormal) or huge
    # data from losing digits to underflow or overflow; Picard steps are
    # measured in the units of u
    exponent = int(np.frexp(np.abs(boundary_values).max(initial=0.0))[1])
    boundary_values = np.ldexp(boundary_values, -exponent)
    scaled_delta = np.ldexp(delta, -exponent)

    free_idx = np.setdiff1d(np.arange(n), bverts)
    u = np.zeros(n)
    u[bverts] = boundary_values
    # CSR: its matvec, the inner loop of CG, beats CSC's on this matrix
    Kff = K[free_idx][:, free_idx]
    Kfb = K[free_idx][:, bverts]

    inv_diag = 1.0 / Kff.diagonal()
    lu = None
    step_cg_iterations = []
    splu_fallbacks = 0

    def linear_solve(rhs, x0, rtol):
        nonlocal lu, splu_fallbacks
        sol, iterations, converged = _jacobi_cg(Kff, rhs, x0, inv_diag, rtol,
                                                CG_MAXITER)
        step_cg_iterations.append(iterations)
        if not converged:
            splu_fallbacks += 1
            if lu is None:
                try:
                    lu = splu(Kff.tocsc())
                except RuntimeError as exc:
                    raise VolumeError(f"linear solve breakdown: {exc}")
            sol = lu.solve(rhs)
        return sol

    def rhs_vector(current):
        du = (D @ current).reshape(-1, 3)
        gnorm = np.sqrt(
            np.einsum("ti,ti->t", du, np.einsum("tij,tj->ti", ginv, du))
            + scaled_delta**2
        )
        return S @ (trk * gnorm * weight / 4.0)

    base = -Kfb @ boundary_values
    history = []
    anderson_depths = []

    def picard(x):
        """G at the accepted iterate of the mixed Picard loop from x."""
        # the last ANDERSON_DEPTH differences of f = G(x) - x and of G(x)
        diff_f, diff_g = [], []
        last = None
        step = np.inf
        polish = False
        while len(history) < max_picard or polish:
            u[free_idx] = x
            rhs = base + rhs_vector(u)[free_idx]
            rtol = (EXACT_RTOL if polish
                    else max(EXACT_RTOL, FORCING * min(step, 1.0)))
            g = linear_solve(rhs, x, rtol)
            step = float(np.ldexp(np.abs(g - x).max(), exponent))
            if not polish:
                history.append(step)
                anderson_depths.append(len(diff_f))
            if step <= tol and rtol == EXACT_RTOL:
                return g
            polish = step <= tol
            f = g - x
            if last is not None:
                diff_f.append(f - last[0])
                diff_g.append(g - last[1])
                if len(diff_f) > ANDERSON_DEPTH:
                    del diff_f[0], diff_g[0]
            last = f, g
            x = g
            if diff_f:
                gamma = np.linalg.lstsq(np.column_stack(diff_f), f,
                                        rcond=None)[0]
                x = g - np.column_stack(diff_g) @ gamma
        raise VolumeError(
            f"Picard iteration did not converge in {max_picard} steps; "
            f"history={['%.3e' % h for h in history]}"
        )

    # the first solve starts from the least-squares affine fit of the
    # boundary values, which P1 elements reproduce exactly
    fit = np.linalg.lstsq(
        np.column_stack([np.ones(len(bverts)), vol.vertices[bverts]]),
        boundary_values, rcond=None)[0]
    first = linear_solve(base, fit[0] + vol.vertices[free_idx] @ fit[1:],
                         EXACT_RTOL)
    # with Tr k = 0 at every centroid there is no source, and the first
    # solve is the solution
    u[free_idx] = picard(first) if trk.any() else first
    residual = K @ u - rhs_vector(u)
    residual_norm = float(np.ldexp(np.abs(residual[free_idx]).max(),
                                   exponent))
    # in place: a new array here raised the peak memory of a following
    # solve by 4 MiB (heap fragmentation)
    np.ldexp(u, exponent, out=u)
    return SpacetimeHarmonicSolution(u, residual_norm, delta, history,
                                     step_cg_iterations, anderson_depths,
                                     splu_fallbacks)


def recovered_fields(vol, u):
    """Per-tet P1 gradients of u and the recovered fields: (per-tet
    gradients, vertex gradients (volume-weighted averages), per-tet and
    vertex symmetric coordinate Hessians from the gradient of the vertex
    gradients, tet volumes)."""
    grads, vols = vol.hat_gradients
    D, S = _gradient_and_scatter(vol.tets, grads, vol.n_vertices)
    total = (S @ vols)[:, None]
    du = (D @ u).reshape(-1, 3)
    dU = S @ (vols[:, None] * du) / total
    hess = (D @ dU).reshape(-1, 3, 3)
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    hess_v = S @ (vols[:, None, None] * hess).reshape(-1, 9) / total
    return du, dU, hess, hess_v.reshape(-1, 3, 3), vols


# -- level-set topology ---------------------------------------------------

class LevelSetTopology:
    """Marching-tetrahedra topology of the level sets u = s of a volume
    field for the ascending levels s.

    chi, the Euler characteristic of each level (V - E + F over cut edges,
    cut faces, cut tets), is counted on construction; n_components (its
    connected pieces) and boundary_components (its trace curves on the
    volume boundary) each build their component graph when first read.
    """

    def __init__(self, vol, u, levels):
        self.vol, self.levels = vol, np.asarray(levels, dtype=float)
        if np.any(np.diff(self.levels) < 0.0):
            raise VolumeError("level-set topology needs ascending levels")
        self.u_min, self.u_max = float(np.min(u)), float(np.max(u))
        # always empty: no level is moved off a vertex value, since the
        # rank rule counts u = s as below s; kept while the benchmark's
        # tracer reads it for its nudged-level count
        self.notes = []
        self._rank = np.searchsorted(self.levels, u)
        edges, faces, *_ = vol.topology_arrays
        self.chi = (self._cut(edges) - self._cut(faces)
                    + self._cut(vol.tets))

    def _cut(self, simplices):
        """Number of the simplices cut at each level."""
        n = len(self.levels) + 1
        first, stop = _cut_ranges(self._rank, simplices)
        return np.cumsum(np.bincount(first, minlength=n)
                         - np.bincount(stop, minlength=n))[:-1]

    @cached_property
    def n_components(self):
        """Surface pieces: cut tets linked through cut interior faces."""
        _, faces, pair_faces, t1, t2, *_ = self.vol.topology_arrays
        return _components_per_level(
            *_cut_ranges(self._rank, self.vol.tets), t1, t2,
            *_cut_ranges(self._rank, faces[pair_faces]), len(self.levels))

    @cached_property
    def boundary_components(self):
        """Trace curves: cut boundary faces linked through cut boundary
        edges."""
        *_, bfaces, bshared, b1, b2 = self.vol.topology_arrays
        return _components_per_level(
            *_cut_ranges(self._rank, bfaces), b1, b2,
            *_cut_ranges(self._rank, bshared), len(self.levels))

    @property
    def ds(self):
        return (self.u_max - self.u_min) / len(self.levels)

    def coarea_integral(self):
        """Midpoint-rule integral of chi over the field range."""
        return float(self.chi.sum() * self.ds)


def _shared_pairs(raw, owner):
    """Unique sub-simplices of the rows of raw, row r being a sub-simplex
    of the simplex owner[r], and the owners that share one: (unique
    sub-simplices, indices of those shared by exactly two owners, first
    owner, second owner)."""
    keys, inv = unique_rows(raw)
    kown = owner[np.argsort(inv, kind="stable")]
    counts = np.bincount(inv, minlength=len(keys))
    pairs = np.flatnonzero(counts == 2)
    starts = (np.cumsum(counts) - counts)[pairs]
    return keys, pairs, kown[starts], kown[starts + 1]


def _cut_ranges(rank, simplices):
    """Index range [first, stop) of the ascending levels s that cut each
    simplex, from the count rank[v] of levels below u[v]: min u <= s <
    max u over its vertices, so that u > s at some but not all of them."""
    first = stop = rank[simplices[:, 0]]
    for j in range(1, simplices.shape[1]):
        col = rank[simplices[:, j]]
        first, stop = np.minimum(first, col), np.maximum(stop, col)
    return first, stop


def _components_per_level(first, stop, a, b, link_first, link_stop,
                          n_levels):
    """Connected components at each level of the simplices cut there,
    simplices a[j] and b[j] being linked at the levels that cut link j:
    one graph whose nodes are the (simplex, level) pairs."""
    # every (simplex, level) pair, simplex by simplex
    _, level, node0 = expand_ranges(first, stop)
    j, k, _ = expand_ranges(link_first, link_stop)
    graph = csr_matrix((np.ones(len(j)), (node0[a[j]] + k, node0[b[j]] + k)),
                       shape=(len(level), len(level)))
    n_comp, labels = connected_components(graph, directed=False)
    comp_level = np.empty(n_comp, dtype=np.int64)
    comp_level[labels] = level
    return np.bincount(comp_level, minlength=n_levels)


def level_set_topology(vol, u, n_levels=64):
    """Marching-tetrahedra topology of the level sets of u at the
    midpoints of `n_levels` equal bins of its range.  A level that equals
    a vertex value needs no moving: the rank rule counts u = s as below s,
    which gives the level set just above s."""
    if n_levels < 1:
        raise VolumeError(
            f"level-set topology needs at least one level, got {n_levels}")
    u = np.asarray(u, dtype=float)
    if not 0.0 < np.ptp(u) < np.inf:
        raise VolumeError("level sets need a finite non-constant field")
    u_min = float(u.min())
    ds = (float(u.max()) - u_min) / n_levels
    return LevelSetTopology(vol, u, u_min + (np.arange(n_levels) + 0.5) * ds)


# -- admissibility --------------------------------------------------------

def admissibility_verdict(fill_in, obs, physical=None, n_levels=64):
    """Compares the Euler characteristic of each sampled fill-in level of
    the observer function against its boundary-trace component count; the
    verdict is admissible only if they agree at every level.  When the
    physical volume solution is supplied, the generalized integral
    criterion (the coarea integral of the characteristic difference being
    nonnegative) is evaluated as well.
    """
    if fill_in is None:
        return {"verdict": "unchecked", "generalizedIntegral": None}
    uhat = -fill_in.times + fill_in.vertices @ obs.a
    topo = level_set_topology(fill_in, uhat, n_levels)
    admissible = np.array_equal(topo.chi, topo.boundary_components)
    report = {
        "verdict": "admissible" if admissible else "not admissible",
        "generalizedIntegral": None,
        "fillInTopology": topo,
    }
    if physical is not None:
        ptopo = level_set_topology(physical["vol"], physical["u"], n_levels)
        integral = topo.coarea_integral() - ptopo.coarea_integral()
        report["generalizedIntegral"] = integral
        report["generalizedNonnegative"] = bool(integral >= -1e-12 * max(
            1.0, abs(topo.coarea_integral())
        ))
        report["physicalTopology"] = ptopo
    return report


# -- exactly harmonic smooth representatives -------------------------------

# the representative phi(r) P(x) has a polynomial P of degree <= 8 and is
# evaluated _CHUNK points at a time; its bulk terms take Gauss rules on the
# ball: BALL_ANGLES in angle, BALL_GAUSS nodes on BALL_PANELS + 1 r-panels
_FIT_DEGREE = 8
_CHUNK = 8192
BALL_ANGLES = (24, 48)
BALL_PANELS = 10
BALL_GAUSS = 10

# exponents of the 165 monomials of degree <= 8, one row each
_EXPONENTS = np.array([e for e in np.ndindex((_FIT_DEGREE + 1,) * 3)
                       if sum(e) <= _FIT_DEGREE])

# the six Hessian columns (xx, xy, xz, yy, yz, zz) of the coefficient
# matrix as a symmetric 3 x 3 index
_HESSIAN = 4 + np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _derivative_matrices():
    """(3, 165, 165): matrix i maps the monomial coefficients of a
    polynomial to those of its x_i derivative."""
    index = np.zeros((_FIT_DEGREE + 1,) * 3, dtype=np.int64)
    index[tuple(_EXPONENTS.T)] = np.arange(len(_EXPONENTS))
    D = np.zeros((3, len(_EXPONENTS), len(_EXPONENTS)))
    for i, step in enumerate(np.eye(3, dtype=np.int64)):
        cols = np.flatnonzero(_EXPONENTS[:, i])
        lower = _EXPONENTS[cols] - step
        D[i, index[tuple(lower.T)], cols] = _EXPONENTS[cols, i]
    return D


def _monomials(y):
    """The 165 monomials of degree <= 8 at points y, (165, N), from one
    power ladder (powers 0 to 8 of each coordinate)."""
    pw = np.ones((_FIT_DEGREE + 1, 3, len(y)))
    pw[1:] = y.T
    pw = np.cumprod(pw, axis=0)
    e = _EXPONENTS
    return pw[e[:, 0], 0] * pw[e[:, 1], 1] * pw[e[:, 2], 2]


def _conformal_structure(data, radius):
    """(a, b) such that g = psi^4 delta with psi = a + b/r on the ball of
    the radius, for time-symmetric data; flat data without a
    conformal_factor give (1, 0).

    Such data are vacuum (psi is flat-harmonic), and u is g-harmonic
    exactly when psi u is flat-harmonic.  a and b come from
    conformal_factor at the smallest and largest of five radii, and psi
    must equal a + b/r at all five and be positive on the ball; any other
    data raise VolumeError.
    """
    r = radius * np.array([0.05, 0.2, 0.45, 0.7, 1.0])
    dirs = fibonacci_directions(8)
    pts = (r[:, None, None] * dirs).reshape(-1, 3)
    if np.abs(data.extrinsic(pts)).max() > 1e-13:
        raise VolumeError("harmonic basis needs time-symmetric data")
    conformal_factor = getattr(data, "conformal_factor", np.ones_like)
    psi = np.asarray(conformal_factor(r), dtype=float)
    b = (psi[0] - psi[-1]) / (1.0 / r[0] - 1.0 / r[-1])
    a = psi[-1] - b / r[-1]
    if (np.abs(a + b / r - psi).max() > 1e-12 * np.abs(psi).max()
            or b < 0.0 or psi[-1] <= 0.0):
        raise VolumeError(
            "harmonic basis needs a conformal factor a + b/r with b >= 0, "
            "positive on the ball"
        )
    model = np.repeat(psi**4, len(dirs))[:, None, None] * np.eye(3)
    if np.abs(data.metric(pts) - model).max() > 1e-10 * model.max():
        raise VolumeError("harmonic basis needs the metric psi^4 delta")
    return float(a), float(b)


class HarmonicRepresentative:
    """Least-squares fit of a volume solution by u = P / psi, with P one
    harmonic polynomial of degree <= 8 and psi = a + b/r the conformal
    factor of time-symmetric vacuum data g = psi^4 delta (a = 1, b = 0
    for flat data).

    Since Lap_g u = psi^-5 (Lap(psi u) - u Lap psi) and Lap psi = 0, u
    solves the spacetime-harmonic equation exactly.  The integral identity
    is a theorem about smooth solutions; evaluating its terms on this
    representative keeps the inequality direction intact up to quadrature
    error, which pointwise recovery from the finite element solution
    cannot do.

    Points are scaled by the fill-in radius, y = x / length.  P is fitted
    in the harmonic subspace of the monomials of y; its value, gradient
    and Hessian are one monomial table times the (165, 10) matrix
    `columns` of their monomial coefficients.
    """

    def __init__(self, data, vol, u):
        self.length = float(np.linalg.norm(vol.vertices, axis=1).max())
        self.a, self.b = _conformal_structure(data, self.length)
        D = _derivative_matrices()
        # orthonormal coefficient basis of the kernel of the Laplacian
        basis = null_space(np.einsum("iab,ibc->ac", D, D))
        y = vol.vertices / self.length
        A = self._radial(y)[0][:, None] * (basis.T @ _monomials(y)).T
        w = incidence(vol.tets, vol.n_vertices) @ (vol.tet_volumes / 4.0)
        sw = np.sqrt(w)
        coefs, *_ = np.linalg.lstsq(A * sw[:, None], np.asarray(u) * sw,
                                    rcond=None)
        resid = A @ coefs - u
        self.fit_rms = float(np.sqrt(np.sum(w * resid**2) / w.sum()))
        value = basis @ coefs
        iu, ju = np.triu_indices(3)
        self.columns = np.column_stack(
            [value, *(D @ value), *(D[iu] @ D[ju] @ value)])

    def _radial(self, y):
        """phi = 1/psi at scaled points y and the factors phi'/rho and
        (phi'' - phi'/rho)/rho^2 of its derivatives, rho = |y|."""
        beta = self.b / self.length
        rho = np.maximum(np.linalg.norm(y, axis=1), 1e-30)
        s = self.a * rho + beta
        return (rho / s, beta / (rho * s**2),
                -beta * (3.0 * self.a * rho + beta) / (rho * s) ** 3)

    def _eval_chunk(self, y):
        phi, d1, d2 = self._radial(y)
        vals = (self.columns.T @ _monomials(y)).T
        P, dP, H = vals[:, 0], vals[:, 1:4], vals[:, _HESSIAN]
        yy = y[:, :, None] * y[:, None, :]
        ydP = y[:, :, None] * dP[:, None, :]
        du = (d1 * P)[:, None] * y + phi[:, None] * dP
        hess = ((d2 * P)[:, None, None] * yy
                + d1[:, None, None] * (P[:, None, None] * np.eye(3) + ydP
                                       + np.swapaxes(ydP, 1, 2))
                + phi[:, None, None] * H)
        return phi * P, du / self.length, hess / self.length**2

    def evaluate(self, pts):
        """u, its gradient and its coordinate Hessian at points."""
        y = np.atleast_2d(np.asarray(pts, dtype=float)) / self.length
        parts = [self._eval_chunk(y[s:s + _CHUNK])
                 for s in range(0, len(y), _CHUNK)]
        return tuple(np.concatenate(f) for f in zip(*parts))

    def christoffels(self, pts):
        """Gamma^a_bc of psi^4 delta at points, from
        w = grad log psi^2 = -2 b x / (r^2 (a r + b))."""
        r = np.linalg.norm(pts, axis=1)
        w = (-2.0 * self.b / (r**2 * (self.a * r + self.b)))[:, None] * pts
        # delta_ab w_c + delta_ac w_b - delta_bc w_a
        gamma = np.zeros((len(pts), 3, 3, 3))
        for a in range(3):
            gamma[:, a, a, :] += w
            gamma[:, a, :, a] += w
        for b in range(3):
            gamma[:, :, b, b] -= w
        return gamma


def _newton_steps(jac, rhs, cap, normals=None):
    """Batched Newton steps -jac^-1 rhs (by pseudo-inverse if a matrix is
    singular), less their components along the normals if given, each
    shortened to at most cap."""
    try:
        step = -np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = -np.einsum("nij,nj->ni", np.linalg.pinv(jac), rhs)
    if normals is not None:
        step -= np.einsum("ni,ni->n", step, normals)[:, None] * normals
    norm = np.linalg.norm(step, axis=1)
    big = norm > cap
    step[big] *= (cap / norm[big])[:, None]
    return step


# a Newton search retires a point once its step is below this share of
# the radius: far below the accuracy the critical values are used to, and
# far above the 1e-13 at which steps on rounding-level gradients stall
NEWTON_STOP = 1e-11


def _interior_critical_values(rep, radius, g_scale):
    seeds = [f * radius * fibonacci_directions(48, rotation=f)
             for f in (0.05, 0.2, 0.4, 0.6, 0.8)]
    x = np.vstack(seeds)
    inside = radius * (1.0 - 1e-8)
    active = np.arange(len(x))
    for _ in range(60):
        if len(active) == 0:
            break
        _, gr, hs = rep.evaluate(x[active])
        hs = hs + 1e-12 * g_scale / radius * np.eye(3)
        step = _newton_steps(hs, gr, 0.1 * radius)
        x[active] += step
        # points outside the ball are dropped below, so they stop here
        active = active[(np.linalg.norm(step, axis=1) >= NEWTON_STOP * radius)
                        & (np.linalg.norm(x[active], axis=1) < inside)]
    vals, gr, _ = rep.evaluate(x)
    ok = (np.linalg.norm(gr, axis=1) < 1e-9 * g_scale) \
        & (np.linalg.norm(x, axis=1) < inside)
    return vals[ok]


def _boundary_critical_values(rep, radius, g_scale):
    w = fibonacci_directions(192)
    active = np.arange(len(w))
    for _ in range(80):
        if len(active) == 0:
            break
        wa = w[active]
        _, gr, hs = rep.evaluate(radius * wa)
        nu_g = np.einsum("ni,ni->n", wa, gr)
        tang = gr - nu_g[:, None] * wa
        proj = np.eye(3) - np.einsum("ni,nj->nij", wa, wa)
        jac = radius * np.einsum("nia,nab,nbj->nij", proj, hs, proj) \
            - nu_g[:, None, None] * proj \
            + np.einsum("ni,nj->nij", wa, wa) * radius
        jac += 1e-12 * g_scale * np.eye(3)
        step = _newton_steps(jac, tang, 0.3, normals=wa)
        wa = wa + step
        w[active] = wa / np.linalg.norm(wa, axis=1, keepdims=True)
        # w is a unit direction, so its step is already radius-relative
        active = active[np.linalg.norm(step, axis=1) >= NEWTON_STOP]
    vals, gr, _ = rep.evaluate(radius * w)
    tang = gr - np.einsum("ni,ni->n", w, gr)[:, None] * w
    ok = np.linalg.norm(tang, axis=1) < 1e-9 * g_scale
    return vals[ok]


def _exact_coarea(rep, vol, u_samples, radius):
    """2 pi * integral of chi over the range of the representative, with
    chi piecewise constant between its critical values (located by Newton
    search) and read off from the mesh at interval midpoints."""
    probe = 0.8 * radius * fibonacci_directions(32)
    _, gp, _ = rep.evaluate(probe)
    g_scale = float(np.linalg.norm(gp, axis=1).max())
    bc = _boundary_critical_values(rep, radius, g_scale)
    if len(bc) == 0:
        raise VolumeError("no boundary critical values found")
    ic = _interior_critical_values(rep, radius, g_scale)
    u_min, u_max = float(bc.min()), float(bc.max())
    rng = u_max - u_min
    vals = np.concatenate([[u_min, u_max],
                           bc[(bc > u_min) & (bc < u_max)],
                           ic[(ic > u_min) & (ic < u_max)]])
    vals = np.sort(vals)
    keep = np.concatenate([[True], np.diff(vals) > 1e-10 * rng])
    vals = vals[keep]
    chis = LevelSetTopology(vol, u_samples, 0.5 * (vals[:-1] + vals[1:])).chi
    total = 0.0
    intervals = []
    for lo, hi, chi in zip(vals[:-1], vals[1:], chis):
        total += chi * (hi - lo)
        intervals.append({"lo": float(lo), "hi": float(hi),
                          "chi": int(chi)})
    return 2.0 * np.pi * total, intervals, (u_min, u_max)


# -- the integral identity ------------------------------------------------

def _interpolate_boundary(surface_positions, surface_faces, fields,
                          directions):
    """Linear interpolation of per-vertex fields at boundary directions
    (star-shaped boundary, radial projection onto boundary faces).

    The candidates of a direction are the faces whose direction lies
    within the largest face-to-corner distance of it, a cap that holds
    the radial cone of every face.  Each direction takes the candidate
    nearest it (by face direction, ties by face index) among those whose
    barycentric weights are all at least -1e-12, else the candidate whose
    smallest weight is largest; singular faces are skipped.
    """
    center = surface_positions.mean(axis=0)
    d_verts = surface_positions - center
    d_verts /= np.linalg.norm(d_verts, axis=1, keepdims=True)
    corner_dirs = d_verts[surface_faces]
    face_dirs = corner_dirs.mean(axis=1)
    face_dirs /= np.linalg.norm(face_dirs, axis=1, keepdims=True)
    cap = np.sqrt(((corner_dirs - face_dirs[:, None]) ** 2)
                  .sum(axis=2).max())
    q, f, d2 = pairs_within(face_dirs, cap, directions)
    # one 3 x 3 system per candidate: the corner directions as columns
    tri = np.swapaxes(corner_dirs[f], 1, 2)
    singular = np.linalg.det(tri) == 0.0
    tri[singular] = np.eye(3)
    lam = np.linalg.solve(tri, directions[q][:, :, None])[..., 0]
    lam_min = np.where(singular, -np.inf, lam.min(axis=1))
    inside = lam_min >= -1e-12
    order = np.lexsort((f, np.where(inside, d2, -lam_min), ~inside, q))
    pick = order[np.diff(q[order], prepend=-1) != 0]
    found = np.zeros(len(directions), dtype=bool)
    found[q[pick]] = ~singular[pick]
    if not found.all():
        raise VolumeError(f"no regular boundary face near direction "
                          f"{directions[found.argmin()]}")
    lam = np.clip(lam[pick], 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    corners = surface_faces[f[pick]]
    return [np.einsum("pm,pm...->p...", lam, field[corners])
            for field in fields]


def _boundary_identity_integral(data, radius, solution_fields, delta=0.0):
    """Both boundary integrals of the identity on the coordinate sphere,
    by smooth (48 x 96) quadrature; solution_fields(points) -> (grad u,
    Hess u)."""
    points, wq, st, ct = _sphere_quadrature(radius)
    dU, HU = solution_fields(points)

    gq, ginv_q, _, kq = _point_fields(data, points)
    nu = data.sphere_normal(points)
    Hq = data.sphere_mean_curvature(points)
    trk_full = np.einsum("nij,nij->n", ginv_q, kq)
    k_nn = np.einsum("nij,ni,nj->n", kq, nu, nu)
    trk_surf = trk_full - k_nn

    V = np.einsum("nij,nj->ni", ginv_q, dU)
    gu2 = np.einsum("ni,ni->n", V, dU)
    gu = np.sqrt(gu2 + delta**2)
    nu_u = np.einsum("ni,ni->n", nu, dU)
    W = V - nu_u[:, None] * nu
    w2 = np.maximum(gu2 - nu_u**2, 1e-300)

    term1 = (np.einsum("nij,ni,nj->n", kq, W, nu)
             - gu * Hq - nu_u * trk_surf)

    h_fd = 1e-4 * max(1.0, radius)
    dnu = central_partials(data.sphere_normal, points, h_fd)        # (N, j, i)
    dg = data.metric_derivatives(points)                      # (N, c, a, b)
    dginv = -np.einsum("nia,ncab,nbj->ncij", ginv_q, dg, ginv_q)
    # W(nu(u)) and W(|grad u|^2) from the solution Hessian and analytic
    # derivatives of the normal and inverse metric
    w_nuu = np.einsum("nj,nji,ni->n", W, dnu, dU) \
        + np.einsum("nj,ni,nij->n", W, nu, HU)
    w_gu2 = np.einsum("nj,njab,na,nb->n", W, dginv, dU, dU) \
        + 2.0 * np.einsum("nj,nja,nab,nb->n", W, HU, ginv_q, dU)
    w_w2 = w_gu2 - 2.0 * nu_u * w_nuu
    term2 = (w_nuu - nu_u * w_w2 / (2.0 * w2)) / gu

    phi = np.arctan2(points[:, 1], points[:, 0])
    that = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=-1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros(len(points))],
                    axis=-1)
    e_th = radius * that
    e_ph = radius * st[:, None] * phat
    s11 = np.einsum("ni,nij,nj->n", e_th, gq, e_th)
    s22 = np.einsum("ni,nij,nj->n", e_ph, gq, e_ph)
    s12 = np.einsum("ni,nij,nj->n", e_th, gq, e_ph)
    # area density relative to sin(theta) d theta d phi
    dens = np.sqrt(np.maximum(s11 * s22 - s12**2, 0.0)) / np.maximum(
        st, 1e-300
    )
    return float(((term1 + term2) * dens) @ wq)


def _ball_quadrature(radius):
    """Points and weights for the coordinate ball, radially graded toward
    the center (integrands may be merely Lipschitz at the origin)."""
    dirs, w_ang, _, _ = _sphere_quadrature(1.0, *BALL_ANGLES)
    edges = radius * 2.0 ** -np.arange(BALL_PANELS + 1, dtype=float)
    edges = np.append(edges, 0.0)[::-1]
    nodes, gw = leggauss(BALL_GAUSS)
    # one row of nodes r and weights r^2 dr per radial panel
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
    wr = gw * half * r**2
    pts = (r.reshape(-1)[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = (wr.reshape(-1)[:, None] * w_ang[None, :]).reshape(-1)
    return pts, w


def _harmonic_fit_terms(vol, rep, radius):
    """harmonicFit route: the Euler term by exact coarea between the
    critical values of the fitted representative, the bulk fields on the
    ball quadrature and the boundary fields from the representative."""
    rhs_euler, intervals, u_range = _exact_coarea(
        rep, vol, rep.evaluate(vol.vertices)[0], radius)
    pts, w = _ball_quadrature(radius)
    _, du, hess = rep.evaluate(pts)
    bulk = (pts, w, du, hess, rep.christoffels(pts))
    report = {"method": "harmonicFit", "fitResidual": rep.fit_rms,
              "coareaIntervals": intervals, "range": list(u_range)}
    return (rhs_euler, bulk, lambda points: rep.evaluate(points)[1:], 0.0,
            report)


def _field_recovery_terms(data, vol, sol, radius, n_levels):
    """fieldRecovery route: the Euler term from the sampled level-set
    topology of the finite element solution, the bulk fields per tet and
    the boundary fields interpolated from the recovered vertex fields."""
    nb = len(vol.boundary_vertices)
    if not np.array_equal(vol.boundary_vertices, np.arange(nb)):
        raise VolumeError(
            "identity check expects fill-in-ordered boundary vertices"
        )
    topo = level_set_topology(vol, sol.u, n_levels)
    centroids = _tet_centroids(vol)
    du, dU, hess, hess_v, vols = recovered_fields(vol, sol.u)
    bulk = (centroids, vols, du, hess, data.christoffels(centroids))

    def solution_fields(points):
        return _interpolate_boundary(vol.vertices[:nb], vol.boundary_faces,
                                     (dU[:nb], hess_v[:nb]), points / radius)

    return (2.0 * np.pi * topo.coarea_integral(), bulk, solution_fields,
            sol.delta, {"method": "fieldRecovery"})


def _bulk_terms(data, points, weight, du, hess, gamma, delta):
    """(bulkDirichlet, bulkEnergy) from the gradient and coordinate
    Hessian of u at points with coordinate quadrature weights, and the
    smallest dominant-energy margin mu - |J|_g over the points with the
    first point where it occurs to rounding."""
    _, ginv, sqrtdet, k = _point_fields(data, points)
    weight = weight * sqrtdet
    du_up = np.einsum("nij,nj->ni", ginv, du)
    gnorm = np.sqrt(np.maximum(
        np.einsum("ni,ni->n", du, du_up) + delta**2, 1e-300))
    st_hess = (hess - np.einsum("ncij,nc->nij", gamma, du)
               + k * gnorm[:, None, None])
    hsq = ((ginv @ st_hess @ ginv) * st_hess).sum(axis=(1, 2))
    mu, J = data.constraint_fields(points)
    j_du = np.einsum("ni,ni->n", J, du_up)
    margin = dec_margin(mu, J, ginv)
    # the first point within rounding of the minimum, so that mirror points
    # do not trade places when the points move by rounding
    low = margin.min()
    worst = int(np.argmax(margin <= low + 1e-12 * max(1.0, abs(low))))
    return (float(np.sum(weight * 0.5 * hsq / gnorm)),
            float(np.sum(weight * (mu * gnorm + j_du))),
            float(low), points[worst].tolist())


def integral_identity_check(data, vol, sol, radius, n_levels=64):
    """All terms of the level-set integral identity for a spacetime
    harmonic function on a coordinate-ball volume.

    Returns lhsBoundary (both boundary integrals), rhsEuler (the coarea
    Euler-characteristic term), bulkDirichlet (the spacetime-Hessian
    term), bulkEnergy (the constraint-density term), and
    slack = lhsBoundary + rhsEuler - bulkDirichlet - bulkEnergy, which the
    identity makes nonnegative under the dominant energy condition.  That
    hypothesis is reported beside it: decMargin is the smallest
    mu - |J|_g over the bulk quadrature points, decMarginAt the point.

    For time-symmetric vacuum data g = psi^4 delta with psi = a + b/r
    (flat data included) the terms are evaluated on the fitted smooth
    representative P / psi (method harmonicFit), so the slack carries
    only quadrature error.  Any other data take pointwise recovery from
    the finite element solution (method fieldRecovery), whose slack
    carries discretization error; the report then names the reason under
    harmonicFitUnavailable.
    """
    # each route gives (rhsEuler, the bulk sample for _bulk_terms, the
    # boundary solution fields, delta, its own report keys)
    try:
        rep = HarmonicRepresentative(data, vol, sol.u)
    except VolumeError as exc:
        route = _field_recovery_terms(data, vol, sol, radius, n_levels)
        route[-1]["harmonicFitUnavailable"] = str(exc)
    else:
        route = _harmonic_fit_terms(vol, rep, radius)
    rhs_euler, bulk, solution_fields, delta, extra = route
    bulk_dirichlet, bulk_energy, margin, margin_at = _bulk_terms(
        data, *bulk, delta)
    lhs_boundary = _boundary_identity_integral(data, radius, solution_fields,
                                               delta=delta)
    scale = max(abs(lhs_boundary), abs(rhs_euler), abs(bulk_dirichlet),
                abs(bulk_energy), 1e-30)
    return {
        "lhsBoundary": lhs_boundary,
        "rhsEuler": rhs_euler,
        "bulkDirichlet": bulk_dirichlet,
        "bulkEnergy": bulk_energy,
        "slack": lhs_boundary + rhs_euler - bulk_dirichlet - bulk_energy,
        "scale": scale,
        "decMargin": margin,
        "decMarginAt": margin_at,
        **extra,
    }
