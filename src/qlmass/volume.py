"""Tetrahedral fill-in meshes, the regularized spacetime-harmonic
Dirichlet problem, the level-set integral identity, and admissibility
verdicts.

The volume machinery is P1 finite elements on tetrahedra: stiffness
matrices carry the inverse metric at tet centroids, so linear solutions
of the flat problem are reproduced exactly.  Level-set topology uses
marching tetrahedra and counts the Euler characteristic of the extracted
polygonal complex exactly from its cut-cell counts.  The admissibility of
a linear observer function needs only the boundary surface, whose planar
sections it examines at the critical values.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .config import TOPOLOGY_LEVELS, InputError
from .initialdata import (
    _sphere_quadrature,
    central_partials,
    dec_margin,
    fibonacci_directions,
    metric_inverse,
)
from .mesh import (
    MeshError,
    SurfaceMesh,
    expand_ranges,
    pairs_within,
    unique_rows,
)
from .operators import gradient_matrix, incidence, stiffness_matrix


class VolumeError(RuntimeError, InputError):
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


def _require_one_fan(mesh, names):
    """Raises VolumeError unless the faces around each vertex of the
    closed oriented `SurfaceMesh` form one cycle, naming a pinched vertex
    by its entry of `names`.

    Halfedge k F + f runs from faces[f, k] to faces[f, k + 1]; the
    halfedge after its twin starts at the same vertex, so the orbits of
    that map are the fans of faces around the vertices."""
    F = mesh.n_faces
    pairs = np.argsort(mesh.face_edges.T.ravel(), kind="stable")
    twin = np.empty(3 * F, dtype=np.int64)
    twin[pairs[0::2]], twin[pairs[1::2]] = pairs[1::2], pairs[0::2]
    n_fans, labels = connected_components(csr_matrix(
        (np.ones(3 * F), (np.arange(3 * F), (twin + F) % (3 * F))),
        shape=(3 * F, 3 * F)), directed=False)
    if n_fans != mesh.n_vertices:
        vertex_of = np.empty(n_fans, dtype=np.int64)
        vertex_of[labels] = mesh.faces.T.ravel()
        fans = np.bincount(vertex_of, minlength=mesh.n_vertices)
        v = int(np.argmax(fans > 1))
        raise VolumeError(f"boundary vertex {names[v]} is pinched: its faces "
                          f"form {fans[v]} fans, not one cycle")


class VolumeMesh:
    """Conforming tetrahedral mesh and the closed surface that bounds it,
    the faces of one tet: the `SurfaceMesh` that `build_fill_in` hands in
    as `surface` (its vertex i is volume vertex i), or else the one that
    `_derived_boundary` derives from the tets.

    Attributes
    ----------
    vertices : (N, 3) points.
    tets : (T, 4) positively oriented vertex quadruples.
    times : (N,) Minkowski time coordinates (zero unless given, as a
        volume mesh file may); zero on every boundary vertex.
    boundary_vertices : (B,) ascending volume ids of the vertices of
        `boundary_surface`, a `BoundarySurface`.
    hat_gradients : (constant gradients of the four hat functions per tet,
        (T, 4, 3), tet volumes), from the face normals, computed when
        first read: only the interior solver and the field recovery read
        them, not level-set topology.
    """

    def __init__(self, vertices, tets, times=None, surface=None):
        self.vertices = np.asarray(vertices, dtype=float)
        n = len(self.vertices)
        self.times = np.asarray(np.zeros(n) if times is None else times,
                                dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        if len(tets) == 0:
            raise VolumeError("volume mesh has no tets")
        bad = (tets < 0) | (tets >= n)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise VolumeError(f"tet {i} names vertex {tets[i, j]}, "
                              f"outside [0, {n})")
        # a vertex of no tet has an empty stiffness row
        unnamed = np.bincount(tets.ravel(), minlength=n) == 0
        if np.any(unnamed):
            raise VolumeError(f"vertex {unnamed.argmax()} is named by no tet")
        bad = ~(np.isfinite(self.vertices).all(axis=1)
                & np.isfinite(self.times))
        if np.any(bad):
            raise VolumeError(f"vertex {np.argmax(bad)} has a non-finite "
                              f"coordinate or time")
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
        bv, surface = (self._derived_boundary() if surface is None
                       else (np.arange(surface.n_vertices), surface))
        self.boundary_vertices = bv
        self.boundary_surface = BoundarySurface(self.vertices[bv], surface)
        # the reference surface lies in t = 0 (no Wang-Yau lift yet), so a
        # boundary time would reach the verdict but not the energy
        timed = bv[self.times[bv] != 0.0]
        if len(timed):
            raise VolumeError(f"boundary vertex {timed[0]} has time "
                              f"{float(self.times[timed[0]])!r}; boundary times "
                              f"must be 0, as on the reference surface")

    def _derived_boundary(self):
        """(volume ids of the boundary vertices, the `SurfaceMesh` on them
        of the faces of one tet, each in its tet's outward order); refuses
        a face of more than two tets or of one tet listed twice, and faces
        of one tet that are not closed, oriented and one fan at a vertex."""
        faces, inv, counts = self.face_table
        outer = self.tets[:, _TET_FACES].reshape(-1, 3)[counts[inv] == 1]
        if len(outer) == 0:
            raise VolumeError("volume mesh has no boundary faces")
        # the vertex o opposite tet face 4 t + m is vertex m of tet t; one
        # tet listed twice has 2 (o1^2 + o2^2) = (o1 + o2)^2, exact below 2^21
        opposite = self.tets.ravel().astype(float)
        twice = (2.0 * np.bincount(inv, opposite ** 2)
                 == np.bincount(inv, opposite) ** 2)
        bad = np.flatnonzero((counts > 2) | (counts == 2) & twice)
        if len(bad):
            owners = np.flatnonzero(inv == bad[0]) // 4
            raise VolumeError(
                f"face {tuple(faces[bad[0]].tolist())} belongs to tets "
                f"{', '.join(map(str, owners))}; a face may belong to two "
                f"different tets at most")
        ids = np.unique(outer)
        try:
            mesh = SurfaceMesh(self.vertices[ids], np.searchsorted(ids, outer),
                               names=ids)
        except MeshError as exc:
            raise VolumeError(f"boundary surface: {exc}") from None
        _require_one_fan(mesh, ids)
        return ids, mesh

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

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @cached_property
    def face_table(self):
        """The tet faces hashed once: (unique faces, the unique face of each
        tet face, tet by tet in `_TET_FACES` order, tets per unique face)."""
        faces, inv = unique_rows(self.tets[:, _TET_FACES].reshape(-1, 3))
        return faces, inv, np.bincount(inv, minlength=len(faces))

    @cached_property
    def topology_arrays(self):
        """Simplices and adjacencies that chi and the surface pieces of the
        level-set topology read: (unique edges, unique faces, indices of
        the interior faces, the two tets of each interior face)."""
        tets = self.tets
        edges, _ = unique_rows(np.vstack([
            tets[:, [0, 1]], tets[:, [0, 2]], tets[:, [0, 3]],
            tets[:, [1, 2]], tets[:, [1, 3]], tets[:, [2, 3]],
        ]))
        faces, inv, counts = self.face_table
        # the tet faces grouped by unique face, each group in tet order
        owner = np.argsort(inv, kind="stable") // 4
        pairs = np.flatnonzero(counts == 2)
        starts = (np.cumsum(counts) - counts)[pairs]
        return edges, faces, pairs, owner[starts], owner[starts + 1]


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


def _require_star_shaped(positions, faces):
    """The centroid of the positions; raises VolumeError unless every face
    subtends positive volume from it, which also makes every face
    outward."""
    center = positions.mean(axis=0)
    a = positions[faces[:, 0]] - center
    b = positions[faces[:, 1]] - center
    c = positions[faces[:, 2]] - center
    signed = np.einsum("fi,fi->f", np.cross(a, b), c)
    if signed.min() <= 0.0:
        raise VolumeError(
            "boundary is not star-shaped with respect to its centroid; "
            "supply a tetrahedral mesh file instead"
        )
    return center


def build_fill_in(emb, mesh=None, layers=8):
    """Star-shaped tetrahedral fill-in by radial coning to the centroid.

    Accepts an embedding result or explicit positions with their `mesh`.
    Interior vertices sit on graded scaled copies of the boundary: shells
    of thickness 1/layers near the boundary, switching to thickness
    proportional to the distance from the centroid once that is smaller
    (which keeps tet shapes bounded), and the last shell cones to the
    centroid.  Volume vertex i is vertex i of the surface mesh, which the
    fill-in keeps as its boundary.
    """
    if mesh is None:
        surface, positions = emb.mesh, emb.positions
    else:
        surface, positions = mesh, np.asarray(emb, dtype=float)
    V = len(positions)
    center = _require_star_shaped(positions, surface.faces)

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

    return VolumeMesh(vertices, tets, surface=surface)


def write_volume_mesh(path, vol):
    """Plain text: `vertices <N>` and N rows `t x y z`, then `tets <T>` and
    T rows of four vertex ids; the reader derives the boundary."""
    with open(path, "w") as fh:
        fh.write(f"vertices {vol.n_vertices}\n")
        for (x, y, z), t in zip(vol.vertices, vol.times):
            fh.write(f"{float(t)!r} {float(x)!r} {float(y)!r} {float(z)!r}\n")
        fh.write(f"tets {vol.n_tets}\n")
        for t in vol.tets:
            fh.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")


def read_volume_mesh(path):
    """The `VolumeMesh` of a `write_volume_mesh` file, its boundary
    derived from the tets; a file that is not two such sections raises
    VolumeError, as does every mesh that `VolumeMesh` refuses."""
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0
    sections = []
    for word, dtype in (("vertices", float), ("tets", np.int64)):
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
                          "tet rows")
    data, tets = sections
    return VolumeMesh(data[:, 1:], tets, times=data[:, 0])


# -- P1 finite elements ---------------------------------------------------

def _hat_gradients(normals, vols):
    """Constant gradients of the four hat functions per tet, (T, 4, 3),
    made in place from the face normals."""
    normals /= (-6.0 * vols)[:, None, None]
    return normals


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
    D, S = gradient_matrix(vol.tets, grads, n), incidence(vol.tets, n)
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
    n = vol.n_vertices
    D, S = gradient_matrix(vol.tets, grads, n), incidence(vol.tets, n)
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
    field for the ascending levels s, which are checked on construction.

    Each count is made when first read: chi, the Euler characteristic of
    each level (V - E + F over cut edges, cut faces, cut tets);
    n_components (its connected pieces), from the cut tets; and
    boundary_components (its trace curves), from the loop graph of the
    volume's `boundary_surface`.
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

    def _cut(self, simplices):
        """Number of the simplices cut at each level."""
        n = len(self.levels) + 1
        first, stop = _cut_ranges(self._rank, simplices)
        return np.cumsum(np.bincount(first, minlength=n)
                         - np.bincount(stop, minlength=n))[:-1]

    @cached_property
    def chi(self):
        edges, faces, *_ = self.vol.topology_arrays
        return self._cut(edges) - self._cut(faces) + self._cut(self.vol.tets)

    @cached_property
    def n_components(self):
        """Surface pieces: cut tets linked through cut interior faces."""
        _, faces, pair_faces, t1, t2 = self.vol.topology_arrays
        comp_level = _component_labels(
            *_cut_ranges(self._rank, self.vol.tets), t1, t2,
            *_cut_ranges(self._rank, faces[pair_faces]))[3]
        return np.bincount(comp_level, minlength=len(self.levels))

    @cached_property
    def boundary_components(self):
        """Trace curves: the loops of the boundary surface's cut faces,
        whose vertices are the boundary vertices in ascending order."""
        comp_level = self.vol.boundary_surface.trace_loops(
            self._rank[self.vol.boundary_vertices])[3]
        return np.bincount(comp_level, minlength=len(self.levels))

    @property
    def ds(self):
        return (self.u_max - self.u_min) / len(self.levels)

    def coarea_integral(self):
        """Midpoint-rule integral of chi over the field range."""
        return float(self.chi.sum() * self.ds)


def _cut_ranges(rank, simplices):
    """Index range [first, stop) of the ascending levels s that cut each
    simplex, from the count rank[v] of levels below u[v]: min u <= s <
    max u over its vertices, so that u > s at some but not all of them.
    For the rows of rank (N, V), the ranges of each row's simplices, row
    after row."""
    first = stop = rank.take(simplices[:, 0], axis=-1)
    for j in range(1, simplices.shape[1]):
        col = rank.take(simplices[:, j], axis=-1)
        first, stop = np.minimum(first, col), np.maximum(stop, col)
    return first.ravel(), stop.ravel()


def _component_labels(first, stop, a, b, link_first, link_stop):
    """Connected components of the simplices cut at each level, simplices
    a[j] and b[j] being linked at the levels that cut link j: one graph
    whose nodes are the (simplex, level) pairs, simplex by simplex.
    Returns (simplex, level and component of each node, level of each
    component)."""
    simplex, level, node0 = expand_ranges(first, stop)
    j, k, _ = expand_ranges(link_first, link_stop)
    graph = csr_matrix((np.ones(len(j)), (node0[a[j]] + k, node0[b[j]] + k)),
                       shape=(len(level), len(level)))
    n_comp, labels = connected_components(graph, directed=False)
    comp_level = np.empty(n_comp, dtype=np.int64)
    comp_level[labels] = level
    return simplex, level, labels, comp_level


def level_set_topology(vol, u, n_levels=TOPOLOGY_LEVELS):
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

def _crossings(below, above, u, s, points):
    """Where the level u = s crosses the edges from vertex `below` (u <= s)
    to vertex `above` (u > s): (the end nearer to s in u, the crossing
    less that end, the crossing's rate d/ds).  Only crossed edges are
    divided by."""
    d = (points[above] - points[below]) / (u[above] - u[below])[:, None]
    near = np.where(s - u[below] <= u[above] - s, below, above)
    return near, (s - u[near])[:, None] * d, d


def _critical_gap_levels(u, faces):
    """One level in each gap between consecutive distinct critical values
    of each row of u (N, V) on a closed surface: the midpoint between the
    gap's lower end and the next distinct vertex value.  Vertices are
    ordered by (u, index) (simulation of simplicity, Edelsbrunner & Muecke
    1990); a vertex is critical when the number of its link edges whose
    two ends lie on different sides of it is not 2.  Returns the levels
    row after row, the row of each, and the count (N, V) of the levels of
    a row and the rows before it below each value (u = s is below s)."""
    n, V = u.shape
    order = np.argsort(u, axis=1, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(V), axis=1)
    # the link edge of corner m is (m + 1, m + 2); its ends lie on
    # different sides of m when (m + 1 above m) equals (m above m + 2)
    corner = pos.take(faces, axis=1)
    up = corner[..., [1, 2, 0]] > corner
    hit = np.flatnonzero(up == up[..., [2, 0, 1]])
    changes = np.bincount(faces.ravel()[hit % faces.size]
                          + V * (hit // faces.size), minlength=n * V)
    # the values in ascending order row after row; the first place of each
    # run of equal values in a row, and the runs that hold a critical vertex
    value = np.take_along_axis(u, order, axis=1).ravel()
    new = np.r_[True, value[1:] != value[:-1]]
    new[::V] = True
    runs = np.flatnonzero(new)
    critical = np.take_along_axis(changes.reshape(n, V), order, axis=1) != 2
    k = np.flatnonzero(np.logical_or.reduceat(critical.ravel(), runs))
    # each critical run but the last of its row is the lower end of a gap,
    # whose upper end is the next run
    k = k[:-1][runs[k[1:]] // V == runs[k[:-1]] // V]
    low, high = runs[k], runs[k + 1]
    mid = 0.5 * (value[low] + value[high])
    # between adjacent floats the rank rule still counts u = low as below
    levels = np.where(mid < value[high], mid, value[low])
    # a level lies below the values from the upper end of its gap on
    below = np.bincount(high, minlength=n * V).cumsum().reshape(n, V)
    return levels, low // V, np.take_along_axis(below, pos, axis=1)


class BoundarySurface:
    """A closed surface whose faces point out of the solid it encloses
    (counter-clockwise seen from outside), for the exact admissibility of
    the linear observer functions u = a.x.

    Each level set of u on the solid is the planar section a.x = s, a
    union of discs exactly when none of its boundary loops is a hole.  The
    loops are the cut surface faces, linked through cut shared edges, and
    each face's segment runs along a x n (n the outward normal), which
    leaves the section on its left: a loop is a hole when its signed
    shoelace area about a is <= 0.  Loops and their signs change only at
    critical vertex values of u, so one level per gap between them
    decides every level (the contour-tree argument of Carr, Snoeyink &
    Axen 2003).

    positions : (V, 3) points of the vertices of `mesh`.
    mesh : `SurfaceMesh` of outward faces, which has checked that the
        surface is closed, edge-manifold and consistently oriented; its
        edges and `face_edges` link the trace loops.
    """

    def __init__(self, positions, mesh):
        self.positions, self.mesh, self.faces = positions, mesh, mesh.faces
        # the two faces of each edge, in the order the faces name it
        owner = (np.argsort(mesh.face_edges.T.ravel(), kind="stable")
                 % len(self.faces))
        self._f1, self._f2 = owner[0::2], owner[1::2]

    def trace_loops(self, rank):
        """The loops of the ascending levels s on the surface, from the
        count rank[v] of levels below u at each vertex: cut faces linked
        through cut edges, as `_component_labels` returns them; for rows
        of rank (N, V), with the faces of row i numbered on by i F."""
        shift = len(self.faces) * np.arange(len(np.atleast_2d(rank)))
        f1, f2 = ((f + shift[:, None]).ravel() for f in (self._f1, self._f2))
        return _component_labels(*_cut_ranges(rank, self.faces), f1, f2,
                                 *_cut_ranges(rank, self.mesh.edges))

    def sections(self, a):
        """The level table of the sections a.x = s at the critical-gap
        `levels`, with the counts of `LevelSetTopology` (chi,
        boundary_components, n_components) and the smallest signed loop
        area per level in the plane normal to a (`smallest_loop_area`).  A
        loop that shrinks onto vertices at s has area 0 and is a hole or
        not as the loop just above s is.  For an (N, 3) `a`, the tables of
        its rows, in one pass that takes every product with a row as for
        the row alone, so that each equals the row's own bit for bit."""
        dirs = np.atleast_2d(np.asarray(a, dtype=float))
        n, F = len(dirs), len(self.faces)
        points = np.tile(self.positions, (n, 1))
        u = np.stack([self.positions @ d for d in dirs])
        levels, level_row, rank = _critical_gap_levels(u, self.faces)
        face, level, labels, comp_level = self.trace_loops(rank)
        # the faces' vertices and values numbered on from row to row
        row = face // F
        tri = self.faces[face % F] + len(self.positions) * row[:, None]
        rank, u = rank.ravel(), u.ravel()
        above = rank[tri] > level[:, None]
        after = above[:, [1, 2, 0]]
        rows = np.arange(len(tri))
        # along a x n the segment leaves the edge where u falls through s
        # and enters the one where u rises through it
        down = np.argmax(above & ~after, axis=1)
        up = np.argmax(~above & after, axis=1)
        p_below, p_above = tri[rows, (down + 1) % 3], tri[rows, down]
        q_below, q_above = tri[rows, up], tri[rows, (up + 1) % 3]
        s = levels[level]
        p_near, p, dp = _crossings(p_below, p_above, u, s, points)
        q_near, q, dq = _crossings(q_below, q_above, u, s, points)
        # shoelace terms about a vertex of each loop, each point taken from
        # its edge's end nearer to s: the area does not depend on the
        # origin, its rounding does, and a loop close to a vertex value is
        # small
        origin = np.empty(len(comp_level), dtype=np.int64)
        origin[labels] = p_near
        origin = points[origin[labels]]
        p += points[p_near] - origin
        q += points[q_near] - origin
        # the cut faces of a row are one run
        bounds = np.searchsorted(row, np.arange(n + 1))

        def loop_sums(v, w):
            c = np.cross(v, w)
            return np.bincount(labels, weights=np.concatenate([
                c[i:j] @ d for i, j, d in zip(bounds, bounds[1:], dirs)]),
                minlength=len(comp_level))

        # twice the area of the loops at s + e, a polynomial in e; a level
        # pinned to a vertex value (no float lies between it and the next)
        # can shrink a loop onto vertices, and the rank rule's e > 0 then
        # gives its sign by the first nonzero coefficient
        terms = np.stack([loop_sums(p, q), loop_sums(p, dq)
                          + loop_sums(dp, q), loop_sums(dp, dq)])
        sign = terms[np.argmax(terms != 0.0, axis=0),
                     np.arange(len(comp_level))]
        norm = np.array([np.linalg.norm(d) for d in dirs])
        area = terms[0] / (2.0 * norm[level_row[comp_level]])
        smallest = np.full(len(levels), np.inf)
        np.minimum.at(smallest, comp_level, area)
        loops = np.bincount(comp_level, minlength=len(levels))
        holes = np.bincount(comp_level[sign <= 0.0], minlength=len(levels))
        # every piece of a planar section has one outer loop
        cuts = np.cumsum(np.bincount(level_row, minlength=n))[:-1]
        tables = [SimpleNamespace(levels=s, chi=k - 2 * h,
                                  boundary_components=k, n_components=k - h,
                                  smallest_loop_area=m)
                  for s, k, h, m in zip(*(np.split(x, cuts) for x in (
                      levels, loops, holes, smallest)))]
        return tables if np.ndim(a) == 2 else tables[0]


def star_shaped_surface(positions, mesh):
    """The `BoundarySurface` of a closed surface (positions of the vertices
    of the `SurfaceMesh` mesh) that has no fill-in; it must pass
    `build_fill_in`'s star-shape test, which also makes its faces
    outward."""
    _require_star_shaped(positions, mesh.faces)
    return BoundarySurface(positions, mesh)


def sampled_table(fill_in, a, n_levels=TOPOLOGY_LEVELS):
    """The `level_set_topology` of u = -t + a.x on the fill-in."""
    return level_set_topology(fill_in, -fill_in.times + fill_in.vertices @ a,
                              n_levels)


def admissibility_table(a, fill_in=None, surface=None,
                        n_levels=TOPOLOGY_LEVELS):
    """The route and the level table that decide the admissibility of
    u = -t + a.x on the fill-in or, without one, inside `surface`.  With
    every vertex time 0, u = a.x is linear and its level sets are planar
    sections: the table is `surface.sections(a)` (route "boundary";
    `surface` defaults to the fill-in's).  Otherwise it is the
    marching-tetrahedra table of `n_levels` sampled levels (route
    "sampledTets").  For the rows of an (N, 3) `a`, the list of their
    tables."""
    if fill_in is not None and np.any(fill_in.times):
        tables = [sampled_table(fill_in, row, n_levels)
                  for row in np.atleast_2d(a)]
        return "sampledTets", tables if np.ndim(a) == 2 else tables[0]
    return "boundary", (surface or fill_in.boundary_surface).sections(a)


def verdict_of(table):
    """"admissible" when chi equals the trace-curve count at every level
    of the table, that is when every level set is a union of discs."""
    admissible = np.array_equal(table.chi, table.boundary_components)
    return "admissible" if admissible else "not admissible"


def admissibility_verdict(fill_in, obs, n_levels=TOPOLOGY_LEVELS):
    """The `verdict_of` the fill-in's `admissibility_table` (`route`,
    `levels`), and `fillInTopology`, the table of `n_levels` sampled
    levels on both routes, counted only when read."""
    route, table = admissibility_table(obs.a, fill_in, n_levels=n_levels)
    topo = (table if route == "sampledTets"
            else sampled_table(fill_in, obs.a, n_levels))
    return {"route": route, "verdict": verdict_of(table), "levels": table,
            "fillInTopology": topo}


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
    topo = level_set_topology(vol, sol.u, n_levels)
    centroids = _tet_centroids(vol)
    du, dU, hess, hess_v, vols = recovered_fields(vol, sol.u)
    bulk = (centroids, vols, du, hess, data.christoffels(centroids))
    surface, bv = vol.boundary_surface, vol.boundary_vertices

    def solution_fields(points):
        return _interpolate_boundary(surface.positions, surface.faces,
                                     (dU[bv], hess_v[bv]), points / radius)

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


def require_on_sphere(vol, radius):
    """Raises VolumeError unless every boundary vertex of the fill-in lies
    on the sphere |x| = radius, which the identity integrates over, to
    1e-9 relative."""
    bv = vol.boundary_vertices
    r = np.linalg.norm(vol.vertices[bv], axis=1)
    off = np.flatnonzero(np.abs(r - radius) > 1e-9 * radius)
    if len(off):
        v, rv = bv[off[0]], float(r[off[0]])
        raise VolumeError(f"boundary vertex {v} has |x| = {rv!r}, off the "
                          f"sphere of radius {radius!r} that the identity "
                          f"integrates over (config key `radius`)")


def integral_identity_check(data, vol, sol, radius,
                            n_levels=TOPOLOGY_LEVELS):
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

    The boundary integrals are taken on the sphere |x| = radius, so the
    fill-in must pass `require_on_sphere`.
    """
    require_on_sphere(vol, radius)
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
