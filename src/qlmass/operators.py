"""P1 finite-element operators of triangle surfaces and tetrahedral
fill-ins, and the intrinsic operators of a metric triangle mesh.

Both dimensions share one gradient matrix D (the constant hat gradients
of each cell), one vertex x cell incidence S, and one stiffness D^T M D
with M the per-cell weights.  Surface operators are assembled from
per-edge metric lengths only, so the same machinery serves embedded
surfaces and abstract sphere metrics (e.g. pullbacks of curved-space
coordinate spheres).  The scheme is the standard second-order one: face
gradients in per-face isometric charts, the stiffness D^T A D with A the
face areas (in exact arithmetic the cotangent stiffness, with the
constants in its kernel by construction), mixed Voronoi vertex areas,
and angle-defect Gaussian curvature.
"""

from functools import cached_property

import numpy as np
from scipy import sparse

DEGENERATE_AREA_FRACTION = 1e-14


def gradient_matrix(cells, grads, n):
    """The P1 gradient operator D, (d C x n) CSR, of the (C, k) `cells`
    with constant hat gradients `grads`, (C, k, d): row d c + i holds
    component i of the k hat gradients of cell c, so that
    (D @ u).reshape(C, d) is the gradient of u per cell."""
    C, k, d = grads.shape
    return sparse.csr_matrix((grads.swapaxes(1, 2).reshape(-1),
                              np.repeat(cells, d, axis=0).reshape(-1),
                              np.arange(0, k * d * C + 1, k)),
                             shape=(d * C, n))


def incidence(cells, n):
    """The vertex x cell incidence S, (n, C) CSR: row v has a 1 for each
    cell of v in cell order, so S @ w sums w over the cells of each
    vertex."""
    C, k = cells.shape
    return sparse.csr_matrix((np.ones(k * C), cells.reshape(-1),
                              np.arange(0, k * C + 1, k)),
                             shape=(C, n)).T.tocsr()


def stiffness_matrix(D, weighted):
    """K = D^T M D, (n x n) CSR, from the gradient matrix D and the data
    `weighted` of M D, where M is block diagonal per cell so M D has D's
    sparsity.  The hat functions sum to one, so K 1 = 0: each diagonal
    entry is set to minus the sum of the rest of its row, since the
    rounding of D^T M D in K 1 costs CG iterations on constant data."""
    K = (D.T @ sparse.csr_matrix((weighted, D.indices, D.indptr),
                                 shape=D.shape)).tocsr()
    K.setdiag(0.0)
    K.setdiag(-(K @ np.ones(D.shape[1])))
    return K


class MetricError(ValueError):
    """Raised for metric data violating triangle inequalities or positivity."""


class SurfaceMetric:
    """Per-edge metric lengths, keyed by the mesh edge table."""

    def __init__(self, mesh, edge_lengths):
        edge_lengths = np.asarray(edge_lengths, dtype=float)
        if edge_lengths.shape != (mesh.n_edges,):
            raise MetricError(
                f"expected {mesh.n_edges} edge lengths, got {edge_lengths.shape}"
            )
        if not np.all(np.isfinite(edge_lengths)) or np.any(edge_lengths <= 0):
            raise MetricError("edge lengths must be finite and positive")
        self.mesh = mesh
        self.edge_lengths = edge_lengths

    @classmethod
    def from_positions(cls, mesh, positions):
        """Metric induced by explicit vertex positions in R^3."""
        positions = np.asarray(positions, dtype=float)
        d = positions[mesh.edges[:, 0]] - positions[mesh.edges[:, 1]]
        return cls(mesh, np.linalg.norm(d, axis=1))

    @cached_property
    def ops(self):
        """This metric's OperatorSet, built once for every reader."""
        return OperatorSet(self.mesh, self)


class OperatorSet:
    """Assembled discrete operators; immutable after construction.

    Attributes
    ----------
    face_areas : (F,) metric face areas.
    vertex_areas : (V,) mixed Voronoi areas (circumcentric, clamped at
        obtuse corners).
    D : (2F, V) gradient matrix (`gradient_matrix`) of the P1 hat
        gradients in per-face isometric charts (p0 at the origin, p1 on
        the x-axis); its data is the only copy of them.
    grad_phi : (F, 3, 2) view of D.data: the hat gradient of each corner.
    S : (V, F) vertex x face incidence (`incidence`).
    stiffness : (V, V) D^T A D with A the face areas (`stiffness_matrix`).
    angle_sums : (V,) interior angles summed at each vertex.
    """

    def __init__(self, mesh, metric):
        self.mesh = mesh
        self.metric = metric
        fe = mesh.face_edges
        L = metric.edge_lengths
        l01, l12, l20 = L[fe[:, 0]], L[fe[:, 1]], L[fe[:, 2]]

        x2 = (l01**2 + l20**2 - l12**2) / (2.0 * l01)
        y2sq = l20**2 - x2**2
        if np.any(y2sq <= 0):
            bad = int(np.argmax(y2sq <= 0))
            raise MetricError(f"triangle inequality violated on face {bad}")
        y2 = np.sqrt(y2sq)

        chart = np.zeros((mesh.n_faces, 3, 2))
        chart[:, 1, 0] = l01
        chart[:, 2, 0] = x2
        chart[:, 2, 1] = y2

        areas = 0.5 * l01 * y2
        degen = areas < DEGENERATE_AREA_FRACTION * areas.mean()
        if np.any(degen):
            raise MetricError(f"degenerate face {int(np.argmax(degen))}")
        self.face_areas = areas

        # P1 basis gradients: rotate the opposite edge by +90 deg / (2A)
        e = chart[:, [2, 0, 1]] - chart[:, [1, 2, 0]]
        n = mesh.n_vertices
        self.D = gradient_matrix(
            mesh.faces, e[..., ::-1] * [-1.0, 1.0]
            / (2.0 * areas)[:, None, None], n)
        self.grad_phi = self.D.data.reshape(-1, 2, 3).swapaxes(1, 2)
        self.S = incidence(mesh.faces, n)
        self.stiffness = stiffness_matrix(self.D,
                                          self.D.data * np.repeat(areas, 6))

        # one corner pass: the cotangent at corner a is
        # -2A grad(phi_b).grad(phi_c), the identity behind the cotangent
        # stiffness, and the interior angle its arc cotangent
        cots = -2.0 * areas[:, None] * np.einsum(
            "fak,fak->fa", self.grad_phi[:, [1, 2, 0]],
            self.grad_phi[:, [2, 0, 1]])
        # mixed Voronoi areas (Meyer, Desbrun, Schroeder & Barr 2003),
        # second order at the valence-5 icosphere vertices: each edge
        # gives l^2 cot(opposite corner) / 8 to both ends, and a face with
        # an obtuse corner gives A/2 to that corner and A/4 to the others
        shares = np.column_stack([l12**2, l20**2, l01**2]) * cots / 8.0
        corner_areas = shares[:, [1, 2, 0]] + shares[:, [2, 0, 1]]
        obtuse = cots.min(axis=1) < 0.0
        corner_areas[obtuse] = np.where(
            cots[obtuse] < 0.0, 0.5, 0.25) * areas[obtuse, None]
        faces = mesh.faces.ravel()
        self.vertex_areas = np.bincount(faces, corner_areas.ravel(), n)
        self.angle_sums = np.bincount(faces, np.arctan2(1.0, cots).ravel(),
                                      n)

    # -- core operators -------------------------------------------------

    def gradient(self, u):
        """Per-face gradient of a vertex scalar, in the face chart frame."""
        return (self.D @ np.asarray(u, dtype=float)).reshape(-1, 2)

    def divergence(self, X):
        """Vertex divergence of a per-face tangent field: minus the
        area-weighted adjoint of gradient, -D^T (A X) / vertex areas."""
        X = np.asarray(X, dtype=float) * self.face_areas[:, None]
        return -(self.D.T @ X.ravel()) / self.vertex_areas

    def laplace(self, u):
        """Pointwise Laplace-Beltrami (negative semidefinite, kernel = constants)."""
        return -(self.stiffness @ np.asarray(u, dtype=float)) / self.vertex_areas

    def integrate(self, field):
        """Area integral of a vertex scalar field."""
        field = np.asarray(field, dtype=float)
        if not np.all(np.isfinite(field)):
            raise ValueError(
                f"non-finite field value at vertex {int(np.argmax(~np.isfinite(field)))}"
            )
        return float(field @ self.vertex_areas)

    def dirichlet_pairing(self, u, v):
        """integral of grad(u).grad(v); exact adjoint of -laplace."""
        return float(np.asarray(u) @ (self.stiffness @ np.asarray(v)))

    def face_covector(self, edge_values):
        """Per-face chart components of a covector given its pairings with
        the mesh edges (oriented low index to high index): the gradient of
        the face's P1 potential f0 = 0, f1 = b0, f2 = b0 + b1, with b0 and
        b1 the signed pairings of halfedges 0 (v0 -> v1) and 1 (v1 -> v2).
        The hat gradients sum to zero, so that gradient is
        -b0 grad(phi_0) + b1 grad(phi_2); the third pairing is implied when
        the covector is exact.
        """
        mesh = self.mesh
        edge_values = np.asarray(edge_values, dtype=float)
        f = mesh.faces
        # flip sign when the stored edge orientation (sorted) disagrees
        b0 = np.where(f[:, 0] < f[:, 1], 1.0, -1.0) \
            * edge_values[mesh.face_edges[:, 0]]
        b1 = np.where(f[:, 1] < f[:, 2], 1.0, -1.0) \
            * edge_values[mesh.face_edges[:, 1]]
        return (-b0[:, None] * self.grad_phi[:, 0]
                + b1[:, None] * self.grad_phi[:, 2])

    def pair_fields(self, cov, X):
        """Pointwise pairing of per-face covector and tangent fields."""
        return np.einsum("fk,fk->f", cov, X)

    def face_average(self, u):
        """Mean of the three vertex values on each face."""
        return np.asarray(u, dtype=float)[self.mesh.faces].mean(axis=1)

    @property
    def total_area(self):
        return float(self.face_areas.sum())

    @property
    def angle_defects(self):
        base = np.full(self.mesh.n_vertices, 2.0 * np.pi)
        return base - self.angle_sums

    @property
    def gauss_curvature(self):
        """Angle defect over lumped vertex area; Gauss-Bonnet holds exactly."""
        return self.angle_defects / self.vertex_areas

    # -- critical set ----------------------------------------------------

    def critical_set_mask(self, grad, threshold_fraction=1e-3):
        """Face mask marking the (approximate) complement of {|grad u| != 0}
        from the per-face gradient `grad` of u (as `gradient` returns it).

        Returns (mask, masked_area_fraction); True marks faces where the
        gradient magnitude falls below threshold_fraction times its median.
        """
        if not 0.0 < threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie in (0, 1)")
        gmag = np.linalg.norm(grad, axis=1)
        med = np.median(gmag)
        if med == 0.0:
            mask = np.ones(self.mesh.n_faces, dtype=bool)
        else:
            mask = gmag < threshold_fraction * med
        frac = float(self.face_areas[mask].sum() / self.total_area)
        return mask, frac
