"""Intrinsic discrete differential operators for a metric triangle mesh.

Everything is assembled from per-edge metric lengths only, so the same
machinery serves both embedded surfaces and abstract sphere metrics
(e.g. pullbacks of curved-space coordinate spheres).  The scheme is the
standard second-order one: cotangent stiffness, piecewise-constant face
gradients in per-face isometric charts, mixed Voronoi vertex areas, and
angle-defect Gaussian curvature.
"""

import numpy as np
from scipy import sparse

DEGENERATE_AREA_FRACTION = 1e-14


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


class OperatorSet:
    """Assembled discrete operators; immutable after construction.

    Attributes
    ----------
    face_areas : (F,) metric face areas.
    vertex_areas : (V,) mixed Voronoi areas (circumcentric, clamped at
        obtuse corners).
    chart : (F, 3, 2) vertex positions of each face laid out isometrically
        in its own 2D chart (p0 at origin, p1 on the x-axis).
    grad_phi : (F, 3, 2) P1 basis gradients in the face charts.
    """

    def __init__(self, mesh, metric):
        self.mesh = mesh
        self.metric = metric
        self._assemble()

    def _assemble(self):
        mesh, metric = self.mesh, self.metric
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
        self.chart = chart

        areas = 0.5 * l01 * y2
        mean_area = areas.mean()
        degen = areas < DEGENERATE_AREA_FRACTION * mean_area
        if np.any(degen):
            raise MetricError(f"degenerate face {int(np.argmax(degen))}")
        self.face_areas = areas

        # P1 basis gradients: rotate the opposite edge by +90 deg / (2A)
        rot = np.empty_like(chart)
        for a in range(3):
            e = chart[:, (a + 2) % 3] - chart[:, (a + 1) % 3]
            rot[:, a, 0] = -e[:, 1]
            rot[:, a, 1] = e[:, 0]
        self.grad_phi = rot / (2.0 * areas)[:, None, None]

        self.vertex_areas = self._mixed_voronoi_areas(areas)

        # stiffness K_ab = sum_f A_f grad(phi_a) . grad(phi_b)  (PSD)
        rows, cols, vals = [], [], []
        for a in range(3):
            for b in range(3):
                rows.append(mesh.faces[:, a])
                cols.append(mesh.faces[:, b])
                vals.append(areas * np.einsum(
                    "fk,fk->f", self.grad_phi[:, a], self.grad_phi[:, b]
                ))
        self.stiffness = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_vertices, mesh.n_vertices),
        )

        # interior angles from the charts, for angle-defect curvature
        angles = np.empty((mesh.n_faces, 3))
        for a in range(3):
            u = chart[:, (a + 1) % 3] - chart[:, a]
            v = chart[:, (a + 2) % 3] - chart[:, a]
            cosang = np.einsum("fk,fk->f", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles[:, a] = np.arccos(np.clip(cosang, -1.0, 1.0))
        self.angle_sums = np.bincount(
            mesh.faces.ravel(), weights=angles.ravel(), minlength=mesh.n_vertices
        )

    def _mixed_voronoi_areas(self, areas):
        """Mixed Voronoi lumping (circumcentric, clamped for obtuse corners).

        Restores pointwise second-order accuracy of the Laplacian at the
        irregular (valence-5) icosphere vertices, where barycentric lumping
        leaves an O(1) consistency error.
        """
        mesh, chart = self.mesh, self.chart
        cots = np.empty((mesh.n_faces, 3))
        for a in range(3):
            u = chart[:, (a + 1) % 3] - chart[:, a]
            v = chart[:, (a + 2) % 3] - chart[:, a]
            cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
            cots[:, a] = np.einsum("fk,fk->f", u, v) / cross
        obtuse_corner = np.argmin(cots, axis=1)
        any_obtuse = cots.min(axis=1) < 0.0

        contrib = np.empty((mesh.n_faces, 3))
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            l_ab2 = np.einsum("fk,fk->f", chart[:, b] - chart[:, a],
                              chart[:, b] - chart[:, a])
            l_ac2 = np.einsum("fk,fk->f", chart[:, c] - chart[:, a],
                              chart[:, c] - chart[:, a])
            contrib[:, a] = (l_ab2 * cots[:, c] + l_ac2 * cots[:, b]) / 8.0
        if np.any(any_obtuse):
            rows = np.flatnonzero(any_obtuse)
            contrib[rows] = areas[rows, None] / 4.0
            contrib[rows, obtuse_corner[rows]] = areas[rows] / 2.0
        return np.bincount(
            mesh.faces.ravel(), weights=contrib.ravel(),
            minlength=mesh.n_vertices,
        )

    # -- core operators -------------------------------------------------

    def gradient(self, u):
        """Per-face gradient of a vertex scalar, in the face chart frame."""
        u = np.asarray(u, dtype=float)
        return np.einsum("fa,fak->fk", u[self.mesh.faces], self.grad_phi)

    def divergence(self, X):
        """Vertex divergence of a per-face tangent field (adjoint of gradient)."""
        contrib = np.einsum(
            "fak,fk->fa", self.grad_phi, X * self.face_areas[:, None]
        )
        out = np.bincount(
            self.mesh.faces.ravel(),
            weights=contrib.ravel(),
            minlength=self.mesh.n_vertices,
        )
        return -out / self.vertex_areas

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
        the mesh edges (oriented low index to high index).

        Solves the 2x2 system set by the first two halfedges of each face;
        the third pairing is implied when the covector is exact.
        """
        mesh = self.mesh
        edge_values = np.asarray(edge_values, dtype=float)
        f = mesh.faces
        # halfedge 0: v0 -> v1, halfedge 1: v1 -> v2; flip sign when the
        # stored edge orientation (sorted) disagrees
        s0 = np.where(f[:, 0] < f[:, 1], 1.0, -1.0)
        s1 = np.where(f[:, 1] < f[:, 2], 1.0, -1.0)
        b0 = s0 * edge_values[mesh.face_edges[:, 0]]
        b1 = s1 * edge_values[mesh.face_edges[:, 1]]
        h0 = self.chart[:, 1] - self.chart[:, 0]
        h1 = self.chart[:, 2] - self.chart[:, 1]
        det = h0[:, 0] * h1[:, 1] - h0[:, 1] * h1[:, 0]
        out = np.empty((mesh.n_faces, 2))
        out[:, 0] = (b0 * h1[:, 1] - b1 * h0[:, 1]) / det
        out[:, 1] = (b1 * h0[:, 0] - b0 * h1[:, 0]) / det
        return out

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
