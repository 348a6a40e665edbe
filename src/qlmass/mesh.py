"""Closed oriented triangle meshes and their combinatorics.

Vertices live on the unit parameterization sphere for solver-built meshes;
higher-genus meshes can be loaded from OFF files.  All edge/face tables are
built once and cached on the instance.
"""

import numpy as np


class MeshError(ValueError):
    """Raised for non-manifold, non-closed, or degenerate mesh input."""


def unique_rows(raw):
    """np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True) for
    rows of vertex indices, through one int64 key per row."""
    rows = np.sort(raw, axis=1)
    base = int(rows.max(initial=0)) + 1
    if base ** rows.shape[1] - 1 > np.iinfo(np.int64).max:
        raise MeshError(f"{base} vertices overflow the int64 keys of "
                        f"{rows.shape[1]}-vertex rows")
    keys = rows[:, 0].astype(np.int64)
    for j in range(1, rows.shape[1]):
        keys = keys * base + rows[:, j]
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inv


class SurfaceMesh:
    """Closed oriented manifold triangulation.

    Parameters
    ----------
    vertices : (V, 3) float array
        Parameterization points (unit sphere for built-in meshes).
    faces : (F, 3) int array
        Vertex index triples, consistently oriented (counter-clockwise
        seen from outside).
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be (F, 3)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(self.vertices):
            raise MeshError("face index out of range")
        self._build_edges()
        self._check_manifold()

    # -- combinatorics -------------------------------------------------

    def _build_edges(self):
        f = self.faces
        halfedges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        self.edges, inv = unique_rows(halfedges)
        self._edge_counts = np.bincount(inv, minlength=len(self.edges))
        self._halfedges = halfedges
        # face_edges[i, k] = edge index of halfedge k of face i
        self.face_edges = inv.reshape(3, len(f)).T

    def _check_manifold(self):
        if np.any(self._edge_counts != 2):
            bad = np.flatnonzero(self._edge_counts != 2)
            raise MeshError(
                f"mesh is not closed/manifold: {len(bad)} edge(s) not shared by "
                f"exactly 2 faces (first: {self.edges[bad[0]]})"
            )
        # opposite orientation: each undirected edge appears once per direction
        he = self._halfedges
        directed = he[:, 0] * len(self.vertices) + he[:, 1]
        if len(np.unique(directed)) != len(directed):
            raise MeshError("inconsistent face orientation (repeated halfedge)")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def genus(self):
        chi = self.euler_characteristic
        if chi % 2 != 0 or chi > 2:
            raise MeshError(f"Euler characteristic {chi} is not 2 - 2g")
        return (2 - chi) // 2


def icosphere(level):
    """Subdivided icosahedron projected to the unit sphere.

    Level 0 is the icosahedron (12 vertices); each level quadruples the
    face count.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return SurfaceMesh(verts, faces)


def _subdivide(verts, faces):
    uniq, inv = unique_rows(
        np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    )
    mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    mid_idx = len(verts) + np.arange(len(uniq))
    m01, m12, m20 = (mid_idx[inv.reshape(3, len(faces))[k]] for k in range(3))
    a, b, c = faces.T
    new_faces = np.concatenate(
        [
            np.column_stack([a, m01, m20]),
            np.column_stack([b, m12, m01]),
            np.column_stack([c, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    return np.vstack([verts, mids]), new_faces


# -- OFF-style plain text I/O ------------------------------------------


def write_off(path, mesh):
    """Write an indexed triangle list: OFF header, counts, vertices, faces."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def read_off(path):
    """Read a triangle mesh written by `write_off`: an `OFF` line, a
    `V F E` counts line, V lines of three finite coordinates and F lines
    `3 i j k` of vertex indices.  The first line that breaks this is named
    in the error."""
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh, start=1)
                 if line.strip()]
    if not lines or lines[0][1] != ["OFF"]:
        raise MeshError(f"{path}: not an OFF file")
    try:
        nv, nf, _ = (int(t) for t in lines[1][1])
        if nv < 0 or nf < 0:
            raise ValueError
    except (IndexError, ValueError):
        raise MeshError(f"{path}: the line after OFF must be the counts "
                        f"`V F E`") from None
    rows = lines[2:]
    if len(rows) != nv + nf:
        raise MeshError(f"{path}: {nv} vertex and {nf} face lines expected "
                        f"after the counts, {len(rows)} found")
    verts = np.empty((nv, 3))
    for k, (no, row) in enumerate(rows[:nv]):
        try:
            verts[k] = [float(t) for t in row]
        except ValueError:
            verts[k] = np.nan
        if not np.all(np.isfinite(verts[k])):
            raise MeshError(f"{path}, line {no}: vertex {k} is not three "
                            f"finite numbers")
    faces = np.empty((nf, 3), dtype=np.int64)
    for k, (no, row) in enumerate(rows[nv:]):
        try:
            if row[0] != "3":
                raise ValueError
            faces[k] = [int(t) for t in row[1:]]
        except ValueError:
            faces[k] = -1
        if faces[k].min() < 0 or faces[k].max() >= nv:
            raise MeshError(f"{path}, line {no}: face {k} is not `3 i j k` "
                            f"with indices below {nv}")
    return SurfaceMesh(verts, faces)
