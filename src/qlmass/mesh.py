"""Closed oriented triangle meshes and their combinatorics.

Vertices live on the unit parameterization sphere for solver-built meshes.
All edge/face tables are built once and cached on the instance.
"""

import numpy as np

from .config import InputError


class MeshError(ValueError, InputError):
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


def expand_ranges(first, stop):
    """Every value of the integer ranges [first, stop), range by range:
    (owner, value, node0), where owner is the index of each value's range
    and value k of range i sits at position node0[i] + k."""
    node0 = np.cumsum(stop - first) - stop
    owner = np.repeat(np.arange(len(first)), stop - first)
    return owner, np.arange(len(owner)) - node0[owner], node0


# (dx, dy) offsets of the 3 x 3 columns of grid cells around a cell; the
# last five are its own column and the four whose keys follow it.  The
# three cells of a column have consecutive keys.
_COLUMNS = np.array([(i, j, 0) for i in (-1, 0, 1) for j in (-1, 0, 1)])


def pairs_within(points, radius, queries=None):
    """Every pair of rows of `points` at most `radius` apart, by a uniform
    grid of cells at least `radius` wide: (i, j, squared distance).

    Without `queries` the pairs are i < j among the points, each once;
    with them, i indexes `queries` (in ascending order) and j `points`.
    The points are sorted by cell key (x-major, z-minor), so each column
    of three cells is one contiguous run.  A query takes every point in
    the nine columns around its cell as a candidate; a point takes the
    points after it in its own column and those in the four columns that
    follow it, which meets each pair once.  Candidates farther than
    `radius` are dropped.  Cells are no narrower than a millionth of the
    points' extent, which keeps the keys within int64.
    """
    lo = points.min(axis=0)
    width = max(radius, 1e-6 * float(np.ptp(points, axis=0).max()),
                np.finfo(float).tiny)
    cell = np.floor((points - lo) / width).astype(np.int64)
    shape = cell.max(axis=0) + 3
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    key = cell @ strides
    order = np.argsort(key, kind="stable")
    key = key[order]
    coords = points[order].T
    if queries is None:
        qkey, qcoords, columns = key, coords, _COLUMNS[4:]
    else:
        qkey = np.floor((queries - lo) / width).astype(np.int64) @ strides
        qcoords, columns = queries.T, _COLUMNS
    cells, cell_of = np.unique(qkey, return_inverse=True)
    near = (cells[:, None] + columns @ strides).ravel()
    first = np.searchsorted(key, near - 1, "left")
    stop = np.searchsorted(key, near + 1, "right")
    first = first.reshape(-1, len(columns))[cell_of]
    stop = stop.reshape(-1, len(columns))[cell_of]
    if queries is None:
        first[:, 0] = np.arange(1, len(key) + 1)
    owner, j, _ = expand_ranges(first.ravel(), stop.ravel())
    i = owner // len(columns)
    d2 = (qcoords[0][i] - coords[0][j]) ** 2
    d2 += (qcoords[1][i] - coords[1][j]) ** 2
    d2 += (qcoords[2][i] - coords[2][j]) ** 2
    keep = np.flatnonzero(d2 <= radius * radius)
    i, j, d2 = i[keep], order[j[keep]], d2[keep]
    if queries is None:
        i = order[i]
        i, j = np.minimum(i, j), np.maximum(i, j)
    return i, j, d2


class SurfaceMesh:
    """Closed oriented manifold triangulation.

    Parameters
    ----------
    vertices : (V, 3) float array
        Parameterization points (unit sphere for built-in meshes).
    faces : (F, 3) int array
        Vertex index triples, consistently oriented (counter-clockwise
        seen from outside).
    names : optional (V,) int array
        The ids by which error messages name the vertices (by default
        their indices).
    """

    def __init__(self, vertices, faces, names=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be (F, 3)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(self.vertices):
            raise MeshError("face index out of range")
        f = self.faces
        halfedges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        self.edges, inv = unique_rows(halfedges)
        # face_edges[i, k] = edge index of halfedge k of face i
        self.face_edges = inv.reshape(3, len(f)).T
        names = np.arange(len(self.vertices)) if names is None else names
        counts = np.bincount(inv, minlength=len(self.edges))
        if np.any(counts != 2):
            bad = np.flatnonzero(counts != 2)[0]
            raise MeshError(
                f"mesh is not closed/manifold: {np.sum(counts != 2)} edge(s) "
                f"not shared by exactly 2 faces (first: "
                f"{tuple(names[self.edges[bad]].tolist())}, in {counts[bad]})")
        # opposite orientation: each undirected edge appears once per direction
        directed = halfedges[:, 0] * len(self.vertices) + halfedges[:, 1]
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
