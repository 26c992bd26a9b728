"""Triangular analysis domains: generation, import/export, and geometric queries.

Meshes are plane-stress, 3-node-triangle, and immutable once built. Every
element carries a region tag (designable / solid non-design / void
non-design) assigned by a centroid-in-polygon test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

DESIGNABLE = 0
SOLID_NONDESIGN = 1
VOID_NONDESIGN = 2


class MeshError(Exception):
    """Invalid geometry or a failed mesh construction."""


class PointOutsideDomain(MeshError):
    """A query point does not lie inside any element."""


def polygon_area(poly):
    """Signed shoelace area of a closed polygon given as an (n, 2) array."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def points_in_polygon(points, poly):
    """Even-odd rule point-in-polygon test, vectorized over query points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(poly, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    for j in range(len(poly)):
        cond = (y0[j] > y) != (y1[j] > y)
        if not cond.any():
            continue
        xs = x0[j] + (y - y0[j]) / (y1[j] - y0[j] + 1e-300) * (x1[j] - x0[j])
        inside ^= cond & (x < xs)
    return inside


@dataclass(frozen=True)
class DomainGeometry:
    """A polygonal design domain with optional holes and non-design regions.

    nondesign_regions is a list of (polygon, tag) pairs with tag one of
    SOLID_NONDESIGN / VOID_NONDESIGN; membership of an element is decided by
    its centroid.
    """

    outline: np.ndarray
    target_h: float
    holes: list = field(default_factory=list)
    nondesign_regions: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "outline", np.asarray(self.outline, dtype=float))
        if len(self.outline) < 3:
            raise MeshError("outline needs at least 3 vertices")
        if self.target_h <= 0:
            raise MeshError("target element size must be positive")
        if abs(polygon_area(self.outline)) < 1e-18:
            raise MeshError("degenerate outline polygon (zero area)")
        if _self_intersects(self.outline):
            raise MeshError("outline polygon is self-intersecting")
        for h in self.holes:
            hp = np.asarray(h, dtype=float)
            if not points_in_polygon(hp.mean(axis=0), self.outline)[0]:
                raise MeshError("hole does not lie inside the outline")

    def area(self):
        a = abs(polygon_area(self.outline))
        for h in self.holes:
            a -= abs(polygon_area(h))
        return a

    def contains(self, points):
        inside = points_in_polygon(points, self.outline)
        for h in self.holes:
            inside &= ~points_in_polygon(points, h)
        return inside


def _self_intersects(poly):
    # O(n^2) proper-crossing scan over non-adjacent edge pairs.
    p = np.asarray(poly, dtype=float)
    n = len(p)
    a0, a1 = p, np.roll(p, -1, axis=0)

    def cross(o, u, v):
        return (u[..., 0] - o[..., 0]) * (v[..., 1] - o[..., 1]) - (
            u[..., 1] - o[..., 1]
        ) * (v[..., 0] - o[..., 0])

    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if len(js) == 0:
            continue
        d1 = cross(a0[i], a1[i], a0[js]) * cross(a0[i], a1[i], a1[js])
        d2 = cross(a0[js], a1[js], a0[i][None]) * cross(a0[js], a1[js], a1[i][None])
        if np.any((d1 < 0) & (d2 < 0)):
            return True
    return False


class MeshModel:
    """Immutable unstructured triangle mesh with region tags.

    Attributes
    ----------
    nodes : (n, 2) float array of coordinates in meters.
    triangles : (m, 3) int array, counterclockwise node indices.
    element_tag : (m,) int array of DESIGNABLE / SOLID_NONDESIGN / VOID_NONDESIGN.
    thickness : out-of-plane thickness in meters.
    centroids, areas, volumes : derived per-element geometry.
    """

    def __init__(self, nodes, triangles, element_tag=None, thickness=1.0):
        nodes = np.array(nodes, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(nodes):
            raise MeshError("triangle node index out of range")
        # one int64 key per sorted triangle; from 2**21 nodes on it wraps,
        # so distinct triangles could collide, but equal ones never differ
        a, b, c = np.sort(triangles, axis=1).T
        key = np.sort((a * len(nodes) + b) * len(nodes) + c)
        if np.any(key[1:] == key[:-1]):
            raise MeshError("duplicate triangles")
        p0 = nodes[triangles[:, 0]]
        p1 = nodes[triangles[:, 1]]
        p2 = nodes[triangles[:, 2]]
        signed = 0.5 * (
            (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
        )
        if np.any(signed <= 0):
            raise MeshError(
                "non-positive signed area in %d elements (need CCW orientation)"
                % int(np.sum(signed <= 0))
            )
        if element_tag is None:
            element_tag = np.zeros(len(triangles), dtype=np.int64)
        element_tag = np.array(element_tag, dtype=np.int64)
        if element_tag.shape != (len(triangles),):
            raise MeshError("element_tag length mismatch")
        if not np.isin(element_tag, [DESIGNABLE, SOLID_NONDESIGN, VOID_NONDESIGN]).all():
            raise MeshError("unknown element tag")

        self.nodes = nodes
        self.triangles = triangles
        self.element_tag = element_tag
        self.thickness = float(thickness)
        self.centroids = (p0 + p1 + p2) / 3.0
        self.areas = signed
        self.volumes = signed * self.thickness
        for a in (self.nodes, self.triangles, self.element_tag, self.centroids,
                  self.areas, self.volumes):
            a.setflags(write=False)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_elements(self):
        return len(self.triangles)

    @property
    def num_dofs(self):
        return 2 * len(self.nodes)

    @property
    def designable(self):
        """Indices of elements with the designable tag."""
        return np.flatnonzero(self.element_tag == DESIGNABLE)

    def barycentric(self, element, p):
        """Barycentric coordinates of p in the given element (may be negative)."""
        i, j, k = self.triangles[element]
        a, b, c = self.nodes[i], self.nodes[j], self.nodes[k]
        den = 2.0 * self.areas[element]
        l1 = ((b[0] - p[0]) * (c[1] - p[1]) - (c[0] - p[0]) * (b[1] - p[1])) / den
        l2 = ((c[0] - p[0]) * (a[1] - p[1]) - (a[0] - p[0]) * (c[1] - p[1])) / den
        return np.array([l1, l2, 1.0 - l1 - l2])


def locate_point(mesh, p, tol=1e-12):
    """Find the element containing p and its barycentric coordinates.

    Points on shared edges or vertices resolve to the lowest containing
    element index. Raises PointOutsideDomain when no element contains p.
    """
    p = np.asarray(p, dtype=float)
    tri = mesh.triangles
    a = mesh.nodes[tri[:, 0]]
    b = mesh.nodes[tri[:, 1]]
    c = mesh.nodes[tri[:, 2]]
    den = 2.0 * mesh.areas
    l1 = ((b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (c[:, 0] - p[0]) * (b[:, 1] - p[1])) / den
    l2 = ((c[:, 0] - p[0]) * (a[:, 1] - p[1]) - (a[:, 0] - p[0]) * (c[:, 1] - p[1])) / den
    l3 = 1.0 - l1 - l2
    # Scale-free tolerance: tol is relative to unity barycentric range.
    hit = (l1 >= -tol) & (l2 >= -tol) & (l3 >= -tol)
    idx = np.flatnonzero(hit)
    if len(idx) == 0:
        raise PointOutsideDomain(f"point ({p[0]}, {p[1]}) lies outside the mesh")
    e = int(idx[0])
    lam = np.array([l1[e], l2[e], l3[e]])
    return e, lam


@dataclass(frozen=True)
class ShapeSample:
    """Linear shape functions of one element evaluated at a point.

    dofs maps local entries to global displacement DOFs (node i contributes
    DOFs 2i and 2i+1). weights are the barycentric coordinates; grad_x/grad_y
    are the element-constant spatial shape-function gradients.

    The sample owns N, the (2, n_dofs) operator reading (ux, uy) at the
    point: interpolate applies it and rows builds N^T.
    """

    element: int
    nodes: np.ndarray
    weights: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray

    @property
    def dofs_x(self):
        return 2 * self.nodes

    @property
    def dofs_y(self):
        return 2 * self.nodes + 1

    def interpolate(self, u):
        """N u: (ux, uy) of the DOF vector u at the sample point, or (2, k)
        for the k columns of u, each made as interpolate(column) is."""
        if u.ndim == 2:
            return np.column_stack([self.interpolate(col) for col in u.T])
        return np.array(
            [u[self.dofs_x] @ self.weights, u[self.dofs_y] @ self.weights]
        )

    def rows(self, n_dofs):
        """N^T, dense (n_dofs, 2): the weights on the x- then y-DOFs."""
        Nt = np.zeros((n_dofs, 2))
        Nt[self.dofs_x, 0] = self.weights
        Nt[self.dofs_y, 1] = self.weights
        return Nt

    def gradient(self, u):
        """Displacement gradient H[a, b] = d u_a / d x_b at the sample point."""
        ux, uy = u[self.dofs_x], u[self.dofs_y]
        return np.array(
            [[ux @ self.grad_x, ux @ self.grad_y], [uy @ self.grad_x, uy @ self.grad_y]]
        )


def shape_gradients(mesh, elements=slice(None)):
    """Constant shape-function gradients (grad_x, grad_y) of the linear
    triangles: (3,) arrays for one element index, (3, Ne) for several."""
    tri = mesh.triangles[elements].T
    x = mesh.nodes[tri, 0]
    y = mesh.nodes[tri, 1]
    den = 2.0 * mesh.areas[elements]
    gx = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / den
    gy = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / den
    return gx, gy


def shape_values_at(mesh, p):
    """Shape-function sample (values and spatial gradients) at point p."""
    e, lam = locate_point(mesh, p)
    gx, gy = shape_gradients(mesh, e)
    return ShapeSample(
        element=e, nodes=mesh.triangles[e].copy(), weights=lam, grad_x=gx, grad_y=gy
    )


# ---------------------------------------------------------------------------
# generation


def _resample_polygon(poly, h):
    """Walk the polygon edges inserting points so segment lengths are <= h."""
    pts = []
    segs = []
    poly = np.asarray(poly, dtype=float)
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        length = float(np.hypot(*(b - a)))
        if length == 0.0:
            continue
        k = max(1, int(np.ceil(length / h)))
        for t in range(k):
            pts.append(a + (b - a) * (t / k))
    m = len(pts)
    segs = [(i, (i + 1) % m) for i in range(m)]
    return np.array(pts), segs


def _hex_grid(bbox, h):
    # centered in the bounding box so symmetric domains get symmetric grids
    (xmin, ymin), (xmax, ymax) = bbox
    dy = h * np.sqrt(3.0) / 2.0
    xc = 0.5 * (xmin + xmax)
    n_rows = int(np.floor((ymax - ymin) / dy + 1e-12))
    y0 = ymin + 0.5 * ((ymax - ymin) - n_rows * dy)
    nx = int(np.ceil((xmax - xmin) / (2.0 * h))) + 1
    cols = np.arange(-nx, nx + 1)
    rows = []
    for k in range(n_rows + 1):
        y = y0 + k * dy
        phase = 0.5 * h * ((k - n_rows // 2) % 2)
        xs = xc + phase + cols * h
        xs = xs[(xs >= xmin - 1e-12) & (xs <= xmax + 1e-12)]
        if len(xs):
            rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    if not rows:
        return np.zeros((0, 2))
    return np.vstack(rows)


def generate_mesh(geometry, thickness=1.0):
    """Triangulate a DomainGeometry into a conforming MeshModel.

    Boundary polygons are resampled at the target element size, interior
    points come from a hexagonal grid, and Steiner midpoints are inserted
    until every boundary segment appears as a Delaunay edge, so the kept
    triangles tile the polygon exactly (area-conservation contract). Each
    recovery round triangulates once, and the triangulation of the last
    round, which finds every segment, is the mesh.
    """
    h = geometry.target_h
    chains = [geometry.outline] + [np.asarray(p, float) for p in geometry.holes]
    points = []
    constraints = []
    for poly in chains:
        pts, segs = _resample_polygon(poly, h)
        if len(pts) < 3:
            raise MeshError("polygon degenerated during resampling")
        off = sum(len(p) for p in points)
        points.append(pts)
        constraints.extend([(a + off, b + off) for a, b in segs])
    bpts = np.vstack(points)

    bbox = (bpts.min(axis=0), bpts.max(axis=0))
    extent = float(np.max(bbox[1] - bbox[0]))
    if h > extent:
        raise MeshError(
            f"element size {h} exceeds the domain extent {extent:.3g}; "
            "feature cannot be resolved"
        )
    grid = _hex_grid(bbox, h)
    if len(grid):
        keep = geometry.contains(grid)
        # stay clear of the boundary so boundary segments stay Delaunay
        tree = cKDTree(bpts)
        d, _ = tree.query(grid, k=1)
        keep &= d >= 0.75 * h
        grid = grid[keep]

    pts = np.vstack([bpts, grid]) if len(grid) else bpts
    segs = np.array(constraints, dtype=np.int64)

    for _ in range(40):  # rounds of Steiner midpoints, at most
        tri = Delaunay(pts)
        # an edge or segment (a, b), a < b, as the key a n + b
        n = len(pts)
        edges = np.sort(tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                        axis=1).astype(np.int64)
        ends = np.sort(segs, axis=1)
        missing = ~np.isin(ends[:, 0] * n + ends[:, 1],
                           edges[:, 0] * n + edges[:, 1])
        if not missing.any():
            break
        # each missing segment (a, b) becomes (a, mid) and (mid, b), in place
        a, b = segs[missing].T
        mid = n + np.arange(len(a))
        pts = np.vstack([pts, 0.5 * (pts[a] + pts[b])])
        split = np.flatnonzero(np.repeat(missing, 1 + missing))
        segs = np.repeat(segs, 1 + missing, axis=0)
        segs[split[0::2], 1] = mid
        segs[split[1::2], 0] = mid
    else:
        raise MeshError("boundary recovery did not converge; h too large for a feature")

    cent = pts[tri.simplices].mean(axis=1)
    inside = geometry.contains(cent)
    simplices = tri.simplices[inside]

    # drop unreferenced points, re-index
    used = np.unique(simplices)
    remap = -np.ones(len(pts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    nodes = pts[used]
    triangles = remap[simplices]

    # enforce CCW
    p0, p1, p2 = nodes[triangles[:, 0]], nodes[triangles[:, 1]], nodes[triangles[:, 2]]
    signed = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    flip = signed < 0
    triangles[flip] = triangles[flip][:, ::-1]
    degenerate = np.abs(signed) < 1e-14 * extent**2
    if degenerate.any():
        keep = ~degenerate
        triangles = triangles[keep]

    tags = np.zeros(len(triangles), dtype=np.int64)
    cent = nodes[triangles].mean(axis=1)
    for poly, tag in geometry.nondesign_regions:
        tags[points_in_polygon(cent, np.asarray(poly, float))] = tag

    mesh = MeshModel(nodes, triangles, tags, thickness)
    target = geometry.area()
    if abs(mesh.areas.sum() - target) > 1e-6 * target:
        raise MeshError(
            "triangulation does not tile the domain: area %.12g vs polygon %.12g"
            % (float(mesh.areas.sum()), target)
        )
    return mesh


_NACA_COEFFS = (0.2969, -0.1260, -0.3516, 0.2843, -0.1015)


def naca0012_halfthickness(x_over_c):
    """Half-thickness of the 4-digit 0012 section per unit chord."""
    s = np.asarray(x_over_c, dtype=float)
    c1, c2, c3, c4, c5 = _NACA_COEFFS
    return 5.0 * 0.12 * (c1 * np.sqrt(s) + c2 * s + c3 * s**2 + c4 * s**3 + c5 * s**4)


def naca0012_outline(chord, leading_fraction=1.0, element_size=None):
    """Symmetric NACA 0012 outline, optionally truncated to the leading part.

    The open polynomial trailing edge (or the truncation cut) is closed with
    a vertical segment. Returns a DomainGeometry whose target element size
    defaults to chord/200.
    """
    if chord <= 0:
        raise MeshError("chord must be positive")
    if not 0.0 < leading_fraction <= 1.0:
        raise MeshError("leading_fraction must lie in (0, 1]")
    h = element_size if element_size is not None else chord / 200.0
    n = max(100, int(np.ceil(3.0 * leading_fraction * chord / h)))
    # cosine clustering towards the leading edge
    beta = np.linspace(0.0, np.pi / 2.0, n + 1)
    s = leading_fraction * (1.0 - np.cos(beta))  # 0 .. leading_fraction
    y = naca0012_halfthickness(s) * chord
    x = s * chord
    upper = np.column_stack([x[1:], y[1:]])  # LE excluded, added once below
    lower = np.column_stack([x[1:], -y[1:]])[::-1]
    outline = np.vstack([np.array([[0.0, 0.0]]), upper, lower])
    # built upper-then-lower traces clockwise; flip to CCW
    if polygon_area(outline) < 0:
        outline = outline[::-1]
    return DomainGeometry(outline=outline, target_h=h)


# ---------------------------------------------------------------------------
# plain-text mesh format and legacy-VTK import


def write_mesh(mesh, path_or_file):
    """Write the plain-text format: header, node lines, triangle+tag lines."""
    own = isinstance(path_or_file, (str, bytes))
    f = open(path_or_file, "w", encoding="utf-8") if own else path_or_file
    try:
        f.write(f"nodes {mesh.num_nodes} triangles {mesh.num_elements}\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), t in zip(mesh.triangles, mesh.element_tag):
            f.write(f"{i} {j} {k} {t}\n")
    finally:
        if own:
            f.close()


def _tokens(path_or_file):
    """Every whitespace-separated token, with '#' comments stripped."""
    own = isinstance(path_or_file, (str, bytes))
    f = open(path_or_file, "r", encoding="utf-8") if own else path_or_file
    try:
        return re.sub(r"#[^\n]*", "", f.read()).split()
    finally:
        if own:
            f.close()


def read_mesh(path_or_file, thickness=1.0):
    """Read a mesh from the plain-text format or a legacy ASCII VTK file."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "r", encoding="utf-8") as f:
            head = f.read(64)
        if head.lstrip().startswith("# vtk DataFile"):
            return _read_vtk(path_or_file, thickness)
    toks = _tokens(path_or_file)
    if len(toks) < 4:
        raise MeshError("truncated mesh file")
    kw1, n, kw2, m = toks[0], int(toks[1]), toks[2], int(toks[3])
    if kw1 != "nodes" or kw2 != "triangles":
        raise MeshError("bad mesh header (expected 'nodes <n> triangles <m>')")
    if len(toks) < 4 + 2 * n + 4 * m:
        raise MeshError("truncated mesh file")
    nodes = np.array(toks[4:4 + 2 * n], dtype=float).reshape(n, 2)
    body = np.array(toks[4 + 2 * n:4 + 2 * n + 4 * m],
                    dtype=np.int64).reshape(m, 4)
    return MeshModel(nodes, body[:, :3], body[:, 3], thickness)


def _read_vtk(path, thickness=1.0):
    with open(path, "r", encoding="utf-8") as f:
        toks = f.read().split()
    def find(word):
        return toks.index(word)
    i = find("POINTS")
    n = int(toks[i + 1])
    coords = np.array(toks[i + 3 : i + 3 + 3 * n], dtype=float).reshape(n, 3)
    i = find("CELLS")
    m = int(toks[i + 1])
    body = np.array(toks[i + 3 : i + 3 + 4 * m], dtype=np.int64).reshape(m, 4)
    if not (body[:, 0] == 3).all():
        raise MeshError("VTK file contains non-triangle cells")
    tags = np.zeros(m, dtype=np.int64)
    if "region_tag" in toks:
        i = toks.index("region_tag")
        j = i + 3  # SCALARS region_tag int -> LOOKUP_TABLE default -> data
        while toks[j] in ("LOOKUP_TABLE", "default", "1"):
            j += 1
        tags = np.array(toks[j : j + m], dtype=float).astype(np.int64)
    return MeshModel(coords[:, :2], body[:, 1:], tags, thickness)


def rectangle_geometry(width, height, h, nondesign_regions=()):
    """Axis-aligned rectangle domain helper, with a corner at the origin."""
    outline = np.array([[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]])
    return DomainGeometry(
        outline=outline, target_h=h, nondesign_regions=list(nondesign_regions)
    )


def nearest_node(mesh, p):
    """Index of the mesh node closest to p."""
    d = np.hypot(mesh.nodes[:, 0] - p[0], mesh.nodes[:, 1] - p[1])
    return int(np.argmin(d))


def clamp_to_mesh(mesh, p):
    """Return p if it lies inside the mesh, else the nearest element centroid."""
    try:
        locate_point(mesh, p)
        return np.asarray(p, dtype=float)
    except PointOutsideDomain:
        d = np.hypot(mesh.centroids[:, 0] - p[0], mesh.centroids[:, 1] - p[1])
        return mesh.centroids[int(np.argmin(d))].copy()
