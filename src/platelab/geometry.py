"""Polygonal domains, quadrilateral meshes, inclusion masks.

All geometry is flat 2D. Domains are simple counterclockwise polygons carrying
a priori constants (length scale rho0 and the dimensionless factors tied to
it). Meshes are conforming bilinear quads: rectangles get a structured grid,
anything else a uniform overlay of the bounding box with boundary snapping.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# refuse to build meshes past this many elements unless the caller raises it
DEFAULT_ELEMENT_BUDGET = 40000

# 2-point Gauss rule per direction on [-1, 1]
GAUSS2 = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])


# ---------------------------------------------------------------------------
# low-level polygon predicates


def _shoelace(vertices):
    # coordinates, their successors along each polygon, and the cross terms
    # x_i y_{i+1} - x_{i+1} y_i, for polygons stacked as (..., n, 2)
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    return x, y, xn, yn, x * yn - xn * y


def polygon_signed_area(vertices):
    """Shoelace signed area; positive for counterclockwise order. Stacked
    polygons (..., n, 2) give one area each."""
    return 0.5 * np.sum(_shoelace(vertices)[-1], axis=-1)


def polygon_centroid(vertices):
    """Area centroid; stacked polygons (..., n, 2) give (..., 2)."""
    x, y, xn, yn, cross = _shoelace(vertices)
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def _segments_properly_intersect(p1, p2, q1, q2):
    # orientation-based proper intersection test (shared endpoints excluded
    # by the caller, which only compares non-adjacent edges)
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True

    def on_segment(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def polygon_is_simple(vertices):
    """True if no two non-adjacent edges intersect and no repeated vertices."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        return False
    for i in range(n):
        if np.allclose(v[i], v[(i + 1) % n]):
            return False
    for i in range(n):
        a1, a2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint
            b1, b2 = v[j], v[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2):
                return False
    return True


def points_in_polygon(points, vertices):
    """Crossing-number containment test, vectorized over points.

    Points exactly on the boundary are not guaranteed a particular answer;
    callers query element centroids, which stay off boundaries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 <= y) != (y2 <= y)
        if not np.any(crosses):
            continue
        # x-coordinate at which the edge crosses the horizontal line of y
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xc)
    return inside


def point_in_polygon(point, vertices):
    return bool(points_in_polygon(np.asarray(point)[None, :], vertices)[0])


def _nearest_on_polygon(points, vertices):
    """(distance, nearest point) from each point to the closed polygon's
    edges, exact; on ties the earlier edge wins."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    best_d = np.full(len(pts), np.inf)
    best_p = pts.copy()
    for i in range(n):
        a = v[i]
        ab = v[(i + 1) % n] - a
        denom = float(ab @ ab)
        t = np.zeros(len(pts))
        if denom:
            t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        # a distance past 1e154 overflows to inf, farther than any other
        with np.errstate(over="ignore"):
            d = np.linalg.norm(pts - proj, axis=1)
        closer = d < best_d
        best_d[closer] = d[closer]
        best_p[closer] = proj[closer]
    return best_d, best_p


def points_segment_distance(points, vertices):
    """Min distance from each point to the closed polygon's edges (exact)."""
    return _nearest_on_polygon(points, vertices)[0]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class AprioriData:
    """A priori constants attached to a domain.

    rho0 is the length scale; the remaining factors are dimensionless
    multiples of it. They are user-supplied (not estimated from geometry)
    and validated against the polygon where that is cheap.
    """

    rho0: float = 1.0
    m1: float = 100.0     # diameter bound: diam(domain) <= m1 * rho0
    s0: float = 0.01      # a disk of radius s0*rho0 around x0 fits inside
    d0: float = 0.01      # wanted inclusion clearance from the boundary
    h1: float = 0.1       # fatness depth factor (depth h1*rho0 into D)
    x0: tuple | None = None  # center of the guaranteed interior disk

    def __post_init__(self):
        for name in ("rho0", "m1", "s0", "d0", "h1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Domain:
    """Simple counterclockwise polygon with a priori data."""

    vertices: np.ndarray
    apriori: AprioriData = field(default_factory=AprioriData)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if not polygon_is_simple(v):
            raise ValueError("polygon is not simple")
        if polygon_signed_area(v) <= 0:
            raise ValueError("vertices must be counterclockwise with positive area")
        ap = self.apriori
        if self.diameter > ap.m1 * ap.rho0 * (1 + 1e-12):
            raise ValueError("diameter exceeds m1 * rho0")
        x0 = np.asarray(ap.x0, dtype=float) if ap.x0 is not None else self.centroid
        object.__setattr__(self, "_x0", x0)
        if not point_in_polygon(x0, v):
            raise ValueError("x0 is not inside the domain")
        if points_segment_distance(x0[None, :], v)[0] < ap.s0 * ap.rho0:
            raise ValueError("the disk of radius s0*rho0 around x0 does not fit")

    @classmethod
    def rectangle(cls, x0, y0, x1, y1, apriori=None):
        verts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        return cls(np.array(verts, dtype=float), apriori or AprioriData())

    @cached_property
    def area(self):
        return float(polygon_signed_area(self.vertices))

    @cached_property
    def centroid(self):
        return polygon_centroid(self.vertices)

    @cached_property
    def diameter(self):
        v = self.vertices
        d = v[:, None, :] - v[None, :, :]
        # a side past 1e154 overflows to an infinite diameter, which the
        # m1 * rho0 bound refuses
        with np.errstate(over="ignore"):
            return float(np.sqrt((d ** 2).sum(-1)).max())

    @property
    def x0(self):
        return self._x0


# ---------------------------------------------------------------------------
# isoparametric bilinear quads (shared with the solver)

_LOCAL_RS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def shape_q4(r, s):
    """Bilinear shape functions: values (4,) and (dr, ds) derivatives (2, 4)."""
    ri, si = _LOCAL_RS[:, 0], _LOCAL_RS[:, 1]
    n = 0.25 * (1.0 + r * ri) * (1.0 + s * si)
    dn = np.vstack([0.25 * ri * (1.0 + s * si),
                    0.25 * si * (1.0 + r * ri)])
    return n, dn


# ---------------------------------------------------------------------------
# mesh


@dataclass(frozen=True)
class Mesh:
    """Conforming bilinear quad mesh of a Domain.

    boundary_edges are node pairs ordered along the (single, closed,
    counterclockwise) boundary loop; normals point outward, the edge
    direction rotated by -90 degrees.
    """

    nodes: np.ndarray            # (nn, 2)
    elements: np.ndarray         # (ne, 4) int, counterclockwise
    boundary_edges: np.ndarray   # (nb, 2) int, loop order
    boundary_normals: np.ndarray  # (nb, 2) outward unit normals
    mesh_size: float
    domain: Domain

    def __post_init__(self):
        for name in ("nodes", "elements", "boundary_edges",
                     "boundary_normals"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    @cached_property
    def element_areas(self):
        a = polygon_signed_area(self.nodes[self.elements])
        a.setflags(write=False)
        return a

    @cached_property
    def element_centroids(self):
        c = polygon_centroid(self.nodes[self.elements])
        c.setflags(write=False)
        return c

    @cached_property
    def area(self):
        return float(self.element_areas.sum())

    def boundary_loop(self):
        """Node ids in order along the closed boundary loop."""
        return self.boundary_edges[:, 0].copy()


def _extract_boundary(nodes, elements):
    # edges appearing in exactly one element, kept in that element's ccw
    # direction, then chained into the one boundary loop, which starts at
    # its smallest node id; edge k of element e runs from elements[e, k] to
    # elements[e, (k + 1) % 4], and its key is the (min, max) node-id pair
    directed = np.stack([elements, np.roll(elements, -1, axis=1)], axis=2)
    directed = directed.reshape(-1, 2)
    lo, hi = directed.min(axis=1), directed.max(axis=1)
    keys = lo * (int(hi.max(initial=-1)) + 1) + hi
    _, inverse, counts = np.unique(keys, return_inverse=True,
                                   return_counts=True)
    border = directed[counts[inverse] == 1]
    if not len(border):
        raise ValueError("mesh has no boundary edges")
    # every boundary node must start one edge and end one: a pinched node
    # starts two, an open chain ends where no edge starts
    starts = np.sort(border[:, 0])
    pinched = starts[1:][starts[1:] == starts[:-1]]
    if len(pinched):
        raise ValueError(
            f"boundary is not a collection of simple loops: node "
            f"{pinched[0]} starts two boundary edges; use a smaller "
            "target_size")
    if not np.array_equal(starts, np.sort(border[:, 1])):
        raise ValueError("boundary is not a collection of simple loops")
    nxt = np.full(len(nodes), -1)
    nxt[border[:, 0]] = border[:, 1]
    order = [int(starts[0])]
    node = int(nxt[order[0]])
    while node != order[0]:
        order.append(node)
        node = int(nxt[node])
    if len(order) < len(border):
        raise ValueError("mesh boundary splits into several loops; use a "
                         "smaller target_size")
    edges = np.column_stack([order, nxt[order]])
    vec = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    length = np.linalg.norm(vec, axis=1)
    # snapping can put two boundary nodes on one polygon corner
    short = np.flatnonzero(length == 0.0)
    if len(short):
        a, b = edges[short[0]]
        raise ValueError(f"boundary nodes {a} and {b} coincide; use a "
                         "smaller target_size")
    tang = vec / length[:, None]
    norm = np.column_stack([tang[:, 1], -tang[:, 0]])  # outward for ccw loops
    return edges, norm


def _finish_mesh(nodes, elements, domain):
    elements = np.asarray(elements, dtype=int)
    quads = nodes[elements]
    # Jacobians at the 2x2 Gauss points of every element: (ne, 4, 2, 2)
    dn = np.array([shape_q4(r, s)[1] for r in GAUSS2 for s in GAUSS2])
    jac = np.einsum("gik,ekj->egij", dn, quads)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    bad = np.flatnonzero(np.any(det <= 0.0, axis=1))
    if len(bad):
        raise ValueError(f"element {bad[0]} has a nonpositive Jacobian")
    edges, normals = _extract_boundary(nodes, elements)
    diffs = quads[:, :, None, :] - quads[:, None, :, :]
    diam = float(np.sqrt((diffs ** 2).sum(-1)).max())
    return Mesh(nodes, elements, edges, normals, diam, domain)


def _grid_cells(nx, ny):
    # ccw node quadruples of an (nx, ny) cell grid whose nodes are numbered
    # j * (nx + 1) + i; cells in j-major, i-minor order
    corner = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return corner[:, None] + np.array([0, 1, nx + 2, nx + 1])


def _is_axis_aligned_rectangle(vertices):
    v = np.asarray(vertices)
    if len(v) != 4:
        return False
    for i in range(4):
        d = v[(i + 1) % 4] - v[i]
        if not (abs(d[0]) < 1e-14 * max(1, abs(d[1]))
                or abs(d[1]) < 1e-14 * max(1, abs(d[0]))):
            return False
    return True


def count_text(count):
    """A grid's count of cells or candidates as a refusal line gives it: in
    digits up to 10^15, then to three significant digits, and past the
    float range as 'over 1e308'."""
    if count <= 1e15:
        return str(int(count))
    return f"{count:.3g}" if math.isfinite(count) else "over 1e308"


def _box_grid(vertices, cell, budget, refusal):
    # nodes of the grid over the bounding box whose cells are at most `cell`
    # wide, numbered as in _grid_cells, and its cell counts; more cells than
    # budget raise refusal.format(count_text(cells), budget) before anything
    # is built. The counts are floats, so a tiny cell counts inf cells
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    nx, ny = (max(1.0, float(np.ceil(float(b - a) / cell - 1e-12)))
              for a, b in zip(lo, hi))
    if nx * ny > budget:
        raise ValueError(refusal.format(count_text(nx * ny), budget))
    nx, ny = int(nx), int(ny)
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], nx + 1),
                       np.linspace(lo[1], hi[1], ny + 1), indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()]), nx, ny


def _structured_mesh(domain, target_size, budget):
    nodes, nx, ny = _box_grid(domain.vertices, target_size, budget,
                              "mesh would need {} elements, budget is {}")
    return _finish_mesh(nodes, _grid_cells(nx, ny), domain)


def _overlay_mesh(domain, target_size, budget):
    # uniform overlay of the bounding box; cells kept by centroid membership,
    # then nodes outside the polygon snapped to their nearest boundary point.
    # cell size 0.7*target keeps post-snap element diameters under 2*target.
    v = domain.vertices
    grid_nodes, nx, ny = _box_grid(v, 0.7 * target_size, budget,
                                   "overlay grid of {} cells exceeds budget {}")
    cells = _grid_cells(nx, ny)
    centers = 0.5 * (grid_nodes[cells[:, 0]] + grid_nodes[cells[:, 2]])
    keep = points_in_polygon(centers, v)
    if not np.any(keep):
        raise ValueError("no overlay cell centroid falls inside the polygon")
    cells = cells[keep]

    used = np.unique(cells)
    remap = -np.ones(len(grid_nodes), dtype=int)
    remap[used] = np.arange(len(used))
    nodes = grid_nodes[used].copy()
    elements = remap[cells]

    outside = ~points_in_polygon(nodes, v)
    if np.any(outside):
        nodes[outside] = _nearest_on_polygon(nodes[outside], v)[1]
    return _finish_mesh(nodes, elements, domain)


def generate_mesh(domain, target_size, element_budget=None):
    """Mesh a domain with quads of diameter at most 2*target_size.

    Axis-aligned rectangles become structured grids; everything else goes
    through the bounding-box overlay with boundary snapping.
    """
    if not target_size > 0:
        raise ValueError("target_size must be positive")
    budget = element_budget if element_budget is not None else DEFAULT_ELEMENT_BUDGET
    if _is_axis_aligned_rectangle(domain.vertices):
        return _structured_mesh(domain, target_size, budget)
    return _overlay_mesh(domain, target_size, budget)


# ---------------------------------------------------------------------------
# element masks


@dataclass(frozen=True)
class ElementMask:
    """Boolean per-element indicator with its flagged area.

    Masks produced by rasterize_inclusion keep the source polygons so that
    depth (fatness) queries can measure distance to the region boundary.
    """

    flags: np.ndarray
    area: float
    polygons: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.flags, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "flags", arr)
        if self.area < -1e-12:
            raise ValueError("mask area must be nonnegative")

    @property
    def empty(self):
        return not bool(self.flags.any())


def rasterize_inclusion(mesh, inclusion_polygons):
    """Flag elements whose centroid lies in any of the inclusion polygons."""
    polys = []
    for p in inclusion_polygons if inclusion_polygons is not None else []:
        arr = np.asarray(p, dtype=float)
        if not polygon_is_simple(arr):
            raise ValueError("inclusion polygon is not simple")
        polys.append(arr)
    flags = np.zeros(mesh.n_elements, dtype=bool)
    cents = mesh.element_centroids
    for p in polys:
        flags |= points_in_polygon(cents, p)
    area = float(mesh.element_areas[flags].sum())
    ap = mesh.domain.apriori
    if polys:
        clearance = _polygon_pair_distance(polys, mesh.domain.vertices)
        if clearance < ap.d0 * ap.rho0:
            warnings.warn(
                f"inclusion comes within {clearance:.3g} of the boundary, "
                f"less than d0*rho0 = {ap.d0 * ap.rho0:.3g}")
    return ElementMask(flags, area, tuple(np.array(p) for p in polys))


def _polygon_pair_distance(polys, outer_vertices):
    # min over vertex-to-segment distances both ways; exact for polygon pairs
    best = np.inf
    for p in polys:
        best = min(best, points_segment_distance(p, outer_vertices).min())
        best = min(best, points_segment_distance(outer_vertices, p).min())
    return float(best)


def fatness_ratio(mesh, indicator, depth):
    """|D_depth| / |D| for the rasterized inclusion D.

    D_depth keeps the flagged elements whose centroid lies deeper than
    `depth` from the boundary of the source polygons. Empty indicators give
    ratio 1 with a warning.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if indicator.empty:
        warnings.warn("fatness ratio of an empty indicator, returning 1")
        return 1.0
    if not indicator.polygons:
        raise ValueError("indicator has no source polygons to measure depth against")
    cents = mesh.element_centroids[indicator.flags]
    d = np.full(len(cents), np.inf)
    for p in indicator.polygons:
        d = np.minimum(d, points_segment_distance(cents, p))
    areas = mesh.element_areas[indicator.flags]
    deep = d > depth
    return float(areas[deep].sum() / areas.sum())


# ---------------------------------------------------------------------------
# external interfaces


# the largest coordinate magnitude of a polygon file: the squared distances
# and orientation products of such points, at most 8e300, stay finite
MAX_COORDINATE = 1e150


def read_polygons(path):
    """Read polygons from text: one 'x y' vertex per line, blank line between
    polygons; every coordinate finite and at most MAX_COORDINATE in
    magnitude."""
    polys = []
    current = []
    with open(path) as fh:
        for num, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                if current:
                    polys.append(np.array(current, dtype=float))
                    current = []
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad polygon line: {raw!r}")
            current.append((float(parts[0]), float(parts[1])))
            if not np.isfinite(current[-1]).all():
                raise ValueError(f"{path}:{num}: values must be finite")
            if (np.abs(current[-1]) > MAX_COORDINATE).any():
                raise ValueError(f"{path}:{num}: values must be at most "
                                 "1e150 in magnitude")
    if current:
        polys.append(np.array(current, dtype=float))
    if not polys:
        raise ValueError(f"no polygons found in {path}")
    return polys
