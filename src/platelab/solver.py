"""Pure-Neumann Reissner-Mindlin plate solver on quadrilateral meshes.

Unknowns are two rotations and the transverse deflection at each node, in
node-major dof order (phi1_i, phi2_i, w_i) -> (3i, 3i+1, 3i+2). The bilinear
form couples curvature through the bending matrix and the shear strain
phi + grad w through the shear matrix. The shear term uses an assumed strain
interpolation (covariant components tied at edge midpoints) to avoid locking;
a fully integrated variant stays available for comparison studies.

The traction-only problem is singular with the three dimensional kernel
(phi = e1, w = -x1), (phi = e2, w = -x2), (w = 1). Solving fixes the three
dofs of one node, which removes that kernel, factors the reduced symmetric
positive definite stiffness, and shifts the result by kernel motions so
that the means of phi and w vanish. A dense Cholesky path provides an
independent oracle on small meshes: it deflates the known kernel instead
of pinning a node, and refines its solve against a residual in extended
precision.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import GAUSS2, shape_q4
from .material import (bending_voigt, derive_plate_tensors, override_rows,
                       shear_matrix)

_TINY = 1e-300


class SolveError(RuntimeError):
    pass


class CompatibilityError(SolveError):
    """Load has a component on a rigid motion of the free plate."""


def gauss_rule(order):
    """Tensor-product Gauss points on the reference square, row-major in s."""
    x, w = np.polynomial.legendre.leggauss(order)
    pts = np.array([(r, s) for s in x for r in x])
    wts = np.array([wr * ws for ws in w for wr in w])
    return pts, wts


# tying points for the assumed shear field: r-component sampled on the
# horizontal edge midpoints, s-component on the vertical ones
_TIE_R = ((0.0, -1.0), (0.0, 1.0))
_TIE_S = ((-1.0, 0.0), (1.0, 0.0))


def _covariant_row(xy, r, s, comp):
    # row of the covariant shear strain at (r, s) over the 12 element dofs:
    # gamma_c = phi . dx/dc + dw/dc for c in {r, s}
    n, dn = shape_q4(r, s)
    j = dn @ xy
    row = np.zeros(12)
    row[0::3] = n * j[comp, 0]
    row[1::3] = n * j[comp, 1]
    row[2::3] = dn[comp]
    return row


def _element_tables(xy, pts, assumed):
    """Strain-displacement tables for one element geometry.

    Returns bending rows (G, 3, 12), shear rows (G, 2, 12), and the
    Jacobian determinants (G,). Translation invariant, so congruent
    elements can share one set of tables.
    """
    g = len(pts)
    bb = np.zeros((g, 3, 12))
    bs = np.zeros((g, 2, 12))
    det = np.zeros(g)
    shap = np.zeros((g, 4))
    if assumed:
        tie_r = [_covariant_row(xy, r, s, 0) for r, s in _TIE_R]
        tie_s = [_covariant_row(xy, r, s, 1) for r, s in _TIE_S]
    for k, (r, s) in enumerate(pts):
        n, dn = shape_q4(r, s)
        j = dn @ xy
        det[k] = np.linalg.det(j)
        if det[k] <= 0.0:
            raise SolveError("element Jacobian is not positive")
        jinv = np.linalg.inv(j)
        dnx = jinv @ dn
        shap[k] = n
        bb[k, 0, 0::3] = dnx[0]
        bb[k, 1, 1::3] = dnx[1]
        bb[k, 2, 0::3] = dnx[1]
        bb[k, 2, 1::3] = dnx[0]
        if assumed:
            cov = np.vstack([
                0.5 * (1.0 - s) * tie_r[0] + 0.5 * (1.0 + s) * tie_r[1],
                0.5 * (1.0 - r) * tie_s[0] + 0.5 * (1.0 + r) * tie_s[1],
            ])
            bs[k] = jinv @ cov
        else:
            bs[k, 0, 0::3] = n
            bs[k, 0, 2::3] = dnx[0]
            bs[k, 1, 1::3] = n
            bs[k, 1, 2::3] = dnx[1]
    return bb, bs, det, shap


@dataclass
class _Group:
    idx: np.ndarray     # element indices sharing this geometry
    bb: np.ndarray      # (G, 3, 12)
    bs: np.ndarray      # (G, 2, 12)
    detw: np.ndarray    # (G,) Jacobian determinant times Gauss weight
    shape: np.ndarray   # (G, 4)
    int_shape: np.ndarray  # (4,) integral of each shape function


class ElementOps:
    """Per-element strain operators, grouped by congruent geometry."""

    def __init__(self, mesh, order=2, assumed=True):
        self.mesh = mesh
        self.pts, wts = gauss_rule(order)
        quads = mesh.nodes[mesh.elements]
        local = quads - quads[:, :1, :]
        keys = local.round(12)
        groups = {}
        for e in range(mesh.n_elements):
            groups.setdefault(keys[e].tobytes(), []).append(e)
        self.groups = []
        self.group_of = np.zeros(mesh.n_elements, dtype=int)
        for gi, (key, elems) in enumerate(sorted(groups.items())):
            idx = np.array(elems, dtype=int)
            bb, bs, det, shap = _element_tables(local[idx[0]], self.pts, assumed)
            detw = det * wts
            self.groups.append(_Group(idx, bb, bs, detw, shap, shap.T @ detw))
            self.group_of[idx] = gi

    def dof_indices(self):
        el = self.mesh.elements
        base = (3 * el)[:, :, None] + np.arange(3)[None, None, :]
        return base.reshape(self.mesh.n_elements, 12)

    def _per_group(self, tail, value):
        # (ne,) + tail array holding value(g) on the elements of each group
        out = np.zeros((self.mesh.n_elements,) + tail)
        for g in self.groups:
            out[g.idx] = value(g)
        return out

    def stiffness_blocks(self, bend, shear, elements=None):
        """Element matrices (n, 12, 12) of the elements in the index array
        elements, in that order (all elements when None), for per-element
        bend (ne,3,3) and shear (ne,2,2) coefficient matrices."""
        if elements is None:
            elements = np.arange(self.mesh.n_elements)
        out = np.empty((len(elements), 12, 12))
        group = self.group_of[elements]
        for gi in np.unique(group):
            at = np.flatnonzero(group == gi)
            g, idx = self.groups[gi], elements[at]
            bbw = g.bb * g.detw[:, None, None]
            bsw = g.bs * g.detw[:, None, None]
            ke = np.einsum("gai,eab,gbj->eij", bbw, bend[idx], g.bb,
                           optimize=True)
            ke += np.einsum("gai,eab,gbj->eij", bsw, shear[idx], g.bs,
                            optimize=True)
            out[at] = 0.5 * (ke + np.swapaxes(ke, 1, 2))
        return out

    def curvatures(self, u):
        """(ne, G, 3) curvature vectors (k11, k22, k12_eng) of a dof vector."""
        ue = u[self.dof_indices()]
        return self._per_group((len(self.pts), 3), lambda g: np.einsum(
            "gai,ei->ega", g.bb, ue[g.idx]))

    def shears(self, u):
        """(ne, G, 2) shear strain phi + grad w (assumed field if enabled)."""
        ue = u[self.dof_indices()]
        return self._per_group((len(self.pts), 2), lambda g: np.einsum(
            "gai,ei->ega", g.bs, ue[g.idx]))

    def strain_squares(self, u):
        """(bend_sq, shear_sq), each (ne, G): |sym grad phi|^2, whose
        engineering twist k12_eng carries weight 1/2, and |phi + grad w|^2."""
        curv = self.curvatures(u)
        shear = self.shears(u)
        return (curv[..., 0] ** 2 + curv[..., 1] ** 2 + 0.5 * curv[..., 2] ** 2,
                shear[..., 0] ** 2 + shear[..., 1] ** 2)

    def scalar_values(self, nodal):
        vals = nodal[self.mesh.elements]
        return self._per_group((len(self.pts),),
                               lambda g: vals[g.idx] @ g.shape.T)

    def scalar_grads(self, nodal):
        # gradients need per-point Jacobians; recover them from the bending
        # rows, whose first row holds d/dx and second d/dy of the shapes
        vals = nodal[self.mesh.elements]
        return self._per_group((len(self.pts), 2), lambda g: np.stack([
            np.einsum("gi,ei->eg", g.bb[:, 0, 0::3], vals[g.idx]),
            np.einsum("gi,ei->eg", g.bb[:, 1, 1::3], vals[g.idx])], axis=-1))

    def point_weights(self):
        return self._per_group((len(self.pts),), lambda g: g.detw)

    def point_positions(self):
        quads = self.mesh.nodes[self.mesh.elements]
        return self._per_group((len(self.pts), 2), lambda g: np.einsum(
            "gi,eic->egc", g.shape, quads[g.idx]))

    def shape_integrals(self):
        return self._per_group((4,), lambda g: g.int_shape)


def element_operators(mesh, order=2, assumed=True):
    """The ElementOps of a mesh, built once per (order, assumed) and kept on
    the mesh."""
    cache = mesh.__dict__.setdefault("_element_ops", {})
    key = (order, assumed)
    if key not in cache:
        cache[key] = ElementOps(mesh, order, assumed)
    return cache[key]


def kernel_basis(mesh):
    """The three traction-free motions as dof vectors, rows of (3, ndof)."""
    n = mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    k = np.zeros((3, 3 * n))
    k[0, 0::3] = 1.0
    k[0, 2::3] = -x
    k[1, 1::3] = 1.0
    k[1, 2::3] = -y
    k[2, 2::3] = 1.0
    return k


@dataclass
class LinearSystem:
    """Assembled stiffness with the three mean-value constraint rows.

    The constraints fix the free kernel motion of a solve: solutions are
    normalized so that constraints @ u vanishes.

    rhs stays None until with_load attaches an assembled load vector
    (assemble_load); constraints has
    rows (integral of phi1, integral of phi2, integral of w).
    """

    stiffness: sp.csr_matrix
    constraints: np.ndarray
    mesh: object
    assumed_shear: bool
    rhs: np.ndarray | None = None

    @property
    def n_dof(self):
        return self.stiffness.shape[0]

    def with_load(self, rhs):
        return replace(self, rhs=np.asarray(rhs, dtype=float))


def _coefficient_fields(mesh, material, indicator, inclusion):
    ne = mesh.n_elements
    tens = derive_plate_tensors(material)
    bend = np.repeat(bending_voigt(tens)[None], ne, axis=0)
    shear = np.repeat(shear_matrix(tens)[None], ne, axis=0)
    if inclusion is not None and not inclusion.scalar:
        row = override_rows(inclusion, ne)
    if indicator is not None and not indicator.empty:
        if inclusion is None:
            raise ValueError("flagged elements need an inclusion override")
        fl = indicator.flags
        if inclusion.scalar:
            with np.errstate(over="ignore"):
                bend[fl] *= inclusion.kappa
                shear[fl] *= inclusion.kappa
            if not (np.isfinite(bend).all() and np.isfinite(shear).all()):
                raise ValueError("kappa overflows the inclusion's plate "
                                 "tensors")
        else:
            miss = fl & (row < 0)
            if miss.any():
                raise ValueError("override tables miss flagged element "
                                 f"{np.argmax(miss)}")
            shear[fl] = inclusion.stilde[row[fl]]
            bend[fl] = inclusion.ptilde[row[fl]]
    return bend, shear


def assemble_stiffness(mesh, material, indicator=None, inclusion=None,
                       assumed_shear=True):
    """Stiffness and constraint rows for the composite plate."""
    bend, shear = _coefficient_fields(mesh, material, indicator, inclusion)
    ops = element_operators(mesh, 2, assumed_shear)
    k = _assemble(ops, bend, shear)

    intn = ops.shape_integrals()
    nodal = np.zeros(mesh.n_nodes)
    np.add.at(nodal, mesh.elements.ravel(), intn.ravel())
    c = np.zeros((3, 3 * mesh.n_nodes))
    c[0, 0::3] = nodal
    c[1, 1::3] = nodal
    c[2, 2::3] = nodal
    return LinearSystem(k, c, mesh, assumed_shear)


def assemble_update(mesh, material, indicator, inclusion, assumed_shear=True):
    """The stiffness an inclusion adds to the reference plate's: the
    element matrices of the coefficient difference, assembled over the
    flagged elements only."""
    bend, shear = _coefficient_fields(mesh, material, indicator, inclusion)
    bend0, shear0 = _coefficient_fields(mesh, material, None, None)
    ops = element_operators(mesh, 2, assumed_shear)
    return _assemble(ops, bend - bend0, shear - shear0,
                     np.flatnonzero(indicator.flags))


def _assemble(ops, bend, shear, elements=None):
    # sparse sum of the element matrices of all elements, or of elements
    ke = ops.stiffness_blocks(bend, shear, elements)
    dofs = ops.dof_indices()
    if elements is not None:
        dofs = dofs[elements]
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n = 3 * ops.mesh.n_nodes
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# boundary loads

@dataclass
class BoundaryLoad:
    """Per-edge Gauss samples of the transverse force q and couple m.

    q has shape (n_edges, 2) and m (n_edges, 2, 2): two Gauss points per
    edge at parameters -1/sqrt(3), 1/sqrt(3), edges in loop order. The
    samples are linear along each edge, so the two-point rule integrates
    every boundary term exactly.
    """

    mesh: object
    q: np.ndarray
    m: np.ndarray

    def edge_lengths(self):
        a = self.mesh.nodes[self.mesh.boundary_edges[:, 0]]
        b = self.mesh.nodes[self.mesh.boundary_edges[:, 1]]
        return np.linalg.norm(b - a, axis=1)

    def nodal_samples(self):
        """(q, m) at the boundary nodes in loop order: the linear extension
        of the two stored samples to both ends of every edge, averaged over
        the two edges meeting at each node; edge i ends where edge i + 1
        starts."""
        span = GAUSS2[1] - GAUSS2[0]
        samples = []
        for v in (self.q, self.m):
            mid = 0.5 * (v[:, 0] + v[:, 1])
            slope = (v[:, 1] - v[:, 0]) / span
            samples.append(0.5 * ((mid - slope)
                                  + np.roll(mid + slope, 1, axis=0)))
        return tuple(samples)

    def norm(self):
        """L2 boundary norms (of q, of m)."""
        w = 0.5 * self.edge_lengths()
        nq = float(np.sqrt(np.sum(w[:, None] * self.q ** 2)))
        nm = float(np.sqrt(np.sum(w[:, None] * np.sum(self.m ** 2, axis=2))))
        return nq, nm

    @property
    def is_zero(self):
        return not (np.any(self.q) or np.any(self.m))


def load_from_family(mesh, family, material=None):
    """Analytic load families.

    'pure_bending a=<v>': couple rigidity*a*(1+nu) along the outward normal,
        whose exact solution is phi = a x, w = -a |x|^2 / 2.
    'edge_moment c=<v>': couple c along the outward normal.
    'twist a=<v>': couple rigidity*a*(1-nu)*(n2, n1), exact solution
        phi = a (x2, x1), w = -a x1 x2.

    A family reads its own parameter alone, given at most once; it
    defaults to 1.
    """
    name, value = _parse_family(family)
    if name == "edge_moment":
        c = value
    else:
        if material is None:
            raise ValueError(f"family '{name}' needs the background material")
        t = derive_plate_tensors(material)
        c = t.rigidity * value * (1.0 + t.nu if name == "pure_bending"
                                  else 1.0 - t.nu)
    # every couple is constant along a straight edge, so both Gauss samples
    # hold it
    normals = mesh.boundary_normals
    if name == "twist":
        normals = normals[:, ::-1]
    m = np.repeat((c * normals)[:, None, :], len(GAUSS2), axis=1)
    return BoundaryLoad(mesh, np.zeros(m.shape[:2]), m)


def exact_strains(family, material):
    """Constant exact curvature, shear and energy density of a load family.

    The closed forms of load_from_family: returns (curvature 3-vector,
    shear 2-vector, strain energy density).
    """
    kind, a = _parse_family(family)
    t = derive_plate_tensors(material)
    b, nu = float(t.rigidity), float(t.nu)
    if kind == "edge_moment":
        a = a / (b * (1.0 + nu))
    try:
        density = 2.0 * b * a ** 2 * (1.0 - nu if kind == "twist" else 1.0 + nu)
    except OverflowError:
        density = float("inf")
    if not np.isfinite(density):
        raise ValueError(f"load '{family}' overflows the exact energy density")
    if kind == "twist":
        return np.array([0.0, 0.0, 2.0 * a]), np.zeros(2), density
    return np.array([a, a, 0.0]), np.zeros(2), density


# each load family and the one parameter it reads
_FAMILY_PARAMETER = {"pure_bending": "a", "twist": "a", "edge_moment": "c"}


def _parse_family(spec):
    """(name, value) of a family string 'name [key=value]': key must be the
    family's own parameter, given at most once, and value defaults to 1."""
    parts = spec.split()
    if not parts:
        raise ValueError("empty load family")
    name = parts[0]
    if name not in _FAMILY_PARAMETER:
        raise ValueError(f"unknown load family '{name}'")
    value = 1.0
    for i, tok in enumerate(parts[1:]):
        key, _, val = tok.partition("=")
        if i == 0 and key == _FAMILY_PARAMETER[name]:
            try:
                value = float(val)
            except ValueError:
                pass
            else:
                if not np.isfinite(value):
                    raise ValueError(f"family parameter '{tok}' must be finite")
                continue
        raise ValueError(f"bad family parameter '{tok}'")
    return name, value


def assemble_load(load):
    """Consistent load vector f on load.mesh by the two-point edge rule, the
    one discrete form of the load: f . u is its work against a dof vector u.

    Each boundary node gets the start terms of its edge and the end terms
    of the edge before it, in loop order. solve checks f against the rigid
    motions.
    """
    mesh = load.mesh
    wq = 0.5 * load.edge_lengths()
    loop = mesh.boundary_loop()
    f = np.zeros(3 * mesh.n_nodes)
    # dofs (phi1, phi2, w) take the couple components and the force
    for dof, v in enumerate((load.m[..., 0], load.m[..., 1], load.q)):
        total = 0.0
        for gi, t in enumerate(GAUSS2):
            total = (total + wq * (0.5 * (1.0 - t)) * v[:, gi]
                     + np.roll(wq * (0.5 * (1.0 + t)) * v[:, gi], 1))
        f[3 * loop + dof] = total
    return f


# ---------------------------------------------------------------------------
# solving


@dataclass
class PlateState:
    """Solved dof vector with solve diagnostics."""

    u: np.ndarray
    mesh: object
    residual: float                 # ||K u - f|| / ||f||
    normalization: np.ndarray       # (3,) constraint values, should be ~0
    assumed_shear: bool = True

    @property
    def phi1(self):
        return self.u[0::3]

    @property
    def phi2(self):
        return self.u[1::3]

    @property
    def w(self):
        return self.u[2::3]


def _check_kernel_compatibility(mesh, f):
    # a balanced load does no work on a rigid motion k: f . k vanishes up to
    # the rounding of its own terms, whose size is |f| . |k|
    for i, k in enumerate(kernel_basis(mesh)):
        if abs(f @ k) > COMPAT_TOL * (np.abs(f) @ np.abs(k)) + _TINY:
            raise CompatibilityError(
                f"load has a component on rigid motion {i}: {f @ k:.3e}")


def _normalized_state(system, u, k):
    """PlateState of a solution u of k u = rhs, shifted by the kernel
    motions that zero its constraints."""
    mesh, c, f = system.mesh, system.constraints, system.rhs
    z = kernel_basis(mesh).T
    u = u - z @ np.linalg.solve(c @ z, c @ u)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.linalg.norm(k @ u - f) / (np.linalg.norm(f) + _TINY)
    if not np.isfinite(res):
        raise SolveError("solve residual is not finite")
    return PlateState(u, mesh, float(res), c @ u, system.assumed_shear)


def _pinned_node(mesh):
    # the node nearest the node centroid, whose three dofs solve fixes; a
    # central pin keeps the pinned solution small, which keeps the residual
    # small
    d = mesh.nodes - mesh.nodes.mean(axis=0)
    return int(np.argmin(np.einsum("ij,ij->i", d, d)))


# subdomains of at most this many nodes are not split further
_ND_LEAF = 8


def _ranks(group):
    # the rank of each entry among the entries of its group, in array order
    order = np.argsort(group, kind="stable")
    count = np.bincount(group)
    rank = np.empty(len(group), dtype=int)
    rank[order] = np.arange(len(group)) - (np.cumsum(count) - count)[
        group[order]]
    return rank


def _dissection_order(mesh, pinned):
    """The nodes other than pinned in geometric nested dissection order
    (George 1973, "Nested dissection of a regular finite element mesh").

    Two nodes are neighbours when an element holds both. Every subdomain of
    more than _ND_LEAF nodes is split at its coordinate median, on the axis
    and with the tie rule (below, or at most, the median) whose separator is
    the smaller: the nodes above the split that neighbour one below it. The
    nodes below come first, then those above, then the separator, and each
    side is ordered the same way in turn; a leaf keeps its nodes in index
    order. All subdomains of one level split together.
    """
    n = mesh.n_nodes
    el = mesh.elements
    # each neighbour pair once, as (a, b) with a < b
    a = el[:, [0, 0, 0, 1, 1, 2]].ravel()
    b = el[:, [1, 2, 3, 2, 3, 3]].ravel()
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    a, b = np.divmod(key[np.r_[True, key[1:] != key[:-1]]], n)
    keep = (a != pinned) & (b != pinned)
    a, b = a[keep], b[keep]
    # a live node's subdomain is named by first, the first position the
    # subdomain's nodes take; pos is the position of a placed node
    first = np.zeros(n, dtype=int)
    pos = np.empty(n, dtype=int)
    live = np.ones(n, dtype=bool)
    live[pinned] = False
    while live.any():
        nodes = np.flatnonzero(live)
        _, group, size = np.unique(first[nodes], return_inverse=True,
                                   return_counts=True)
        leaf = size[group] <= _ND_LEAF
        pos[nodes[leaf]] = first[nodes[leaf]] + _ranks(group[leaf])
        live[nodes[leaf]] = False
        nodes = nodes[~leaf]
        split = size > _ND_LEAF
        group = (np.cumsum(split) - 1)[group[~leaf]]
        size = size[split]
        start = np.cumsum(size) - size
        best = np.full(len(size), np.inf)
        low = np.zeros(len(nodes), dtype=bool)
        sep = np.zeros(len(nodes), dtype=bool)
        for axis in (0, 1):
            x = mesh.nodes[nodes, axis]
            s = x[np.lexsort((x, group))]
            median = 0.5 * (s[start + (size - 1) // 2] + s[start + size // 2])
            for below in (np.less, np.less_equal):
                lo = below(x, median[group])
                is_lo = np.zeros(n, dtype=bool)
                is_lo[nodes[lo]] = True
                on = np.zeros(n, dtype=bool)
                on[b[is_lo[a] & ~is_lo[b]]] = True
                on[a[is_lo[b] & ~is_lo[a]]] = True
                n_lo = np.bincount(group[lo], minlength=len(size))
                cost = np.where((n_lo > 0) & (n_lo < size), np.bincount(
                    group[on[nodes]], minlength=len(size)), np.inf)
                take = (cost < best)[group]
                low = np.where(take, lo, low)
                sep = np.where(take, on[nodes], sep)
                best = np.minimum(cost, best)
        # nodes that no split separates (coincident ones) are placed as a
        # separator of their own, so that every pass places or splits
        sep |= np.isinf(best)[group]
        n_lo = np.bincount(group[low], minlength=len(size))
        n_sep = np.bincount(group[sep], minlength=len(size))
        at = nodes[sep]
        pos[at] = first[at] + (size - n_sep)[group[sep]] + _ranks(group[sep])
        live[at] = False
        high = ~(low | sep)
        first[nodes[high]] += n_lo[group[high]]
        edge = live[a] & live[b] & (first[a] == first[b])
        a, b = a[edge], b[edge]
    order = np.empty(n - 1, dtype=int)
    free = np.flatnonzero(np.arange(n) != pinned)
    order[pos[free]] = free
    return order


# the load check of both solves (rigid-motion components, relative to the
# load's size): the closed-form loads read below 1e-15 and the compensated
# mode loads up to 1.1e-11 (128^2 L-shape), ninety times inside COMPAT_TOL
COMPAT_TOL = 1e-9

# conjugate gradients on a stiffness near a factored one stop at a relative
# residual of CG_TARGET. The back-solves needed grow by about 7-14 per decade
# of contrast (73 at kappa 1e4 on 64^2), so CG_BUDGET leaves room for kappa
# from 1e-3 to 1e4; a miss, or a breakdown on a stiffness that is not
# positive definite, is a SolveError, not a reason to factor it again
CG_TARGET = 1e-13
CG_BUDGET = 200


@dataclass(frozen=True)
class Factor:
    """SuperLU factor of a system's stiffness with the dofs of one node
    pinned: dofs lists the other dofs in the order factored, reduced is the
    stiffness on them in that order."""

    system: LinearSystem
    dofs: np.ndarray
    reduced: sp.csc_matrix
    lu: object


def factorize(system):
    """The Factor of a system's stiffness, in the nested dissection order of
    its mesh's nodes with the three dofs of a node kept together. The pinned
    stiffness is symmetric positive definite, so SuperLU keeps that order
    and the pivots on the diagonal; threshold pivoting leaves it on thin
    plates and multiplies the fill."""
    order = _dissection_order(system.mesh, _pinned_node(system.mesh))
    dofs = (3 * order[:, None] + np.arange(3)).ravel()
    kr = system.stiffness[dofs][:, dofs].tocsc()
    try:
        lu = spla.splu(kr, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from exc
    return Factor(system, dofs, kr, lu)


def solve(system, factor=None, update=None, start=None):
    """Sparse solve normalized to zero-mean rotations and deflection.

    A load f with a component f . k on a rigid motion k beyond COMPAT_TOL
    times |f| . |k| is refused with CompatibilityError before any factoring.
    Fixing the dofs of one node removes the rigid-motion kernel; the reduced
    stiffness is factored once (factor, when given, is factorize(system)),
    the solve gets one step of iterative refinement, and kernel motions then
    shift the result onto the zero-mean constraints.

    With a stiffness change update, the matrix solved is stiffness + update.
    Conjugate gradients, preconditioned with the factor of stiffness and
    started from the dof vector start (zero when None), solve it on the
    reduced dofs; SolveError when CG_BUDGET back-solves do not reach
    CG_TARGET.
    """
    if system.rhs is None:
        raise ValueError("system has no load attached; use with_load first")
    f = system.rhs
    mesh = system.mesh
    _check_kernel_compatibility(mesh, f)
    if factor is None:
        factor = factorize(system)
    elif factor.system is not system:
        raise ValueError("factor belongs to another system")
    dofs, kr, lu = factor.dofs, factor.reduced, factor.lu
    fr = f[dofs]
    k = system.stiffness
    if update is None:
        ur = lu.solve(fr)
        ur += lu.solve(fr - kr @ ur)
    else:
        x = np.zeros(len(fr))
        if start is not None:
            # the pinned solution is start shifted by the kernel motion
            # that zeroes it on the pinned dofs
            z = kernel_basis(mesh).T
            pin = 3 * _pinned_node(mesh) + np.arange(3)
            x = (start - z @ np.linalg.solve(z[pin], start[pin]))[dofs]
        ur = _conjugate_gradients(factor, update[dofs][:, dofs], fr, x)
        k = spla.aslinearoperator(k) + spla.aslinearoperator(update)
    if not np.all(np.isfinite(ur)):
        raise SolveError("sparse factorization produced non-finite values")
    u = np.zeros(system.n_dof)
    u[dofs] = ur
    return _normalized_state(system, u, k)


_CG_OVERFLOW = ("conjugate gradients overflowed: the residual or an inner "
                "product is not a finite double")


def _conjugate_gradients(factor, update, fr, x):
    # reduced (K + update) x = fr by conjugate gradients preconditioned with
    # the factor of K, from x
    lu, kr = factor.lu, factor.reduced

    def apply(v):
        return kr @ v + update @ v

    def converged():
        norm = np.linalg.norm(r)
        if not np.isfinite(norm):
            raise SolveError(_CG_OVERFLOW)
        return norm <= goal

    r = fr - apply(x)
    goal = CG_TARGET * np.linalg.norm(fr)
    p = rz = None
    # an overflow is a SolveError of its own, not a string of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # r and goal scaled by a power of two that puts r near unit norm
        # (a finite power, for a subnormal r): the iterates are the
        # unscaled ones bit for bit, barring subnormals, but the inner
        # products no longer carry the square of an r that grows with the
        # contrast, so they overflow far later
        scale = 2.0 ** -max(int(np.frexp(np.linalg.norm(r))[1]), -1023)
        r *= scale
        goal *= scale
        for _ in range(CG_BUDGET):
            if converged():
                return x
            z = lu.solve(r)
            rz, rz_old = r @ z, rz
            p = z if p is None else z + (rz / rz_old) * p
            q = apply(p)
            pq = p @ q
            if not (np.isfinite(rz) and np.isfinite(pq)):
                raise SolveError(_CG_OVERFLOW)
            if not pq > 0.0:
                raise SolveError("conjugate gradients broke down: the "
                                 "stiffness is not positive definite")
            alpha = rz / pq
            x += alpha * (p / scale)
            r -= alpha * q
        if converged():
            return x
    raise SolveError(f"conjugate gradients missed a relative residual of "
                     f"{CG_TARGET:g} in {CG_BUDGET} back-solves")


# the most dof the dense oracle takes: its dense Cholesky is cubic in them
DENSE_CAP = 600
# a stiffness annihilates the rigid motions to this share of its largest
# entry; the assembled ones read 2e-17 to 4e-17
_ANNIHILATION_TOL = 1e-12


def dense_oracle_solve(system):
    """Dense Cholesky solve, independent of the sparse path.

    The load passes the check that solve makes (CompatibilityError). The
    stiffness K must annihilate the rigid motions, whose orthonormal basis Q
    comes from kernel_basis; K + a Q Q^T, with a the largest entry of |K|,
    is then positive definite and factored by a dense Cholesky. Two steps
    of iterative refinement, the residual formed in np.longdouble, follow
    the solve, and kernel motions then shift the result onto the zero-mean
    constraints. A stiffness that is not positive definite once its rigid
    motions are deflated, the zero one included, is a SolveError.
    """
    if system.rhs is None:
        raise ValueError("system has no load attached; use with_load first")
    n = system.n_dof
    if n > DENSE_CAP:
        raise SolveError(
            f"dense oracle capped at {DENSE_CAP} dof, system has {n}")
    f = system.rhs
    _check_kernel_compatibility(system.mesh, f)
    kd = system.stiffness.toarray()
    a = np.abs(kd).max()
    q = np.linalg.qr(kernel_basis(system.mesh).T)[0]
    if np.abs(kd @ q).max() > _ANNIHILATION_TOL * a:
        raise SolveError("stiffness does not annihilate the rigid motions")
    try:
        chol = scipy.linalg.cho_factor(kd + a * (q @ q.T), lower=True,
                                       check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError("stiffness is not positive definite off the rigid "
                         "motions") from exc
    # f does no work on the rigid motions, so the deflated system's
    # solution solves K u = f, and the refinement's residual is against K
    u = scipy.linalg.cho_solve(chol, f, check_finite=False)
    kl, fl = kd.astype(np.longdouble), f.astype(np.longdouble)
    for _ in range(2):
        r = (fl - kl @ u).astype(float)
        u = u + scipy.linalg.cho_solve(chol, r, check_finite=False)
    return _normalized_state(system, u, kd)


def residual_check(state, material, f, indicator=None, inclusion=None):
    """Weak residual of a state: element terms by the enriched 3x3 rule,
    against the load vector f the solve used (assemble_load).

    Returns (max_element_residual, relative_norm, worst_element).
    """
    mesh = state.mesh
    if len(f) != len(state.u):
        raise ValueError("load vector and state differ in dof count")
    bend, shear = _coefficient_fields(mesh, material, indicator, inclusion)
    ops = element_operators(mesh, 3, state.assumed_shear)
    ke = ops.stiffness_blocks(bend, shear)
    dofs = ops.dof_indices()
    ue = state.u[dofs]
    re = np.einsum("eij,ej->ei", ke, ue)
    r = np.zeros(3 * mesh.n_nodes)
    np.add.at(r, dofs.ravel(), re.ravel())
    r -= f
    per_elem = np.linalg.norm(r[dofs], axis=1)
    worst = int(np.argmax(per_elem))
    rel = float(np.linalg.norm(r) / (np.linalg.norm(f) + _TINY))
    return float(per_elem[worst]), rel, worst
