"""Input writers, reference formulas and boundary modes that only the tests
use."""

import csv
import os
import re
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from platelab.functionals import _fractional_norm, _loop_spectrum
from platelab.geometry import GAUSS2, AprioriData, Domain, ElementMask
from platelab.material import _BEND_COLS, _SHEAR_COLS, derive_plate_tensors
from platelab.solver import BoundaryLoad, element_operators


def write_polygons(path, polys):
    with open(path, "w") as fh:
        for k, p in enumerate(polys):
            if k:
                fh.write("\n")
            for x, y in np.asarray(p, dtype=float):
                fh.write(f"{float(x)!r} {float(y)!r}\n")


def append_line(path, text):
    """Append text and a newline to path in one write, so that the lines of
    forked worker processes land whole."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, (text + "\n").encode())
    finally:
        os.close(fd)


def dumbbell(neck, length=1.0, center=0.5):
    """Unit squares at x = 0 and x = 1 + length, joined by a neck of the
    given width centered at y = center."""
    lo, hi, b = center - 0.5 * neck, center + 0.5 * neck, 1.0 + length
    return np.array([[0, 0], [1, 0], [1, lo], [b, lo], [b, 0], [b + 1, 0],
                     [b + 1, 1], [b, 1], [b, hi], [1, hi], [1, 1], [0, 1]],
                    dtype=float)


# the refusals of generate_mesh on a valid domain
MESH_REFUSAL = re.compile(
    r"boundary is not a collection of simple loops|"
    r"boundary nodes \d+ and \d+ coincide|"
    r"mesh boundary splits into several loops|"
    r"element \d+ has a nonpositive Jacobian|"
    r"no overlay cell centroid falls inside the polygon")


@st.composite
def overlay_domains(draw):
    """Star, L, U and dumbbell domains, none an axis-aligned rectangle."""
    kind = draw(st.sampled_from(["star", "l", "u", "dumbbell"]))
    if kind == "star":
        # sorted angles at most 1.8 (2 pi / k) apart keep the origin inside
        k = draw(st.integers(5, 11))
        shifts = draw(st.lists(st.floats(0.0, 0.8), min_size=k, max_size=k))
        radii = draw(st.lists(st.floats(0.3, 1.0), min_size=k, max_size=k))
        turns = 2.0 * np.pi * (np.arange(k) + np.array(shifts)) / k
        verts = np.array(radii)[:, None] * np.column_stack(
            [np.cos(turns), np.sin(turns)])
        return Domain(verts, AprioriData(x0=(0.0, 0.0)))
    if kind == "dumbbell":
        neck, length, center = (draw(st.floats(lo, hi)) for lo, hi in
                                ((0.005, 0.3), (0.2, 1.0), (0.2, 0.8)))
        return Domain(dumbbell(neck, length, center),
                      AprioriData(x0=(0.5, 0.5)))
    # a by b outer box; the L cuts its top right corner at (c, d), the U
    # has arms of width w over a slot floor at height d
    a, b = (draw(st.floats(0.6, 1.4)) for _ in range(2))
    c, d = (t * draw(st.floats(0.2, 0.8)) for t in (a, b))
    if kind == "l":
        verts = [(0, 0), (a, 0), (a, d), (c, d), (c, b), (0, b)]
        return Domain(np.array(verts), AprioriData(x0=(0.5 * c, 0.5 * d)))
    w = 0.4 * c
    verts = [(0, 0), (a, 0), (a, b), (a - w, b), (a - w, d), (w, d), (w, b),
             (0, b)]
    return Domain(np.array(verts), AprioriData(x0=(0.5 * a, 0.5 * d)))


def mask_to_csv(mask, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_id", "flag"])
        for i, f in enumerate(mask.flags):
            writer.writerow([i, int(f)])


def mask_from_csv(path, mesh):
    flags = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["element_id", "flag"]:
            raise ValueError("expected header element_id,flag")
        flags = np.zeros(mesh.n_elements, dtype=bool)
        for row in reader:
            flags[int(row[0])] = bool(int(row[1]))
    return ElementMask(flags, float(mesh.element_areas[flags].sum()))


def rows(matrix, n):
    """n copies of a matrix, one table row per element."""
    return np.repeat(matrix[None], n, axis=0)


def bending_apply(mat, a):
    """Apply the background bending tensor to a 2x2 matrix."""
    t = derive_plate_tensors(mat)
    b, nu = t.rigidity, t.nu
    a = np.asarray(a, dtype=float)
    sym = 0.5 * (a + a.T)
    return b * ((1.0 - nu) * sym + nu * np.trace(a) * np.eye(2))


def write_shear_table(path, element_ids, stilde):
    st = np.asarray(stilde, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SHEAR_COLS)
        for i, e in enumerate(element_ids):
            w.writerow([int(e), repr(float(st[i, 0, 0])),
                        repr(float(st[i, 0, 1])), repr(float(st[i, 1, 1]))])


def write_bending_table(path, element_ids, ptilde):
    pt = np.asarray(ptilde, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_BEND_COLS)
        for i, e in enumerate(element_ids):
            m = pt[i]
            w.writerow([int(e)] + [repr(float(v)) for v in
                                   (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])])


# norm ratios and boundary modes


class Ratio(NamedTuple):
    """A norm ratio, or NaN with degenerate set when its denominator vanishes."""

    value: float
    degenerate: bool


def korn_ratio(state):
    """Full-gradient to symmetric-gradient-plus-shear ratio of a state."""
    mesh = state.mesh
    rho0 = mesh.domain.apriori.rho0
    ops = element_operators(mesh, 2, state.assumed_shear)
    wts = ops.point_weights()
    g1 = ops.scalar_grads(state.phi1)
    g2 = ops.scalar_grads(state.phi2)
    num_sq = float(np.sum(wts[..., None] * (g1 ** 2 + g2 ** 2)))
    bend_sq, shear_sq = ops.strain_squares(state.u)
    den = (np.sqrt(float(np.sum(wts * bend_sq)))
           + np.sqrt(float(np.sum(wts * shear_sq))) / rho0)
    scale = np.sqrt(np.sum(wts) * max(np.abs(state.u).max(initial=0.0), 1.0))
    if den <= 1e-14 * scale:
        return Ratio(float("nan"), True)
    return Ratio(float(np.sqrt(num_sq) / den), False)


def poincare_ratio(mesh, nodal, rho0=None):
    """Mean-free L2 norm over rho0 times the gradient norm, for a nodal field."""
    if rho0 is None:
        rho0 = mesh.domain.apriori.rho0
    nodal = np.asarray(nodal, dtype=float)
    ops = element_operators(mesh, 2, True)
    wts = ops.point_weights()
    vals = ops.scalar_values(nodal)
    grads = ops.scalar_grads(nodal)
    area = float(np.sum(wts))
    mean = float(np.sum(wts * vals)) / area
    var = float(np.sum(wts * (vals - mean) ** 2))
    grad_sq = float(np.sum(wts[..., None] * grads ** 2))
    scale = max(np.abs(nodal).max(initial=0.0), 1.0)
    if grad_sq <= (1e-14 * scale) ** 2 * area:
        return Ratio(float("nan"), True)
    return Ratio(float(np.sqrt(var) / (rho0 * np.sqrt(grad_sq))), False)


def boundary_fractional_norm(g, s, points, rho0):
    """Spectral norm of samples g at the points of a closed loop, at order s
    (s = -1/2 or -1).

    norm^2 = sum_k (1 + rho0^2 lambda_k)^s <g, v_k>^2 over the closed-loop
    eigenpairs; vector-valued samples combine components root-sum-square.
    """
    spectrum = _loop_spectrum(np.asarray(points, dtype=float))
    return _fractional_norm(g, s, spectrum, rho0)


def boundary_mode(mesh, k):
    """k-th Laplace-Beltrami eigenpair of the boundary loop.

    Returns (eigenvalue, nodal values in loop order). Mode 0 is constant.
    """
    lam, vec, _ = _loop_spectrum(mesh.nodes[mesh.boundary_loop()])
    if not 0 <= k < len(lam):
        raise ValueError(f"mode index {k} out of range")
    return float(lam[k]), vec[:, k].copy()


def mode_load(mesh, k, compensate=True):
    """Transverse force given by a boundary eigenmode.

    The mode is interpolated linearly along each edge; with compensate, a
    constant couple is added so the net-moment identity holds exactly and
    the load is solvable.
    """
    if k < 1:
        raise ValueError("mode loads need k >= 1; mode 0 is not equilibrated")
    lam, v = boundary_mode(mesh, k)
    # edge i runs from loop node i to loop node i + 1
    m = np.zeros((len(v), 2, 2))
    q = (np.outer(v, 0.5 * (1.0 - GAUSS2))
         + np.outer(np.roll(v, -1), 0.5 * (1.0 + GAUSS2)))
    load = BoundaryLoad(mesh, q, m)
    if compensate:
        L = load.edge_lengths()
        a, b = (mesh.nodes[mesh.boundary_edges[:, i]] for i in (0, 1))
        pts = (0.5 * (1.0 - GAUSS2)[None, :, None] * a[:, None, :]
               + 0.5 * (1.0 + GAUSS2)[None, :, None] * b[:, None, :])
        int_qx = np.einsum("eg,egc->c", 0.5 * L[:, None] * q, pts)
        const_m = int_qx / float(L.sum())
        m[:] = const_m[None, None, :]
    return load


def edge_rule_work(load, u):
    """Work of a load against a dof vector u, edge by edge: the two-point
    rule on the products of the load samples with u interpolated linearly
    along each edge. The same sum as assemble_load(load) @ u, in another
    order."""
    edges = load.mesh.boundary_edges
    wq = 0.5 * load.edge_lengths()
    na = 0.5 * (1.0 - GAUSS2)
    nb = 0.5 * (1.0 + GAUSS2)
    phi1, phi2, w = u[0::3], u[1::3], u[2::3]
    total = 0.0
    for g in range(2):
        wg = na[g] * w[edges[:, 0]] + nb[g] * w[edges[:, 1]]
        p1 = na[g] * phi1[edges[:, 0]] + nb[g] * phi1[edges[:, 1]]
        p2 = na[g] * phi2[edges[:, 0]] + nb[g] * phi2[edges[:, 1]]
        total += float(np.sum(wq * (load.q[:, g] * wg
                                    + load.m[:, g, 0] * p1
                                    + load.m[:, g, 1] * p2)))
    return total
