"""Boundary work, strain energy fields, disk integrals, spectral norms.

The scalar strain energy measure used throughout is
    E^2 = |sym grad phi|^2 + rho0^-2 |phi + grad w|^2,
evaluated at element quadrature points with the same strain operators the
stiffness assembly uses, so discrete work identities hold to round-off.

Boundary load norms of negative order are defined spectrally through the
P1 Laplace-Beltrami eigenpairs of the closed boundary polyline, with modal
weights (1 + rho0^2 lambda)^s; the oscillation ratio compares the order
-1/2 and order -1 norms.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .geometry import GAUSS2
from .solver import BoundaryLoad, _loop_positions, element_operators


@dataclass(frozen=True)
class WorkReport:
    work: float            # with the override region, W
    work_reference: float  # reference plate, W0
    gap: float             # W0 - W
    relative_gap: float


@dataclass(frozen=True)
class EnergyField:
    """Quadrature-point samples of the strain energy measure."""

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    e2: np.ndarray
    mesh: object
    rho0: float

    @property
    def total(self):
        return float(self.weight @ self.e2)


@dataclass(frozen=True)
class FrequencyReport:
    norm_half: float   # combined order -1/2 load norm
    norm_one: float    # combined order -1 load norm
    ratio: float       # norm_half / norm_one, >= 1


def boundary_work(load, state):
    """Work of the boundary load against a state, by edge quadrature.

    Uses the same two point edge rule as the load assembly, so the value
    equals rhs . u exactly for states on the same mesh.
    """
    mesh = load.mesh
    if mesh is not state.mesh:
        raise ValueError("load and state live on different meshes")
    edges = mesh.boundary_edges
    L = load.edge_lengths()
    na = 0.5 * (1.0 - GAUSS2)
    nb = 0.5 * (1.0 + GAUSS2)
    w_nodal = state.w
    phi1, phi2 = state.phi1, state.phi2
    total = 0.0
    for g in range(2):
        wq = 0.5 * L
        wg = na[g] * w_nodal[edges[:, 0]] + nb[g] * w_nodal[edges[:, 1]]
        p1 = na[g] * phi1[edges[:, 0]] + nb[g] * phi1[edges[:, 1]]
        p2 = na[g] * phi2[edges[:, 0]] + nb[g] * phi2[edges[:, 1]]
        total += float(np.sum(wq * (load.q[:, g] * wg
                                    + load.m[:, g, 0] * p1
                                    + load.m[:, g, 1] * p2)))
    return total


def work_report(load, state, state_reference):
    w = boundary_work(load, state)
    w0 = boundary_work(load, state_reference)
    rel = (w0 - w) / w0 if w0 != 0.0 else float("nan")
    return WorkReport(w, w0, w0 - w, rel)


def strain_energy_density(state, rho0=None, order=2):
    """EnergyField of a state at an order x order Gauss rule per element."""
    mesh = state.mesh
    if rho0 is None:
        rho0 = mesh.domain.apriori.rho0
    ops = element_operators(mesh, order, state.assumed_shear)
    bend_sq, shear_sq = ops.strain_squares(state.u)
    e2 = bend_sq + shear_sq / rho0 ** 2
    pos = ops.point_positions()
    return EnergyField(
        x=pos[..., 0].ravel(), y=pos[..., 1].ravel(),
        weight=ops.point_weights().ravel(), e2=e2.ravel(), mesh=mesh,
        rho0=float(rho0))


def _disk_selections(field, centers, radii):
    """Yield, for each center, one (slice, mask) pair per radius.

    The points of the disk are those of field[slice][mask], in index order,
    under the rule (x - cx)^2 + (y - cy)^2 <= r^2. The slice comes from
    running extremes of y, a max from the left and a min from the right:
    every point of the band |y - cy| <= r lies in it whatever the point
    order, and it is short when the points run row by row, as the
    element-by-element samples of a j-major grid do. The band is padded by
    a relative 1e-9 so that rounding in the mask never admits a point
    outside the slice; like the mask, it reads a negative r as |r|.
    """
    x, y = field.x, field.y
    run_max = np.maximum.accumulate(y)
    run_min = np.minimum.accumulate(y[::-1])[::-1]
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.abs(np.asarray(radii, dtype=float))
    half = radii[:, None] * (1.0 + 1e-9) + 1e-9 * np.abs(centers[:, 1])
    lo = np.searchsorted(run_max, centers[:, 1] - half, side="left")
    hi = np.maximum(np.searchsorted(run_min, centers[:, 1] + half,
                                    side="right"), lo)
    r2 = [r ** 2 for r in radii.tolist()]
    for (cx, cy), a, b, los, his in zip(centers.tolist(),
                                        lo.min(axis=0).tolist(),
                                        hi.max(axis=0).tolist(),
                                        lo.T.tolist(), hi.T.tolist()):
        d2 = (x[a:b] - cx) ** 2 + (y[a:b] - cy) ** 2
        yield [(slice(l, h), d2[l - a:h - a] <= rr)
               for l, h, rr in zip(los, his, r2)]


def disk_energies(field, centers, radii):
    """Weighted sums of E^2 over disks, shape (len(centers), len(radii)).

    Entry [i, k] integrates over the disk of radius radii[k] about
    centers[i]; a disk that holds no quadrature point gives 0.0.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    w, e2 = field.weight, field.e2
    out = np.empty((len(centers), len(radii)))
    for i, disks in enumerate(_disk_selections(field, centers, radii)):
        out[i] = [w[sl][m] @ e2[sl][m] for sl, m in disks]
    return out


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


def stability_ratio(state, load):
    """Size of the solved state over the size of its boundary load.

    (|phi|_H1 + |w|_H1 / rho0) / (|m| + rho0 |q|), where the H1 norms weight
    the squared gradient by rho0^2 and the load norms are L2 on the
    boundary; NaN for a zero load.
    """
    mesh = state.mesh
    if load.mesh is not mesh:
        raise ValueError("load and state live on different meshes")
    rho0 = mesh.domain.apriori.rho0
    ops = element_operators(mesh, 2, state.assumed_shear)
    wts = ops.point_weights()

    def h1(nodal):
        vals = ops.scalar_values(nodal)
        grads = ops.scalar_grads(nodal)
        return float(np.sum(wts * vals ** 2)
                     + rho0 ** 2 * np.sum(wts[..., None] * grads ** 2))

    phi_sq = h1(state.phi1) + h1(state.phi2)
    w_sq = h1(state.w)
    nq, nm = load.norm()
    denom = nm + rho0 * nq
    if denom == 0.0:
        return float("nan")
    return (np.sqrt(phi_sq) + np.sqrt(w_sq) / rho0) / denom


# ---------------------------------------------------------------------------
# spectral boundary norms


def closed_boundary_polyline(mesh):
    """Boundary node coordinates in loop order, first point repeated last."""
    loop = mesh.boundary_loop()
    pts = mesh.nodes[loop]
    return np.vstack([pts, pts[:1]])


def _loop_spectrum(polyline):
    # (eigenvalues, eigenvectors, mass matrix) of the P1 Laplace-Beltrami
    # operator on a closed polyline: one dense eigh per call, so frequency
    # computes it once for its four norms
    if not np.array_equal(polyline[0], polyline[-1]):
        raise ValueError("polyline is open; spectral boundary norms need a closed loop")
    pts = polyline[:-1]
    n = len(pts)
    if n < 3:
        raise ValueError("closed polyline needs at least 3 distinct nodes")
    seg = polyline[1:] - polyline[:-1]
    ell = np.linalg.norm(seg, axis=1)
    if np.any(ell == 0.0):
        raise ValueError("polyline has a zero-length segment")
    # P1 stiffness and mass of the loop: segment i joins nodes i and i + 1,
    # and each diagonal entry sums the two segments at its node
    i = np.arange(n)
    j = (i + 1) % n
    t = np.zeros((n, n))
    m = np.zeros((n, n))
    inv = 1.0 / ell
    t[i, i] = inv + np.roll(inv, 1)
    t[i, j] = t[j, i] = -inv
    third = ell / 3.0
    m[i, i] = third + np.roll(third, 1)
    m[i, j] = m[j, i] = ell / 6.0
    lam, vec = scipy.linalg.eigh(t, m)
    return np.clip(lam, 0.0, None), vec, m


def _nodal_samples(g, n):
    g = np.asarray(g, dtype=float)
    if len(g) == n + 1:
        if not np.allclose(g[0], g[-1]):
            raise ValueError("wrapped samples must repeat the first value last")
        g = g[:-1]
    if len(g) != n:
        raise ValueError(f"expected {n} boundary samples, got {len(g)}")
    return g


def boundary_fractional_norm(g, s, polyline, rho0):
    """Spectral norm of boundary samples at order s (s = -1/2 or -1).

    norm^2 = sum_k (1 + rho0^2 lambda_k)^s <g, v_k>^2 over the closed-loop
    eigenpairs; vector-valued samples combine components root-sum-square.
    """
    spectrum = _loop_spectrum(np.asarray(polyline, dtype=float))
    return _fractional_norm(g, s, spectrum, rho0)


def _fractional_norm(g, s, spectrum, rho0):
    # boundary_fractional_norm on the _loop_spectrum of the polyline
    lam, vec, m = spectrum
    n = len(lam)
    g = np.asarray(g, dtype=float)
    if g.ndim == 2:
        comps = [_fractional_norm(g[:, c], s, spectrum, rho0)
                 for c in range(g.shape[1])]
        return float(np.sqrt(sum(v ** 2 for v in comps)))
    g = _nodal_samples(g, n)
    coef = vec.T @ (m @ g)
    weights = (1.0 + rho0 ** 2 * lam) ** s
    return float(np.sqrt(np.sum(weights * coef ** 2)))


def frequency(load):
    """Oscillation measure of a boundary load.

    Combines couple and force norms as (|m|_{-1/2} + rho0 |q|_{-1/2}) over
    the same combination at order -1, with the rho0 of the load's domain;
    modal weight monotonicity makes the ratio at least 1.
    """
    if load.is_zero:
        raise ValueError("frequency of the zero load is undefined")
    mesh = load.mesh
    spectrum = _loop_spectrum(closed_boundary_polyline(mesh))
    rho0 = mesh.domain.apriori.rho0
    nq, nm = load.nodal_samples()
    m_half = _fractional_norm(nm, -0.5, spectrum, rho0)
    m_one = _fractional_norm(nm, -1.0, spectrum, rho0)
    q_half = _fractional_norm(nq, -0.5, spectrum, rho0)
    q_one = _fractional_norm(nq, -1.0, spectrum, rho0)
    num = m_half + rho0 * q_half
    den = m_one + rho0 * q_one
    return FrequencyReport(num, den, num / den)


def boundary_mode(mesh, k):
    """k-th Laplace-Beltrami eigenpair of the boundary loop.

    Returns (eigenvalue, nodal values in loop order). Mode 0 is constant.
    """
    lam, vec, _ = _loop_spectrum(closed_boundary_polyline(mesh))
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
    pos = _loop_positions(mesh)
    edges = mesh.boundary_edges
    m = np.zeros((len(edges), 2, 2))
    va = v[pos[edges[:, 0]]]
    vb = v[pos[edges[:, 1]]]
    q = np.outer(va, 0.5 * (1.0 - GAUSS2)) + np.outer(vb, 0.5 * (1.0 + GAUSS2))
    load = BoundaryLoad(mesh, q, m)
    if compensate:
        L = load.edge_lengths()
        pts = load.edge_points()
        int_qx = np.einsum("eg,egc->c", 0.5 * L[:, None] * q, pts)
        const_m = int_qx / float(L.sum())
        m[:] = const_m[None, None, :]
    return load
