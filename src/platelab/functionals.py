"""Boundary work, strain energy fields, disk integrals, spectral norms.

The scalar strain energy measure used throughout is
    E^2 = |sym grad phi|^2 + rho0^-2 |phi + grad w|^2,
evaluated at element quadrature points with the same strain operators the
stiffness assembly uses, so discrete work identities hold to round-off.

Boundary load norms of negative order are defined spectrally through the
P1 Laplace-Beltrami eigenpairs of the closed boundary loop, with modal
weights (1 + rho0^2 lambda)^s; the oscillation ratio compares the order
-1/2 and order -1 norms.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .solver import element_operators


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
        return float(np.sum(self.weight * self.e2))


@dataclass(frozen=True)
class FrequencyReport:
    norm_half: float   # combined order -1/2 load norm
    norm_one: float    # combined order -1 load norm
    ratio: float       # norm_half / norm_one, >= 1


def boundary_work(f, state):
    """Work of a boundary load against a state: f . u, with f the load
    vector that the solve used (solver.assemble_load)."""
    if len(f) != len(state.u):
        raise ValueError("load vector and state differ in dof count")
    return float(f @ state.u)


def work_report(f, state, state_reference):
    if state.mesh is not state_reference.mesh:
        raise ValueError("states must share one mesh")
    w = boundary_work(f, state)
    w0 = boundary_work(f, state_reference)
    rel = (w0 - w) / w0 if w0 != 0.0 else float("nan")
    return WorkReport(w, w0, w0 - w, rel)


def strain_energy_density(state, order=2):
    """EnergyField of a state at an order x order Gauss rule per element,
    with the rho0 of the state's domain."""
    mesh = state.mesh
    rho0 = mesh.domain.apriori.rho0
    ops = element_operators(mesh, order, state.assumed_shear)
    bend_sq, shear_sq = ops.strain_squares(state.u)
    e2 = bend_sq + shear_sq / rho0 ** 2
    pos = ops.point_positions()
    return EnergyField(
        x=pos[..., 0].ravel(), y=pos[..., 1].ravel(),
        weight=ops.point_weights().ravel(), e2=e2.ravel(), mesh=mesh,
        rho0=float(rho0))


# candidates tested per batch of windowed disks: about 6 MB of transient
# arrays
_BATCH = 1 << 16


def _disk_points(field, centers, radii, values):
    """Yield (k, rows, gathered) batches that cover every disk once.

    The disk of radius radii[k] about centers[i] holds the points with
    (x - cx)^2 + (y - cy)^2 <= r^2; a negative radius reads as |r|. rows
    indexes centers, and gathered[n] holds values at the points of the
    disk about centers[rows][n], in ascending point index. Every disk of a
    batch holds the same number of points, so a row-wise reduction of
    gathered reduces each disk as one call on that disk alone would.

    Only the points of a disk's band |y - cy| <= r are tested. The band is
    one slice [lo, hi) found from running extremes of y, a max from the
    left and a min from the right: it holds the band whatever the point
    order, and it is short when the points run row by row, as the
    element-by-element samples of a j-major grid do. When every x-window
    spans less than a sixteenth of the points' x-extent, a disk tests only
    the band points of its window, which one sort of the band finds for
    every center of that band at once, as on a lattice row. Otherwise each
    center scans the band of its largest disk once, and its smaller disks
    share those distances. Band and window are padded by a relative 1e-9
    so that rounding in the rule never admits a point outside them.
    """
    x, y = field.x, field.y
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.abs(np.asarray(radii, dtype=float))
    if not len(centers) or not len(radii):
        return
    run_max = np.maximum.accumulate(y)
    run_min = np.minimum.accumulate(y[::-1])[::-1]
    half = radii[:, None] * (1.0 + 1e-9) + 1e-9 * np.abs(centers[:, 1])
    lo = np.searchsorted(run_max, centers[:, 1] - half, side="left")
    hi = np.maximum(np.searchsorted(run_min, centers[:, 1] + half,
                                    side="right"), lo)
    r2 = [r ** 2 for r in radii.tolist()]
    # the centers of one height share their bands, as a lattice row does
    order = np.argsort(centers[:, 1], kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(centers[order, 1])) + 1)
    if len(x) and 32.0 * radii.max() < x.max() - x.min():
        for k in range(len(radii)):
            for batch in _windowed(x, y, centers, groups, radii[k], r2[k],
                                   lo[k], hi[k], values):
                yield (k, *batch)
        return
    for g in groups:
        a, b = int(lo[:, g[0]].min()), int(hi[:, g[0]].max())
        dy2 = y[a:b] - centers[g[0], 1]
        dy2 *= dy2
        for i, cx in zip(g.tolist(), centers[g, 0].tolist()):
            d2 = x[a:b] - cx
            d2 *= d2
            d2 += dy2
            for k, (l, h, rr) in enumerate(zip(lo[:, i].tolist(),
                                               hi[:, i].tolist(), r2)):
                m = d2[l - a:h - a] <= rr
                yield k, slice(i, i + 1), values[l:h][m][None, :]


def _windowed(x, y, centers, groups, r, r2, lo, hi, values):
    # _disk_points for one narrow radius: each group of centers, which
    # shares one band, sorts the band by x once, and each center tests the
    # band points of its padded x-window; members collect as sorted
    # (slot, point) keys, slot numbering the centers of the pending batch
    n = len(x)
    cx, cy = centers[:, 0], centers[:, 1]
    halfx = r * (1.0 + 1e-9) + 1e-9 * np.abs(cx)
    rows, counts, keys = [], [], []
    slots = pending = 0  # centers and candidates since the last batch
    for g in groups:
        a, b = int(lo[g[0]]), int(hi[g[0]])
        by_x = np.argsort(x[a:b], kind="stable")
        xs, ys = x[a:b][by_x], y[a:b][by_x]
        p = np.searchsorted(xs, cx[g] - halfx[g], side="left")
        q = np.maximum(np.searchsorted(xs, cx[g] + halfx[g], side="right"),
                       p)
        ends = np.cumsum(q - p)
        i = 0
        while i < len(g):
            # the centers g[i:j] test at most _BATCH candidates, or one
            # center does alone
            base = int(ends[i - 1]) if i else 0
            j = max(i + 1, int(np.searchsorted(ends, base + _BATCH,
                                               side="right")))
            c = q[i:j] - p[i:j]
            pos = np.arange(int(ends[j - 1]) - base) \
                + np.repeat(p[i:j] - (ends[i:j] - c - base), c)
            keep = (xs[pos] - np.repeat(cx[g[i:j]], c)) ** 2 \
                + (ys[pos] - np.repeat(cy[g[i:j]], c)) ** 2 <= r2
            slot = np.repeat(np.arange(j - i), c)[keep]
            keys.append((slot + slots) * n + (by_x[pos[keep]] + a))
            counts.append(np.bincount(slot, minlength=j - i))
            rows.append(g[i:j])
            slots += j - i
            pending += len(pos)
            i = j
            if pending >= _BATCH:
                yield from _batches(rows, counts, keys, n, values)
                rows, counts, keys = [], [], []
                slots = pending = 0
    yield from _batches(rows, counts, keys, n, values)


def _batches(rows, counts, keys, n, values):
    # (rows, gathered) per member count of the pending disks of _windowed
    if not rows:
        return
    rows, counts = np.concatenate(rows), np.concatenate(counts)
    keys = np.sort(np.concatenate(keys))
    points = keys - np.repeat(np.arange(len(rows)) * n, counts)
    starts = np.cumsum(counts) - counts
    for c in np.unique(counts).tolist():
        sel = counts == c
        idx = points[starts[sel, None] + np.arange(c)]
        yield rows[sel], values[idx]


def disk_energies(field, centers, radii):
    """Weighted sums of E^2 over disks, shape (len(centers), len(radii)).

    Entry [i, k] integrates over the disk of radius radii[k] about
    centers[i]; a disk that holds no quadrature point gives 0.0. Each
    entry is (w e2)[m].sum() over the disk's points m in index order, so
    a disk that covers every point sums to field.total.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.empty((len(centers), len(radii)))
    for k, rows, we2 in _disk_points(field, centers, radii,
                                     field.weight * field.e2):
        out[rows, k] = we2.sum(axis=1)
    return out


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


def _loop_spectrum(points):
    # (eigenvalues, eigenvectors, mass matrix) of the P1 Laplace-Beltrami
    # operator on the closed loop through points, whose last segment runs
    # back to the first point: one dense eigh per call, so frequency
    # computes it once for its four norms
    n = len(points)
    if n < 3:
        raise ValueError("closed loop needs at least 3 distinct nodes")
    ell = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    if np.any(ell == 0.0):
        raise ValueError("loop has a zero-length segment")
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


def _fractional_norm(g, s, spectrum, rho0):
    # spectral norm of boundary samples g at order s (s = -1/2 or -1):
    # norm^2 = sum_k (1 + rho0^2 lambda_k)^s <g, v_k>^2 over the
    # closed-loop eigenpairs of spectrum, a _loop_spectrum;
    # vector-valued samples combine components root-sum-square
    lam, vec, m = spectrum
    n = len(lam)
    g = np.asarray(g, dtype=float)
    if g.ndim == 2:
        comps = [_fractional_norm(g[:, c], s, spectrum, rho0)
                 for c in range(g.shape[1])]
        return float(np.sqrt(sum(v ** 2 for v in comps)))
    if len(g) != n:
        raise ValueError(f"expected {n} boundary samples, got {len(g)}")
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
    spectrum = _loop_spectrum(mesh.nodes[mesh.boundary_loop()])
    rho0 = mesh.domain.apriori.rho0
    nq, nm = load.nodal_samples()
    m_half = _fractional_norm(nm, -0.5, spectrum, rho0)
    m_one = _fractional_norm(nm, -1.0, spectrum, rho0)
    q_half = _fractional_norm(nq, -0.5, spectrum, rho0)
    q_one = _fractional_norm(nq, -1.0, spectrum, rho0)
    num = m_half + rho0 * q_half
    den = m_one + rho0 * q_one
    return FrequencyReport(num, den, num / den)
