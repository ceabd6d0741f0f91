"""Isotropic plate material and the derived stiffness tensors.

The background material is isotropic with constant Lame moduli lam, mu and
thickness h. Derived quantities: transverse shear
stiffness S = h*mu and bending rigidity B = E h^3 / (12 (1 - nu^2)) acting as
    P A = B [ (1-nu) sym(A) + nu tr(A) I ].
Quadratic forms over symmetric 2x2 matrices are represented in a 3-vector
convention (A11, A22, 2*A12), so the isotropic bending matrix is
    B * [[1, nu, 0], [nu, 1, 0], [0, 0, (1-nu)/2]]
and a general bending tensor is the symmetric matrix
    [[P1111, P1122, P1112], [P1122, P2222, P2212], [P1112, P2212, P1212]].

A contrasting region can override both tensors, either by a scalar factor
kappa or by explicit per-element tables; jump_bounds extracts the tightest
two-sided spectral comparison (eta, delta) between override and background.
"""

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_REL = 1e-12


def _worst(values, reverse=False):
    # index of the extreme entry
    return int(np.argmax(values) if reverse else np.argmin(values))


@dataclass(frozen=True)
class IsotropicMaterial:
    """Background Lame moduli, one constant pair, with declared ellipticity
    window.

    alpha0 and gamma0 are the declared floors (mu >= alpha0,
    2 mu + 3 lam >= gamma0); alpha1 caps |lam| and mu.
    """

    lam: float
    mu: float
    h: float
    alpha0: float = 1.0
    gamma0: float = 5.0
    alpha1: float = 2.0

    def __post_init__(self):
        for name in ("lam", "mu"):
            value = getattr(self, name)
            if np.ndim(value) != 0:
                raise ValueError(f"{name} must be a number")
            object.__setattr__(self, name, float(value))
        if not self.h > 0:
            raise ValueError("h must be positive")
        for name in ("alpha0", "gamma0", "alpha1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        lam, mu = self.lam, self.mu
        if mu < self.alpha0:
            raise ValueError("mu violates the floor alpha0")
        if 2.0 * mu + 3.0 * lam < self.gamma0:
            raise ValueError("2*mu + 3*lam violates the floor gamma0")
        if mu > self.alpha1 or abs(lam) > self.alpha1:
            raise ValueError("Lame moduli exceed the cap alpha1")
        # the derived tensors must be finite doubles
        derive_plate_tensors(self)


class PlateTensors(NamedTuple):
    """Derived plate coefficients, one number each."""

    shear: float       # S = h * mu
    young: float       # E
    nu: float
    rigidity: float    # B
    h: float


def derive_plate_tensors(mat):
    """Shear stiffness, Young modulus, Poisson ratio, bending rigidity;
    tensors that overflow a double are refused."""
    lam, mu, h = mat.lam, mat.mu, mat.h
    with np.errstate(over="ignore", invalid="ignore"):
        young = mu * (2.0 * mu + 3.0 * lam) / (mu + lam)
        nu = lam / (2.0 * (mu + lam))
        try:
            rigidity = young * h ** 3 / (12.0 * (1.0 - nu ** 2))
        except OverflowError:
            rigidity = np.inf
        tensors = PlateTensors(h * mu, young, nu, rigidity, h)
    if not all(np.isfinite(t) for t in tensors):
        raise ValueError("lambda, mu and h overflow the plate tensors")
    return tensors


def bending_voigt(tensors):
    """Bending quadratic form as a 3x3 matrix acting on (A11, A22, 2*A12)."""
    b, nu = tensors.rigidity, tensors.nu
    return np.array([[b, b * nu, 0.0], [b * nu, b, 0.0],
                     [0.0, 0.0, 0.5 * b * (1.0 - nu)]])


def shear_matrix(tensors):
    """Shear quadratic form S*I2."""
    return tensors.shear * np.eye(2)


@dataclass(frozen=True)
class EllipticityConstants:
    sigma0: float
    sigma1: float
    xi0: float
    xi1: float


def ellipticity_constants(mat):
    """Derived shear/bending spectral window, verified against the material.

    The window is sigma0 = alpha0, sigma1 = alpha1, xi0 = min(2 alpha0,
    gamma0), xi1 = 2 alpha1; the shear tensor sits in h*[sigma0, sigma1]
    and the bending form spectrum in (h^3/12)*[xi0, xi1].
    The floors and caps of IsotropicMaterial imply all of it but the
    bending cap: h mu lies in h*[alpha0, alpha1], and the bending
    eigenvalues are (h^3/12) times 2 mu and 2 mu (2 mu + 3 lam) / (2 mu +
    lam), each at least min(2 mu, 2 mu + 3 lam) >= xi0. The cap is checked.
    """
    ec = EllipticityConstants(
        sigma0=mat.alpha0,
        sigma1=mat.alpha1,
        xi0=min(2.0 * mat.alpha0, mat.gamma0),
        xi1=2.0 * mat.alpha1,
    )
    # the bending form in an orthonormal basis of symmetric matrices is the
    # Voigt matrix with its shear entry doubled; eigenvalues B(1-nu) twice
    # and B(1+nu)
    t = derive_plate_tensors(mat)
    gram = bending_voigt(t)
    gram[2, 2] *= 2.0
    hi = mat.h ** 3 / 12.0 * ec.xi1
    if np.linalg.eigvalsh(gram)[-1] > hi + _REL * hi:
        raise ValueError("bending sandwich fails from above")
    return ec


@dataclass(frozen=True)
class InclusionMaterial:
    """Tensor override on the flagged region.

    Either a scalar contrast kappa (override = kappa * background for both
    tensors) or explicit tables: elements holds the ascending ids of the k
    elements the tables name, and row i of stilde (k, 2, 2) and of ptilde
    (k, 3, 3) holds element elements[i]'s shear tensor and bending matrix,
    the latter in the (A11, A22, 2*A12) convention. Every row is finite and
    symmetric; override_rows lines the rows up with a mesh's elements.
    """

    kappa: float | None = None
    elements: np.ndarray | None = None
    stilde: np.ndarray | None = None
    ptilde: np.ndarray | None = None

    def __post_init__(self):
        tables = (self.elements, self.stilde, self.ptilde)
        if self.kappa is not None:
            if any(t is not None for t in tables):
                raise ValueError("give either kappa or explicit tensor tables, not both")
            if not self.kappa > 0:
                raise ValueError("kappa must be positive")
            if not np.isfinite(self.kappa):
                raise ValueError("kappa must be finite")
            if self.kappa == 1.0:
                raise ValueError("kappa = 1 gives no contrast")
            return
        if any(t is None for t in tables):
            raise ValueError("explicit override needs elements, stilde and "
                             "ptilde")
        ids = np.array(self.elements)
        st = np.array(self.stilde, dtype=float)
        pt = np.array(self.ptilde, dtype=float)
        k = len(ids) if ids.ndim == 1 else -1
        if k < 1 or st.shape != (k, 2, 2) or pt.shape != (k, 3, 3):
            raise ValueError("explicit override needs elements (k,), stilde "
                             "(k, 2, 2) and ptilde (k, 3, 3), k >= 1")
        if ids.dtype.kind not in "iu" or ids[0] < 0 or \
                np.any(ids[1:] <= ids[:-1]):
            raise ValueError("override elements must be ascending "
                             "non-negative integers")
        if not (np.isfinite(st).all() and np.isfinite(pt).all()):
            raise ValueError("override tables must be finite")
        if np.any(np.abs(st - st.swapaxes(1, 2)) > _REL * (1 + np.abs(st).max())):
            raise ValueError("stilde must be symmetric")
        if np.any(np.abs(pt - pt.swapaxes(1, 2)) > _REL * (1 + np.abs(pt).max())):
            raise ValueError("ptilde must be symmetric (major symmetry)")
        for name, t in (("elements", ids), ("stilde", st), ("ptilde", pt)):
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    @property
    def scalar(self):
        return self.kappa is not None


@dataclass(frozen=True)
class JumpBounds:
    """Two-sided spectral contrast between override and background.

    stiff: (1 + eta) C <= C~ <= delta C with delta > 1;
    soft:  delta C <= C~ <= (1 - eta) C with 0 < delta < 1.
    """

    eta: float
    delta: float
    sign: str

    def __post_init__(self):
        if self.sign not in ("stiff", "soft"):
            raise ValueError("sign must be 'stiff' or 'soft'")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.sign == "stiff":
            if not self.delta > 1.0:
                raise ValueError("stiff contrast needs delta > 1")
            if self.eta > self.delta - 1.0 + _REL:
                raise ValueError("stiff bounds need eta <= delta - 1")
        else:
            if not 0.0 < self.delta < 1.0:
                raise ValueError("soft contrast needs delta in (0, 1)")
            if self.eta > 1.0 - self.delta + _REL:
                raise ValueError("soft bounds need eta <= 1 - delta")


def override_rows(incl, n_elements):
    """Each of n_elements elements' row in a tensor override's tables, -1
    where the tables name none; ids past the last element are refused."""
    ids = incl.elements
    if ids[-1] >= n_elements:
        raise ValueError(f"override tables name element "
                         f"{ids[np.searchsorted(ids, n_elements)]}, "
                         f"past the last of {n_elements} elements")
    row = np.full(n_elements, -1)
    row[ids] = np.arange(len(ids))
    return row


def _lower_solve(low, rhs):
    # low^-1 rhs for lower-triangular low and stacked rhs, by forward
    # substitution; np.linalg.solve rounds otherwise, and a table of twice
    # the background bending matrix no longer gives the eigenvalue 2 exactly
    out = np.empty_like(rhs)
    for i in range(low.shape[-1]):
        out[:, i] = (rhs[:, i] - np.einsum("j,ejk->ek", low[i, :i],
                                           out[:, :i])) / low[i, i]
    return out


def _override_spectrum(mat, incl):
    # generalized eigenvalues of (override, background), row by row, for
    # both the shear pair and the bending pair: the eigenvalues of the
    # override whitened by the background's Cholesky factor L, L^-1 A L^-T
    t = derive_plate_tensors(mat)
    vals = []
    for a, b in ((incl.stilde, shear_matrix(t)), (incl.ptilde, bending_voigt(t))):
        low = np.linalg.cholesky(b)
        half = _lower_solve(low, a)
        vals.append(np.linalg.eigvalsh(_lower_solve(low, half.swapaxes(1, 2))))
    return np.concatenate(vals, axis=1)


def jump_bounds(mat, incl):
    """Tightest (eta, delta) pair comparing override against background.

    Scalar contrast maps directly: kappa > 1 gives (kappa - 1, kappa) stiff,
    kappa < 1 gives (1 - kappa, kappa) soft. Explicit tables go through the
    elementwise generalized eigenvalues of both tensor pairs; if the global
    spectrum straddles 1 the contrast is indefinite and no regime applies.
    """
    if incl.scalar:
        k = incl.kappa
        if k > 1.0:
            return JumpBounds(k - 1.0, k, "stiff")
        return JumpBounds(1.0 - k, k, "soft")
    vals = _override_spectrum(mat, incl)
    elems = incl.elements
    lo = float(vals.min())
    hi = float(vals.max())
    if lo > 1.0:
        return JumpBounds(lo - 1.0, hi, "stiff")
    if hi < 1.0:
        if lo <= 0.0:
            e = elems[_worst(vals.min(axis=1))]
            raise ValueError(f"override is not positive definite at element {e}")
        return JumpBounds(1.0 - hi, lo, "soft")
    e_lo = elems[_worst(vals.min(axis=1))]
    e_hi = elems[_worst(vals.max(axis=1), reverse=True)]
    raise ValueError(
        "indefinite contrast: spectrum straddles 1 "
        f"(min at element {e_lo}, max at element {e_hi})")


# ---------------------------------------------------------------------------
# external interfaces

_SHEAR_COLS = ["element_id", "s11", "s12", "s22"]
_BEND_COLS = ["element_id", "p1111", "p1122", "p1112", "p2222", "p2212", "p1212"]


def _read_table(path, cols):
    # (ids, rows) of a table, sorted by id; every cell finite
    ids, rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for raw in reader:
            if not raw or raw[0].startswith("#"):
                continue
            if raw == cols:
                continue
            where = f"{path}:{reader.line_num}"
            if len(raw) != len(cols):
                raise ValueError(f"{where}: expected {len(cols)} values, "
                                 f"got {len(raw)}")
            try:
                ids.append(int(raw[0]))
                rows.append([float(v) for v in raw[1:]])
            except ValueError:
                raise ValueError(f"{where}: expected an integer element id "
                                 f"and {len(cols) - 1} numbers") from None
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{where}: values must be finite")
    if not ids:
        raise ValueError(f"no rows in {path}")
    ids = np.array(ids, dtype=int)
    if ids.min() < 0:
        raise ValueError(f"{path}: negative element id {ids.min()}")
    uniq, counts = np.unique(ids, return_counts=True)
    if counts.max() > 1:
        raise ValueError(f"{path}: duplicate element id {uniq[counts > 1][0]}")
    order = np.argsort(ids)
    return ids[order], np.array(rows, dtype=float)[order]


def inclusion_from_tables(shear_path, bending_path):
    """Build an explicit override from CSV tables keyed by element id.

    Both tables name the same elements, each once, with finite values; the
    override holds one row per named element, by ascending id. The assembly
    refuses a flagged element the tables do not name and an id the mesh
    does not have.
    """
    sid, svals = _read_table(shear_path, _SHEAR_COLS)
    bid, bvals = _read_table(bending_path, _BEND_COLS)
    if not np.array_equal(sid, bid):
        e = np.setxor1d(sid, bid)[0]
        has, lacks = (shear_path, bending_path) if e in sid else \
            (bending_path, shear_path)
        raise ValueError(f"{has} names element {e}, {lacks} does not")
    # (s11, s12, s22) and (p1111, p1122, p1112, p2222, p2212, p1212) as
    # symmetric matrices
    return InclusionMaterial(
        elements=sid, stilde=svals[:, [0, 1, 1, 2]].reshape(-1, 2, 2),
        ptilde=bvals[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3))
