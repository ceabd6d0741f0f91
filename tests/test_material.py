import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from platelab.material import (
    EllipticityConstants,
    InclusionMaterial,
    IsotropicMaterial,
    JumpBounds,
    bending_voigt,
    derive_plate_tensors,
    ellipticity_constants,
    inclusion_from_tables,
    jump_bounds,
    override_rows,
    shear_matrix,
    _override_spectrum,
)

from helpers import (bending_apply, rows, write_bending_table,
                     write_shear_table)

STD = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)


def test_plate_tensors_lam1_mu1():
    t = derive_plate_tensors(STD)
    assert_allclose(t.young, 2.5)
    assert_allclose(t.nu, 0.25)
    assert_allclose(t.rigidity, 2.0 / 9.0)
    assert_allclose(t.shear, 1.0)


def test_plate_tensors_lam0():
    t = derive_plate_tensors(IsotropicMaterial(lam=0.0, mu=1.0, h=1.0, gamma0=2.0))
    assert_allclose(t.young, 2.0)
    assert_allclose(t.nu, 0.0)
    assert_allclose(t.rigidity, 1.0 / 6.0)
    assert_allclose(t.shear, 1.0)


def test_zero_mu_rejected():
    with pytest.raises(ValueError):
        IsotropicMaterial(lam=1.0, mu=0.0, h=1.0)


@pytest.mark.parametrize("lam, mu, gamma0, message", [
    (0.0, 1.0, 5.0, "2*mu + 3*lam violates the floor gamma0"),
    (1.0, 3.0, 5.0, "Lame moduli exceed the cap alpha1"),     # mu > alpha1
    (2.5, 1.0, 5.0, "Lame moduli exceed the cap alpha1"),     # lam > alpha1
    (1.0, 0.5, 1.0, "mu violates the floor alpha0")])
def test_ellipticity_floor_violations(lam, mu, gamma0, message):
    with pytest.raises(ValueError) as err:
        IsotropicMaterial(lam=lam, mu=mu, h=1.0, gamma0=gamma0)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["lam", "mu"])
def test_lame_moduli_are_numbers(name):
    # the background is one constant pair: a field of values is refused by
    # name, and a numpy scalar becomes a float
    for value in (np.full(3, 1.0), [1.0], np.ones((2, 2))):
        with pytest.raises(ValueError) as err:
            IsotropicMaterial(h=1.0, **{"lam": 1.0, "mu": 1.0, name: value})
        assert str(err.value) == f"{name} must be a number"
    mat = IsotropicMaterial(h=1.0, **{"lam": 1.0, "mu": 1.0,
                                      name: np.float64(1.0)})
    assert type(getattr(mat, name)) is float and mat == STD


def test_bending_apply_identity():
    t = derive_plate_tensors(STD)
    out = bending_apply(STD, np.eye(2))
    assert_allclose(out, t.rigidity * (1.0 + t.nu) * np.eye(2))


def test_bending_apply_skew_is_zero():
    out = bending_apply(STD, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_bending_apply_hand_value():
    out = bending_apply(STD, np.diag([1.0, 0.0]))
    assert_allclose(out, np.diag([2.0 / 9.0, 1.0 / 18.0]))


def test_bending_apply_linear_and_symmetric():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    left = bending_apply(STD, 2.0 * a + 3.0 * b)
    right = 2.0 * bending_apply(STD, a) + 3.0 * bending_apply(STD, b)
    assert_allclose(left, right)
    assert_allclose(left, left.T)


def test_major_symmetry_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        pa_b = np.tensordot(bending_apply(STD, a), b)
        pb_a = np.tensordot(bending_apply(STD, b), a)
        assert_allclose(pa_b, pb_a, atol=1e-12)


def test_quadratic_form_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        val = np.tensordot(bending_apply(STD, a), a)
        assert val >= -1e-14
    # zero iff symmetric part vanishes
    skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert abs(np.tensordot(bending_apply(STD, skew), skew)) < 1e-14


def test_ellipticity_constants_values():
    ec = ellipticity_constants(STD)
    assert ec == EllipticityConstants(1.0, 2.0, 2.0, 4.0)


def test_ellipticity_sandwich_random():
    ec = ellipticity_constants(STD)
    h3 = STD.h ** 3 / 12.0
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        sym = 0.5 * (a + a.T)
        norm2 = np.tensordot(sym, sym)
        val = np.tensordot(bending_apply(STD, a), a)
        assert h3 * ec.xi0 * norm2 <= val + 1e-12
        assert val <= h3 * ec.xi1 * norm2 + 1e-12


def test_ellipticity_tie_case():
    mat = IsotropicMaterial(lam=0.0, mu=1.0, h=1.0, gamma0=2.0)
    assert ellipticity_constants(mat).xi0 == 2.0


@st.composite
def accepted_materials(draw):
    """Materials inside the constructor's floors and caps."""
    alpha0 = draw(st.floats(0.1, 3.0))
    alpha1 = alpha0 * draw(st.floats(1.0, 4.0))
    gamma0 = draw(st.floats(0.05, 5.0)) * alpha1
    # mu >= (gamma0 - 3 alpha1) / 2 leaves room for lam <= alpha1
    mu_lo = max(alpha0, 0.5 * (gamma0 - 3.0 * alpha1))
    mu = mu_lo + (alpha1 - mu_lo) * draw(st.floats(0.0, 1.0))
    lam_lo = max(-alpha1, (gamma0 - 2.0 * mu) / 3.0)
    lam = lam_lo + (alpha1 - lam_lo) * draw(st.floats(0.0, 1.0))
    h = draw(st.floats(0.01, 2.0))
    try:
        return IsotropicMaterial(lam=lam, mu=mu, h=h, alpha0=alpha0,
                                 gamma0=gamma0, alpha1=alpha1)
    except ValueError:
        assume(False)  # a floor missed by rounding


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(accepted_materials())
def test_constructor_implies_shear_window_and_bending_floor(mat):
    # the two window checks ellipticity_constants once made, as it made
    # them; only its bending cap can fail on an accepted material
    sigma0, sigma1 = mat.alpha0, mat.alpha1
    xi0, xi1 = min(2.0 * mat.alpha0, mat.gamma0), 2.0 * mat.alpha1
    slack = 1e-12 * mat.h * sigma1
    assert mat.h * mat.mu >= mat.h * sigma0 - slack
    assert mat.h * mat.mu <= mat.h * sigma1 + slack
    t = derive_plate_tensors(mat)
    gram = bending_voigt(t)
    gram[2, 2] *= 2.0
    lo = mat.h ** 3 / 12.0 * xi0
    hi = mat.h ** 3 / 12.0 * xi1
    assert np.linalg.eigvalsh(gram)[0] >= lo - 1e-12 * hi


def test_bending_cap_refused():
    # the spherical bending eigenvalue 2 mu (2 mu + 3 lam) / (2 mu + lam)
    # is 5 at lam = mu = 1.5, over 2 alpha1 = 4
    mat = IsotropicMaterial(lam=1.5, mu=1.5, h=1.0)
    with pytest.raises(ValueError, match="^bending sandwich fails from above$"):
        ellipticity_constants(mat)


def test_voigt_bending_matches_apply():
    t = derive_plate_tensors(STD)
    d = bending_voigt(t)
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        sym = 0.5 * (a + a.T)
        kv = np.array([sym[0, 0], sym[1, 1], 2.0 * sym[0, 1]])
        quad_voigt = kv @ d @ kv
        quad_full = np.tensordot(bending_apply(STD, a), a)
        assert_allclose(quad_voigt, quad_full, atol=1e-12)


# inclusion and jumps


def test_inclusion_kappa_validation():
    with pytest.raises(ValueError):
        InclusionMaterial(kappa=1.0)
    with pytest.raises(ValueError):
        InclusionMaterial(kappa=-2.0)
    with pytest.raises(ValueError):
        InclusionMaterial()


@pytest.mark.parametrize("kappa", [np.inf, 1e400, np.nan],
                         ids=["inf", "1e400", "nan"])
def test_inclusion_kappa_must_be_finite(kappa):
    with pytest.raises(ValueError, match="kappa must be"):
        InclusionMaterial(kappa=kappa)


def test_jump_scalar_stiff():
    jb = jump_bounds(STD, InclusionMaterial(kappa=2.0))
    assert jb == JumpBounds(1.0, 2.0, "stiff")


def test_jump_scalar_soft():
    jb = jump_bounds(STD, InclusionMaterial(kappa=0.5))
    assert jb == JumpBounds(0.5, 0.5, "soft")


def test_jump_chain_scalar_substitution():
    # kappa=2: both chain inequalities hold with equality on random forms
    t = derive_plate_tensors(STD)
    jb = jump_bounds(STD, InclusionMaterial(kappa=2.0))
    s = float(t.shear)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=2)
        base = s * v @ v
        diff = (2.0 - 1.0) * base  # (kappa S - S) v.v
        assert jb.eta * base <= diff + 1e-12
        assert diff <= (jb.delta - 1.0) * base + 1e-12


def _override(st, pt, elements=None):
    # tables of the elements 0 .. k-1, or of the ids given
    ids = np.arange(len(st)) if elements is None else elements
    return InclusionMaterial(elements=ids, stilde=st, ptilde=pt)


def test_jump_explicit_matches_scalar():
    t = derive_plate_tensors(STD)
    kappa = 2.0
    st = kappa * rows(shear_matrix(t), 3)
    pt = kappa * rows(bending_voigt(t), 3)
    jb = jump_bounds(STD, _override(st, pt, [1, 4, 9]))
    assert_allclose(jb.eta, kappa - 1.0)
    assert_allclose(jb.delta, kappa)
    assert jb.sign == "stiff"


def test_jump_explicit_soft():
    t = derive_plate_tensors(STD)
    st = 0.25 * rows(shear_matrix(t), 3)
    pt = 0.25 * rows(bending_voigt(t), 3)
    jb = jump_bounds(STD, _override(st, pt, [0, 2, 63]))
    assert_allclose(jb.eta, 0.75)
    assert_allclose(jb.delta, 0.25)
    assert jb.sign == "soft"


def test_override_rows_line_up_with_the_mesh():
    # the assembly asks for each mesh element's row: -1 where the tables
    # name none, and twice the background still bounds the jump exactly
    t = derive_plate_tensors(STD)
    ids = np.array([0, 3, 4, 9, 40, 63])
    incl = _override(2.0 * rows(shear_matrix(t), 6),
                     2.0 * rows(bending_voigt(t), 6), ids)
    row = override_rows(incl, 64)
    want = np.full(64, -1)
    want[ids] = np.arange(6)
    assert np.array_equal(row, want)
    assert jump_bounds(STD, incl) == JumpBounds(eta=1.0, delta=2.0,
                                                sign="stiff")
    # a row past the mesh's last element is refused by the first such id
    long = _override(2.0 * rows(shear_matrix(t), 4),
                     2.0 * rows(bending_voigt(t), 4), [5, 63, 64, 70])
    with pytest.raises(ValueError) as err:
        override_rows(long, 64)
    assert str(err.value) == \
        "override tables name element 64, past the last of 64 elements"


def test_jump_straddle_rejected():
    t = derive_plate_tensors(STD)
    st = 1.5 * shear_matrix(t)
    pt = 0.5 * bending_voigt(t)
    with pytest.raises(ValueError, match="element"):
        jump_bounds(STD, _override(st[None], pt[None]))


def _random_override(rng, background, low, high):
    # background^(1/2) W background^(1/2)^T for random W with eigenvalues in
    # [low, high], made exactly symmetric: its generalized eigenvalues
    # against the background are those of W
    n = len(background)
    eig = rng.uniform(low, high, size=(n, background.shape[-1]))
    q = np.linalg.qr(rng.normal(size=background.shape))[0]
    w = (q * eig[:, None, :]) @ q.swapaxes(1, 2)
    half = np.linalg.cholesky(background)
    a = half @ w @ half.swapaxes(1, 2)
    return 0.5 * (a + a.swapaxes(1, 2))


def _eigh_spectrum(mat, st, pt):
    # the per-row scipy.linalg.eigh reference
    t = derive_plate_tensors(mat)
    smat, bmat = shear_matrix(t), bending_voigt(t)
    return np.array([np.concatenate([
        scipy.linalg.eigh(s, smat, eigvals_only=True),
        scipy.linalg.eigh(p, bmat, eigvals_only=True)])
        for s, p in zip(st, pt)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_override_spectrum_matches_elementwise_eigh(seed):
    rng = np.random.default_rng(seed)
    ne = 200
    mat = IsotropicMaterial(lam=1.0, mu=rng.uniform(1.0, 1.5), h=1.0)
    t = derive_plate_tensors(mat)

    def tables(low, high):
        # the rows of 190 ascending ids of the 200 drawn
        st = _random_override(rng, rows(shear_matrix(t), ne), low, high)
        pt = _random_override(rng, rows(bending_voigt(t), ne), low, high)
        ids = np.sort(rng.choice(ne, 190, replace=False))
        return ids, st[ids], pt[ids]

    ids, st, pt = tables(1e-3, 1e3)
    got = _override_spectrum(mat, _override(st, pt, ids))
    want = _eigh_spectrum(mat, st, pt)
    # each eigenvalue against itself, to the rounding its element's
    # conditioning allows: whitening leaves an error near eps times the
    # element's largest eigenvalue, so in a spectrum 1e6 wide the smallest
    # are good to about 1e-12 of themselves under either solver
    cond = np.abs(want).max(axis=1, keepdims=True) / np.abs(want)
    rel_err = np.abs(got - want) / np.abs(want)
    assert np.all(rel_err <= 1e-14 * cond)
    # the errors name the elements that the reference names
    ids, st, pt = tables(0.2, 0.9)
    pt[rng.choice(len(ids)), 2, 2] *= -1.0
    want = _eigh_spectrum(mat, st, pt)
    worst = ids[np.argmin(want.min(axis=1))]
    with pytest.raises(ValueError, match=re.escape(
            f"override is not positive definite at element {worst}")):
        jump_bounds(mat, _override(st, pt, ids))
    ids, st, pt = tables(0.5, 2.0)
    want = _eigh_spectrum(mat, st, pt)
    lo = ids[np.argmin(want.min(axis=1))]
    hi = ids[np.argmax(want.max(axis=1))]
    with pytest.raises(ValueError, match=re.escape(
            f"(min at element {lo}, max at element {hi})")):
        jump_bounds(mat, _override(st, pt, ids))


def test_jump_bounds_validation():
    with pytest.raises(ValueError):
        JumpBounds(eta=2.0, delta=2.0, sign="stiff")  # eta > delta-1
    with pytest.raises(ValueError):
        JumpBounds(eta=0.5, delta=1.5, sign="soft")
    with pytest.raises(ValueError):
        JumpBounds(eta=0.0, delta=2.0, sign="stiff")


def test_nonsymmetric_stilde_rejected():
    st = np.array([[[1.0, 0.2], [0.3, 1.0]]])
    pt = bending_voigt(derive_plate_tensors(STD))[None]
    with pytest.raises(ValueError, match="^stilde must be symmetric$"):
        _override(st, pt)


def _spoil(kind):
    # (elements, stilde, ptilde) of two stiff rows, spoiled one way
    t = derive_plate_tensors(STD)
    ids = np.array([1, 4])
    st = 2.0 * rows(shear_matrix(t), 2)
    pt = 2.0 * rows(bending_voigt(t), 2)
    if kind == "rows":
        pt = 2.0 * rows(bending_voigt(t), 3)
    elif kind == "single":
        st, pt = st[0], pt[0]
    elif kind == "empty":
        ids, st, pt = ids[:0], st[:0], pt[:0]
    elif kind in ("nan", "inf"):
        pt = pt.copy()
        pt[1, 0, 2] = pt[1, 2, 0] = float(kind)
    else:
        ids = {"order": [4, 1], "twice": [4, 4], "negative": [-1, 4],
               "float": [1.0, 4.0]}[kind]
    return ids, st, pt


# each spoiled table's refusal
_SHAPE = ("explicit override needs elements (k,), stilde (k, 2, 2) and "
          "ptilde (k, 3, 3), k >= 1")
_IDS = "override elements must be ascending non-negative integers"
_SPOILED_MESSAGES = {
    "rows": _SHAPE, "single": _SHAPE, "empty": _SHAPE, "order": _IDS,
    "twice": _IDS, "negative": _IDS, "float": _IDS,
    "nan": "override tables must be finite",
    "inf": "override tables must be finite"}


@pytest.mark.parametrize("kind", list(_SPOILED_MESSAGES))
def test_table_override_shape_checked(kind):
    # one row per named element, ascending ids, every cell finite; a row
    # that one table lacks, or a tensor for every element, has no shape
    ids, st, pt = _spoil(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^" + re.escape(
                _SPOILED_MESSAGES[kind]) + "$"):
            _override(st, pt, ids)


def test_table_roundtrip(tmp_path):
    t = derive_plate_tensors(STD)
    ids = [7, 2, 5]
    scale = np.array([2.0, 3.0, 4.0])[:, None, None]
    st = scale * rows(shear_matrix(t), 3)
    pt = scale * rows(bending_voigt(t), 3)
    spath, bpath = tmp_path / "s.csv", tmp_path / "p.csv"
    write_shear_table(spath, ids, st)
    write_bending_table(bpath, ids, pt)
    incl = inclusion_from_tables(spath, bpath)
    # the rows come sorted by id
    assert incl.elements.tolist() == [2, 5, 7]
    assert_allclose(incl.stilde, st[[1, 2, 0]])
    assert_allclose(incl.ptilde, pt[[1, 2, 0]])
    assert not incl.stilde.flags.writeable
    jb = jump_bounds(STD, incl)
    assert jb.sign == "stiff"
    assert_allclose(jb.eta, 1.0)
    assert_allclose(jb.delta, 4.0)


@pytest.mark.parametrize("ids, message", [([2, -1, 7], "negative element id -1"),
                                          ([2, 5, 2], "duplicate element id 2")])
def test_table_ids_checked(tmp_path, ids, message):
    t = derive_plate_tensors(STD)
    spath, bpath = tmp_path / "s.csv", tmp_path / "p.csv"
    write_shear_table(spath, ids, np.stack([shear_matrix(t)] * 3))
    write_bending_table(bpath, [0, 1, 2], np.stack([bending_voigt(t)] * 3))
    with pytest.raises(ValueError, match=message):
        inclusion_from_tables(spath, bpath)
