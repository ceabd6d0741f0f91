import re

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


def test_jump_explicit_matches_scalar():
    t = derive_plate_tensors(STD)
    kappa = 2.0
    st = kappa * shear_matrix(t)
    pt = kappa * bending_voigt(t)
    jb = jump_bounds(STD, InclusionMaterial(stilde=st, ptilde=pt))
    assert_allclose(jb.eta, kappa - 1.0)
    assert_allclose(jb.delta, kappa)
    assert jb.sign == "stiff"


def test_jump_explicit_soft():
    t = derive_plate_tensors(STD)
    st = 0.25 * shear_matrix(t)
    pt = 0.25 * bending_voigt(t)
    jb = jump_bounds(STD, InclusionMaterial(stilde=st, ptilde=pt))
    assert_allclose(jb.eta, 0.75)
    assert_allclose(jb.delta, 0.25)
    assert jb.sign == "soft"


def test_jump_bounds_skip_rows_missing_from_either_table():
    # the assembly NaN-pads the 3-row stilde, so rows 3 and 4 (the 5x
    # bending rows) override nothing and must not set delta
    t = derive_plate_tensors(STD)
    st = 2.0 * rows(shear_matrix(t), 3)
    pt = np.concatenate([2.0 * rows(bending_voigt(t), 3),
                         5.0 * rows(bending_voigt(t), 2)])
    jb = jump_bounds(STD, InclusionMaterial(stilde=st, ptilde=pt))
    assert jb.sign == "stiff"
    assert_allclose([jb.eta, jb.delta], [1.0, 2.0])
    # a single tensor is broadcast, so every bending row counts
    jb = jump_bounds(STD, InclusionMaterial(stilde=2.0 * shear_matrix(t),
                                            ptilde=pt))
    assert_allclose([jb.eta, jb.delta], [1.0, 5.0])


def test_override_rows_line_up_with_the_mesh():
    # the assembly asks for one row per mesh element: a shorter table is
    # NaN-padded, and twice the background still bounds the jump exactly
    t = derive_plate_tensors(STD)
    incl = InclusionMaterial(stilde=2.0 * rows(shear_matrix(t), 10),
                             ptilde=2.0 * rows(bending_voigt(t), 10))
    st, pt = override_rows(incl, 64)
    assert st.shape == (64, 2, 2) and pt.shape == (64, 3, 3)
    assert not np.isnan(st[:10]).any() and np.isnan(st[10:]).all()
    assert np.isnan(pt[10:]).all()
    assert jump_bounds(STD, incl) == JumpBounds(eta=1.0, delta=2.0,
                                                sign="stiff")
    # a set row past the mesh's last element is refused
    long = InclusionMaterial(stilde=2.0 * rows(shear_matrix(t), 70),
                             ptilde=2.0 * rows(bending_voigt(t), 70))
    with pytest.raises(ValueError) as err:
        override_rows(long, 64)
    assert str(err.value) == \
        "override tables name element 64, past the last of 64 elements"


def test_jump_straddle_rejected():
    t = derive_plate_tensors(STD)
    st = 1.5 * shear_matrix(t)
    pt = 0.5 * bending_voigt(t)
    with pytest.raises(ValueError, match="element"):
        jump_bounds(STD, InclusionMaterial(stilde=st, ptilde=pt))


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
    # the per-element scipy.linalg.eigh reference, rows with a NaN skipped
    t = derive_plate_tensors(mat)
    smat, bmat = shear_matrix(t), bending_voigt(t)
    elems = [e for e in range(len(st))
             if not (np.isnan(st[e]).any() or np.isnan(pt[e]).any())]
    vals = [np.concatenate([
        scipy.linalg.eigh(st[e], smat, eigvals_only=True),
        scipy.linalg.eigh(pt[e], bmat, eigvals_only=True)]) for e in elems]
    return np.array(vals), np.array(elems)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_override_spectrum_matches_elementwise_eigh(seed):
    rng = np.random.default_rng(seed)
    ne = 200
    mat = IsotropicMaterial(lam=1.0, mu=rng.uniform(1.0, 1.5), h=1.0)
    t = derive_plate_tensors(mat)

    def tables(low, high):
        st = _random_override(rng, rows(shear_matrix(t), ne), low, high)
        pt = _random_override(rng, rows(bending_voigt(t), ne), low, high)
        st[rng.choice(ne, 5, replace=False)] = np.nan
        pt[rng.choice(ne, 5, replace=False)] = np.nan
        return st, pt

    st, pt = tables(1e-3, 1e3)
    got, elems = _override_spectrum(mat, InclusionMaterial(stilde=st,
                                                           ptilde=pt))
    want, want_elems = _eigh_spectrum(mat, st, pt)
    assert np.array_equal(elems, want_elems)
    # each eigenvalue against itself, to the rounding its element's
    # conditioning allows: whitening leaves an error near eps times the
    # element's largest eigenvalue, so in a spectrum 1e6 wide the smallest
    # are good to about 1e-12 of themselves under either solver
    cond = np.abs(want).max(axis=1, keepdims=True) / np.abs(want)
    rel_err = np.abs(got - want) / np.abs(want)
    assert np.all(rel_err <= 1e-14 * cond)
    # the errors name the elements that the reference names
    st, pt = tables(0.2, 0.9)
    usable = ~(np.isnan(st).any(axis=(1, 2)) | np.isnan(pt).any(axis=(1, 2)))
    pt[rng.choice(np.flatnonzero(usable)), 2, 2] *= -1.0
    want, want_elems = _eigh_spectrum(mat, st, pt)
    worst = want_elems[np.argmin(want.min(axis=1))]
    with pytest.raises(ValueError, match=re.escape(
            f"override is not positive definite at element {worst}")):
        jump_bounds(mat, InclusionMaterial(stilde=st, ptilde=pt))
    st, pt = tables(0.5, 2.0)
    want, want_elems = _eigh_spectrum(mat, st, pt)
    lo = want_elems[np.argmin(want.min(axis=1))]
    hi = want_elems[np.argmax(want.max(axis=1))]
    with pytest.raises(ValueError, match=re.escape(
            f"(min at element {lo}, max at element {hi})")):
        jump_bounds(mat, InclusionMaterial(stilde=st, ptilde=pt))


def test_jump_bounds_validation():
    with pytest.raises(ValueError):
        JumpBounds(eta=2.0, delta=2.0, sign="stiff")  # eta > delta-1
    with pytest.raises(ValueError):
        JumpBounds(eta=0.5, delta=1.5, sign="soft")
    with pytest.raises(ValueError):
        JumpBounds(eta=0.0, delta=2.0, sign="stiff")


def test_nonsymmetric_stilde_rejected():
    st = np.array([[1.0, 0.2], [0.3, 1.0]])
    pt = bending_voigt(derive_plate_tensors(STD))
    with pytest.raises(ValueError):
        InclusionMaterial(stilde=st, ptilde=pt)


def test_table_roundtrip(tmp_path):
    t = derive_plate_tensors(STD)
    ids = [2, 5, 7]
    st = np.stack([2.0 * shear_matrix(t)] * 3)
    pt = np.stack([2.0 * bending_voigt(t)] * 3)
    spath, bpath = tmp_path / "s.csv", tmp_path / "p.csv"
    write_shear_table(spath, ids, st)
    write_bending_table(bpath, ids, pt)
    incl = inclusion_from_tables(spath, bpath)
    assert_allclose(incl.stilde[ids], st)
    assert_allclose(incl.ptilde[ids], pt)
    assert np.isnan(incl.stilde[0]).all()
    jb = jump_bounds(STD, incl)
    assert jb.sign == "stiff"
    assert_allclose(jb.eta, 1.0)


@pytest.mark.parametrize("ids, message", [([2, -1, 7], "negative element id -1"),
                                          ([2, 5, 2], "duplicate element id 2")])
def test_table_ids_checked(tmp_path, ids, message):
    t = derive_plate_tensors(STD)
    spath, bpath = tmp_path / "s.csv", tmp_path / "p.csv"
    write_shear_table(spath, ids, np.stack([shear_matrix(t)] * 3))
    write_bending_table(bpath, [0, 1, 2], np.stack([bending_voigt(t)] * 3))
    with pytest.raises(ValueError, match=message):
        inclusion_from_tables(spath, bpath)
