import functools
import math
import os
import sys
import tracemalloc
import weakref
from concurrent import futures
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from platelab import estimates, solver
from platelab.cli import main
from platelab.estimates import (
    Forward,
    SizeExperimentConfig,
    admissible_centers,
    calibrate_constants,
    forward,
    lps_check,
    run_corpus,
    run_size_experiment,
    size_bounds,
    three_spheres_sweep,
    verify_energy_lemma,
)
from platelab.functionals import stability_ratio, strain_energy_density
from platelab.geometry import (AprioriData, Domain, generate_mesh,
                               rasterize_inclusion)
from platelab.functionals import boundary_work
from platelab.material import (
    InclusionMaterial,
    IsotropicMaterial,
    JumpBounds,
    bending_voigt,
    derive_plate_tensors,
    jump_bounds,
    shear_matrix,
)
from platelab.solver import (
    PlateState,
    assemble_load,
    assemble_stiffness,
    assemble_update,
    load_from_family,
    solve,
)

from helpers import append_line, rows, write_polygons

MAT = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)
SQUARE = Domain(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
LSHAPE = Domain(np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1],
                          [0, 1]], float))
CENTER_SQ = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])


def _pair(kappa, target=0.125, family="pure_bending a=1.0"):
    mesh = generate_mesh(SQUARE, target)
    load = load_from_family(mesh, family, MAT)
    f = assemble_load(load)
    region = rasterize_inclusion(mesh, [CENTER_SQ])
    incl = InclusionMaterial(kappa=kappa)
    s0 = solve(assemble_stiffness(mesh, MAT).with_load(f))
    s1 = solve(assemble_stiffness(mesh, MAT, region, incl).with_load(f))
    return mesh, f, region, incl, s0, s1


# energy lemma


@pytest.mark.parametrize("kappa", [2.0, 0.5])
def test_lemma_chain_holds(kappa):
    mesh, f, region, incl, s0, s1 = _pair(kappa)
    jumps = jump_bounds(MAT, incl)
    rep = verify_energy_lemma(s0, s1, f, MAT, jumps, region)
    assert rep.passed, rep.messages
    assert rep.regime == jumps.sign
    assert rep.lhs <= rep.mid + rep.tolerance
    assert rep.mid <= rep.rhs + rep.tolerance
    assert rep.lhs > 0.0 and rep.rhs > 0.0
    # the cross route re-measures the work gap from the difference state
    gap = rep.work_reference - rep.work
    assert abs(rep.mid_cross - gap) <= 1e-9 * max(abs(gap), 1e-30)


def test_lemma_same_state_trivial():
    mesh, f, region, incl, s0, s1 = _pair(2.0)
    jumps = jump_bounds(MAT, incl)
    empty = rasterize_inclusion(mesh, None)
    rep = verify_energy_lemma(s0, s0, f, MAT, jumps, empty)
    assert rep.passed
    assert rep.mid == 0.0
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_lemma_regime_mismatch_reported_not_raised():
    mesh, f, region, incl, s0, s1 = _pair(2.0)
    # claim soft bounds against a stiff pair: mid = W - W0 < 0
    wrong = JumpBounds(eta=0.5, delta=0.5, sign="soft")
    rep = verify_energy_lemma(s0, s1, f, MAT, wrong, region)
    assert not rep.passed
    assert rep.messages
    assert any("regime" in m or "sign" in m for m in rep.messages)


def test_lemma_mesh_mismatch_rejected():
    mesh, f, region, incl, s0, s1 = _pair(2.0)
    other = generate_mesh(SQUARE, 0.125)
    oload = load_from_family(other, "pure_bending a=1.0", MAT)
    alien = solve(assemble_stiffness(other, MAT).with_load(
        assemble_load(oload)))
    with pytest.raises(ValueError):
        verify_energy_lemma(s0, alien, f, MAT, jump_bounds(MAT, incl), region)


def test_lemma_integrals_scale_with_region():
    mesh, f, region, incl, s0, s1 = _pair(2.0)
    jumps = jump_bounds(MAT, incl)
    rep = verify_energy_lemma(s0, s1, f, MAT, jumps, region)
    # floor and cap integrate the same reference state over the same flags,
    # with coefficient floors below caps
    assert 0.0 < rep.floor_integral <= rep.cap_integral


# size bounds


def test_size_bounds_stiff_hand_numbers():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    lo, up = size_bounds(gap=0.1, work_reference=0.5, jumps=jb,
                         c1=1.0, c2=1.0, rho0=1.0)
    assert_allclose(lo, 0.1 / (1.0 * 0.5))
    assert_allclose(up, 2.0 * 0.1 / (1.0 * 0.5))


def test_size_bounds_soft_hand_numbers():
    jb = JumpBounds(eta=0.5, delta=0.5, sign="soft")
    lo, up = size_bounds(gap=-0.1, work_reference=0.5, jumps=jb,
                         c1=1.0, c2=1.0, rho0=1.0)
    assert_allclose(lo, 0.5 * 0.1 / (0.5 * 0.5))
    assert_allclose(up, 0.1 / (0.5 * 0.5))


def test_size_bounds_linear_in_gap_and_rho0():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    a = size_bounds(0.1, 0.5, jb, 1.0, 1.0, 1.0)
    b = size_bounds(0.2, 0.5, jb, 1.0, 1.0, 1.0)
    c = size_bounds(0.1, 0.5, jb, 1.0, 1.0, 2.0)
    assert_allclose(b.lower, 2.0 * a.lower)
    assert_allclose(b.upper, 2.0 * a.upper)
    assert_allclose(c.lower, 4.0 * a.lower)


def test_size_bounds_guard_and_errors():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    # inside the guard band the gap reads as zero, on either side of it
    for gap in (-1e-12, 1e-12):
        assert size_bounds(gap, 1.0, jb, 1.0, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        size_bounds(-1e-3, 1.0, jb, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        size_bounds(0.1, 0.0, jb, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        size_bounds(0.1, 1.0, jb, -1.0, 1.0, 1.0)
    soft = JumpBounds(eta=0.5, delta=0.5, sign="soft")
    with pytest.raises(ValueError):
        size_bounds(0.1, 1.0, soft, 1.0, 1.0, 1.0)
    # a zero soft gap gives +0.0, not -0.0
    for bound in size_bounds(0.0, 1.0, soft, 1.0, 1.0, 1.0):
        assert bound == 0.0 and math.copysign(1.0, bound) == 1.0


# calibration


def _entry(true_area, gap, w0, jb):
    return (true_area, gap, w0, jb)


def test_calibrate_singleton_collapses():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    base = size_bounds(0.1, 0.5, jb, 1.0, 1.0, 1.0)
    res = calibrate_constants([_entry(0.25, 0.1, 0.5, jb)], rho0=1.0)
    assert res.count == 1
    assert res.regime == "stiff"
    assert_allclose(res.c1 * base.lower, 0.25)
    assert_allclose(res.c2 * base.upper, 0.25)


def test_calibrate_brackets_corpus():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    corpus = [_entry(0.1, 0.04, 0.5, jb), _entry(0.2, 0.11, 0.5, jb),
              _entry(0.3, 0.13, 0.5, jb)]
    res = calibrate_constants(corpus, rho0=1.0)
    for ta, gap, w0, j in corpus:
        lo, up = size_bounds(gap, w0, j, res.c1, res.c2, 1.0)
        assert lo <= ta * (1.0 + 1e-12)
        assert up >= ta * (1.0 - 1e-12)
    # envelope is tight: at least one entry touches each end
    touches_lo = [abs(size_bounds(g, w, j, res.c1, res.c2, 1.0).lower - t) < 1e-12
                  for t, g, w, j in corpus]
    touches_up = [abs(size_bounds(g, w, j, res.c1, res.c2, 1.0).upper - t) < 1e-12
                  for t, g, w, j in corpus]
    assert any(touches_lo) and any(touches_up)


def test_calibrate_rejects_mixed_regimes():
    stiff = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    soft = JumpBounds(eta=0.5, delta=0.5, sign="soft")
    with pytest.raises(ValueError):
        calibrate_constants([_entry(0.1, 0.05, 0.5, stiff),
                             _entry(0.1, -0.05, 0.5, soft)])


def test_calibrate_rejects_degenerate_entries():
    jb = JumpBounds(eta=1.0, delta=2.0, sign="stiff")
    with pytest.raises(ValueError):
        calibrate_constants([_entry(0.1, 0.0, 0.5, jb)])
    with pytest.raises(ValueError):
        calibrate_constants([])


# three spheres


def _bending_field(rho0):
    mesh = generate_mesh(Domain(SQUARE.vertices, AprioriData(rho0=rho0)),
                         1.0 / 24.0)
    load = load_from_family(mesh, "pure_bending a=1.0", MAT)
    state = solve(assemble_stiffness(mesh, MAT).with_load(
        assemble_load(load)))
    return mesh, strain_energy_density(state, order=3)


@pytest.fixture(scope="module")
def bending_field():
    return _bending_field(1.0)


@pytest.fixture(scope="module")
def bending_field_rho0_01():
    # the same plate on a domain of rho0 = 0.1
    return _bending_field(0.1)


def test_three_spheres_constant_density(bending_field_rho0_01):
    mesh, field = bending_field_rho0_01
    rep = three_spheres_sweep(field, [(0.5, 0.5)], 0.04, theta=0.3)[0]
    assert rep.feasible and not rep.degenerate
    assert rep.i_small <= rep.i_mid <= rep.i_large
    # constant density: the fitted exponent has a closed form in the radii
    expected = 1.0 - (2.0 * np.log(3.0) - 2.0 * np.log(0.1 / 0.04)) \
        / (2.0 * np.log(7.0 / 0.6))
    assert abs(rep.tau_raw - expected) < 0.01
    assert rep.constant > 0.0


def test_three_spheres_wide_scale_infeasible(bending_field):
    # rho0/rho far above the mid radius pushes the fitted exponent past 1;
    # the report must say so instead of clamping silently into range
    mesh, field = bending_field
    rep = three_spheres_sweep(field, [(0.5, 0.5)], 0.04, theta=0.3)[0]
    assert not rep.feasible
    assert rep.tau_raw > 1.0
    assert rep.tau == 0.99


def test_three_spheres_invariant_and_message(bending_field):
    mesh, field = bending_field
    rep = three_spheres_sweep(field, [(0.52, 0.47)], 0.03, theta=0.3)[0]
    assert rep.i_small <= rep.i_mid <= rep.i_large
    assert 0.01 <= rep.tau <= 0.99


def test_three_spheres_admissibility_enforced(bending_field):
    mesh, field = bending_field
    with pytest.raises(ValueError):
        three_spheres_sweep(field, [(0.5, 0.5)], 0.05, theta=0.3)
    with pytest.raises(ValueError):
        three_spheres_sweep(field, [(0.05, 0.05)], 0.03, theta=0.3)
    with pytest.raises(ValueError):
        three_spheres_sweep(field, [(0.5, 0.5)], 1.5, theta=0.3)
    # a sweep names its first inadmissible center as given
    with pytest.raises(ValueError, match=r"center \(0\.05, 0\.95\) inadmissible"):
        three_spheres_sweep(field, [(0.5, 0.5), (0.05, 0.95), (0.05, 0.05)],
                            0.03, theta=0.3)


def test_three_spheres_zero_field_degenerate(bending_field):
    mesh, field = bending_field
    zero = PlateState(u=np.zeros(3 * mesh.n_nodes), mesh=mesh, residual=0.0,
                      normalization=None, assumed_shear=True)
    zf = strain_energy_density(zero)
    rep = three_spheres_sweep(zf, [(0.5, 0.5)], 0.04, theta=0.3)[0]
    assert rep.degenerate and rep.feasible
    assert rep.i_large == 0.0
    assert np.isnan(rep.constant)


# propagation of smallness


def test_admissible_centers_clearance():
    mesh = generate_mesh(SQUARE, 1.0 / 32.0)
    centers = admissible_centers(mesh, 0.03, theta=0.3)
    assert len(centers)
    # the default pitch is min(rho/2, l) = rho/2 here
    for axis in (0, 1):
        spacing = np.diff(np.unique(centers[:, axis]))
        assert_allclose(spacing, 0.015, rtol=0.0, atol=1e-12)
    margin = 7.0 / 0.6 * 0.03
    d = np.minimum.reduce([centers[:, 0], centers[:, 1],
                           1.0 - centers[:, 0], 1.0 - centers[:, 1]])
    assert (d >= margin - 1e-12).all()


@pytest.mark.parametrize("rho, pitch, message", [
    (0.03, 0.0, "pitch must be positive"),
    (0.03, -0.1, "pitch must be positive"),
    (0.0, None, "rho must be positive"),
    (-0.03, None, "rho must be positive"),
])
def test_admissible_centers_rejects_nonpositive(rho, pitch, message):
    mesh = generate_mesh(SQUARE, 0.25)
    with pytest.raises(ValueError, match=message):
        admissible_centers(mesh, rho, theta=0.3, pitch=pitch)


def test_center_grid_is_counted_before_it_is_built():
    # pitch 1e-7 gives 1e7 candidates a side: the axes alone would take
    # 160 MB
    mesh = generate_mesh(SQUARE, 0.25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^center grid of 1000000000000"
                                             r"00 candidates exceeds"):
            admissible_centers(mesh, 0.03, theta=0.3, pitch=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("rho", [0.0, -0.04, np.nan])
def test_probes_reject_nonpositive_rho(rho):
    mesh = generate_mesh(SQUARE, 0.25)
    load = load_from_family(mesh, "pure_bending a=1.0", MAT)
    state = solve(assemble_stiffness(mesh, MAT).with_load(
        assemble_load(load)))
    field = strain_energy_density(state)
    with pytest.raises(ValueError, match="rho must be positive"):
        lps_check(field, rho)
    with pytest.raises(ValueError, match="rho must be positive"):
        three_spheres_sweep(field, [(0.5, 0.5)], rho)


@pytest.mark.parametrize("theta", [0.0, -0.3])
def test_probes_reject_nonpositive_theta(bending_field, bending_field_rho0_01,
                                         theta):
    # theta = -0.3 would give a negative margin, which the corner (0, 0)
    # of the unit square meets
    mesh, field = bending_field
    with pytest.raises(ValueError, match="theta must be positive"):
        lps_check(field, 0.04, theta)
    mesh, field = bending_field_rho0_01
    for center in ((0.5, 0.5), (0.0, 0.0)):
        with pytest.raises(ValueError, match="theta must be positive"):
            three_spheres_sweep(field, [center], 0.04, theta)


def test_probes_share_one_refusal_of_a_grid_without_centers(bending_field):
    # a margin of 7/0.6 * 0.2 = 2.333 exceeds the inradius 0.5
    mesh, field = bending_field
    message = r"^no admissible centers at depth 2\.333; shrink rho or theta$"
    with pytest.raises(ValueError, match=message):
        admissible_centers(mesh, 0.2, 0.3, 0.1)
    with pytest.raises(ValueError, match=message):
        lps_check(field, 0.2, 0.3)


@pytest.mark.parametrize("domain, target, rho", [
    (SQUARE, 1.0 / 24.0, 0.04), (LSHAPE, 1.0 / 20.0, 0.015)],
    ids=["square", "lshape"])
def test_lps_ratios_match_brute_force(domain, target, rho):
    mesh = generate_mesh(domain, target)
    u = np.random.default_rng(8).normal(size=3 * mesh.n_nodes)
    state = PlateState(u=u, mesh=mesh, residual=0.0, normalization=None)
    field = strain_energy_density(state, order=3)
    rep = lps_check(field, rho, theta=0.3)
    we2 = field.weight * field.e2
    expect = [we2[(field.x - cx) ** 2 + (field.y - cy) ** 2 <= rho ** 2].sum()
              / field.total for cx, cy in rep.centers]
    assert np.array_equal(rep.ratios, expect)


def _counting_x(x):
    """x as an array that counts, in tested, the points each subtraction
    from it takes: one per point tested against a disk."""
    tested = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.subtract and method == "__call__":
                tested.append(max(np.size(v) for v in inputs))
            inputs = [v.view(np.ndarray) if isinstance(v, Counted) else v
                      for v in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return x.view(Counted), tested


def test_lps_tests_about_a_square_per_disk():
    # each disk tests the band points of its x-window, not its whole band
    # of about 1,300 points
    mesh = generate_mesh(SQUARE, 1.0 / 48.0)
    u = np.random.default_rng(8).normal(size=3 * mesh.n_nodes)
    state = PlateState(u=u, mesh=mesh, residual=0.0, normalization=None)
    field = strain_energy_density(state, order=3)
    x, tested = _counting_x(field.x)
    rho = 0.02
    rep = lps_check(replace(field, x=x), rho, theta=0.3)
    assert np.array_equal(rep.ratios, lps_check(field, rho, theta=0.3).ratios)
    square = (2.0 * rho) ** 2 * len(field.x)  # points in the disk's square
    assert sum(tested) <= 2.0 * square * len(rep.centers)


def test_lps_constant_field(bending_field):
    mesh, field = bending_field
    rep = lps_check(field, 0.04, theta=0.3)
    assert ((rep.ratios >= 0.0) & (rep.ratios <= 1.0)).all()
    assert rep.constant == rep.ratios.min()
    expect = np.pi * 0.04 ** 2  # unit area, constant density
    assert abs(rep.constant - expect) / expect < 0.15
    smaller = lps_check(field, 0.03, theta=0.3)
    assert smaller.constant < rep.constant


def test_lps_rho_too_large(bending_field):
    mesh, field = bending_field
    with pytest.raises(ValueError):
        lps_check(field, 0.2, theta=0.3)


def test_lps_zero_field_degenerate(bending_field):
    # a field without energy is refused, in the words of the lps command
    mesh, field = bending_field
    zero = PlateState(u=np.zeros(3 * mesh.n_nodes), mesh=mesh, residual=0.0,
                      normalization=None, assumed_shear=True)
    zf = strain_energy_density(zero)
    with pytest.raises(ValueError, match="^reference energy must be positive$"):
        lps_check(zf, 0.04, theta=0.3)


# the assembled experiment


def test_experiment_without_inclusion_is_trivial():
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                               load_family="pure_bending a=1.0", name="plain")
    rep = run_size_experiment(cfg)
    assert rep.gap == 0.0
    assert rep.sign_ok
    assert rep.lower == 0.0 and rep.upper == 0.0
    assert rep.regime is None and rep.lemma is None
    assert rep.true_area == 0.0
    assert rep.fatness == 1.0


@pytest.mark.parametrize("kappa,regime", [(2.0, "stiff"), (0.5, "soft")])
def test_experiment_end_to_end(kappa, regime):
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                               load_family="pure_bending a=1.0",
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=InclusionMaterial(kappa=kappa),
                               name=f"k{kappa}")
    rep = run_size_experiment(cfg)
    assert rep.regime == regime
    assert rep.sign_ok
    assert rep.lemma.passed
    assert rep.lower > 0.0 and rep.upper > rep.lower
    assert_allclose(rep.true_area, 0.25)
    assert rep.frequency_ratio >= 1.0
    fw = forward(cfg)
    assert stability_ratio(fw.state0, fw.load) > 0.0
    assert stability_ratio(fw.state, fw.load) > 0.0


def _table_inclusion(n, factor):
    t = derive_plate_tensors(MAT)
    return InclusionMaterial(elements=np.arange(n),
                             stilde=factor * rows(shear_matrix(t), n),
                             ptilde=factor * rows(bending_voigt(t), n))


@pytest.mark.parametrize("inclusion", [InclusionMaterial(kappa=2.5),
                                       _table_inclusion(64, 3.0)],
                         ids=["kappa", "tables"])
def test_forward_with_reference_is_bit_identical(inclusion):
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                               load_family="twist a=1",
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=inclusion)
    alone = forward(cfg)
    # the reference of another config that differs only in its inclusion
    other = replace(cfg, inclusion_polygons=(), inclusion=None, name="other")
    plate, factor = estimates._reference_plate(other)
    shared = estimates._forward(cfg, plate, factor)
    assert shared.mesh is plate.mesh and shared.load is plate.load
    assert shared.state0 is plate.state0
    assert np.array_equal(shared.state0.u, alone.state0.u)
    assert np.array_equal(shared.state.u, alone.state.u)
    assert np.array_equal(shared.indicator.flags, alone.indicator.flags)
    for state in ("state0", "state"):
        assert boundary_work(shared.rhs, getattr(shared, state)) == \
            boundary_work(alone.rhs, getattr(alone, state))
    assert run_corpus([other, cfg])[1] == run_size_experiment(cfg)


def test_experiment_dense_oracle_path():
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                               load_family="twist a=1.0",
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=InclusionMaterial(kappa=2.0),
                               dense_oracle=True, name="dense")
    rep = run_size_experiment(cfg)
    assert rep.sign_ok and rep.lemma.passed


def test_config_pairing_validated():
    with pytest.raises(ValueError):
        SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                             inclusion_polygons=[CENTER_SQ], name="half")
    with pytest.raises(ValueError):
        SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                             inclusion=InclusionMaterial(kappa=2.0), name="other")



def test_convergence_refuses_an_inclusion():
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=InclusionMaterial(kappa=2.0))
    with pytest.raises(ValueError, match="^convergence studies a plate "
                                         "without inclusion$"):
        estimates.convergence_study(cfg)


# the kept reference factor

ROT = Domain(np.array([[0.2, 0.0], [1.2, 0.4], [0.8, 1.4], [-0.2, 1.0]], float))
LOWER_LEFT = np.array([[0.1, 0.1], [0.4, 0.1], [0.4, 0.4], [0.1, 0.4]])
# no symmetry of the 8^2 square: conjugate gradients need many back-solves
QUAD = np.array([[0.3, 0.3], [0.7, 0.3], [0.7, 0.6], [0.3, 0.7]])


@pytest.mark.parametrize("domain, polygon, inclusion", [
    (SQUARE, CENTER_SQ, InclusionMaterial(kappa=3.0)),
    (SQUARE, CENTER_SQ, InclusionMaterial(kappa=0.25)),
    (SQUARE, CENTER_SQ, _table_inclusion(64, 2.5)),
    (LSHAPE, LOWER_LEFT, InclusionMaterial(kappa=4.0)),
    (ROT, CENTER_SQ + [0.2, 0.2], InclusionMaterial(kappa=0.5)),
    # 31, 27, 28 and 36 back-solves: the two extremes need more than the
    # 30 that once made the inclusion plate be factored on its own
    (SQUARE, QUAD, InclusionMaterial(kappa=1e-3)),
    (SQUARE, QUAD, InclusionMaterial(kappa=0.1)),
    (SQUARE, QUAD, InclusionMaterial(kappa=10.0)),
    (SQUARE, QUAD, InclusionMaterial(kappa=1e3)),
], ids=["stiff", "soft", "tables", "lshape", "skewed", "kappa1e-3",
        "kappa0.1", "kappa10", "kappa1e3"])
def test_kept_factor_matches_dense_oracle(monkeypatch, domain, polygon,
                                          inclusion):
    cfg = SizeExperimentConfig(domain=domain, material=MAT, target_size=0.125,
                               load_family="twist a=1",
                               inclusion_polygons=[polygon],
                               inclusion=inclusion)
    # estimates factors the reference; solve factors a system it is given
    # without a factor
    factorizations = [0]
    inner = solver.factorize

    def counted(system):
        factorizations[0] += 1
        return inner(system)

    monkeypatch.setattr(solver, "factorize", counted)
    monkeypatch.setattr(estimates, "factorize", counted)
    dense = forward(replace(cfg, dense_oracle=True))
    assert factorizations[0] == 0
    fw = forward(cfg)
    assert factorizations[0] == 1
    assert not fw.indicator.empty
    scale = np.abs(dense.state.u).max()
    assert np.abs(fw.state.u - dense.state.u).max() < 1e-10 * scale
    assert np.abs(fw.state.u - fw.state0.u).max() > 1e-3 * scale
    assert fw.state.residual < 1e-12


def test_cg_budget_miss_is_a_solve_error(monkeypatch, tmp_path, capsys):
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=InclusionMaterial(kappa=3.0))
    monkeypatch.setattr(solver, "CG_BUDGET", 2)
    with pytest.raises(solver.SolveError, match="in 2 back-solves"):
        forward(cfg)
    poly = tmp_path / "incl.poly"
    write_polygons(str(poly), [CENTER_SQ])
    path = tmp_path / "run.cfg"
    path.write_text("domain = rectangle 0 0 1 1\nlambda = 1.0\nmu = 1.0\n"
                    "h = 1.0\ntarget_size = 0.125\n"
                    f"inclusion = {poly}\nkappa = 3.0\n")
    assert main(["size", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: conjugate gradients missed")


def test_dense_oracle_reuses_state0_when_nothing_is_flagged(monkeypatch):
    # a polygon between element centroids of the 4^2 mesh flags no element
    corner = np.array([[0.3, 0.3], [0.32, 0.3], [0.32, 0.32], [0.3, 0.32]])
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                               load_family="twist a=1.0",
                               inclusion_polygons=[corner],
                               inclusion=InclusionMaterial(kappa=2.0),
                               dense_oracle=True)
    fw = forward(cfg)
    assert fw.indicator.empty and fw.state is fw.state0
    report = run_size_experiment(cfg)

    def resolved(config, plate, factor, indicator):
        # the inclusion plate solved densely on its own, as it once was
        system = assemble_stiffness(plate.mesh, MAT, indicator,
                                    config.inclusion)
        return solver.dense_oracle_solve(system.with_load(plate.rhs))

    monkeypatch.setattr(estimates, "_inclusion_state", resolved)
    again = forward(cfg)
    assert again.state is not again.state0
    assert np.array_equal(again.state.u, fw.state0.u)
    assert again.state.residual == fw.state0.residual
    assert run_size_experiment(cfg) == report


def test_only_the_reference_holds_the_factor():
    cfg = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                               inclusion_polygons=[CENTER_SQ],
                               inclusion=InclusionMaterial(kappa=2.0))
    plate, factor = estimates._reference_plate(cfg)
    assert factor.system.rhs is plate.rhs
    assert "factor" not in Forward._fields
    assert type(forward(cfg)) is Forward
    assert estimates._reference_plate(replace(cfg, dense_oracle=True))[1] \
        is None


def _count_calls(monkeypatch, name):
    """Count the calls of estimates.<name>; the count is calls[0]."""
    calls = [0]
    inner = getattr(estimates, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(estimates, name, counted)
    return calls


def test_workers_share_one_reference_factor(monkeypatch, tmp_path):
    base = SizeExperimentConfig(domain=SQUARE, material=MAT,
                                target_size=1.0 / 24.0)
    configs = [replace(base, inclusion_polygons=[CENTER_SQ * s + 0.1],
                       inclusion=InclusionMaterial(kappa=k), name=f"c{i}")
               for i, (s, k) in enumerate(((0.6, 2.0), (0.8, 3.0),
                                           (1.0, 0.5), (0.7, 1.5)))]
    serial = [forward(c).state.u for c in configs]
    expected = [run_size_experiment(c) for c in configs]
    # a line per state, from the worker processes too
    log = tmp_path / "states.log"
    inner = estimates._forward

    def recorded(config, plate, factor):
        fw = inner(config, plate, factor)
        append_line(log, f"{config.name} {fw.state.u.tobytes().hex()}")
        return fw

    monkeypatch.setattr(estimates, "_forward", recorded)
    references = _count_calls(monkeypatch, "_reference_plate")
    for run in range(1, 4):
        log.unlink(missing_ok=True)
        assert run_corpus(configs, jobs=4) == expected
        assert references[0] == run
        states = {name: np.frombuffer(bytes.fromhex(text))
                  for name, text in (line.split() for line in
                                     log.read_text().splitlines())}
        assert all(np.array_equal(states[c.name], u)
                   for c, u in zip(configs, serial))


def test_one_frequency_report_per_reference_on_workers(monkeypatch, tmp_path):
    # each group's report is computed here, once its entries have run on
    # the workers; in the second corpus the twist group's first entry fails
    # before its report (kappa 1e200 overflows conjugate gradients)
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25)
    corpora = []
    for head in ((), (1e200,)):
        kappas = {"pure_bending a=1": (1.5, 2.0, 3.0, 4.0),
                  "twist a=1": head + (1.5, 2.0, 3.0)}
        configs = [replace(base, load_family=load,
                           inclusion_polygons=(CENTER_SQ,),
                           inclusion=InclusionMaterial(kappa=k),
                           name=f"{load}{k}")
                   for load in kappas for k in kappas[load]]
        corpora.append((configs, [estimates._outcome_of(
            functools.partial(run_size_experiment, c)) for c in configs]))
    # a line per report, from the worker processes too
    log = tmp_path / "frequency.log"
    inner = estimates.frequency

    def counted(load):
        append_line(log, str(os.getpid()))
        return inner(load)

    monkeypatch.setattr(estimates, "frequency", counted)
    for configs, outcomes in corpora:
        log.unlink(missing_ok=True)
        for run in range(1, 4):
            error = next((o for o in outcomes if isinstance(o, Exception)),
                         None)
            if error is None:
                assert run_corpus(configs, jobs=2) == outcomes
            else:
                with pytest.raises(type(error)) as raised:
                    run_corpus(configs, jobs=2)
                assert str(raised.value) == str(error)
            assert log.read_text().splitlines() == \
                [str(os.getpid())] * (2 * run)
    assert isinstance(error, solver.SolveError)


def _live_factors(monkeypatch):
    """(factors, live): a weak reference to every factor made, and, for
    each frequency report, the count of those still alive."""
    factors, live = [], []
    make, report = estimates.factorize, estimates.frequency

    def factorize(system):
        factor = make(system)
        factors.append(weakref.ref(factor))
        return factor

    def frequency(load):
        live.append(sum(ref() is not None for ref in factors))
        return report(load)

    monkeypatch.setattr(estimates, "factorize", factorize)
    monkeypatch.setattr(estimates, "frequency", frequency)
    return factors, live


def test_the_factor_is_freed_before_the_frequency_report(monkeypatch):
    factors, live = _live_factors(monkeypatch)
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                                inclusion_polygons=(CENTER_SQ,),
                                inclusion=InclusionMaterial(kappa=2.0))
    corpus = [replace(base, inclusion=InclusionMaterial(kappa=k), name=f"{k}")
              for k in (1.5, 3.0, 4.0)]
    run_size_experiment(base)
    for jobs in (1, 2):
        run_corpus(corpus, jobs)
    assert len(factors) == 3 and live == [0] * 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_entry_keeps_no_factor_alive(monkeypatch, jobs):
    # the first entry overflows conjugate gradients in this process with
    # jobs 1; its exception keeps no frame, so nothing holds the factor
    # when the report of the others is computed
    factors, live = _live_factors(monkeypatch)
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                                inclusion_polygons=(CENTER_SQ,),
                                inclusion=InclusionMaterial(kappa=2.0))
    corpus = [replace(base, inclusion=InclusionMaterial(kappa=k), name=f"{k}")
              for k in (1e200, 1.5, 3.0)]
    with pytest.raises(solver.SolveError, match="overflowed"):
        run_corpus(corpus, jobs)
    assert len(factors) == 1 and live == [0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_loads_of_a_plate_share_its_mesh_and_factor(monkeypatch, jobs):
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125)
    corpus = [replace(base, load_family=load, inclusion_polygons=(polygon,),
                      inclusion=InclusionMaterial(kappa=k), name=f"{i}")
              for i, (load, polygon, k) in enumerate((
                  ("pure_bending a=1", CENTER_SQ, 2.0),
                  ("twist a=1", CENTER_SQ, 3.0),
                  ("edge_moment c=1", LOWER_LEFT, 0.5),
                  ("twist a=1", LOWER_LEFT, 1.5),
                  ("pure_bending a=1", QUAD, 4.0)))]
    alone = [run_size_experiment(c) for c in corpus]
    calls = {name: _count_calls(monkeypatch, name)
             for name in ("generate_mesh", "assemble_stiffness", "factorize",
                          "_reference_plate")}
    pools = []

    class Pool(futures.ProcessPoolExecutor):
        def __init__(self, *args):
            pools.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
    assert run_corpus(corpus, jobs) == alone
    assert {name: count[0] for name, count in calls.items()} == {
        "generate_mesh": 1, "assemble_stiffness": 1, "factorize": 1,
        "_reference_plate": 3}
    # one pool of the plate, none at jobs 1
    assert pools == ([] if jobs == 1 else [2])


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_loads_of_a_plate_keep_their_own_errors(monkeypatch, jobs):
    # an unknown load fails as it is built, the zero load at its size
    # bounds; the other loads of the plate run on its one mesh and factor
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.125,
                                inclusion_polygons=(CENTER_SQ,),
                                inclusion=InclusionMaterial(kappa=2.0))
    corpus = [replace(base, load_family=load,
                      inclusion=InclusionMaterial(kappa=k), name=f"{i}")
              for i, (load, k) in enumerate((
                  ("pure_bending a=1", 2.0), ("bogus", 2.0),
                  ("pure_bending a=0", 3.0), ("twist a=1", 2.5),
                  ("pure_bending a=1", 4.0)))]
    alone = [estimates._outcome_of(functools.partial(run_size_experiment, c))
             for c in corpus]
    assert [str(o) for o in alone if isinstance(o, Exception)] == [
        "unknown load family 'bogus'", "reference work must be positive"]
    meshes = _count_calls(monkeypatch, "generate_mesh")
    got = estimates._corpus_outcomes(corpus, jobs)
    for a, b in zip(got, alone, strict=True):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
        else:
            assert a == b
    assert meshes[0] == 1


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_run_corpus_is_run_size_experiment(jobs):
    def entry(name, domain=SQUARE, material=MAT, load="pure_bending a=1",
              polygon=CENTER_SQ, kappa=2.0):
        incl = {} if polygon is None else dict(
            inclusion_polygons=(polygon,),
            inclusion=InclusionMaterial(kappa=kappa))
        return SizeExperimentConfig(domain=domain, material=material,
                                    target_size=0.125, load_family=load,
                                    name=name, **incl)

    # two meshes; two loads, a second and a third material, the third built
    # afresh for each of its two entries, and a reference-only entry on the
    # square
    corpus = [
        entry("a"),
        entry("b", domain=LSHAPE, polygon=LOWER_LEFT, kappa=3.0),
        entry("c", load="twist a=1", kappa=2.5),
        entry("d", kappa=4.0),
        entry("e", material=IsotropicMaterial(lam=1.0, mu=1.2, h=1.0)),
        entry("f", polygon=None),
        entry("g", material=IsotropicMaterial(lam=1.0, mu=1.1, h=1.0),
              load="edge_moment c=1"),
        entry("h", material=IsotropicMaterial(lam=1.0, mu=1.1, h=1.0),
              load="edge_moment c=1", kappa=0.5),
        entry("i", domain=LSHAPE, polygon=LOWER_LEFT, kappa=2.0)]
    got = run_corpus(corpus, jobs)
    alone = [run_size_experiment(c) for c in corpus]
    for a, b in zip(got, alone):
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), (a.name, f.name)
    assert [r.regime for r in got].count(None) == 1


_INCLUSION_ONLY = {"inclusion_polygons", "inclusion", "c1", "c2", "name"}
# another value of every SizeExperimentConfig field
_OTHER = dict(
    domain=Domain(SQUARE.vertices, AprioriData(h1=0.2)),
    material=IsotropicMaterial(lam=1.0, mu=1.2, h=1.0),
    target_size=0.2,
    load_family="twist a=1",
    inclusion_polygons=(CENTER_SQ + 0.05,),
    inclusion=InclusionMaterial(kappa=3.0),
    c1=2.0,
    c2=3.0,
    assumed_shear=False,
    dense_oracle=True,
    element_budget=1000,
    name="other")


@pytest.mark.parametrize("field", sorted(_OTHER))
def test_only_inclusion_fields_share_a_reference(monkeypatch, field):
    assert set(_OTHER) == {f.name for f in fields(SizeExperimentConfig)}
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                                inclusion_polygons=(CENTER_SQ,),
                                inclusion=InclusionMaterial(kappa=2.0))
    other = replace(base, **{field: _OTHER[field]})
    references = _count_calls(monkeypatch, "_reference_plate")
    got = run_corpus([base, other])
    assert references[0] == (1 if field in _INCLUSION_ONLY else 2)
    assert got == [run_size_experiment(base), run_size_experiment(other)]


def test_reference_key_compares_by_value(monkeypatch):
    def config(kappa):
        # a fresh domain and a fresh material for each config
        return SizeExperimentConfig(
            domain=Domain(SQUARE.vertices.copy(), AprioriData(x0=(0.5, 0.5))),
            material=IsotropicMaterial(lam=1.0, mu=1.1, h=1.0),
            target_size=0.25,
            load_family="edge_moment c=1", inclusion_polygons=(CENTER_SQ,),
            inclusion=InclusionMaterial(kappa=kappa))

    configs = [config(2.0), config(3.0)]
    assert configs[0].domain is not configs[1].domain
    assert configs[0].material is not configs[1].material
    for c in configs:
        # the domain holds arrays, so the key cannot hash it
        with pytest.raises(TypeError):
            hash(c.domain)
    meshes = _count_calls(monkeypatch, "generate_mesh")
    references = _count_calls(monkeypatch, "_reference_plate")
    got = run_corpus(configs, jobs=2)
    assert references[0] == 1 and meshes[0] == 1
    assert got == [run_size_experiment(c) for c in configs]


def test_size_experiment_assembles_each_load_once(monkeypatch):
    # the pairings of an experiment read the load vector its solve used
    calls = [0]
    inner = solver.assemble_load

    def counted(load):
        calls[0] += 1
        return inner(load)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "platelab" and \
                getattr(module, "assemble_load", None) is inner:
            monkeypatch.setattr(module, "assemble_load", counted)
    base = SizeExperimentConfig(domain=SQUARE, material=MAT, target_size=0.25,
                                inclusion_polygons=(CENTER_SQ,),
                                inclusion=InclusionMaterial(kappa=2.0))
    run_size_experiment(base)
    assert calls[0] == 1
    corpus = [replace(base, inclusion=InclusionMaterial(kappa=k), name=f"{k}")
              for k in (1.5, 2.0, 3.0, 4.0)]
    for jobs in (1, 2):
        calls[0] = 0
        run_corpus(corpus, jobs)
        assert calls[0] == 1


def test_update_is_the_stiffness_change():
    mesh, f, region, incl, s0, s1 = _pair(3.0)
    k0 = assemble_stiffness(mesh, MAT).stiffness
    k1 = assemble_stiffness(mesh, MAT, region, incl).stiffness
    update = assemble_update(mesh, MAT, region, incl)
    flagged = np.unique(mesh.elements[region.flags])
    rows = np.unique(update.nonzero()[0]) // 3
    assert set(rows) <= set(flagged)
    assert abs(k0 + update - k1).max() < 1e-14 * abs(k1).max()
