import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from platelab import functionals
from platelab.functionals import (
    EnergyField,
    boundary_work,
    disk_energies,
    frequency,
    strain_energy_density,
    work_report,
)
from platelab.geometry import AprioriData, Domain, generate_mesh
from platelab.material import IsotropicMaterial
from platelab.solver import (
    PlateState,
    assemble_load,
    assemble_stiffness,
    element_operators,
    kernel_basis,
    load_from_family,
    solve,
)

from helpers import (
    boundary_fractional_norm,
    boundary_mode,
    edge_rule_work,
    korn_ratio,
    mode_load,
    poincare_ratio,
)

MAT = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)
SQUARE = Domain(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
LSHAPE = Domain(np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1],
                          [0, 1]], float))
SKEWED = Domain(np.array([[0, 0], [1, 0.2], [1.3, 1.1], [0.2, 0.9]], float))


@pytest.fixture(scope="module")
def solved():
    mesh = generate_mesh(SQUARE, 0.125)
    load = load_from_family(mesh, "pure_bending a=1.0", MAT)
    sys_ = assemble_stiffness(mesh, MAT)
    f = assemble_load(load)
    state = solve(sys_.with_load(f))
    return mesh, load, f, state


def test_boundary_work_is_duality_pairing(solved):
    mesh, load, f, state = solved
    w = boundary_work(f, state)
    assert_allclose(w, edge_rule_work(load, state.u), rtol=1e-13)
    assert_allclose(w, 5.0 / 9.0, rtol=1e-12)


def test_boundary_work_mesh_mismatch(solved):
    # a load vector carries no mesh: one of another dof count is refused
    mesh, load, f, state = solved
    other = generate_mesh(SQUARE, 0.25)
    wrong = assemble_load(load_from_family(other, "pure_bending a=1.0", MAT))
    with pytest.raises(ValueError, match="dof count"):
        boundary_work(wrong, state)


def test_work_report_gap(solved):
    mesh, load, f, state = solved
    rep = work_report(f, state, state)
    assert rep.gap == 0.0
    assert rep.relative_gap == 0.0
    assert_allclose(rep.work, rep.work_reference)


def test_work_report_states_on_two_meshes(solved):
    mesh, load, f, state = solved
    other = generate_mesh(SQUARE, 0.125)
    alien = PlateState(u=state.u, mesh=other, residual=0.0,
                       normalization=None)
    with pytest.raises(ValueError, match="one mesh"):
        work_report(f, state, alien)


def test_density_constant_for_pure_bending(solved):
    mesh, load, f, state = solved
    field = strain_energy_density(state)
    assert_allclose(field.e2, 2.0, atol=1e-11)
    assert_allclose(field.total, 2.0, rtol=1e-12)  # unit area
    bend_sq, shear_sq = element_operators(mesh).strain_squares(state.u)
    assert_allclose(bend_sq.ravel(), field.e2, atol=1e-12)
    assert np.abs(shear_sq).max() < 1e-22


def test_density_rho0_scaling(solved):
    mesh, load, f, state = solved
    # add an artificial shear by perturbing w only
    u = state.u.copy()
    u[2::3] += 0.05 * mesh.nodes[:, 0] ** 2
    bent = PlateState(u=u, mesh=mesh, residual=0.0,
                      normalization=state.normalization,
                      assumed_shear=state.assumed_shear)
    f1 = strain_energy_density(bent)
    # the same plate on a domain of rho0 = 2
    wide = replace(mesh, domain=replace(SQUARE,
                                        apriori=AprioriData(rho0=2.0)))
    f2 = strain_energy_density(replace(bent, mesh=wide))
    bend_sq, shear_sq = (sq.ravel() for sq in
                         element_operators(mesh).strain_squares(bent.u))
    assert shear_sq.max() > 1e-6
    assert_allclose(f1.e2, bend_sq + shear_sq, rtol=1e-13)
    assert_allclose(f2.e2, bend_sq + shear_sq / 4.0, rtol=1e-13)


def test_density_order_agreement(solved):
    mesh, load, f, state = solved
    t2 = strain_energy_density(state, order=2).total
    t4 = strain_energy_density(state, order=4).total
    assert_allclose(t2, t4, rtol=1e-12)


def test_region_energy_disk_vs_area(solved):
    mesh, load, f, state = solved
    field = strain_energy_density(state)
    got = disk_energies(field, [(0.5, 0.5)], [0.3])[0, 0]
    # constant density 2 -> energy = 2 * quadrature area of the disk
    assert abs(got - 2.0 * np.pi * 0.09) / (2.0 * np.pi * 0.09) < 0.05


def _random_field(domain, target, seed):
    """Energy field of a random dof vector, so E^2 varies point to point."""
    mesh = generate_mesh(replace(domain, apriori=AprioriData(rho0=0.5)),
                         target)
    u = np.random.default_rng(seed).normal(size=3 * mesh.n_nodes)
    state = PlateState(u=u, mesh=mesh, residual=0.0, normalization=None)
    return strain_energy_density(state, order=3)


def _scan_disk_energies(field, centers, radii):
    """Full-mask reference, (w e2)[disk].sum(): every point tested against
    every disk."""
    we2 = field.weight * field.e2
    out = np.empty((len(centers), len(radii)))
    for i, (cx, cy) in enumerate(centers):
        for k, r in enumerate(radii):
            out[i, k] = we2[(field.x - cx) ** 2 + (field.y - cy) ** 2
                            <= r ** 2].sum()
    return out


@pytest.mark.parametrize("domain, target", [
    (SQUARE, 1.0 / 16.0),   # structured grid
    (LSHAPE, 1.0 / 20.0),   # overlay mesher, no grid line on the notch
    (SKEWED, 1.0 / 12.0),   # overlay mesher, no edge on the grid
], ids=["square", "lshape", "skewed"])
@pytest.mark.parametrize("permuted", [False, True], ids=["stored", "permuted"])
def test_disk_energies_match_full_scan(domain, target, permuted):
    field = _random_field(domain, target, seed=3)
    if permuted:
        p = np.random.default_rng(4).permutation(len(field.x))
        field = replace(field, x=field.x[p], y=field.y[p],
                        weight=field.weight[p], e2=field.e2[p])
    rng = np.random.default_rng(5)
    lo, hi = domain.vertices.min(axis=0), domain.vertices.max(axis=0)
    verts = domain.vertices
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    centers = np.vstack([
        rng.uniform(lo, hi, size=(12, 2)),   # interior and notch
        verts, mids,                          # on the boundary
        [(-50.0, -50.0), (50.0, 0.5)],        # far outside: no points
        [(field.x[7], field.y[7])],           # on a sample point
    ])
    # a radius that reaches exactly to a sample point puts it on the rim
    rim = float(np.hypot(field.x[40] - field.x[7], field.y[40] - field.y[7]))
    radii = [0.0, 1e-6, 0.05, 0.2, rim, 5.0, -0.1]
    got = disk_energies(field, centers, radii)
    assert got.shape == (len(centers), len(radii))
    assert np.array_equal(got, _scan_disk_energies(field, centers, radii))
    assert (got[-3:-1] == 0.0).all()
    assert got[:, 5].max() == field.total   # disk covers domain


def test_disk_energies_keep_rounded_rim_points():
    # y lies just below the rounded cy - r, yet the mask admits it: the
    # band must not cut it off
    cy, r = 0.05663934229092593, 0.06301735497328241
    y = np.array([-0.00637801268235648, 0.0, 0.05, 0.1, 0.2])
    assert y[0] < cy - r and (y[0] - cy) ** 2 <= r ** 2
    ones = np.ones(len(y))
    field = EnergyField(x=np.zeros(len(y)), y=y, weight=ones, e2=ones,
                        mesh=None, rho0=1.0)
    assert disk_energies(field, [(0.0, cy)], [r])[0, 0] == 4.0


def test_disk_energies_keep_rounded_x_rim_points():
    # x lies just left of the rounded cx - r, yet the mask admits it: the
    # x-window must not cut it off. The far point widens the x-extent, so
    # the disk tests its window, not its whole band
    cx, r = 0.05663934229092593, 0.06301735497328241
    x = np.array([-0.00637801268235648, 0.0, 0.05, 0.1, 0.2, 64.0])
    assert x[0] < cx - r and (x[0] - cx) ** 2 <= r ** 2
    assert 32.0 * r < np.ptp(x)
    ones = np.ones(len(x))
    field = EnergyField(x=x, y=np.zeros(len(x)), weight=ones, e2=ones,
                        mesh=None, rho0=1.0)
    assert disk_energies(field, [(cx, 0.0)], [r])[0, 0] == 4.0


DOMAINS = {"square": SQUARE, "lshape": LSHAPE, "skewed": SKEWED}
# pairwise summation changes its blocking at 8 and 128 terms
EDGE_COUNTS = (0, 1, 7, 8, 9, 127, 128, 129, 1000, 1500)


@functools.cache
def _probe_field(name, target):
    return _random_field(DOMAINS[name], target, seed=11)


def _widened(field):
    """field and one far point, which widens the x-extent so that every
    disk tests its x-window."""
    return replace(field, x=np.append(field.x, 500.0),
                   y=np.append(field.y, 0.5),
                   weight=np.append(field.weight, 1.0),
                   e2=np.append(field.e2, 1.0))


@pytest.mark.parametrize("batch", [1, 7, 50, 400])
def test_disk_points_split_rows_into_bounded_batches(monkeypatch, batch):
    # lattice rows of 25 centers split into batches of about `batch`
    # candidates; every disk still comes back whole, once
    field = _widened(_probe_field("square", 1.0 / 16.0))
    g = np.linspace(0.1, 0.9, 25)
    centers = np.column_stack([np.tile(g, 5), np.repeat(g[::6], 25)])
    radii = [0.04, 0.1]
    expect = _scan_disk_energies(field, centers, radii)
    monkeypatch.setattr(functionals, "_BATCH", batch)
    assert np.array_equal(disk_energies(field, centers, radii), expect)


@st.composite
def disk_problems(draw):
    """(field, centers, radii): a probe field in stored or permuted order,
    lattice rows mixed with scattered centers, and radii that give chosen
    member counts about the first center."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    field = _probe_field(name, {"square": 1.0 / 16.0, "lshape": 1.0 / 20.0,
                                "skewed": 1.0 / 16.0}[name])
    n = len(field.x)
    if draw(st.booleans()):
        p = np.random.default_rng(draw(st.integers(0, 99))).permutation(n)
        field = replace(field, x=field.x[p], y=field.y[p],
                        weight=field.weight[p], e2=field.e2[p])
    if draw(st.booleans()):
        field = _widened(field)
    verts = DOMAINS[name].vertices
    coord = st.floats(-0.2, 1.4, allow_nan=False)
    rows = draw(st.lists(st.tuples(st.lists(coord, min_size=1, max_size=6),
                                   coord), max_size=3))
    centers = [(cx, cy) for xs, cy in rows for cx in xs]
    centers += draw(st.lists(st.tuples(coord, coord), max_size=5))
    k = draw(st.integers(0, n - 1))
    centers += draw(st.sampled_from([[], [(-50.0, -50.0)],
                                     [(field.x[k], field.y[k])]]))
    if not centers:
        centers = [tuple(verts.mean(axis=0))]
    cx, cy = centers[0]
    d2 = np.sort((field.x - cx) ** 2 + (field.y - cy) ** 2)
    radii = []
    for count in draw(st.lists(st.sampled_from(EDGE_COUNTS), min_size=1,
                               max_size=3)):
        if count == 0:
            r = 0.5 * np.sqrt(d2[0])
        else:
            r = np.sqrt(d2[min(count, len(d2)) - 1])
            while r ** 2 < d2[min(count, len(d2)) - 1]:
                r = np.nextafter(r, np.inf)
        radii.append(float(r))
    radii += draw(st.lists(st.sampled_from([0.0, -0.05, 0.03, 0.3]),
                           max_size=2))
    return field, np.array(centers), radii


@settings(settings.get_profile("derandomized"), max_examples=120)
@given(disk_problems())
def test_disk_points_match_full_scan(problem):
    field, centers, radii = problem
    index = np.arange(len(field.x))
    seen = np.zeros((len(centers), len(radii)), dtype=int)
    for k, rows, members in functionals._disk_points(field, centers, radii,
                                                     index):
        r = abs(radii[k])
        for i, m in zip(np.arange(len(centers))[rows], members):
            cx, cy = centers[i]
            full = (field.x - cx) ** 2 + (field.y - cy) ** 2 <= r ** 2
            assert np.array_equal(m, np.flatnonzero(full))
            seen[i, k] += 1
    assert (seen == 1).all()
    assert np.array_equal(disk_energies(field, centers, radii),
                          _scan_disk_energies(field, centers, radii))
    # one radius alone may test x-windows where the list scans bands
    for r in radii:
        assert np.array_equal(disk_energies(field, centers, [r]),
                              _scan_disk_energies(field, centers, [r]))


def test_korn_ratio_pure_bending(solved):
    mesh, load, f, state = solved
    r = korn_ratio(state)
    assert not r.degenerate
    assert_allclose(r.value, 1.0, rtol=1e-10)


def test_korn_degenerate_on_kernel(solved):
    mesh, load, f, state = solved
    kb = kernel_basis(mesh)
    rigid = PlateState(u=kb[0], mesh=mesh, residual=0.0, normalization=None,
                       assumed_shear=True)
    r = korn_ratio(rigid)
    assert r.degenerate


def test_poincare_linear_field(solved):
    mesh, load, f, state = solved
    r = poincare_ratio(mesh, mesh.nodes[:, 0], rho0=1.0)
    assert not r.degenerate
    assert_allclose(r.value, 1.0 / np.sqrt(12.0), rtol=1e-12)
    half = poincare_ratio(mesh, mesh.nodes[:, 0], rho0=2.0)
    assert_allclose(half.value, 0.5 / np.sqrt(12.0), rtol=1e-12)


def test_poincare_constant_degenerate(solved):
    mesh, load, f, state = solved
    assert poincare_ratio(mesh, np.ones(mesh.n_nodes), rho0=1.0).degenerate


# boundary spectrum


def test_loop_spectrum_segments_follow_loop_order():
    # segments of five lengths: segment k runs from point k to point k + 1,
    # and the last one back to point 0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.5], [2.5, 2.0],
                    [0.5, 1.5]])
    n = len(pts)
    ell = np.array([np.hypot(*(pts[(k + 1) % n] - pts[k])) for k in range(n)])
    lam, vec, m = functionals._loop_spectrum(pts)
    k = np.arange(n)
    assert_allclose(m[k, (k + 1) % n], ell / 6.0, rtol=1e-14)
    # the P1 energy of the x coordinate, sum of dx^2 / length per segment
    stiff = m @ vec @ np.diag(lam) @ vec.T @ m
    x = pts[:, 0]
    dx = np.array([x[(j + 1) % n] - x[j] for j in range(n)])
    assert_allclose(x @ stiff @ x, np.sum(dx ** 2 / ell), rtol=1e-10)


def test_fractional_norm_constant_any_order(solved):
    mesh, load, f, state = solved
    pts = mesh.nodes[mesh.boundary_loop()]
    g = 3.0 * np.ones(len(pts))
    # mode 0 has eigenvalue 0, so every order gives |c| sqrt(perimeter)
    for s in (-0.5, -1.0, 0.5):
        assert_allclose(boundary_fractional_norm(g, s, pts, 1.0), 6.0, rtol=1e-10)


def test_fractional_norm_homogeneous(solved):
    mesh, load, f, state = solved
    pts = mesh.nodes[mesh.boundary_loop()]
    rng = np.random.default_rng(2)
    g = rng.normal(size=len(pts))
    n1 = boundary_fractional_norm(g, -0.5, pts, 1.0)
    n3 = boundary_fractional_norm(3.0 * g, -0.5, pts, 1.0)
    assert_allclose(n3, 3.0 * n1, rtol=1e-12)


def test_fractional_norm_triangle_inequality(solved):
    mesh, load, f, state = solved
    pts = mesh.nodes[mesh.boundary_loop()]
    rng = np.random.default_rng(4)
    g1 = rng.normal(size=len(pts))
    g2 = rng.normal(size=len(pts))
    a = boundary_fractional_norm(g1 + g2, -0.5, pts, 1.0)
    b = boundary_fractional_norm(g1, -0.5, pts, 1.0)
    c = boundary_fractional_norm(g2, -0.5, pts, 1.0)
    assert a <= b + c + 1e-12


def test_fractional_norm_order_monotone(solved):
    mesh, load, f, state = solved
    pts = mesh.nodes[mesh.boundary_loop()]
    rng = np.random.default_rng(6)
    g = rng.normal(size=len(pts))
    n_half = boundary_fractional_norm(g, -0.5, pts, 1.0)
    n_one = boundary_fractional_norm(g, -1.0, pts, 1.0)
    assert n_one <= n_half + 1e-12


def test_fractional_norm_vector_rss(solved):
    mesh, load, f, state = solved
    pts = mesh.nodes[mesh.boundary_loop()]
    rng = np.random.default_rng(8)
    g = rng.normal(size=(len(pts), 2))
    full = boundary_fractional_norm(g, -0.5, pts, 1.0)
    c0 = boundary_fractional_norm(g[:, 0], -0.5, pts, 1.0)
    c1 = boundary_fractional_norm(g[:, 1], -0.5, pts, 1.0)
    assert_allclose(full, np.hypot(c0, c1), rtol=1e-12)


def test_fractional_norm_short_loop_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        boundary_fractional_norm(np.ones(2), -0.5, pts, 1.0)


def test_single_mode_ratio_closed_form(solved):
    mesh, load, f, state = solved
    lam, v = boundary_mode(mesh, 3)
    bare = mode_load(mesh, 3, compensate=False)
    rep = frequency(bare)
    assert_allclose(rep.ratio, (1.0 + lam) ** 0.25, rtol=1e-10)


def test_mode_zero_not_a_load(solved):
    mesh, load, f, state = solved
    with pytest.raises(ValueError):
        mode_load(mesh, 0)


def test_mode_load_compensated_is_solvable(solved):
    mesh, load, f, state = solved
    ml = mode_load(mesh, 2)
    sys_ = assemble_stiffness(mesh, MAT)
    fv = assemble_load(ml)  # solve raises CompatibilityError if unbalanced
    st = solve(sys_.with_load(fv))
    assert boundary_work(fv, st) > 0.0


def test_frequency_at_least_one(solved):
    mesh, load, f, state = solved
    for ld in (load, load_from_family(mesh, "twist a=1.0", MAT),
               mode_load(mesh, 1), mode_load(mesh, 5)):
        rep = frequency(ld)
        assert rep.ratio >= 1.0 - 1e-12
        assert rep.norm_half >= rep.norm_one - 1e-12


def test_frequency_zero_load_rejected(solved):
    mesh, load, f, state = solved
    from platelab.solver import BoundaryLoad
    nb = len(mesh.boundary_edges)
    zero = BoundaryLoad(mesh, np.zeros((nb, 2)), np.zeros((nb, 2, 2)))
    with pytest.raises(ValueError):
        frequency(zero)


def test_frequency_computes_one_spectrum(solved, monkeypatch):
    # its four norms, two of them on two-component couples, share one eigh
    mesh, load, f, state = solved
    loop_spectrum = functionals._loop_spectrum
    spectra = []

    def counted(points):
        spectra.append(points)
        return loop_spectrum(points)

    monkeypatch.setattr(functionals, "_loop_spectrum", counted)
    frequency(load)
    assert len(spectra) == 1
