"""End-to-end checks of the laboratory's headline properties.

Each test prints one PASS/FAIL line; run with -s (or read captured output)
to see the summary table. All runs stay at desk scale.
"""

import numpy as np
import pytest

from platelab.estimates import (
    SizeExperimentConfig,
    admissible_centers,
    calibrate_constants,
    convergence_study,
    lps_check,
    run_size_experiment,
    size_bounds,
    three_spheres_sweep,
)
from platelab.functionals import (
    boundary_work,
    frequency,
    strain_energy_density,
)
from platelab.geometry import AprioriData, Domain, generate_mesh
from platelab.material import (
    InclusionMaterial,
    IsotropicMaterial,
    derive_plate_tensors,
    jump_bounds,
)
from platelab.solver import (
    assemble_load,
    assemble_stiffness,
    dense_oracle_solve,
    load_from_family,
    solve,
)

from helpers import boundary_mode, mode_load

MAT = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)
LIGHT = IsotropicMaterial(lam=0.0, mu=1.0, h=0.5, gamma0=2.0)

SQUARE = Domain(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
RECT = Domain(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
LSHAPE = Domain(np.array(
    [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], float))
ROT = Domain(np.array([[0.2, 0.0], [1.2, 0.4], [0.8, 1.4], [-0.2, 1.0]], float))
TRAP = Domain(np.array([[0, 0], [1.5, 0], [1.2, 1.0], [0.2, 0.9]], float))


def _line(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[check {num:>2}] {tag}  {detail}")


def _solve_on(domain, target, family, mat=MAT):
    mesh = generate_mesh(domain, target)
    load = load_from_family(mesh, family, mat)
    sys_ = assemble_stiffness(mesh, mat)
    f = assemble_load(load)
    return mesh, load, f, sys_, solve(sys_.with_load(f))


def _ngon(center, r, n=64):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + r * np.cos(t),
                            center[1] + r * np.sin(t)])


# 1 ------------------------------------------------------------------


def test_01_forward_convergence():
    records = convergence_study(SizeExperimentConfig(
        domain=SQUARE, material=MAT, target_size=0.25,
        load_family="pure_bending a=1"), levels=3)
    w_err, order = records[-1][3:]
    order_ok = order == float("inf") or order >= 1.9
    work_ok = w_err <= 0.005
    _line(1, order_ok and work_ok,
          f"energy-norm order {order} (>= 1.9 or exact), "
          f"finest work error {w_err:.2e} (<= 5e-3)")
    assert order_ok and work_ok


# 2 ------------------------------------------------------------------


def test_02_sparse_matches_dense_oracle():
    cases = [(SQUARE, 0.25, "pure_bending a=1"),
             (SQUARE, 0.125, "twist a=1"),
             (RECT, 0.25, "pure_bending a=1"),
             (LSHAPE, 0.25, "pure_bending a=1"),
             (ROT, 0.2, "twist a=1")]
    worst_dev, worst_null = 0.0, []
    for domain, target, family in cases:
        mesh, load, f, sys_, state = _solve_on(domain, target, family)
        ndof = 3 * mesh.n_nodes
        assert ndof <= 600
        dense = dense_oracle_solve(sys_.with_load(f))
        dev = np.abs(state.u - dense.u).max() / np.abs(state.u).max()
        worst_dev = max(worst_dev, dev)
        evals = np.linalg.eigvalsh(sys_.stiffness.toarray())
        worst_null.append(int((evals < 1e-10 * evals[-1]).sum()))
    ok = worst_dev <= 1e-10 and all(n == 3 for n in worst_null)
    _line(2, ok, f"max sparse-dense deviation {worst_dev:.2e} (<= 1e-10), "
                 f"kernel dims {worst_null} (== 3)")
    assert ok


# 3 ------------------------------------------------------------------


def test_03_work_identity_and_reciprocity():
    domains = [SQUARE, RECT, LSHAPE, ROT, TRAP]
    materials = [MAT, LIGHT]
    worst_id, worst_rec, count = 0.0, 0.0, 0
    for domain in domains:
        for mat in materials:
            states = {}
            for family in ("pure_bending a=1", "twist a=0.7"):
                mesh, load, f, sys_, state = _solve_on(domain, 0.2, family, mat)
                w = boundary_work(f, state)
                energy = state.u @ (sys_.stiffness @ state.u)
                worst_id = max(worst_id, abs(w - energy) / abs(w))
                states[family] = (f, state.u)
                count += 1
            (f1, u1), (f2, u2) = states.values()
            scale = max(abs(f1 @ u1), abs(f2 @ u2))
            worst_rec = max(worst_rec, abs(f1 @ u2 - f2 @ u1) / scale)
    ok = worst_id <= 1e-8 and worst_rec <= 1e-10 and count == 20
    _line(3, ok, f"{count} configs, work identity dev {worst_id:.2e} "
                 f"(<= 1e-8), reciprocity dev {worst_rec:.2e} (<= 1e-10)")
    assert ok


# 4 and 5 share one inclusion corpus ---------------------------------


INCLUSION_SHAPES = {
    "center_square": [np.array([[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7]])],
    "corner_square": [np.array([[0.1, 0.55], [0.3, 0.55], [0.3, 0.8], [0.1, 0.8]])],
    "wide_bar": [np.array([[0.15, 0.4], [0.85, 0.4], [0.85, 0.6], [0.15, 0.6]])],
    "tall_bar": [np.array([[0.45, 0.1], [0.55, 0.1], [0.55, 0.9], [0.45, 0.9]])],
    "disk": [_ngon((0.5, 0.5), 0.2, 32)],
    "small_disk": [_ngon((0.3, 0.35), 0.1, 32)],
    "triangle": [np.array([[0.2, 0.2], [0.8, 0.25], [0.45, 0.7]])],
    "ell": [np.array([[0.2, 0.2], [0.6, 0.2], [0.6, 0.4], [0.4, 0.4],
                      [0.4, 0.6], [0.2, 0.6]])],
    "ellipse": [np.column_stack([0.5 + 0.3 * np.cos(t), 0.5 + 0.15 * np.sin(t)])
                for t in [np.linspace(0, 2 * np.pi, 48, endpoint=False)]],
    "two_parts": [np.array([[0.15, 0.15], [0.35, 0.15], [0.35, 0.35], [0.15, 0.35]]),
                  np.array([[0.6, 0.6], [0.8, 0.6], [0.8, 0.8], [0.6, 0.8]])],
}


@pytest.fixture(scope="module")
def inclusion_corpus():
    reports = []
    for shape_name, polys in INCLUSION_SHAPES.items():
        for family in ("pure_bending a=1", "twist a=1"):
            for kappa in (2.0, 0.5):
                cfg = SizeExperimentConfig(
                    domain=SQUARE, material=MAT, target_size=1.0 / 32.0,
                    load_family=family, inclusion_polygons=polys,
                    inclusion=InclusionMaterial(kappa=kappa),
                    name=f"{shape_name}_{family.split()[0]}_k{kappa:g}")
                reports.append(run_size_experiment(cfg))
    return reports


def test_04_work_gap_sign_law(inclusion_corpus):
    bad = [r.name for r in inclusion_corpus if not r.sign_ok]
    geoms = len(INCLUSION_SHAPES)
    ok = not bad and geoms >= 10
    _line(4, ok, f"gap sign correct on {len(inclusion_corpus)} runs "
                 f"({geoms} geometries x 2 load families x 2 regimes)"
                 + (f"; violations: {bad}" if bad else ""))
    assert ok


def test_05_energy_lemma_chain(inclusion_corpus):
    bad = [r.name for r in inclusion_corpus if not r.lemma.passed]
    cross_dev = max(abs(r.lemma.mid_cross - (r.work_reference - r.work))
                    / max(abs(r.gap), 1e-30) for r in inclusion_corpus)
    ok = not bad and cross_dev <= 1e-9
    _line(5, ok, f"lower <= mid <= upper on {len(inclusion_corpus)} runs, "
                 f"cross-route gap dev {cross_dev:.2e} (<= 1e-9)"
                 + (f"; failures: {bad}" if bad else ""))
    assert ok


# 6 ------------------------------------------------------------------


def test_06_size_bound_calibration():
    mesh = generate_mesh(SQUARE, 1.0 / 64.0)
    load = load_from_family(mesh, "pure_bending a=1", MAT)
    f = assemble_load(load)
    state0 = solve(assemble_stiffness(mesh, MAT).with_load(f))
    w0 = boundary_work(f, state0)
    incl = InclusionMaterial(kappa=2.0)
    jumps = jump_bounds(MAT, incl)

    from platelab.geometry import rasterize_inclusion
    corpus, ratios = [], []
    for r in (0.05, 0.10, 0.15, 0.20, 0.25):
        region = rasterize_inclusion(mesh, [_ngon((0.5, 0.5), r)])
        state = solve(assemble_stiffness(mesh, MAT, region, incl)
                      .with_load(f))
        gap = w0 - boundary_work(f, state)
        corpus.append((region.area, gap, w0, jumps))
        ratios.append(region.area * w0 / gap)  # rho0 = 1
    spread = max(ratios) / min(ratios)
    cal = calibrate_constants(corpus, rho0=1.0)
    bracketed = all(
        size_bounds(gap, w0, j, cal.c1, cal.c2, 1.0).lower <= area * (1 + 1e-12)
        and size_bounds(gap, w0, j, cal.c1, cal.c2, 1.0).upper >= area * (1 - 1e-12)
        for area, gap, w0, j in corpus)
    cond = cal.c2 / cal.c1
    ok = spread <= 10.0 and bracketed and cond <= 10.0
    _line(6, ok, f"ratio spread x{spread:.2f} (<= 10), calibrated "
                 f"C2/C1 = {cond:.2f} (<= 10), all 5 radii bracketed: "
                 f"{bracketed}")
    assert ok


# 7 ------------------------------------------------------------------


def test_07_three_spheres_feasibility():
    mesh = generate_mesh(Domain(SQUARE.vertices, AprioriData(rho0=0.1)),
                         1.0 / 48.0)
    rho, theta = 0.04, 0.3
    centers = admissible_centers(mesh, rho, theta, pitch=0.01)
    fractions = {}
    for family in ("pure_bending a=1", "twist a=1"):
        load = load_from_family(mesh, family, MAT)
        state = solve(assemble_stiffness(mesh, MAT)
                      .with_load(assemble_load(load)))
        field = strain_energy_density(state, order=3)
        feas = [three_spheres_sweep(field, [c], rho, theta)[0].feasible
                for c in centers]
        fractions[family.split()[0]] = float(np.mean(feas))
    ok = all(v >= 0.95 for v in fractions.values()) and len(centers) > 20
    _line(7, ok, f"feasible exponent fraction {fractions} "
                 f"over {len(centers)} admissible centers (>= 0.95 each)")
    assert ok


# 8 ------------------------------------------------------------------


def test_08_lps_constant_matches_disk_mass():
    mesh = generate_mesh(SQUARE, 0.01)
    load = load_from_family(mesh, "pure_bending a=1", MAT)
    state = solve(assemble_stiffness(mesh, MAT)
                  .with_load(assemble_load(load)))
    field = strain_energy_density(state, order=5)
    devs = {}
    positive = True
    for rho in (0.04, 0.03, 0.02):
        rep = lps_check(field, rho, theta=0.3)
        positive &= rep.constant > 0.0
        expect = np.pi * rho ** 2  # unit area, constant density
        devs[rho] = abs(rep.constant - expect) / expect
    ok = positive and all(d <= 0.05 for d in devs.values())
    _line(8, ok, "smallness constant vs pi rho^2 deviation "
          + ", ".join(f"rho={r:g}: {d:.1%}" for r, d in devs.items())
          + " (each <= 5%)")
    assert ok


# 9 ------------------------------------------------------------------


def test_09_frequency_ratio():
    worst = np.inf
    n_loads = 0
    for domain, target in ((SQUARE, 0.125), (ROT, 0.2)):
        mesh = generate_mesh(domain, target)
        loads = [load_from_family(mesh, "pure_bending a=1", MAT),
                 load_from_family(mesh, "twist a=1", MAT),
                 load_from_family(mesh, "edge_moment c=1", MAT)]
        loads += [mode_load(mesh, k) for k in (1, 2, 3, 5, 8)]
        for ld in loads:
            worst = min(worst, frequency(ld).ratio)
            n_loads += 1
    mesh = generate_mesh(SQUARE, 0.125)
    mode_dev = 0.0
    for k in (3, 7):
        lam, _ = boundary_mode(mesh, k)
        rep = frequency(mode_load(mesh, k, compensate=False))
        mode_dev = max(mode_dev, abs(rep.ratio - (1.0 + lam) ** 0.25))
    ok = worst >= 1.0 - 1e-12 and mode_dev <= 1e-10
    _line(9, ok, f"min ratio {worst:.6f} over {n_loads} loads (>= 1), "
                 f"single-mode closed-form dev {mode_dev:.2e} (<= 1e-10)")
    assert ok


# 10 -----------------------------------------------------------------


def test_10_locking_robustness():
    t_by_h, full_errs = {}, {}
    for h in (0.2, 0.1, 0.05, 0.01):
        mat = IsotropicMaterial(lam=1.0, mu=1.0, h=h)
        t = derive_plate_tensors(mat)
        exact = 2.0 * t.rigidity * (1.0 + t.nu)
        mesh = generate_mesh(SQUARE, 1.0 / 16.0)
        for assumed in (True, False):
            load = load_from_family(mesh, "pure_bending a=1", mat)
            sys_ = assemble_stiffness(mesh, mat, assumed_shear=assumed)
            f = assemble_load(load)
            state = solve(sys_.with_load(f))
            err = abs(boundary_work(f, state) - exact) / exact
            (t_by_h if assumed else full_errs)[h] = err
    ok = all(err <= 0.05 for err in t_by_h.values())
    _line(10, ok, "assumed-shear work error "
          + ", ".join(f"h={h:g}: {e:.1e}" for h, e in t_by_h.items())
          + " (each <= 5%); full-integration degradation (informational) "
          + ", ".join(f"h={h:g}: {e:.0%}" for h, e in full_errs.items()))
    assert ok
