from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from platelab import solver
from platelab.functionals import stability_ratio
from platelab.geometry import AprioriData, Domain, generate_mesh
from platelab.material import IsotropicMaterial, derive_plate_tensors
from platelab.solver import (
    DENSE_CAP,
    BoundaryLoad,
    CompatibilityError,
    SolveError,
    assemble_load,
    assemble_stiffness,
    ElementOps,
    dense_oracle_solve,
    element_operators,
    factorize,
    kernel_basis,
    load_from_family,
    residual_check,
    solve,
)

from helpers import MESH_REFUSAL, overlay_domains

MAT = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)

SQUARE = Domain(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
ROT = Domain(np.array([[0.2, 0.0], [1.2, 0.4], [0.8, 1.4], [-0.2, 1.0]], float))
LSHAPE = Domain(np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]],
                         float))


def _solved(domain, family, target=0.25, assumed=True, mat=MAT):
    mesh = generate_mesh(domain, target)
    load = load_from_family(mesh, family, mat)
    sys_ = assemble_stiffness(mesh, mat, assumed_shear=assumed)
    f = assemble_load(load)
    state = solve(sys_.with_load(f))
    return mesh, load, f, state


@pytest.mark.parametrize("assumed", [True, False])
@pytest.mark.parametrize("domain", [SQUARE, ROT])
def test_kernel_annihilated(domain, assumed):
    mesh = generate_mesh(domain, 0.25)
    sys_ = assemble_stiffness(mesh, MAT, assumed_shear=assumed)
    K = sys_.stiffness
    kb = kernel_basis(mesh)
    scale = abs(K).max()
    for k in kb:
        assert np.abs(K @ k).max() < 1e-12 * scale


def test_dense_nullity_three():
    mesh = generate_mesh(SQUARE, 0.25)
    K = assemble_stiffness(mesh, MAT).stiffness.toarray()
    w = np.linalg.eigvalsh(K)
    assert (w < 1e-10 * w[-1]).sum() == 3
    assert w[3] > 1e-8 * w[-1]


def test_pure_bending_exact_strains():
    a = 0.7
    mesh, load, f, state = _solved(SQUARE, f"pure_bending a={a}")
    ops = element_operators(mesh)
    kv = ops.curvatures(state.u)
    assert_allclose(kv[..., 0], a, atol=1e-12)
    assert_allclose(kv[..., 1], a, atol=1e-12)
    assert_allclose(kv[..., 2], 0.0, atol=1e-12)
    assert np.abs(ops.shears(state.u)).max() < 1e-12


def test_pure_bending_exact_on_skewed_quads():
    mesh, load, f, state = _solved(ROT, "pure_bending a=1.0")
    ops = element_operators(mesh)
    kv = ops.curvatures(state.u)
    assert_allclose(kv[..., :2], 1.0, atol=1e-11)
    assert np.abs(ops.shears(state.u)).max() < 1e-11


def test_twist_exact_on_structured():
    a = 0.5
    mesh, load, f, state = _solved(SQUARE, f"twist a={a}")
    ops = element_operators(mesh)
    kv = ops.curvatures(state.u)
    assert_allclose(kv[..., 0], 0.0, atol=1e-12)
    assert_allclose(kv[..., 1], 0.0, atol=1e-12)
    assert_allclose(kv[..., 2], 2.0 * a, atol=1e-12)
    assert np.abs(ops.shears(state.u)).max() < 1e-12


@pytest.mark.parametrize("domain", [SQUARE, ROT], ids=["square", "skewed"])
@pytest.mark.parametrize("family", ["pure_bending", "twist"])
def test_strain_squares_closed_form(domain, family):
    # phi = a x and phi = a (x2, x1) both have |sym grad phi|^2 = 2 a^2 and
    # zero shear; the twist exercises the 1/2 weight of k12_eng^2
    a = 0.7
    mesh, load, f, state = _solved(domain, f"{family} a={a}")
    bend_sq, shear_sq = element_operators(mesh).strain_squares(state.u)
    assert bend_sq.shape == shear_sq.shape == (mesh.n_elements, 4)
    assert_allclose(bend_sq, 2.0 * a ** 2, rtol=1e-10)
    assert np.abs(shear_sq).max() < 1e-20


def test_pure_bending_work_closed_form():
    mesh, load, f, state = _solved(SQUARE, "pure_bending a=1.0")
    t = derive_plate_tensors(MAT)
    exact = 2.0 * t.rigidity * (1.0 + t.nu)  # unit area, a = 1
    assert_allclose(f @ state.u, exact, rtol=1e-13)
    assert_allclose(exact, 5.0 / 9.0)


def test_twist_work_closed_form():
    mesh, load, f, state = _solved(SQUARE, "twist a=1.0")
    t = derive_plate_tensors(MAT)
    assert_allclose(f @ state.u, 2.0 * t.rigidity * (1.0 - t.nu), rtol=1e-13)


def test_solution_normalized():
    mesh, load, f, state = _solved(SQUARE, "pure_bending a=1.0")
    sys_ = assemble_stiffness(mesh, MAT)
    assert np.abs(sys_.constraints @ state.u).max() < 1e-10


def test_reciprocity():
    mesh = generate_mesh(SQUARE, 0.25)
    sys_ = assemble_stiffness(mesh, MAT)
    l1 = load_from_family(mesh, "pure_bending a=1.0", MAT)
    l2 = load_from_family(mesh, "twist a=1.0", MAT)
    f1, f2 = assemble_load(l1), assemble_load(l2)
    u1 = solve(sys_.with_load(f1)).u
    u2 = solve(sys_.with_load(f2)).u
    scale = max(abs(f1 @ u1), abs(f2 @ u2))
    assert abs(f1 @ u2 - f2 @ u1) < 1e-10 * scale


def test_incompatible_load_rejected():
    mesh = generate_mesh(SQUARE, 0.25)
    nb = len(mesh.boundary_edges)
    load = BoundaryLoad(mesh, np.ones((nb, 2)), np.zeros((nb, 2, 2)))
    f = assemble_load(load)
    assert f.shape == (3 * mesh.n_nodes,)
    assert abs(f[2::3].sum() - 4.0) < 1e-12  # the net force
    sys_ = assemble_stiffness(mesh, MAT).with_load(f)
    with pytest.raises(CompatibilityError, match="rigid motion"):
        solve(sys_)


def test_net_moment_rejected():
    mesh = generate_mesh(SQUARE, 0.25)
    nb = len(mesh.boundary_edges)
    m = np.zeros((nb, 2, 2))
    m[:, :, 0] = 1.0  # constant couple, nonzero integral
    load = BoundaryLoad(mesh, np.zeros((nb, 2)), m)
    sys_ = assemble_stiffness(mesh, MAT).with_load(assemble_load(load))
    with pytest.raises(CompatibilityError, match="rigid motion"):
        solve(sys_)


def test_small_net_force_rejected_on_a_fine_mesh():
    # a force 5e-10 of the couple gives the net force 2e-9 of the couple;
    # scaled by |f| |k|, the w = 1 component read 8.8e-11 on the 128^2
    # square (3.2e-10 at 8^2), inside COMPAT_TOL. Scaled by the size of
    # its own terms, it reads 1: every force term has one sign
    mesh = generate_mesh(SQUARE, 1.0 / 128)
    bending = load_from_family(mesh, "pure_bending a=1", MAT)
    c = np.linalg.norm(bending.m[0, 0])
    load = BoundaryLoad(mesh, bending.q + 5e-10 * c, bending.m)
    sys_ = assemble_stiffness(mesh, MAT).with_load(assemble_load(load))
    with pytest.raises(CompatibilityError, match="rigid motion 2"):
        solve(sys_)


def test_residual_check_small():
    mesh, load, f, state = _solved(SQUARE, "pure_bending a=1.0")
    max_res, rel, worst = residual_check(state, MAT, f)
    assert rel < 1e-10
    assert 0 <= worst < mesh.n_elements
    with pytest.raises(ValueError, match="dof count"):
        residual_check(state, MAT, f[:-3])


def test_state_carries_diagnostics():
    mesh, load, f, state = _solved(SQUARE, "pure_bending a=1.0")
    assert state.residual < 1e-9
    assert stability_ratio(state, load) > 0.0
    assert state.assumed_shear is True


def test_dense_matches_sparse():
    moderate = IsotropicMaterial(lam=1.0, mu=1.0, h=0.1)
    for domain, family, mat in ((SQUARE, "twist a=1.0", MAT),
                                (ROT, "pure_bending a=1.0", MAT),
                                (LSHAPE, "pure_bending a=1.0", moderate)):
        mesh = generate_mesh(domain, 0.25)
        load = load_from_family(mesh, family, mat)
        sys_ = assemble_stiffness(mesh, mat)
        f = assemble_load(load)
        sys_ = sys_.with_load(f)
        us = solve(sys_).u
        ud = dense_oracle_solve(sys_).u
        scale = np.abs(us).max()
        assert np.abs(us - ud).max() < 1e-10 * scale


def test_dense_cap_enforced():
    mesh = generate_mesh(SQUARE, 0.05)  # 21x21 nodes -> 1323 dof
    load = load_from_family(mesh, "pure_bending a=1.0", MAT)
    sys_ = assemble_stiffness(mesh, MAT)
    sys_ = sys_.with_load(assemble_load(load))
    with pytest.raises(SolveError,
                       match="dense oracle capped at 600 dof, system has 1323"):
        dense_oracle_solve(sys_)


def test_full_integration_locks_thin():
    # thin-plate bending loses most of its work under full integration,
    # while the assumed-shear operators stay exact
    thin = IsotropicMaterial(lam=1.0, mu=1.0, h=0.01)
    t = derive_plate_tensors(thin)
    exact = 2.0 * t.rigidity * (1.0 + t.nu)
    mesh = generate_mesh(SQUARE, 1.0 / 16.0)
    for assumed, bound in ((True, 1e-10), (False, None)):
        load = load_from_family(mesh, "pure_bending a=1.0", thin)
        sys_ = assemble_stiffness(mesh, thin, assumed_shear=assumed)
        state = solve(sys_.with_load(assemble_load(load)))
        err = abs(assemble_load(load) @ state.u - exact) / exact
        if assumed:
            assert err < bound
        else:
            assert err > 0.5


def test_thin_plate_factor_has_the_fill_of_a_thick_one():
    # the pinned stiffness is positive definite, so SuperLU keeps the
    # dissection order and the pivots on the diagonal, and the factor's
    # stored entries depend on the pattern alone
    mesh = generate_mesh(SQUARE, 1.0 / 16.0)
    fill = []
    for h in (1.0, 0.01):
        lu = factorize(assemble_stiffness(mesh, replace(MAT, h=h))).lu
        identity = np.arange(lu.shape[0])
        assert np.array_equal(lu.perm_r, identity)
        assert np.array_equal(lu.perm_c, identity)
        fill.append(lu.nnz)
    assert fill[0] == fill[1]


def test_dissection_fills_less_than_minimum_degree():
    # SuperLU's own minimum degree ordering of the same reduced stiffness,
    # in node order, fills 2.19M entries on the 64^2 square, the dissection
    # 1.91M
    system = assemble_stiffness(generate_mesh(SQUARE, 1.0 / 64.0), MAT)
    factor = factorize(system)
    free = np.zeros(system.n_dof, dtype=bool)
    free[factor.dofs] = True
    mmd = spla.splu(system.stiffness[free][:, free].tocsc(),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    assert factor.lu.nnz < mmd.nnz


def test_solve_refuses_the_factor_of_another_stiffness():
    mesh = generate_mesh(SQUARE, 0.25)
    f = assemble_load(load_from_family(mesh, "pure_bending a=1", MAT))
    system, other = (assemble_stiffness(mesh, m).with_load(f)
                     for m in (MAT, replace(MAT, mu=1.2)))
    factor = factorize(system)
    with pytest.raises(ValueError, match="^factor belongs to another system$"):
        solve(other, factor=factor)


# a U whose arms hold more nodes than its floor, which is thicker than both
# arms together: the first split cuts across the arms and leaves them as one
# subdomain in two pieces
TALL_U = Domain(np.array([[0, 0], [0.6, 0], [0.6, 2.4], [0.5, 2.4],
                          [0.5, 0.6], [0.1, 0.6], [0.1, 2.4], [0, 2.4]]),
                AprioriData(x0=(0.3, 0.3)))


@settings(settings.get_profile("derandomized"), max_examples=25)
@given(overlay_domains(), st.floats(0.2, 0.4))
@example(SQUARE, 0.5)    # 9 nodes, 8 of them free: a single leaf
@example(TALL_U, 0.125)
def test_dissection_order_solves_as_the_dense_oracle(domain, target):
    try:
        mesh = generate_mesh(domain, target)
    except ValueError as err:
        assert MESH_REFUSAL.match(str(err)), err
        return
    system = assemble_stiffness(mesh, MAT).with_load(assemble_load(
        load_from_family(mesh, "pure_bending a=1", MAT)))
    assert system.n_dof <= DENSE_CAP
    factor = factorize(system)
    # the dofs of every node but one, each node's three together
    nodes = factor.dofs[::3] // 3
    assert np.array_equal(factor.dofs,
                          (3 * nodes[:, None] + np.arange(3)).ravel())
    assert len(np.unique(nodes)) == mesh.n_nodes - 1
    us = solve(system, factor).u
    ud = dense_oracle_solve(system).u
    assert np.abs(us - ud).max() < 1e-9 * np.abs(ud).max()


@pytest.mark.parametrize("assumed", [True, False], ids=["mitc", "full"])
@pytest.mark.parametrize("domain,family", [(SQUARE, "pure_bending a=1.0"),
                                           (ROT, "twist a=1.0")],
                         ids=["square", "skewed"])
def test_thin_plate_dense_matches_sparse(domain, family, assumed):
    thin = IsotropicMaterial(lam=1.0, mu=1.0, h=0.01)
    mesh = generate_mesh(domain, 0.125)
    load = load_from_family(mesh, family, thin)
    sys_ = assemble_stiffness(mesh, thin, assumed_shear=assumed)
    sys_ = sys_.with_load(assemble_load(load))
    assert sys_.n_dof <= 600
    us = solve(sys_).u
    ud = dense_oracle_solve(sys_).u
    assert np.abs(us - ud).max() < 1e-9 * np.abs(ud).max()


def _sparse_and_dense(domain, h):
    # both solves of pure bending at target size 1/8 and thickness h
    mat = replace(MAT, h=h)
    mesh = generate_mesh(domain, 0.125)
    system = assemble_stiffness(mesh, mat).with_load(
        assemble_load(load_from_family(mesh, "pure_bending a=1.0", mat)))
    assert system.n_dof <= DENSE_CAP
    return solve(system).u, dense_oracle_solve(system).u


def test_dense_oracle_solves_the_thinnest_square():
    # |f| is 1.9e-10 and the smallest elastic eigenvalue 4.7e-9 of the
    # largest; the load does no work on the analytic rigid motions, which
    # both solves check it against
    us, ud = _sparse_and_dense(SQUARE, 0.001)
    assert np.abs(us - ud).max() < 1e-9 * np.abs(ud).max()


@pytest.mark.parametrize("h,bound", [(0.01, 1e-9), (0.001, 1e-7)])
def test_thin_slender_plate_dense_matches_sparse(h, bound):
    # the bound grows with the condition number of TALL_U's deflated
    # stiffness, 1.3e8 at h = 0.01 and 1.3e10 at h = 0.001: there the
    # sparse solve lands 3.4e-10 and 8.3e-8 from a solve refined against
    # exactly rounded residuals, and the dense oracle within 1.4e-12
    us, ud = _sparse_and_dense(TALL_U, h)
    assert np.abs(us - ud).max() < bound * np.abs(ud).max()


@pytest.mark.parametrize("kind", ["bending-only", "zero"])
def test_dense_oracle_refuses_a_singular_stiffness(monkeypatch, kind):
    # without shear the rotations and the deflection decouple, and the
    # kernel holds more than the rigid motions; the zero stiffness holds
    # every motion. Either is a SolveError, not numpy's LinAlgError
    mesh = generate_mesh(SQUARE, 0.25)
    f = assemble_load(load_from_family(mesh, "pure_bending a=1.0", MAT))
    if kind == "bending-only":
        monkeypatch.setattr(solver, "shear_matrix",
                            lambda tensors: np.zeros((2, 2)))
    system = assemble_stiffness(mesh, MAT).with_load(f)
    if kind == "zero":
        system = replace(system, stiffness=0.0 * system.stiffness)
    with pytest.raises(SolveError):
        dense_oracle_solve(system)


def test_dense_oracle_refuses_a_stiffness_that_strains_rigid_motions():
    mesh = generate_mesh(SQUARE, 0.25)
    f = assemble_load(load_from_family(mesh, "pure_bending a=1.0", MAT))
    system = assemble_stiffness(mesh, MAT).with_load(f)
    k = system.stiffness
    system = replace(system, stiffness=k + 1e-9 * abs(k).max()
                     * sp.identity(system.n_dof, format="csr"))
    with pytest.raises(SolveError, match="^stiffness does not annihilate "
                                         "the rigid motions$"):
        dense_oracle_solve(system)


def test_thin_plate_residual_small():
    # the thin plate is the worst-conditioned stiffness in the suite
    thin = IsotropicMaterial(lam=1.0, mu=1.0, h=0.01)
    mesh, load, f, state = _solved(SQUARE, "pure_bending a=1.0",
                                   target=1.0 / 16.0, mat=thin)
    assert state.residual <= 1e-10
    assert np.abs(state.normalization).max() < 1e-10 * np.abs(state.u).max()


def test_singular_stiffness_is_solve_error():
    mesh = generate_mesh(SQUARE, 0.25)
    load = load_from_family(mesh, "pure_bending a=1.0", MAT)
    sys_ = assemble_stiffness(mesh, MAT).with_load(assemble_load(load))
    zero = sys_.stiffness * 0.0
    zero.eliminate_zeros()
    with pytest.raises(SolveError):
        solve(replace(sys_, stiffness=zero))


def test_element_grouping_collapses_structured():
    mesh = generate_mesh(SQUARE, 0.25)
    ops = element_operators(mesh)
    assert len(ops.groups) == 1
    assert element_operators(mesh) is ops  # cached


def test_element_operators_built_once_per_mesh_order_and_shear(monkeypatch):
    meshes = [generate_mesh(SQUARE, 0.125), generate_mesh(SQUARE, 0.125)]
    builds = []
    init = ElementOps.__init__

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(ElementOps, "__init__", counted_init)
    keys = [(order, assumed) for order in (2, 4) for assumed in (True, False)]
    got = {(id(mesh), key): element_operators(mesh, *key)
           for mesh in meshes for key in keys}
    assert len({id(ops) for ops in got.values()}) == 2 * len(keys)
    assert all(element_operators(mesh, *key) is got[id(mesh), key]
               for mesh in meshes for key in keys)
    assert len(builds) == 2 * len(keys)


@pytest.mark.parametrize("domain", [SQUARE, LSHAPE, ROT])
@pytest.mark.parametrize("family", ["pure_bending a=1", "twist a=0.5",
                                    "edge_moment c=2"])
def test_edge_values_without_generator_match_family(domain, family):
    # each family's couple is c n along a straight edge, the twist's with
    # the normal's components swapped: the stored samples hold it, and a
    # boundary node averages it over its two edges
    load = load_from_family(generate_mesh(domain, 0.25), family, MAT)
    t = derive_plate_tensors(MAT)
    n = load.mesh.boundary_normals
    want = {"pure_bending a=1": t.rigidity * 1.0 * (1.0 + t.nu) * n,
            "twist a=0.5": t.rigidity * 0.5 * (1.0 - t.nu) * n[:, ::-1],
            "edge_moment c=2": 2.0 * n}[family]
    assert not load.q.any()
    for g in range(load.m.shape[1]):
        np.testing.assert_array_equal(load.m[:, g], want)
    nq, nm = load.nodal_samples()
    assert not nq.any()
    assert_allclose(nm, 0.5 * (want + np.roll(want, 1, axis=0)), rtol=1e-15)


def test_nodal_samples_recover_piecewise_linear_field():
    from helpers import boundary_mode, mode_load

    mesh = generate_mesh(LSHAPE, 0.1)
    load = mode_load(mesh, 3, compensate=False)
    q, m = load.nodal_samples()
    assert_allclose(q, boundary_mode(mesh, 3)[1], atol=1e-13)
    assert not m.any()


def test_override_tables_padded_and_checked_against_mesh():
    from platelab.geometry import ElementMask
    from platelab.material import InclusionMaterial, bending_voigt, shear_matrix

    from helpers import rows

    mesh = generate_mesh(SQUARE, 0.25)
    flags = np.zeros(mesh.n_elements, dtype=bool)
    flags[[0, 1]] = True
    mask = ElementMask(flags, float(mesh.element_areas[flags].sum()))
    t = derive_plate_tensors(MAT)

    def tables(ids):
        return InclusionMaterial(
            elements=ids, stilde=2.0 * rows(shear_matrix(t), len(ids)),
            ptilde=2.0 * rows(bending_voigt(t), len(ids)))

    want = assemble_stiffness(mesh, MAT, mask, InclusionMaterial(kappa=2.0))
    short = assemble_stiffness(mesh, MAT, mask, tables([0, 1]))
    assert abs(short.stiffness - want.stiffness).max() == 0.0
    unused_tail = assemble_stiffness(mesh, MAT, mask, tables(np.arange(16)))
    assert abs(unused_tail.stiffness - want.stiffness).max() == 0.0
    with pytest.raises(ValueError, match="element 16"):
        assemble_stiffness(mesh, MAT, mask, tables(np.arange(17)))
    with pytest.raises(ValueError, match="^override tables miss flagged "
                                         "element 1$"):
        assemble_stiffness(mesh, MAT, mask, tables([0, 2, 15]))
