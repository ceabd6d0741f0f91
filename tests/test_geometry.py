import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from platelab.geometry import (
    GAUSS2,
    AprioriData,
    Domain,
    ElementMask,
    fatness_ratio,
    generate_mesh,
    point_in_polygon,
    points_segment_distance,
    polygon_signed_area,
    rasterize_inclusion,
    read_polygons,
    _extract_boundary,
    _finish_mesh,
)
from platelab.material import IsotropicMaterial
from platelab.functionals import boundary_work
from platelab.solver import PlateState, assemble_load, load_from_family

from helpers import (MESH_REFUSAL, dumbbell, edge_rule_work, mask_from_csv,
                     mask_to_csv, mode_load, overlay_domains, write_polygons)

UNIT = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
LSHAPE = np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]],
                  dtype=float)
# ten-point star: the overlay mesher snaps nodes onto every edge
STAR = np.array([[1.3, 0.0], [0.57, 0.41], [0.4, 1.23], [-0.22, 0.67],
                 [-1.05, 0.76], [-0.7, 0.0], [-1.05, -0.76], [-0.22, -0.67],
                 [0.4, -1.23], [0.57, -0.41]])


def unit_square():
    return Domain(UNIT.copy())


def test_structured_mesh_counts():
    mesh = generate_mesh(unit_square(), 0.25)
    assert mesh.n_elements == 16
    assert mesh.n_nodes == 25
    assert_allclose(mesh.area, 1.0)
    assert len(mesh.boundary_edges) == 16


def test_target_size_zero_rejected():
    with pytest.raises(ValueError):
        generate_mesh(unit_square(), 0.0)


def test_mesh_size_bound():
    for verts, target in ((UNIT, 0.25), (LSHAPE, 0.25), (LSHAPE, 0.1)):
        mesh = generate_mesh(Domain(verts.copy()), target)
        assert mesh.mesh_size <= 2.0 * target


def test_element_jacobians_positive():
    from platelab.geometry import GAUSS2, shape_q4

    mesh = generate_mesh(Domain(LSHAPE.copy()), 0.2)
    for quad in mesh.nodes[mesh.elements]:
        for r in GAUSS2:
            for s in GAUSS2:
                assert np.linalg.det(shape_q4(r, s)[1] @ quad) > 0


def test_boundary_loop_closed_and_outward():
    mesh = generate_mesh(Domain(LSHAPE.copy()), 0.25)
    loop = mesh.boundary_loop()
    edges = mesh.boundary_edges
    # consecutive edges chain: edge k ends where edge k+1 starts
    assert np.array_equal(edges[:-1, 1], edges[1:, 0])
    assert edges[-1, 1] == edges[0, 0]
    assert len(loop) == len(edges)
    # outward normals: stepping off an edge midpoint along n leaves the domain
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    eps = 1e-6
    for mid, n in zip(mids, mesh.boundary_normals):
        assert not point_in_polygon(mid + eps * n, mesh.domain.vertices)


def test_mesh_deterministic():
    a = generate_mesh(Domain(LSHAPE.copy()), 0.1)
    b = generate_mesh(Domain(LSHAPE.copy()), 0.1)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)


# SHA-256 of dtype, shape and bytes of each mesh array, taken from the
# per-element loop mesher that the array code replaced; the star's from
# the mesher with its own boundary-projection loop
MESH_DIGESTS = {
    ("unit", 32): {
        "nodes": "22b49810d485d1188a315e897cc4c2bae0e4c1471afd1fb73c1c8a87aeb4842d",
        "elements": "09509da95f563b05b86dd0fa60dede72e781481a76585752e904b8f43cdc1f82",
        "boundary_edges": "f24762e9b144ef65ae535aa9b11505a8291f7e7ac50525f5fd560e4035b9cb6a",
        "boundary_normals": "41c479b668bc216a0e8b74e04c7c6a7ae23ce47422eb75e4738c8a25f9694731",
        "mesh_size": "09206ee766954b9e7c15219a6b034b24fd8b2259021f645323a2b92b806dac77",
    },
    ("unit", 64): {
        "nodes": "3aa4bb28e20484bc1d204ead139a10497e2cf43252dd0917bb33b149f987130d",
        "elements": "59798e20b1b4ad9105533c0a47c3d640137b0a33dd927b0e6ffbe8e2dbd1f308",
        "boundary_edges": "61d559849c4d06d765dd75e685e83b38e2b438d0aa68b78d56489a5f10c93d06",
        "boundary_normals": "ff569e3f50ba2be55b2fb1f69d3179881a247208c5ed28700d2346233f95c54c",
        "mesh_size": "174f6a5361f589b70a5f9ebe5eacb06df152a88e7b3d6cef5ba83d8f360d52bb",
    },
    ("lshape", 32): {
        "nodes": "a482309e91789b808aca39d6b9cad1068766d60e160a877af9a4e8be132f3579",
        "elements": "500f745b2d5102ed1433e121cc8143455d989a3975e1e8497e77d0a68e00fd0e",
        "boundary_edges": "9f80fd48917ddea248bde2c8d89d720570cd3a5f0a8a90f9148473189f06758e",
        "boundary_normals": "13f68a707f2bee91583714154846fae15a8c87da8ef2a75ed0b505baf7a9e358",
        "mesh_size": "bca05e5f55cea05386f6e51c8d0dc879fe65608847891543cbf98172a91e5817",
    },
    ("lshape", 64): {
        "nodes": "cd5cda8ef7adfc5544c89c13029aadf0df810a9c6a6286507bddf20cef075c1c",
        "elements": "b13808e27b231bdd5d40962e3a4572c4baa8f0ed9f1aa71ea13d2eda6f013080",
        "boundary_edges": "04ce6560a50ba02b839578b8fc51ead6069485736e0273512f0a9eb3e519177d",
        "boundary_normals": "016c39e0edbc5370b4765709ab8c878f800d7fee1baf95e4921ba376d3f0ecbe",
        "mesh_size": "fac1d8d91b37cf01ed1272e9b4842117b46ee31422798691fbf22e8002ffb9fd",
    },
    ("star", 32): {
        "nodes": "6de767fd15966eda8c7b558d70f7a015671cea286fdf20f0638192bf6a95fd27",
        "elements": "b15e2a55a0f3fbade59ae1941abba4a5c5357db547c42ca57ee84bbf34bd62ca",
        "boundary_edges": "d4c24d4110cf2e058aca1287ae4adb7f7fb70ac75850674b327c8e2f0ff239ba",
        "boundary_normals": "6ce873bba2def0eaa4470557b8b759ed52ea25039d067e0f392337a57fc48ebf",
        "mesh_size": "d9994d020e9c0c171d07687f59264d3d742b928cc4c16f76b5fe14f018f704d5",
    },
}


def _digest(value):
    arr = np.ascontiguousarray(value)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shape,n", sorted(MESH_DIGESTS))
def test_mesh_golden_digests(shape, n):
    verts = {"unit": UNIT, "lshape": LSHAPE, "star": STAR}[shape]
    mesh = generate_mesh(Domain(verts.copy()), 1.0 / n)
    got = {name: _digest(getattr(mesh, name)) for name in MESH_DIGESTS[shape, n]}
    assert got == MESH_DIGESTS[shape, n]


def _grid(n):
    xs = np.arange(n + 1, dtype=float)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    elements = np.array([[j * (n + 1) + i, j * (n + 1) + i + 1,
                          (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i]
                         for j in range(n) for i in range(n)])
    return nodes, elements


def test_inverted_element_named():
    nodes, elements = _grid(3)
    # the middle cell and a corner cell after it turn clockwise; the error
    # names the lower index
    elements[[4, 8]] = elements[[4, 8], ::-1]
    with pytest.raises(ValueError, match=r"^element 4 has a nonpositive Jacobian$"):
        _finish_mesh(nodes, elements, Domain.rectangle(0, 0, 3, 3))


def test_corner_touching_quads_rejected():
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                      [2, 1], [2, 2], [1, 2]], dtype=float)
    elements = np.array([[0, 1, 2, 3], [2, 4, 5, 6]])
    with pytest.raises(ValueError, match="boundary is not a collection of simple loops"):
        _finish_mesh(nodes, elements, Domain.rectangle(0, 0, 2, 2))


def test_open_boundary_chain_rejected():
    # the boundary edges 0-6, 2-7, 7-0 start at distinct nodes, but node 6
    # starts none, so the chain from node 0 never closes
    nodes = np.random.default_rng(0).random((8, 2))
    elements = np.array([[5, 2, 6, 3], [3, 5, 2, 6], [0, 6, 2, 7]])
    with pytest.raises(ValueError, match="boundary is not a collection of simple loops"):
        _extract_boundary(nodes, elements)


def test_pinched_node_named():
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                      [2, 1], [2, 2], [1, 2]], dtype=float)
    elements = np.array([[0, 1, 2, 3], [2, 4, 5, 6]])
    with pytest.raises(ValueError, match="node 2 starts two boundary edges; "
                                         "use a smaller target_size$"):
        _extract_boundary(nodes, elements)


def test_split_mesh_refused():
    # no overlay cell centroid falls into the 0.02-wide neck at 1/4, so the
    # overlay holds two separate plates
    with pytest.raises(ValueError, match="^mesh boundary splits into several "
                                         "loops; use a smaller target_size$"):
        generate_mesh(Domain(dumbbell(0.02)), 0.25)


# boundary nodes 2 and 3 of its 1/8 overlay both snap onto the corner
# (0.8, 0.1)
CORNER = np.array([[0.8, 0.1], [1.0, 0.9], [0.2, 0.9], [0.6, 0.0],
                   [0.7, 0.6]])


def test_coincident_boundary_nodes_refused():
    with pytest.raises(ValueError, match="^boundary nodes 2 and 3 coincide; "
                                         "use a smaller target_size$"):
        generate_mesh(Domain(CORNER), 0.125)
    mesh = generate_mesh(Domain(CORNER), 0.1)
    assert np.isfinite(mesh.boundary_normals).all()


def _edge_ends(samples):
    # the linear extension of the two Gauss samples of every edge to its
    # ends, at parameters -1 and 1: (n_edges, 2) + trailing shape
    span = GAUSS2[1] - GAUSS2[0]
    mid = 0.5 * (samples[:, 0] + samples[:, 1])
    slope = (samples[:, 1] - samples[:, 0]) / span
    t = np.array([-1.0, 1.0]).reshape((1, 2) + (1,) * (samples.ndim - 2))
    return mid[:, None] + slope[:, None] * t


def _scatter_nodal_samples(load):
    # the two-edge average as an unbuffered scatter over loop positions
    mesh = load.mesh
    loop = mesh.boundary_loop()
    pos = np.empty(mesh.n_nodes, dtype=int)
    pos[loop] = np.arange(len(loop))
    idx = pos[mesh.boundary_edges].ravel()
    q, m = _edge_ends(load.q), _edge_ends(load.m)
    nq = np.zeros(len(loop))
    nm = np.zeros((len(loop), 2))
    np.add.at(nq, idx, q.ravel())
    np.add.at(nm, idx, m.reshape(-1, 2))
    counts = np.bincount(idx, minlength=len(loop))
    return nq / counts, nm / counts[:, None]


def _scatter_load(load):
    # the two-point load vector as an unbuffered scatter over the edge ends
    mesh = load.mesh
    wq = 0.5 * load.edge_lengths()
    f = np.zeros(3 * mesh.n_nodes)
    for gi, t in enumerate(GAUSS2):
        for side, shape in ((0, 0.5 * (1.0 - t)), (1, 0.5 * (1.0 + t))):
            nodes = mesh.boundary_edges[:, side]
            np.add.at(f, 3 * nodes + 2, wq * shape * load.q[:, gi])
            np.add.at(f, 3 * nodes, wq * shape * load.m[:, gi, 0])
            np.add.at(f, 3 * nodes + 1, wq * shape * load.m[:, gi, 1])
    return f


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(overlay_domains(), st.floats(0.05, 0.25))
def test_overlay_mesh_has_one_ccw_boundary_loop(domain, target):
    try:
        mesh = generate_mesh(domain, target)
    except ValueError as err:
        assert MESH_REFUSAL.match(str(err)), err
        return
    edges = mesh.boundary_edges
    # the edges chain into one closed loop through every boundary node once
    assert np.array_equal(edges[1:, 0], edges[:-1, 1])
    assert edges[-1, 1] == edges[0, 0]
    loop = mesh.boundary_loop()
    sides = np.sort(np.stack([mesh.elements, np.roll(mesh.elements, -1, 1)],
                             axis=2).reshape(-1, 2), axis=1)
    keys, counts = np.unique(sides, axis=0, return_counts=True)
    border = keys[counts == 1]
    assert len(loop) == len(border)
    assert np.array_equal(np.sort(loop), np.unique(border))
    assert polygon_signed_area(mesh.nodes[loop]) > 0.0
    lengths = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]],
                             axis=1)
    assert (lengths > 0.0).all() and np.isfinite(mesh.boundary_normals).all()
    material = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)
    load = load_from_family(mesh, "pure_bending a=1", material)
    for got, want in zip(load.nodal_samples(), _scatter_nodal_samples(load)):
        assert np.array_equal(got, want)
    loads = [load_from_family(mesh, family, material)
             for family in ("pure_bending a=1", "twist a=0.5",
                            "edge_moment c=2")]
    # bytes, not np.array_equal, so the sign of every zero counts too
    for load in loads:
        assert (assemble_load(load).tobytes()
                == _scatter_load(load).tobytes())
    # the work as f . u against the edge-by-edge rule, on a random dof
    # vector, relative to the size of the terms: a random u can make the
    # work itself small
    u = np.random.default_rng(0).standard_normal(3 * mesh.n_nodes)
    state = PlateState(u, mesh, 0.0, np.zeros(3))
    for load in loads + [mode_load(mesh, 2)]:
        f = assemble_load(load)
        assert abs(boundary_work(f, state)
                   - edge_rule_work(load, u)) <= 1e-13 * (np.abs(f) @ np.abs(u))


@pytest.mark.parametrize("verts", [UNIT, LSHAPE], ids=["unit", "lshape"])
def test_mesh_shape_calls_independent_of_size(monkeypatch, verts):
    # the Jacobian check evaluates the shape functions once per mesh, not
    # once per element
    import platelab.geometry as geometry

    calls = []
    real = geometry.shape_q4

    def counting(r, s):
        calls.append((r, s))
        return real(r, s)

    monkeypatch.setattr(geometry, "shape_q4", counting)
    counts = []
    for n in (16, 64):
        calls.clear()
        generate_mesh(Domain(verts.copy()), 1.0 / n)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_lshape_area_vs_pixel_oracle():
    """Covered area matches a brute-force pixel rasterization."""
    from platelab.geometry import points_in_polygon

    mesh = generate_mesh(Domain(LSHAPE.copy()), 0.25)
    n = 400
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pix = points_in_polygon(np.column_stack([gx.ravel(), gy.ravel()]), LSHAPE)
    pixel_area = pix.sum() / n ** 2
    assert abs(mesh.area - pixel_area) <= 2 * mesh.mesh_size ** 2


def test_element_budget():
    with pytest.raises(ValueError):
        generate_mesh(unit_square(), 0.25, element_budget=4)


def test_nonsimple_domain_rejected():
    bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(ValueError):
        Domain(bow)


def test_clockwise_domain_rejected():
    with pytest.raises(ValueError):
        Domain(UNIT[::-1].copy())


# distance queries


def test_distance_center():
    assert_allclose(points_segment_distance([(0.5, 0.5)], UNIT), [0.5])
    assert point_in_polygon((0.5, 0.5), unit_square().vertices)


def test_distance_vertex():
    assert_allclose(points_segment_distance([(0.0, 0.0)], UNIT), [0.0],
                    atol=1e-15)


def test_distance_against_dense_sampling():
    dom = unit_square()
    t = np.linspace(0.0, 1.0, 20001)
    ring = np.vstack([
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([np.ones_like(t), t]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
    ])
    p = np.array([0.3, 0.2])
    brute = np.linalg.norm(ring - p, axis=1).min()
    d = points_segment_distance(p[None, :], dom.vertices)[0]
    assert_allclose(d, 0.2)
    assert abs(d - brute) < 1e-4


def test_distance_outside_flagged():
    # the distance carries no sign: outside is told by containment
    assert_allclose(points_segment_distance([(2.0, 0.5)], UNIT), [1.0])
    assert not point_in_polygon((2.0, 0.5), unit_square().vertices)


# rasterization


def test_rasterize_empty():
    mesh = generate_mesh(unit_square(), 0.25)
    mask = rasterize_inclusion(mesh, [])
    assert mask.empty
    assert mask.area == 0.0


def test_rasterize_whole_domain():
    mesh = generate_mesh(unit_square(), 0.25)
    # zero clearance to the boundary also exercises the proximity warning
    with pytest.warns(UserWarning):
        mask = rasterize_inclusion(mesh, [UNIT * 1.0])
    assert mask.flags.all()
    assert_allclose(mask.area, mesh.area)


def test_rasterize_disk_area():
    mesh = generate_mesh(unit_square(), 0.02)
    th = np.linspace(0, 2 * np.pi, 257)[:-1]
    disk = 0.5 + 0.2 * np.column_stack([np.cos(th), np.sin(th)])
    mask = rasterize_inclusion(mesh, [disk])
    exact = np.pi * 0.04
    assert abs(mask.area - exact) / exact < 0.02


def test_rasterize_nonsimple_rejected():
    mesh = generate_mesh(unit_square(), 0.25)
    bow = np.array([[0.2, 0.2], [0.8, 0.8], [0.8, 0.2], [0.2, 0.8]])
    with pytest.raises(ValueError):
        rasterize_inclusion(mesh, [bow])


def test_rasterize_convergence():
    # halving mesh size at least halves the area deviation, convex inclusion
    th = np.linspace(0, 2 * np.pi, 129)[:-1]
    disk = 0.5 + 0.23 * np.column_stack([np.cos(th), np.sin(th)])
    exact = 0.5 * np.sum(
        disk[:, 0] * np.roll(disk[:, 1], -1) - np.roll(disk[:, 0], -1) * disk[:, 1])
    devs = []
    for target in (0.08, 0.04, 0.02):
        mesh = generate_mesh(unit_square(), target)
        devs.append(abs(rasterize_inclusion(mesh, [disk]).area - exact))
    assert devs[1] <= devs[0]
    assert devs[2] <= devs[1]


def test_rasterize_boundary_clearance_warning():
    ap = AprioriData(d0=0.05)
    mesh = generate_mesh(Domain(UNIT.copy(), ap), 0.1)
    close = np.array([[0.01, 0.4], [0.3, 0.4], [0.3, 0.6], [0.01, 0.6]])
    with pytest.warns(UserWarning):
        rasterize_inclusion(mesh, [close])


def test_disconnected_inclusion():
    mesh = generate_mesh(unit_square(), 0.05)
    a = np.array([[0.2, 0.2], [0.35, 0.2], [0.35, 0.35], [0.2, 0.35]])
    b = np.array([[0.6, 0.6], [0.8, 0.6], [0.8, 0.8], [0.6, 0.8]])
    mask = rasterize_inclusion(mesh, [a, b])
    both = (rasterize_inclusion(mesh, [a]).flags.sum()
            + rasterize_inclusion(mesh, [b]).flags.sum())
    assert mask.flags.sum() == both


# fatness


def square_mask(mesh, side):
    lo, hi = 0.5 - side / 2, 0.5 + side / 2
    sq = np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])
    return rasterize_inclusion(mesh, [sq])


def test_fatness_depth_zero():
    mesh = generate_mesh(unit_square(), 0.05)
    mask = square_mask(mesh, 0.4)
    assert fatness_ratio(mesh, mask, 0.0) == 1.0


def test_fatness_empty_indicator():
    mesh = generate_mesh(unit_square(), 0.25)
    with pytest.warns(UserWarning):
        assert fatness_ratio(mesh, rasterize_inclusion(mesh, []), 0.1) == 1.0


def test_fatness_monotone_in_depth():
    mesh = generate_mesh(unit_square(), 0.025)
    mask = square_mask(mesh, 0.4)
    depths = np.linspace(0.0, 0.25, 11)
    ratios = [fatness_ratio(mesh, mask, d) for d in depths]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_fatness_hand_value():
    # 0.4-square on a 0.05 grid: flagged centroids fill an 8x8 block; depth
    # 0.1 keeps the 4x4 core, so the ratio is 1/4
    mesh = generate_mesh(unit_square(), 0.05)
    mask = square_mask(mesh, 0.4)
    assert mask.flags.sum() == 64
    assert_allclose(fatness_ratio(mesh, mask, 0.1), 0.25)


# a priori data and domain validation


def test_apriori_validation():
    with pytest.raises(ValueError):
        AprioriData(rho0=-1.0)
    with pytest.raises(ValueError):
        AprioriData(h1=0.0)


def test_domain_too_large_for_apriori():
    ap = AprioriData(rho0=0.001, m1=100)
    with pytest.raises(ValueError):
        Domain(UNIT.copy(), ap)


def test_reference_point_must_be_inside():
    ap = AprioriData(x0=(2.0, 2.0))
    with pytest.raises(ValueError):
        Domain(UNIT.copy(), ap)


def test_reference_point_default_centroid():
    dom = unit_square()
    assert_allclose(dom.x0, (0.5, 0.5))


# io round trips


def test_polygon_io_roundtrip(tmp_path):
    path = tmp_path / "polys.txt"
    polys = [UNIT, LSHAPE]
    write_polygons(path, polys)
    back = read_polygons(path)
    assert len(back) == 2
    for a, b in zip(polys, back):
        assert_allclose(a, b)


def test_mask_csv_roundtrip(tmp_path):
    mesh = generate_mesh(unit_square(), 0.2)
    mask = square_mask(mesh, 0.4)
    path = tmp_path / "mask.csv"
    mask_to_csv(mask, path)
    back = mask_from_csv(path, mesh)
    assert np.array_equal(mask.flags, back.flags)
    assert_allclose(mask.area, back.area)
