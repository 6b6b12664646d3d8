"""Mesh construction, bisection refinement and conformity."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem import DIRICHLET, NEUMANN, Mesh, create_initial, overlay, refine, uniform_refine
from afem import mesh as mesh_module
from afem.fem import DofMap
from afem.mesh import (_build_edge_table, _carried_edge_table, _geometry, _incident,
                       _pair_codes, closure_cost, copied_triangles, locate, pair_ends)

from oracles import (MARKING_KINDS, case_table_refine, edge_ids, loop_geometry,
                     merge_carried_edge_table, one_triangle, random_marking, random_mesh,
                     random_root, same_bits, setdiff_dofmap, unique_argsort_edge_table)


def edge_census(mesh):
    """Sorted-edge -> count over all triangles, computed directly."""
    census = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            census[key] = census.get(key, 0) + 1
    return census


def assert_conforming(mesh):
    census = edge_census(mesh)
    assert set(census.values()) <= {1, 2}, "edge shared by more than two triangles"
    boundary = {(min(a, b), max(a, b)) for a, b in mesh.boundary_edges}
    single = {e for e, c in census.items() if c == 1}
    assert single == boundary, "boundary list must be exactly the single-count edges"
    fresh = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_markers)
    assert fresh.areas.min() > 0 and np.array_equal(fresh.areas, mesh.areas)


def test_initial_meshes():
    sq = create_initial("unit_square")
    assert sq.n_vertices == 4 and sq.n_triangles == 2
    assert len(sq.boundary_edges) == 4
    assert (sq.boundary_markers == DIRICHLET).all()
    assert np.isclose(sq.areas.sum(), 1.0)
    assert_conforming(sq)

    ls = create_initial("l_shape")
    assert ls.n_vertices == 8 and ls.n_triangles == 6
    assert len(ls.boundary_edges) == 8
    assert (ls.boundary_markers == DIRICHLET).all()
    assert np.isclose(ls.areas.sum(), 3.0)
    assert_conforming(ls)

    zs = create_initial("z_shape")
    assert zs.n_vertices == 10 and zs.n_triangles == 8
    assert len(zs.boundary_edges) == 10
    markers = list(zs.boundary_markers)
    assert markers.count(DIRICHLET) == 2
    assert markers[0] == DIRICHLET and markers[9] == DIRICHLET
    assert markers[1:9] == [NEUMANN] * 8
    # square of area 4 minus the wedge of opening pi/4: 4 - tan(pi/8)
    assert np.isclose(zs.areas.sum(), 4.0 - (np.sqrt(2.0) - 1.0))
    assert_conforming(zs)

    with pytest.raises(ValueError):
        create_initial("pentagon")


def test_domain_name_normalization():
    a = create_initial("z_shape")
    b = create_initial("zshape")
    c = create_initial("Z-Shape")
    assert (a.triangles == b.triangles).all()
    assert (a.triangles == c.triangles).all()


def test_refinement_edge_is_longest_edge():
    for name in ("unit_square", "l_shape", "z_shape"):
        mesh = create_initial(name)
        pts = mesh.vertices[mesh.triangles]
        lengths = np.stack([
            np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1),  # opposite vertex 0
            np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1),
            np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1),
        ], axis=1)
        assert np.allclose(lengths[:, 0], lengths.max(axis=1))


def test_refine_single_mark_on_square():
    # marking one triangle bisects the shared diagonal, so closure splits both
    mesh = create_initial("unit_square")
    fine = refine(mesh, [0])
    assert fine.n_triangles == 4
    assert fine.n_vertices == 5
    assert_conforming(fine)
    # the new vertex is the diagonal midpoint
    new = fine.vertices[4]
    assert np.allclose(new, [0.5, 0.5])
    assert fine.level == 1 and mesh.level == 0


def test_uniform_refine_square_twice():
    # first pass bisects the diagonal (2 -> 4); the children's refinement
    # edges are the outer square edges, each owned by one triangle, so the
    # second pass adds one midpoint per outer edge (4 -> 8)
    mesh = create_initial("unit_square")
    once = uniform_refine(mesh)
    assert once.n_triangles == 4
    twice = uniform_refine(once)
    assert twice.n_triangles == 8
    assert twice.n_vertices == 9
    assert_conforming(twice)
    assert np.isclose(twice.areas.sum(), 1.0)


def test_children_partition_parents():
    rng = np.random.default_rng(7)
    mesh = create_initial("z_shape")
    for _ in range(5):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 3), replace=False)
        fine = refine(mesh, marked)
        assert_conforming(fine)
        child_area = np.zeros(mesh.n_triangles)
        np.add.at(child_area, fine.parent_of, fine.areas)
        assert np.allclose(child_area, mesh.areas, rtol=1e-12)
        # children of one parent are stored contiguously in parent order
        assert (np.diff(fine.parent_of) >= 0).all()
        counts = np.bincount(fine.parent_of, minlength=mesh.n_triangles)
        assert counts.min() >= 1 and counts.max() <= 4
        # every marked triangle was actually bisected
        assert (counts[np.asarray(marked)] >= 2).all()
        mesh = fine


def test_new_vertices_are_edge_midpoints():
    rng = np.random.default_rng(11)
    mesh = create_initial("l_shape")
    fine = refine(mesh, rng.choice(6, size=3, replace=False))
    assert fine.n_coarse_vertices == mesh.n_vertices
    created = np.arange(mesh.n_vertices, fine.n_vertices)
    assert fine.vertex_parents.shape == (created.size, 2)
    mids = fine.vertices[fine.vertex_parents].mean(axis=1)
    assert np.allclose(fine.vertices[created], mids)
    # parents are coarse-mesh vertices joined by a coarse edge
    assert fine.vertex_parents.max() < mesh.n_vertices
    coarse_edges = set(edge_census(mesh))
    for a, b in fine.vertex_parents:
        assert (min(a, b), max(a, b)) in coarse_edges


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_refine_keeps_hierarchy_invariants(domain, seed, fracs):
    """What the vertex-space multilevel transfers rely on, per refinement."""
    rng = np.random.default_rng(seed)
    coarse = random_mesh(domain, rng, rounds=2)
    for frac in fracs:
        fine = refine(coarse, np.nonzero(rng.random(coarse.n_triangles) < frac)[0])
        fine.validate()
        n_c = coarse.n_vertices
        assert fine.n_coarse_vertices == n_c
        assert np.array_equal(fine.vertices[:n_c], coarse.vertices)
        parents = fine.vertex_parents
        assert parents.shape == (fine.n_vertices - n_c, 2)
        a, b = coarse.vertices[parents[:, 0]], coarse.vertices[parents[:, 1]]
        assert np.array_equal(fine.vertices[n_c:], 0.5 * (a + b))
        edge_ids(coarse.edges, parents)  # raises unless every pair is a coarse edge
        dirichlet = DofMap.from_mesh(fine).dof_of_vertex < 0
        assert np.array_equal(dirichlet[:n_c], DofMap.from_mesh(coarse).dof_of_vertex < 0)
        assert dirichlet[parents[dirichlet[n_c:]]].all()
        coarse = fine


MESH_ARRAYS = ("vertices", "triangles", "boundary_edges", "boundary_markers",
               "parent_of", "vertex_parents")


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(["empty", "full", "mask", "subset"]),
                      min_size=1, max_size=10))
def test_refine_matches_case_table_oracle(domain, seed, kinds):
    """The two-round bisection builds the same mesh, array for array, as
    the former four-pattern case table."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    for kind in kinds:
        n_t = mesh.n_triangles
        marked = {"empty": [], "full": np.arange(n_t),
                  "mask": rng.random(n_t) < rng.random(),
                  "subset": rng.choice(n_t, size=rng.integers(1, n_t + 1),
                                       replace=False)}[kind]
        got, want = refine(mesh, marked), case_table_refine(mesh, marked)
        for name in MESH_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.level, got.n_coarse_vertices) == (want.level, want.n_coarse_vertices)
        mesh = got


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape", "one_triangle"]),
       seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(0, 6))
def test_edge_table_and_dofmap_match_sort_oracles(domain, seed, rounds):
    """One sort and two masks give the same index arrays as the former
    argsort and setdiff forms; the edge table holds them as int32, the
    DofMap in the oracle's dtype."""
    mesh = one_triangle() if domain == "one_triangle" else \
        random_mesh(domain, np.random.default_rng(seed), rounds=rounds)
    want = unique_argsort_edge_table(mesh.triangles, mesh.n_vertices)
    for table in (mesh.edges, _build_edge_table(mesh.triangles)):
        assert same_bits(table.codes, want.codes)
        for name in ("nodes", "of_triangle", "incident"):
            a, b = getattr(table, name), getattr(want, name)
            assert a.dtype == np.int32 and np.array_equal(a, b), name
    got, want = DofMap.from_mesh(mesh), setdiff_dofmap(mesh)
    for name in ("free_vertices", "dof_of_vertex"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


EDGE_TABLE = ("codes", "nodes", "of_triangle", "incident")


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1))
                      .filter(lambda p: p[0] != p[1]), min_size=1, max_size=20))
def test_pair_codes_round_trip_and_sort_as_pairs(pairs):
    """A pair code holds its ends up to the int32 bound: `pair_ends` gives
    (min, max) back as int32, and the codes sort as the (lo, hi) pairs."""
    pairs = np.array(pairs + [(2 ** 31 - 1, 2 ** 31 - 2), (0, 2 ** 31 - 1)], dtype=np.int64)
    codes = _pair_codes(pairs)
    ends = pair_ends(codes)
    assert codes.dtype == np.int64 and ends.dtype == np.int32
    assert np.shares_memory(ends, codes)
    assert np.array_equal(ends, np.sort(pairs, axis=1))
    assert np.array_equal(np.argsort(codes, kind="stable"),
                          np.lexsort((ends[:, 1], ends[:, 0])))


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(MARKING_KINDS), min_size=1, max_size=8))
def test_carried_edge_table_matches_fresh_build(domain, seed, kinds):
    """The edge table that `refine` carries from the parent and the
    boundary edge ids the child looks up in it equal, array for array and
    dtype for dtype, those built from scratch on the same mesh; `refine`
    builds no edge table from scratch."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    for kind in kinds:
        marking = random_marking(rng, mesh.n_triangles, kind)
        with mock.patch.object(mesh_module, "_build_edge_table", side_effect=AssertionError):
            mesh = refine(mesh, marking)
        carried = mesh.edges
        want = _build_edge_table(mesh.triangles)
        for name in EDGE_TABLE:
            a, b = getattr(carried, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        fresh = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                     mesh.boundary_markers).boundary_ids
        got = mesh.boundary_ids
        assert got.dtype == fresh.dtype and np.array_equal(got, fresh)
        assert np.array_equal(edge_ids(want, mesh.boundary_edges), fresh)


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(MARKING_KINDS), min_size=1, max_size=6))
def test_carried_edge_table_matches_former_merge(domain, seed, kinds):
    """The carried edge table equals, bit for bit, that of the former merge
    (np.unique of the new triangles' edges, row scatters); the new
    triangles are those `copied_triangles` does not mark, also on a mesh
    rebuilt by hand from the same arrays."""
    rng = np.random.default_rng(seed)
    mesh = random_root(domain, rng)
    assert np.array_equal(mesh.new_triangles, np.arange(mesh.n_triangles))
    for kind in kinds:
        parent, mesh = mesh, refine(mesh, random_marking(rng, mesh.n_triangles, kind))
        new = mesh.new_triangles
        assert np.array_equal(new, np.flatnonzero(~copied_triangles(mesh.parent_of)))
        by_hand = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                       mesh.boundary_markers, level=mesh.level, parent_of=mesh.parent_of,
                       vertex_parents=mesh.vertex_parents)
        assert same_bits(by_hand.new_triangles, new.astype(np.int64))
        bisected = np.zeros(parent.edges.n_edges, dtype=bool)
        bisected[edge_ids(parent.edges, mesh.vertex_parents)] = True
        table = _carried_edge_table(
            parent.edges, parent.edges.of_triangle.astype(np.intp), bisected,
            parent.n_vertices, mesh.parent_of.astype(np.intp), new,
            mesh.triangles[new].astype(np.int64))
        nodes, of_triangle = merge_carried_edge_table(
            parent.edges, bisected, parent.n_vertices, mesh.triangles, mesh.parent_of, new,
            mesh.n_vertices)
        assert same_bits(table.nodes, nodes) and same_bits(table.of_triangle, of_triangle)
        assert same_bits(table.incident, _incident(of_triangle, len(nodes)))
        for name in EDGE_TABLE:
            assert same_bits(getattr(mesh.edges, name), getattr(table, name)), name


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(0, 5))
def test_geometry_matches_loop_oracle(domain, seed, rounds):
    """Areas and hat-gradient planes from coordinate columns equal, bit for
    bit, the former computation one vertex at a time, on a moved
    root and on random refinements of it (computed or carried)."""
    rng = np.random.default_rng(seed)
    mesh = random_root(domain, rng)
    for _ in range(rounds):
        mesh = refine(mesh, rng.random(mesh.n_triangles) < rng.random())
    areas, planes = loop_geometry(mesh.vertices[mesh.triangles])
    for got in (_geometry(mesh.vertices, mesh.triangles), (mesh.areas, mesh.gradient_planes)):
        assert same_bits(got[0], areas) and same_bits(got[1], planes)


def test_validate_rejects_a_wrong_boundary_list():
    """A mesh whose boundary list is not exactly its edges of one triangle,
    each once, raises when built: a root mesh and a refined one with its
    carried edge table; `validate` audits the vertices."""
    mesh = refine(create_initial("l_shape"), [0, 3])
    mesh.validate()
    b, marks = mesh.boundary_edges, mesh.boundary_markers
    interior = mesh.edges.nodes[~mesh.edges.is_boundary][0]
    mismatch = "boundary_edges do not match the single-incidence edges"
    wrong = [(np.vstack([b[:-1], interior]), marks),             # an interior edge
             (b[:-1], marks[:-1]),                                # one left out
             (np.vstack([b, b[:1]]), np.append(marks, marks[0]))]  # one twice
    for edges, markers in wrong:
        with pytest.raises(ValueError, match=mismatch):
            Mesh(mesh.vertices, mesh.triangles, edges, markers)
        with pytest.raises(ValueError, match=mismatch):
            Mesh(mesh.vertices, mesh.triangles, edges, markers, level=mesh.level,
                 parent_of=mesh.parent_of, vertex_parents=mesh.vertex_parents,
                 geometry=(mesh.areas, mesh.gradient_planes), edges=mesh.edges,
                 new_triangles=mesh.new_triangles)
    # a pair that is no edge but sorts into a boundary edge's slot, in its place
    listed, known = list(mesh.boundary_ids), set(map(tuple, mesh.edges.nodes.tolist()))
    for pair in itertools.combinations(range(mesh.n_vertices), 2):
        slot = mesh.edges.codes.searchsorted(_pair_codes(pair))[0]
        if pair not in known and slot in listed:
            break
    else:
        raise AssertionError("no pair sorts into a boundary edge's slot")
    ends = b.copy()
    ends[listed.index(slot)] = pair
    with pytest.raises(ValueError, match=mismatch):
        Mesh(mesh.vertices, mesh.triangles, ends, marks)
    assert np.array_equal(Mesh(mesh.vertices, mesh.triangles, b, marks).boundary_ids,
                          mesh.boundary_ids)
    with pytest.raises(ValueError, match="need one marker per boundary edge"):
        Mesh(mesh.vertices, mesh.triangles, b, marks[:-1])
    # one more vertex: a copy of the first, or a point no triangle uses
    for extra, message in ((mesh.vertices[:1], "duplicate vertex coordinates"),
                           ([(0.125, 0.375)], "unreferenced vertices")):
        bad = Mesh(np.vstack([mesh.vertices, extra]), mesh.triangles, b, marks)
        with pytest.raises(ValueError, match=message):
            bad.validate()


BAD_BOUNDARY = {"index -4": ((3, -4), DIRICHLET, "boundary vertex index out of range"),
                "index n_vertices": ((4, 0), NEUMANN, "boundary vertex index out of range"),
                "marker 7": ((3, 0), 7, "DIRICHLET or NEUMANN"),
                "marker -1": ((3, 0), -1, "DIRICHLET or NEUMANN"),
                "marker 0.3": ((3, 0), 0.3, "DIRICHLET or NEUMANN")}


@pytest.mark.parametrize("edge, marker, message", BAD_BOUNDARY.values(),
                         ids=BAD_BOUNDARY.keys())
def test_boundary_input_is_checked_at_construction(edge, marker, message):
    """A boundary vertex index outside [0, n_vertices) or a marker other
    than DIRICHLET and NEUMANN raises when the mesh is built, not at the
    first refine (an index) or never (a marker, read as Neumann, or 0.3
    cast to DIRICHLET)."""
    square = create_initial("unit_square")
    edges, markers = square.boundary_edges.copy(), list(square.boundary_markers)
    Mesh(square.vertices, square.triangles, edges, markers)
    edges[-1], markers[-1] = edge, marker
    with pytest.raises(ValueError, match=message):
        Mesh(square.vertices, square.triangles, edges, markers)


def test_geometry_of_another_shape_is_rejected():
    """Given areas and hat gradient planes must be those of the triangles,
    one area and a (2, 3) block of planes each: the compiled kernels read
    the planes as CSR data of 3 entries per triangle, without a check."""
    mesh = uniform_refine(create_initial("l_shape"))
    arrays = (mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_markers)
    areas, planes = mesh.areas, mesh.gradient_planes
    Mesh(*arrays, geometry=(areas, planes))
    for geometry in ((areas, planes[:, :-1]), (areas[:-1], planes), (areas, planes[:, :, :2]),
                     (areas, planes[:1]), (areas, planes.transpose(0, 2, 1))):
        with pytest.raises(ValueError, match="geometry does not match the triangles"):
            Mesh(*arrays, geometry=geometry)


@pytest.mark.parametrize("parents", [[[0, 1]] * 5, [[3, 3]], [[0, 3]]],
                         ids=["more parents than vertices", "appended", "one appended"])
def test_vertex_parents_are_coarse_vertices(parents):
    """The endpoints of a bisected edge lie among the n_vertices -
    len(vertex_parents) coarse vertices, so n_coarse_vertices is never
    negative."""
    square = create_initial("unit_square")
    arrays = (square.vertices, square.triangles, square.boundary_edges, square.boundary_markers)
    assert Mesh(*arrays, level=1, vertex_parents=[[0, 2]]).n_coarse_vertices == 3
    with pytest.raises(ValueError, match="vertex parent index out of range"):
        Mesh(*arrays, level=1, vertex_parents=parents)


def test_edge_shared_by_three_triangles_is_rejected():
    """Such a root mesh raises when built."""
    with pytest.raises(ValueError, match="more than two triangles"):
        Mesh([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)],
             [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [], [])


def test_carried_incidence_rejects_an_edge_of_three_triangles():
    # three triangles on edge 0, each with two edges of its own
    of_triangle = np.array([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    with pytest.raises(ValueError, match="more than two triangles"):
        _incident(of_triangle, 7)
    # without the third triangle the same edge is interior
    assert np.array_equal(_incident(of_triangle[:2], 5),
                          [[0, 1], [0, -1], [0, -1], [1, -1], [1, -1]])


def test_boundary_markers_inherited():
    mesh = create_initial("z_shape")
    fine = uniform_refine(uniform_refine(mesh))
    assert_conforming(fine)
    n_d = int((fine.boundary_markers == DIRICHLET).sum())
    n_n = int((fine.boundary_markers == NEUMANN).sum())
    # each boundary edge of the fan is bisected twice, markers follow along
    assert n_d + n_n == len(fine.boundary_edges)
    slit = fine.boundary_edges[fine.boundary_markers == DIRICHLET]
    pts = fine.vertices[slit.ravel()]
    # Dirichlet part stays on the slit rays |y| = tan(pi/8) |x|, x <= 0
    assert (pts[:, 0] <= 1e-12).all()
    assert np.allclose(np.abs(pts[:, 1]), (np.sqrt(2.0) - 1.0) * np.abs(pts[:, 0]))


def test_min_angle_stays_bounded():
    mesh = create_initial("z_shape")
    floor = mesh.min_angle() / 2.0 - 1e-12
    mesh = random_mesh("z_shape", np.random.default_rng(3), rounds=8)
    assert mesh.min_angle() >= floor


def test_refine_empty_marking():
    mesh = create_initial("unit_square")
    same = refine(mesh, [])
    assert same.n_triangles == mesh.n_triangles
    assert same.level == 1
    assert (same.parent_of == np.arange(2)).all()


def test_refine_rejects_bad_input():
    mesh = create_initial("unit_square")
    with pytest.raises(ValueError):
        refine(mesh, [5])
    with pytest.raises(ValueError):
        refine(mesh, np.array([True]))
    # a fractional or negative index names no triangle
    for marked, message in (([1.9], "integer indices"), ([0.5], "integer indices"),
                            (np.array([1.0]), "integer indices"), ([-1], "out of range")):
        with pytest.raises(ValueError, match=message):
            refine(mesh, marked)
    for empty in ([], np.array([]), np.array([], dtype=np.uint8)):
        assert refine(mesh, empty).n_triangles == mesh.n_triangles
    assert refine(mesh, np.array([1], dtype=np.uint8)).n_triangles == 4
    with pytest.raises(ValueError):
        Mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)], [(0, 1)], [DIRICHLET])


def test_hierarchy_bookkeeping():
    levels = [create_initial("l_shape")]
    rng = np.random.default_rng(5)
    markings = []
    for _ in range(6):
        n = levels[-1].n_triangles
        marked = rng.choice(n, size=max(1, n // 4), replace=False)
        markings.append(marked)
        levels.append(refine(levels[-1], marked))
    assert levels[0].n_coarse_vertices == levels[0].n_vertices
    for coarse, fine in zip(levels, levels[1:]):
        assert fine.refines(coarse) and not coarse.refines(fine)
        assert fine.n_coarse_vertices == coarse.n_vertices
    ratio = closure_cost(levels, markings)
    assert 1.0 <= ratio < 10.0
    with pytest.raises(ValueError):
        closure_cost(levels, markings[1:])
    with pytest.raises(ValueError, match="empty markings history"):
        closure_cost(levels[:1], [])
    with pytest.raises(ValueError, match="markings are all empty"):
        closure_cost([levels[0], refine(levels[0], [])], [[]])
    # a refinement of another root with the same vertex count
    square = create_initial("unit_square")
    other = Mesh(2.0 * square.vertices + 1.0, square.triangles, square.boundary_edges,
                 square.boundary_markers)
    fine = refine(other, [0, 1])
    assert fine.refines(other) and not fine.refines(square)


def test_overlay_refines_both_inputs():
    root = create_initial("unit_square")
    rng = np.random.default_rng(17)
    a = root
    for _ in range(3):
        a = refine(a, rng.choice(a.n_triangles, size=max(1, a.n_triangles // 2),
                                 replace=False))
    b = root
    for _ in range(2):
        b = refine(b, rng.choice(b.n_triangles, size=max(1, b.n_triangles // 3),
                                 replace=False))
    # the root grows into b, which is everywhere as fine or finer
    assert overlay(root, b, root).n_triangles == b.n_triangles
    # an input coarser than the root somewhere is not grown from it
    fine_root = uniform_refine(root)
    for args, which in (((root, fine_root, fine_root), "first"),
                        ((fine_root, root, fine_root), "second")):
        with pytest.raises(ValueError, match=f"{which} mesh is not a bisection refinement"):
            overlay(*args)
    both = overlay(a, b, root)
    assert_conforming(both)
    assert np.isclose(both.areas.sum(), 1.0)
    # overlap estimate: #overlay <= #a + #b - #root
    assert both.n_triangles <= a.n_triangles + b.n_triangles - root.n_triangles
    # every overlay element sits inside one element of a and one of b
    for other in (a, b):
        owner = locate(other, both.centroids())
        covered = np.zeros(other.n_triangles)
        np.add.at(covered, owner, both.areas)
        assert np.allclose(covered, other.areas, rtol=1e-12)


def test_locate():
    mesh = random_mesh("z_shape", np.random.default_rng(23), rounds=3)
    idx = locate(mesh, mesh.centroids())
    assert (idx == np.arange(mesh.n_triangles)).all()
    with pytest.raises(ValueError):
        locate(mesh, np.array([[-0.9, 0.0]]))  # inside the slit wedge


@pytest.mark.parametrize("corners", [[(0, 2, 1)], [(0, 1, 3)]], ids=["clockwise", "flat"])
def test_clockwise_or_flat_triangles_are_rejected(corners):
    """A clockwise triangle and one of zero area (three collinear vertices)
    give no mesh."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 0.0)]
    a, b, c = corners[0]
    with pytest.raises(ValueError, match="positively oriented and non-degenerate"):
        Mesh(vertices, corners, [(a, b), (b, c), (c, a)], [DIRICHLET] * 3)


@pytest.mark.parametrize("vertices", [[], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]],
                         ids=["no vertices", "three vertices"])
def test_a_mesh_without_triangles_is_rejected(vertices):
    with pytest.raises(ValueError, match="at least one triangle"):
        Mesh(vertices, np.empty((0, 3), dtype=np.int64), [], [])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_coordinates_are_rejected(bad):
    """A vertex at nan or +-inf gives no mesh."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (float(bad), 1.0)]
    with pytest.raises(ValueError, match="finite"):
        Mesh(vertices, [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)], [DIRICHLET] * 3)


WRAPS = {"2**31": lambda v: 2 ** 31, "2**32+v": lambda v: 2 ** 32 + v,
         "-2**32+v": lambda v: v - 2 ** 32}


@pytest.mark.parametrize("wrap", WRAPS.values(), ids=WRAPS.keys())
@pytest.mark.parametrize("where", ["triangles", "parent_of", "vertex_parents"])
def test_indices_a_32_bit_cast_would_wrap_are_rejected(where, wrap):
    """An index past int32 raises on the input, even where the cast would
    wrap it to the valid index v (2**32 + 2 to 2)."""
    square = create_initial("unit_square")
    given = {"triangles": square.triangles.astype(np.int64), "parent_of": np.array([0, 1]),
             "vertex_parents": np.array([[0, 2]])}

    def make():
        return Mesh(square.vertices, given["triangles"], square.boundary_edges,
                    square.boundary_markers, parent_of=given["parent_of"],
                    vertex_parents=given["vertex_parents"])

    assert make().n_triangles == 2
    given[where].flat[-1] = wrap(given[where].flat[-1])
    with pytest.raises(ValueError, match="index out of range"):
        make()


@pytest.mark.parametrize("offset", ["bound", "-1"])
@pytest.mark.parametrize("where", ["triangles", "boundary_edges", "parent_of",
                                   "vertex_parents"])
def test_an_index_at_its_bound_or_negative_is_rejected(where, offset):
    """Each range-checked index array of a mesh built by hand accepts its
    largest valid index, bound - 1, and rejects the bound itself and -1:
    n_vertices for vertex indices, n_triangles for parent_of, the coarse
    vertex count for vertex_parents."""
    square = create_initial("unit_square")
    bounds = {"triangles": 4, "boundary_edges": 4, "parent_of": 2, "vertex_parents": 3}

    def make(**changed):
        given = {"triangles": square.triangles.astype(np.int64),
                 "boundary_edges": square.boundary_edges.copy(),
                 "parent_of": np.array([0, 1]), "vertex_parents": np.array([[0, 2]])}
        for name, value in changed.items():
            given[name].flat[-1] = value
        return Mesh(square.vertices, given["triangles"], given["boundary_edges"],
                    square.boundary_markers, parent_of=given["parent_of"],
                    vertex_parents=given["vertex_parents"])

    assert getattr(make(), where).max() == bounds[where] - 1
    with pytest.raises(ValueError, match="index out of range"):
        make(**{where: bounds[where] if offset == "bound" else -1})


NAMES = {"triangles": "triangle vertex", "boundary_edges": "boundary vertex",
         "parent_of": "parent triangle", "vertex_parents": "vertex parent"}


@pytest.mark.parametrize("where, kind", [(where, float) for where in NAMES] +
                         [("triangles", bool)])
def test_a_non_integer_index_is_rejected(where, kind):
    """An index array of floats or booleans raises, naming the array, rather
    than being cast: a fraction (2.7 for the last triangle entry, 2) is not
    truncated to a valid index, nor a boolean read as 0 or 1."""
    square = create_initial("unit_square")
    given = {"triangles": square.triangles, "boundary_edges": square.boundary_edges,
             "parent_of": np.array([0, 1]), "vertex_parents": np.array([[0, 2]])}

    def make():
        return Mesh(square.vertices, boundary_markers=square.boundary_markers, **given)

    assert make().n_triangles == 2
    given[where] = given[where].astype(kind)
    if kind is float:
        given[where].flat[-1] += 0.7  # the cast would truncate it to the valid index
    with pytest.raises(ValueError, match=f"{NAMES[where]} must be given as integer indices"):
        make()


def test_int32_limits_on_vertex_and_triangle_counts(monkeypatch):
    """nV and 3 nT + 1 (the gradient operator's indptr) must fit the
    32-bit index type; checked here with a lowered limit."""
    square = create_initial("unit_square")
    args = (square.vertices, square.triangles, square.boundary_edges,
            square.boundary_markers)
    monkeypatch.setattr(mesh_module, "_INT32_MAX", 3)
    with pytest.raises(ValueError, match="too many vertices or triangles"):
        Mesh(*args)
    monkeypatch.setattr(mesh_module, "_INT32_MAX", 6)
    with pytest.raises(ValueError, match="too many vertices or triangles"):
        Mesh(*args)
    monkeypatch.setattr(mesh_module, "_INT32_MAX", 7)
    assert Mesh(*args).n_triangles == 2

