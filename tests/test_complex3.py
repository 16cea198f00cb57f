"""Triangulation model and admissible-coloring machinery against brute-force oracles."""

import io
import json
from itertools import combinations

import pytest

from quantum3.complex3 import (
    Coloring,
    Triangulation,
    TriangulationError,
    admissible_triple,
    disjoint_union,
    edge_order,
    enumerate_admissible,
    faces_completed_at,
    is_admissible,
    load_asset,
    load_triangulation,
    normal_surface_euler_parity,
    split_coloring,
)

from helpers import boundary_4_simplex, brute_force_count


def test_loader_boundary_4_simplex():
    t = load_asset("s3_boundary4simplex.json")
    assert t.vertex_count == 5
    assert len(t.edges) == 10
    assert len(t.faces) == 10
    assert len(t.tetrahedra) == 5
    assert t.component_count == 1
    assert t.euler_characteristic == 0


def test_loader_rejects_open_complex():
    with pytest.raises(TriangulationError, match="not closed"):
        Triangulation([[0, 1, 2, 3]])


def test_loader_rejects_bad_input():
    with pytest.raises(TriangulationError, match="invalid JSON"):
        load_triangulation(io.StringIO("not json"))
    with pytest.raises(TriangulationError, match="tetrahedra"):
        load_triangulation(io.StringIO('{"cells": []}'))
    with pytest.raises(TriangulationError, match="degenerate"):
        Triangulation([[0, 1, 2, 2]])
    with pytest.raises(TriangulationError, match="duplicate"):
        Triangulation([[0, 1, 2, 3], [3, 2, 1, 0]])
    with pytest.raises(TriangulationError, match="consecutive"):
        Triangulation([(v + 1 for v in t) for t in combinations(range(5), 4)])
    # JSON booleans are ints to Python (false == 0, true == 1) but not
    # vertex ids; this boundary of the 4-simplex would otherwise load.
    tets = [[bool(v) if v < 2 else v for v in t] for t in combinations(range(5), 4)]
    text = json.dumps({"tetrahedra": tets})
    assert "false" in text and "true" in text
    with pytest.raises(TriangulationError, match="non-negative ints"):
        load_triangulation(io.StringIO(text))


def test_disjoint_union_components():
    t = boundary_4_simplex()
    u = disjoint_union(t, t)
    assert u.vertex_count == 10
    assert u.component_count == 2


def test_pinched_complex_fails_manifold_check():
    # Two 3-spheres sharing one vertex: every face lies in two tetrahedra,
    # but the shared vertex link is a disjoint pair of 2-spheres.
    label = list(combinations(range(5), 4))
    other = [tuple(0 if v == 0 else v + 4 for v in t) for t in label]
    with pytest.raises(TriangulationError) as err:
        Triangulation(label + other)
    assert str(err.value) == "not a closed 3-manifold: vertex 0 link is not a 2-sphere (chi=4)"


def test_shared_edge_complex_fails_vertex_link_check():
    # Two 3-spheres sharing the edge (0, 1): every face lies in two
    # tetrahedra, but the edge link is two circles.  The link of vertex 0
    # is then two 2-spheres glued at one point (chi = 3), so the vertex
    # check names the defect.
    label = list(combinations(range(5), 4))
    other = [tuple(v if v < 2 else v + 3 for v in t) for t in label]
    with pytest.raises(TriangulationError) as err:
        Triangulation(label + other)
    assert str(err.value) == "not a closed 3-manifold: vertex 0 link is not a 2-sphere (chi=3)"


def test_s2xs1_asset_is_closed_manifold():
    # Loading is the manifold check: a Triangulation has circle edge links
    # and 2-sphere vertex links by construction.
    t = load_asset("s2xs1.json")
    assert t.euler_characteristic == 0
    assert t.component_count == 1


def test_asset_dir_override(monkeypatch, tmp_path):
    (tmp_path / "t.json").write_text(json.dumps({"tetrahedra": [list(t) for t in combinations(range(5), 4)]}))
    monkeypatch.setenv("QUANTUM3_ASSETS", str(tmp_path))
    assert load_asset("t.json").vertex_count == 5


def test_admissible_triple_cases():
    assert admissible_triple(0, 0, 0, 5)
    assert admissible_triple(2, 2, 2, 5)  # sum 6 == 2(r-2)
    assert not admissible_triple(1, 1, 1, 5)  # odd sum
    assert not admissible_triple(2, 0, 0, 5)  # triangle inequality
    assert not admissible_triple(3, 3, 2, 5)  # sum 8 > 6
    assert admissible_triple(3, 3, 2, 6)
    assert not admissible_triple(4, 4, 4, 7)  # sum 12 > 10


def test_greedy_order_is_permutation_and_faces_partitioned():
    for t in (boundary_4_simplex(), load_asset("s2xs1.json")):
        order = edge_order(t)
        assert sorted(order) == list(range(len(t.edges)))
        sched = faces_completed_at(t, order)
        seen = [f for fs in sched for f in fs]
        assert sorted(seen) == list(range(len(t.faces)))


def test_enumeration_matches_brute_force():
    t = boundary_4_simplex()
    for r in (3, 4, 5):
        got = sum(1 for _ in enumerate_admissible(t, r))
        assert got == brute_force_count(t, r)
    assert sum(1 for _ in enumerate_admissible(t, 3)) == 16
    # |A'_5| = 52 by brute force; with |A_3| = 16 this matches |A_5| = 832 = 16*52.
    assert sum(1 for _ in enumerate_admissible(t, 5, True)) == 52
    assert sum(1 for _ in enumerate_admissible(t, 5, True)) == brute_force_count(t, 5, True)


def test_enumeration_is_deterministic_and_admissible():
    t = boundary_4_simplex()
    first = list(enumerate_admissible(t, 5))
    second = list(enumerate_admissible(t, 5))
    assert first == second
    assert len(set(first)) == len(first)
    assert all(is_admissible(t, c) for c in first)
    zero = Coloring(5, (0,) * len(t.edges))
    assert zero in first


def test_level3_count_matches_cocycle_dimension():
    # |A_3| = 2^((V - components) + dim H^1(Z/2)): the level-3 condition is
    # exactly the Z/2 cocycle condition on the 2-skeleton.
    t = boundary_4_simplex()
    assert sum(1 for _ in enumerate_admissible(t, 3)) == 2**4
    u = disjoint_union(t, t)
    assert sum(1 for _ in enumerate_admissible(u, 3)) == 2**8
    s2s1 = load_asset("s2xs1.json")
    v = s2s1.vertex_count
    assert sum(1 for _ in enumerate_admissible(s2s1, 3)) == 2**v


def merge_coloring(c3: Coloring, cprime: Coloring) -> Coloring:
    """Inverse of split_coloring: c = c' where c3 = 0, and r-2-c' where c3 = 1."""
    r = cprime.level_r
    merged = [c if b == 0 else r - 2 - c for b, c in zip(c3.colors, cprime.colors, strict=True)]
    return Coloring(r, tuple(merged))


def test_split_merge_round_trip():
    t = boundary_4_simplex()
    for r in (5, 7):
        seen = set()
        for c in enumerate_admissible(t, r):
            c3, cp = split_coloring(c)
            assert c3.level_r == 3
            assert cp.level_r == r
            assert is_admissible(t, c3)
            assert is_admissible(t, cp, even_only=True)
            assert merge_coloring(c3, cp) == c
            seen.add((c3.colors, cp.colors))
        a3 = sum(1 for _ in enumerate_admissible(t, 3))
        ap = sum(1 for _ in enumerate_admissible(t, r, True))
        assert len(seen) == a3 * ap


def test_split_examples():
    t = boundary_4_simplex()
    n = len(t.edges)
    zero = Coloring(5, (0,) * n)
    c3, cp = split_coloring(zero)
    assert c3.colors == (0,) * n and cp.colors == (0,) * n
    const = Coloring(5, (3,) * n)
    c3, cp = split_coloring(const)
    assert c3.colors == (1,) * n and cp.colors == (0,) * n
    with pytest.raises(ValueError, match="odd"):
        split_coloring(Coloring(4, (0,) * n))


def _tet_pattern_disks(ones: frozenset) -> str:
    # Slots: i,j,k,l,m,n = 0..5; faces (i,j,k),(i,m,n),(j,l,n),(k,l,m).
    triples = [frozenset({0, 1, 5}), frozenset({0, 2, 4}), frozenset({1, 2, 3}), frozenset({3, 4, 5})]
    quads = [frozenset({1, 2, 4, 5}), frozenset({0, 2, 3, 5}), frozenset({0, 1, 3, 4})]
    if not ones:
        return "empty"
    if ones in triples:
        return "triangle"
    if ones in quads:
        return "quad"
    raise AssertionError(f"invalid level-3 pattern {sorted(ones)}")


def assemble_euler_characteristic(t: Triangulation, c3: Coloring) -> int:
    """Oracle: build the normal surface cell by cell and count."""
    col = c3.colors
    nu0 = sum(col)
    nu1 = sum(1 for (e1, e2, e3) in t.face_edges if col[e1] + col[e2] + col[e3] == 2)
    tris = quads = 0
    for slots in t.tet_edges:
        ones = frozenset(p for p, e in enumerate(slots) if col[e] == 1)
        kind = _tet_pattern_disks(ones)
        if kind == "triangle":
            tris += 1
        elif kind == "quad":
            quads += 1
    assert 3 * tris + 4 * quads == 2 * nu1  # each arc borders two disk edges
    assert tris % 2 == 0
    return nu0 - nu1 + tris + quads


def test_normal_surface_parity_against_assembly_oracle():
    for t in (boundary_4_simplex(), load_asset("s2xs1.json")):
        for c3 in enumerate_admissible(t, 3):
            chi = assemble_euler_characteristic(t, c3)
            assert chi % 2 == normal_surface_euler_parity(t, c3)


def test_normal_surface_parity_examples():
    t = boundary_4_simplex()
    zero = Coloring(3, (0,) * len(t.edges))
    assert normal_surface_euler_parity(t, zero) == 0
    # The vertex-linking sphere around vertex 0: color the edges through 0.
    colors = tuple(1 if 0 in e else 0 for e in t.edges)
    link_sphere = Coloring(3, colors)
    assert assemble_euler_characteristic(t, link_sphere) == 2
    assert normal_surface_euler_parity(t, link_sphere) == 0
    with pytest.raises(ValueError):
        normal_surface_euler_parity(t, Coloring(5, (0,) * len(t.edges)))
