"""Regenerate the shipped triangulation assets.

s3_boundary4simplex.json: the five tetrahedra of the boundary of a
4-simplex, the minimal triangulation of the 3-sphere.

s2xs1.json: a triangulation of S^2 x S^1 built as (boundary of a
tetrahedron) x (3-cycle), each prism split into three tetrahedra by the
staircase induced by the global vertex order, then simplified by
PL-type-preserving moves: edge contractions that satisfy the link
condition lk(u) . lk(v) = lk(uv), and bistellar 2-3 / 3-2 flips driven
by a seeded random walk that escapes contraction-free plateaus.
Each kept complex is a Triangulation (closed, manifold links), connected,
with the level-3 coloring count 2^V expected for b1(Z/2) = 1.

Usage: python3 tools/make_assets.py [output_dir]
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum3.complex3 import Triangulation, TriangulationError, enumerate_admissible


def product_s2xs1() -> list[tuple[int, ...]]:
    layers = 3
    base_faces = list(combinations(range(4), 3))

    def vid(v: int, t: int) -> int:
        return v + 4 * (t % layers)

    tets = []
    for t in range(layers):
        for (a, b, c) in base_faces:
            tets.append((vid(a, t), vid(b, t), vid(c, t), vid(c, t + 1)))
            tets.append((vid(a, t), vid(b, t), vid(b, t + 1), vid(c, t + 1)))
            tets.append((vid(a, t), vid(a, t + 1), vid(b, t + 1), vid(c, t + 1)))
    return tets


def link_condition_holds(tri: Triangulation, u: int, v: int) -> bool:
    faces = set(tri.faces)
    tets = set(tri.tetrahedra)
    nbrs_u = {w for (a, b) in tri.edges if u in (a, b) for w in (a, b) if w not in (u,)}
    nbrs_v = {w for (a, b) in tri.edges if v in (a, b) for w in (a, b) if w not in (v,)}
    common_vertices = (nbrs_u & nbrs_v) - {u, v}
    for w in common_vertices:
        if tuple(sorted((u, v, w))) not in faces:
            return False
    link_edges_u = {tuple(sorted(set(f) - {u})) for f in faces if u in f}
    link_edges_v = {tuple(sorted(set(f) - {v})) for f in faces if v in f}
    for (w, x) in link_edges_u & link_edges_v:
        if u in (w, x) or v in (w, x):
            continue
        if tuple(sorted((u, v, w, x))) not in tets:
            return False
    link_tris_u = {tuple(sorted(set(t) - {u})) for t in tets if u in t}
    link_tris_v = {tuple(sorted(set(t) - {v})) for t in tets if v in t}
    shared = {t for t in link_tris_u & link_tris_v if u not in t and v not in t}
    return not shared


def contract_edge(tri: Triangulation, u: int, v: int) -> Triangulation:
    new_tets = []
    for quad in tri.tetrahedra:
        if u in quad and v in quad:
            continue  # collapses to a triangle
        mapped = tuple(sorted(u if w == v else w for w in quad))
        new_tets.append(mapped)
    old = sorted({w for t in new_tets for w in t})
    relabel = {w: i for i, w in enumerate(old)}
    return Triangulation([tuple(relabel[w] for w in t) for t in new_tets])


def validate(tri: Triangulation) -> None:
    assert tri.component_count == 1, tri
    count = sum(1 for _ in enumerate_admissible(tri, 3))
    assert count == 2 ** tri.vertex_count, (count, tri.vertex_count)


def contract_any(tri: Triangulation) -> Triangulation | None:
    for (u, v) in tri.edges:
        if not link_condition_holds(tri, u, v):
            continue
        try:
            smaller = contract_edge(tri, u, v)
        except TriangulationError:
            continue
        validate(smaller)
        return smaller
    return None


def flips_32(tri: Triangulation) -> list[Triangulation]:
    """All valid bistellar 3-2 flips: an edge uv whose three incident
    tetrahedra form the cone on a 3-cycle abc is replaced by the two
    tetrahedra uabc and vabc, provided abc is not already a face."""
    out = []
    edge_tets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for quad in tri.tetrahedra:
        for pair in combinations(quad, 2):
            edge_tets.setdefault(pair, []).append(quad)
    faces = set(tri.faces)
    for (u, v), tets in edge_tets.items():
        if len(tets) != 3:
            continue
        ring = sorted({w for quad in tets for w in quad} - {u, v})
        if len(ring) != 3 or tuple(ring) in faces:
            continue
        new_tets = [q for q in tri.tetrahedra if q not in tets]
        new_tets.append(tuple(sorted((u, *ring))))
        new_tets.append(tuple(sorted((v, *ring))))
        try:
            flipped = Triangulation(new_tets)
        except TriangulationError:
            continue
        out.append(flipped)
    return out


def flips_23(tri: Triangulation) -> list[Triangulation]:
    """All valid bistellar 2-3 flips: two tetrahedra sharing the face abc
    with apexes u, v are replaced by the three tetrahedra around the new
    edge uv, provided uv is not already an edge."""
    out = []
    edges = set(tri.edges)
    for f_id, face in enumerate(tri.faces):
        t1, t2 = tri.face_tets[f_id]
        u = next(w for w in tri.tetrahedra[t1] if w not in face)
        v = next(w for w in tri.tetrahedra[t2] if w not in face)
        if tuple(sorted((u, v))) in edges:
            continue
        new_tets = [
            q for i, q in enumerate(tri.tetrahedra) if i not in (t1, t2)
        ]
        a, b, c = face
        new_tets.append(tuple(sorted((u, v, a, b))))
        new_tets.append(tuple(sorted((u, v, b, c))))
        new_tets.append(tuple(sorted((u, v, a, c))))
        try:
            flipped = Triangulation(new_tets)
        except TriangulationError:
            continue
        out.append(flipped)
    return out


def simplify(tri: Triangulation, seed: int = 20260815, patience: int = 400) -> Triangulation:
    """Shrink by contractions and 3-2 flips, using random 2-3 flips to
    escape plateaus; returns the smallest complex visited."""
    rng = random.Random(seed)
    best = tri
    since_improvement = 0
    while since_improvement < patience:
        smaller = contract_any(tri)
        if smaller is not None:
            tri = smaller
            print(f"contracted: {tri!r}")
        else:
            down = flips_32(tri)
            if down:
                tri = rng.choice(down)
            else:
                up = flips_23(tri)
                if not up:
                    break
                tri = rng.choice(up)
            validate(tri)
        key = (len(tri.tetrahedra), len(tri.edges), tri.vertex_count)
        best_key = (len(best.tetrahedra), len(best.edges), best.vertex_count)
        if key < best_key:
            best = tri
            since_improvement = 0
            print(f"new best: {best!r}")
        else:
            since_improvement += 1
        if len(tri.tetrahedra) > len(best.tetrahedra) + 6:
            tri = best
    return best


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "src" / "quantum3" / "assets"

    s3 = Triangulation(list(combinations(range(5), 4)))

    tri = Triangulation(product_s2xs1())
    validate(tri)
    print(f"product complex: {tri!r}")
    tri = simplify(tri)
    print(f"final: {tri!r}")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "s3_boundary4simplex.json").write_text(
        json.dumps(s3.to_json_dict(), indent=1) + "\n"
    )
    (out_dir / "s2xs1.json").write_text(json.dumps(tri.to_json_dict(), indent=1) + "\n")


if __name__ == "__main__":
    main()
