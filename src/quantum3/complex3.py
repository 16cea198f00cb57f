"""Triangulated closed 3-manifolds and admissible edge colorings.

A triangulation is a list of tetrahedra on consecutive vertex indices,
checked on construction to be a closed 3-manifold: each face lies in two
tetrahedra and each vertex link is a 2-sphere (so each edge link is a
circle).
Only the combinatorics needed by the state sum is kept: edges, triangular
faces, and their incidences inside each tetrahedron.  Orientation is not
tracked; every quantity computed downstream is orientation-independent.

Within a tetrahedron on ordered vertices (v0, v1, v2, v3), the six edge
colors are addressed by slots (i, j, k, l, m, n):

    i = c(v0 v1)   j = c(v0 v2)   k = c(v1 v2)
    l = c(v2 v3)   m = c(v1 v3)   n = c(v0 v3)

so the opposite-edge pairs are (i, l), (j, m), (k, n) and the four faces
carry the triples (i, j, k), (i, m, n), (j, l, n), (k, l, m).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .cyclo import check_level, evaluation_points


class TriangulationError(ValueError):
    """Malformed or non-closed triangulation input."""


@dataclass(frozen=True)
class Coloring:
    """Colors indexed by edge id, at a fixed level r (colors live in 0..r-2)."""

    level_r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        check_level(self.level_r)
        bad = [c for c in self.colors if not 0 <= c <= self.level_r - 2]
        if bad:
            raise ValueError(f"colors {bad[:3]} outside 0..{self.level_r - 2}")

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, edge_id: int) -> int:
        return self.colors[edge_id]


class Triangulation:
    """An immutable closed triangulated 3-manifold.

    Pre-computes edge and face tables plus the per-tetrahedron slot maps
    described in the module docstring.  The constructor raises
    TriangulationError unless every face is shared by exactly two
    tetrahedra and every vertex link is a 2-sphere, which makes every
    edge link a circle; a link defect is reported as "not a closed
    3-manifold" at the first vertex whose link fails.
    """

    def __init__(self, tetrahedra: Iterable[Sequence[int]]):
        tets: list[tuple[int, int, int, int]] = []
        for raw in tetrahedra:
            quad = tuple(raw)
            if len(quad) != 4 or not all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in quad
            ):
                raise TriangulationError(f"tetrahedron must be 4 non-negative ints, got {raw!r}")
            if len(set(quad)) != 4:
                raise TriangulationError(f"degenerate tetrahedron {raw!r}")
            tets.append(tuple(sorted(quad)))
        if not tets:
            raise TriangulationError("empty triangulation")
        if len(set(tets)) != len(tets):
            raise TriangulationError("duplicate tetrahedra")
        self.tetrahedra: tuple[tuple[int, int, int, int], ...] = tuple(tets)

        vertices = sorted({v for t in tets for v in t})
        if vertices != list(range(len(vertices))):
            raise TriangulationError("vertex indices must be consecutive starting at 0")
        self.vertex_count: int = len(vertices)

        edge_set = sorted({pair for t in tets for pair in combinations(t, 2)})
        face_set = sorted({tri for t in tets for tri in combinations(t, 3)})
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_set)
        self.faces: tuple[tuple[int, int, int], ...] = tuple(face_set)
        ei = {e: i for i, e in enumerate(edge_set)}
        fi = {f: i for i, f in enumerate(face_set)}

        self.face_edges: tuple[tuple[int, int, int], ...] = tuple(
            (ei[(a, b)], ei[(a, c)], ei[(b, c)]) for (a, b, c) in face_set
        )
        self.tet_edges: tuple[tuple[int, ...], ...] = tuple(
            (ei[(v0, v1)], ei[(v0, v2)], ei[(v1, v2)], ei[(v2, v3)], ei[(v1, v3)], ei[(v0, v3)])
            for v0, v1, v2, v3 in tets
        )

        face_tets: list[list[int]] = [[] for _ in face_set]
        for t_id, quad in enumerate(tets):
            for tri in combinations(quad, 3):
                face_tets[fi[tri]].append(t_id)
        bad = [face_set[f] for f, ts in enumerate(face_tets) if len(ts) != 2]
        if bad:
            raise TriangulationError(f"not closed: faces {bad[:5]} not shared by exactly two tetrahedra")
        self.face_tets: tuple[tuple[int, int], ...] = tuple(tuple(ts) for ts in face_tets)

        # Once each face lies in two tetrahedra, a connected vertex link has
        # chi = chi(its normalized surface) - sum over edges (v, u) of (the
        # circles in the link of (v, u) - 1) <= 2, so chi = 2 also makes
        # every edge link at v a single circle.
        for v in range(self.vertex_count):
            # A cell at v with k + 1 vertices gives a (k - 1)-cell of its link.
            link_chi = sum((-1) ** len(c) for c in chain(edge_set, face_set, tets) if v in c)
            if link_chi != 2 or self._pieces(v) != 1:
                raise TriangulationError(
                    f"not a closed 3-manifold: vertex {v} link is not a 2-sphere (chi={link_chi})"
                )
        self.component_count: int = self._pieces()

    def _pieces(self, *cell: int) -> int:
        """How many pieces the tetrahedra containing cell form when glued
        along their faces that contain it (all of them, for no cell)."""
        around = set(cell).issubset
        adj = {t: [] for t, quad in enumerate(self.tetrahedra) if around(quad)}
        for face, (a, b) in zip(self.faces, self.face_tets):
            if around(face):
                adj[a].append(b)
                adj[b].append(a)
        unseen = set(adj)
        pieces = 0
        while unseen:
            pieces += 1
            stack = [unseen.pop()]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt in unseen:
                        unseen.remove(nxt)
                        stack.append(nxt)
        return pieces

    @property
    def euler_characteristic(self) -> int:
        return (
            self.vertex_count - len(self.edges) + len(self.faces) - len(self.tetrahedra)
        )

    def to_json_dict(self) -> dict:
        return {"tetrahedra": [list(t) for t in self.tetrahedra]}

    def __repr__(self) -> str:
        return (
            f"Triangulation(V={self.vertex_count}, E={len(self.edges)}, "
            f"F={len(self.faces)}, T={len(self.tetrahedra)})"
        )


def asset_dir() -> Path:
    """Directory holding the shipped triangulations; QUANTUM3_ASSETS overrides."""
    override = os.environ.get("QUANTUM3_ASSETS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "assets"


@lru_cache(maxsize=None)
def _load_asset_cached(path: Path) -> Triangulation:
    return load_triangulation(path)


def load_asset(name: str) -> Triangulation:
    """Load a shipped triangulation asset by name, e.g. "s2xs1" or "s2xs1.json".

    Repeated loads of the same file return the same object, so per-object
    caches (state-sum tables) are shared by all users of an asset."""
    if not name.endswith(".json"):
        name += ".json"
    return _load_asset_cached(asset_dir() / name)


def load_triangulation(source: str | Path | IO) -> Triangulation:
    """Load a triangulation from a JSON object {"tetrahedra": [[v0,v1,v2,v3], ...]}."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise TriangulationError(f"cannot read {source}: {exc}") from exc
    else:
        text = source.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TriangulationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "tetrahedra" not in payload:
        raise TriangulationError('expected a JSON object with a "tetrahedra" key')
    tets = payload["tetrahedra"]
    if not isinstance(tets, list):
        raise TriangulationError('"tetrahedra" must be a list')
    return Triangulation(tets)


def disjoint_union(a: Triangulation, b: Triangulation) -> Triangulation:
    """The disjoint union, with b's vertices shifted past a's."""
    shift = a.vertex_count
    tets = [list(t) for t in a.tetrahedra]
    tets += [[v + shift for v in t] for t in b.tetrahedra]
    return Triangulation(tets)


def color_range(r: int, even_only: bool = False) -> tuple[int, ...]:
    """Allowed edge colors: 0..r-2, or the even ones only, at the levels
    where the refined invariant has evaluation points (odd r)."""
    if not evaluation_points(r, even_only):
        raise ValueError(f"even-color restriction requires odd r, got r={r}")
    return tuple(range(0, r - 1, 2 if even_only else 1))


def admissible_triple(i: int, j: int, k: int, r: int) -> bool:
    """Whether (i, j, k) may sit on a face: even sum, triangle inequalities,
    and i + j + k <= 2(r - 2)."""
    total = i + j + k
    if total % 2 or total > 2 * (r - 2):
        return False
    return i + j >= k and j + k >= i and k + i >= j


def edge_order(t: Triangulation) -> tuple[int, ...]:
    """An assignment order for the edges of t that keeps the frontier narrow.

    The order is built from its end.  A set R of the edges placed last
    grows one edge at a time: each step adds the edge e that minimises
    |N(R + e) - (R + e)|, ties going to the lowest edge id, where N(X) is
    the set of edges that share a face or a tetrahedron with an edge of X.
    The order is R read backwards.  |N(R) - R| is the number of placed
    edges with a face or tetrahedron still incomplete just before R's
    edges are placed, the live width of the frontier sum there, so each
    step keeps the width where the new edge lands as small as it can.
    """
    n = len(t.edges)
    # near[e]: bit mask of e and the edges sharing a face or tetrahedron with it.
    near = [1 << e for e in range(n)]
    for group in chain(t.face_edges, t.tet_edges):
        mask = 0
        for e in group:
            mask |= 1 << e
        for e in group:
            near[e] |= mask
    tail = reach = 0
    rest = list(range(n))
    out = []
    while rest:
        # min keeps the first of equal widths, and rest is ascending.
        e = min(rest, key=lambda e: ((reach | near[e]) & ~(tail | 1 << e)).bit_count())
        rest.remove(e)
        out.append(e)
        tail |= 1 << e
        reach |= near[e]
    return tuple(reversed(out))


def faces_completed_at(t: Triangulation, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """For each position in the order, the face ids whose last edge lands there."""
    pos = {e: p for p, e in enumerate(order)}
    out: list[list[int]] = [[] for _ in order]
    for f_id, f_edges in enumerate(t.face_edges):
        out[max(pos[e] for e in f_edges)].append(f_id)
    return tuple(tuple(x) for x in out)


def enumerate_admissible(
    t: Triangulation, r: int, even_only: bool = False
) -> Iterator[Coloring]:
    """Yield every admissible coloring exactly once, deterministically.

    Backtracking over edges in edge_order; a branch dies as soon as a
    completed face fails the admissibility conditions.
    """
    colors_allowed = color_range(r, even_only)
    order = edge_order(t)
    face_sched = faces_completed_at(t, order)
    n_edges = len(t.edges)
    assignment = [0] * n_edges

    def advance(p: int) -> Iterator[Coloring]:
        if p == n_edges:
            yield Coloring(r, tuple(assignment))
            return
        e = order[p]
        for x in colors_allowed:
            assignment[e] = x
            ok = True
            for f_id in face_sched[p]:
                e1, e2, e3 = t.face_edges[f_id]
                if not admissible_triple(assignment[e1], assignment[e2], assignment[e3], r):
                    ok = False
                    break
            if ok:
                yield from advance(p + 1)

    yield from advance(0)


def is_admissible(t: Triangulation, coloring: Coloring, even_only: bool = False) -> bool:
    """Validate a full coloring against the face conditions at its level."""
    r = coloring.level_r
    if len(coloring) != len(t.edges):
        return False
    allowed = set(color_range(r, even_only))
    if any(c not in allowed for c in coloring.colors):
        return False
    return all(
        admissible_triple(coloring[e1], coloring[e2], coloring[e3], r)
        for (e1, e2, e3) in t.face_edges
    )


def split_coloring(coloring: Coloring) -> tuple[Coloring, Coloring]:
    """Split a coloring at odd level r into a level-3 part and an even part:
    even colors map to (0, c), odd colors to (1, r-2-c)."""
    r = coloring.level_r
    if r % 2 == 0:
        raise ValueError("splitting requires odd r")
    c3 = []
    cp = []
    for c in coloring.colors:
        if c % 2 == 0:
            c3.append(0)
            cp.append(c)
        else:
            c3.append(1)
            cp.append(r - 2 - c)
    return Coloring(3, tuple(c3)), Coloring(r, tuple(cp))


def normal_surface_euler_parity(t: Triangulation, c3: Coloring) -> int:
    """Parity of the Euler characteristic of the normal surface dual to a
    level-3 coloring.

    The surface meets each 1-colored edge in a point, each (1,1,0) face in
    an arc, and each tetrahedron with nonempty pattern in one triangular or
    quadrilateral disk; the parity of chi equals
    (#points + #arcs + sum over tetrahedra of delta) mod 2 with
    delta = i+j+k+l+m+n + (il+jm+kn)/2.
    """
    if c3.level_r != 3 or not is_admissible(t, c3):
        raise ValueError("c3 is not an admissible level-3 coloring")
    col = c3.colors
    nu0 = sum(col[e] for e in range(len(t.edges)))
    nu1 = sum(1 for (e1, e2, e3) in t.face_edges if col[e1] + col[e2] + col[e3] == 2)
    delta_sum = 0
    for slots in t.tet_edges:
        i, j, k, l, m, n = (col[e] for e in slots)
        cross = i * l + j * m + k * n
        if cross % 2:
            raise AssertionError("opposite-pair product sum must be even on admissible colorings")
        delta_sum += i + j + k + l + m + n + cross // 2
    return (nu0 + nu1 + delta_sum) % 2
