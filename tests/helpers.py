"""Oracles and fixtures shared by the test modules."""

import math
from itertools import combinations

import numpy as np

from quantum3.complex3 import Triangulation, admissible_triple, color_range
from quantum3.seifert import SeifertSymbol


def boundary_4_simplex() -> Triangulation:
    return Triangulation(list(combinations(range(5), 4)))


def sym(text: str) -> SeifertSymbol:
    return SeifertSymbol.parse(text)


def cotangent_sum(b: int, a: int) -> float:
    """Float oracle: s(b,a) = (4a)^-1 sum_l cot(pi l/a) cot(pi l b/a).
    Both arguments are reduced to (-a/2, a/2] before the tangent, since
    cot has period pi and large l*b would otherwise cost precision."""

    def terms():
        for l in range(1, a):
            m = (l * b) % a
            if 2 * m > a:
                m -= a
            ll = l if 2 * l <= a else l - a
            yield 1.0 / (math.tan(math.pi * ll / a) * math.tan(math.pi * m / a))

    return math.fsum(terms()) / (4 * a)


def brute_force_count(t: Triangulation, r: int, even_only: bool = False) -> int:
    """Oracle: materialize all |colors|^E maps and filter face admissibility."""
    colors = np.array(color_range(r, even_only), dtype=np.int64)
    n_edges = len(t.edges)
    k = len(colors)
    total = k**n_edges
    table = np.zeros((r - 1, r - 1, r - 1), dtype=bool)
    for i in range(r - 1):
        for j in range(r - 1):
            for l in range(r - 1):
                table[i, j, l] = admissible_triple(i, j, l, r)
    count = 0
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(idx), n_edges), dtype=np.int64)
        rest = idx.copy()
        for e in range(n_edges):
            digits[:, e] = rest % k
            rest //= k
        grid = colors[digits]
        ok = np.ones(len(idx), dtype=bool)
        for (e1, e2, e3) in t.face_edges:
            ok &= table[grid[:, e1], grid[:, e2], grid[:, e3]]
        count += int(ok.sum())
    return count
