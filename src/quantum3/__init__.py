"""Turaev-Viro invariants of closed 3-manifolds.

Exact state sums over triangulations, residue-based closed forms for
Seifert fibered spaces, and side-by-side reports for mapping-torus pairs
arising from powers of a periodic surface diffeomorphism.
"""

from quantum3.complex3 import (
    Coloring,
    Triangulation,
    TriangulationError,
    disjoint_union,
    enumerate_admissible,
    load_asset,
    load_triangulation,
)
from quantum3.cyclo import CycloNum, ev, is_near_integer, quantum_factorial, quantum_int
from quantum3.hempel import (
    HempelReport,
    PeriodicClass,
    is_trivial_pair,
    iterate,
    periodic_class,
    report,
    to_csv,
)
from quantum3.seifert import (
    SeifertSymbol,
    UnitCertificate,
    check_unit_criterion,
    dedekind_sum,
    euler_number,
    hansen_ratio,
    same_manifold,
    tv_closed_form,
    tv_prime_seifert,
    tv_seifert,
)
from quantum3.statesum import StateSumResult, tv, tv_prime

__all__ = [
    "Coloring",
    "CycloNum",
    "HempelReport",
    "PeriodicClass",
    "SeifertSymbol",
    "StateSumResult",
    "Triangulation",
    "TriangulationError",
    "UnitCertificate",
    "check_unit_criterion",
    "dedekind_sum",
    "disjoint_union",
    "enumerate_admissible",
    "euler_number",
    "ev",
    "hansen_ratio",
    "is_near_integer",
    "is_trivial_pair",
    "iterate",
    "load_asset",
    "load_triangulation",
    "periodic_class",
    "quantum_factorial",
    "quantum_int",
    "report",
    "same_manifold",
    "to_csv",
    "tv",
    "tv_closed_form",
    "tv_prime",
    "tv_prime_seifert",
    "tv_seifert",
    "__version__",
]

__version__ = "0.1.0"
