"""Exact computations in full groups of the dyadic odometer.

The package represents full-group elements by finite integer step tables
over binary prefixes, and skyscraper elements by within-tower level
shifts; every operation -- composition, index, metrics, first-return
maps, decompositions, certified factorizations, escape times -- is
carried out in exact integer and dyadic-rational arithmetic.
"""

from .clopen import ClopenSet, depth_cap
from .dyadic import Dyadic
from .element import (
    FullGroupElement,
    OrbitCycle,
    OrbitDecomposition,
    commutator,
    distance,
    random_element,
)
from .errors import (
    CrossesTopError,
    DepthCapError,
    EmptySetError,
    InvariantError,
    MassExceedsOneError,
    NotAlmostPositiveError,
    NotBijectiveError,
    NotInLevelSetError,
    NotPeriodicError,
    NotPositiveError,
    OdofullError,
    OverlapError,
    ParseError,
    SystemMismatchError,
)
from .escape import INFINITE, EscapeResult, EscapeRow, escape_time, escape_tower_family
from .factor import (
    CycleClassParts,
    FactorizationCertificate,
    InducedFactor,
    OdometerPowerFactor,
    PeriodicFactor,
    Positivized,
    decompose_pnp,
    factor_periodic_into_involutions,
    factor_positive,
    normal_form,
    positivize,
)
from .induced import InducedResult, induce, kac_check, ncycle_support_test, transposition
from .serialize import element_to_json, parse_element
from .skyscraper import (
    CounterexampleReport,
    CounterexampleRow,
    Tower,
    TowerElement,
    TowerSystem,
    counterexample_element,
    counterexample_report,
    tower_metric,
)
from .verify import RunReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "ClopenSet",
    "CounterexampleReport",
    "CounterexampleRow",
    "CrossesTopError",
    "CycleClassParts",
    "DepthCapError",
    "Dyadic",
    "EmptySetError",
    "EscapeResult",
    "EscapeRow",
    "FactorizationCertificate",
    "FullGroupElement",
    "INFINITE",
    "InducedFactor",
    "InducedResult",
    "InvariantError",
    "MassExceedsOneError",
    "NotAlmostPositiveError",
    "NotBijectiveError",
    "NotInLevelSetError",
    "NotPeriodicError",
    "NotPositiveError",
    "OdofullError",
    "OdometerPowerFactor",
    "OrbitCycle",
    "OrbitDecomposition",
    "OverlapError",
    "ParseError",
    "PeriodicFactor",
    "Positivized",
    "RunReport",
    "SystemMismatchError",
    "Tower",
    "TowerElement",
    "TowerSystem",
    "commutator",
    "counterexample_element",
    "counterexample_report",
    "decompose_pnp",
    "depth_cap",
    "distance",
    "element_to_json",
    "escape_time",
    "escape_tower_family",
    "factor_periodic_into_involutions",
    "factor_positive",
    "induce",
    "kac_check",
    "ncycle_support_test",
    "normal_form",
    "parse_element",
    "positivize",
    "random_element",
    "run_verify",
    "tower_metric",
    "transposition",
]
