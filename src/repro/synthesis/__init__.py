"""Update synthesis: the ORDERUPDATE algorithm and its optimizations (§4).

Paper mapping: §4.1 (search, :mod:`repro.synthesis.search`), §4.2.A
(counterexample pruning, :mod:`repro.synthesis.pruning`), §4.2.B (early
termination, :mod:`repro.synthesis.ordering`), §4.2.C (wait removal,
:mod:`repro.synthesis.waits`), §8 future work (:mod:`repro.synthesis.robust`).
"""

from repro.synthesis.plan import SearchStats, UpdatePlan
from repro.synthesis.pruning import ConfigKey, WrongConfigs, make_formula
from repro.synthesis.ordering import OrderingConstraints
from repro.synthesis.search import order_update
from repro.synthesis.waits import remove_waits
from repro.synthesis.robust import FailureFinding, RobustnessReport, robustness_report
from repro.synthesis.synthesizer import UpdateSynthesizer

__all__ = [
    "UpdatePlan",
    "SearchStats",
    "ConfigKey",
    "WrongConfigs",
    "make_formula",
    "OrderingConstraints",
    "order_update",
    "remove_waits",
    "UpdateSynthesizer",
    "robustness_report",
    "RobustnessReport",
    "FailureFinding",
]
