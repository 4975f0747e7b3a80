"""Public synthesis façade.

:class:`UpdateSynthesizer` ties the pieces together: build the Kripke
structure for the initial configuration, run
:func:`~repro.synthesis.search.order_update` (§4.1) with the chosen checker
backend and granularity, then post-process with the wait-removal heuristic (§4.2.C).  This is the
entry point examples, the batch service, and the benchmarks use::

    synth = UpdateSynthesizer(topology)
    plan = synth.synthesize(init, final, spec, ingresses)
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.ltl.syntax import Formula
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.topology import NodeId, Topology
from repro.synthesis.plan import UpdatePlan
from repro.synthesis.search import Handover, order_update
from repro.synthesis.waits import remove_waits


class UpdateSynthesizer:
    """Synthesizes correct network update sequences (the paper's tool).

    Args:
        topology: the network graph.
        checker: model-checker backend, one of ``"incremental"`` (default),
            ``"batch"``, ``"automaton"``/``"nusmv"``, ``"netplumber"``.
        granularity: ``"switch"`` (default) or ``"rule"``.
        remove_waits: run the wait-removal post-pass (§4.2.C).
        use_counterexamples: learn wrong-configuration patterns (§4.2.A).
        use_early_termination: SAT-based infeasibility shortcut (§4.2.B).
        use_reachability_heuristic: try unreachable switches first.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        checker: str = "incremental",
        granularity: str = "switch",
        remove_waits: bool = True,
        use_counterexamples: bool = True,
        use_early_termination: bool = True,
        use_reachability_heuristic: bool = True,
    ):
        self.topology = topology
        self.checker = checker
        self.granularity = granularity
        self.remove_waits = remove_waits
        self.use_counterexamples = use_counterexamples
        self.use_early_termination = use_early_termination
        self.use_reachability_heuristic = use_reachability_heuristic

    def synthesize(
        self,
        init: Configuration,
        final: Configuration,
        spec: Formula,
        ingresses: Mapping[TrafficClass, Sequence[NodeId]],
        *,
        timeout: Optional[float] = None,
        warm_order: Optional[Sequence] = None,
        handover: Optional[Handover] = None,
    ) -> UpdatePlan:
        """Synthesize a correct update plan, or raise
        :class:`~repro.errors.UpdateInfeasibleError` /
        :class:`~repro.errors.SynthesisTimeout`.

        ``warm_order`` seeds the search with a previous plan's unit order
        (:meth:`~repro.synthesis.plan.UpdatePlan.unit_order`) — the delta
        path's warm start; stale hints degrade to a cold search.

        ``handover`` carries a label engine and a labeled start structure
        in from an earlier search, and this search's labeled final
        structure out (see :class:`~repro.synthesis.search.Handover`)."""
        plan = order_update(
            self.topology,
            init,
            final,
            ingresses,
            spec,
            checker=self.checker,
            granularity=self.granularity,
            use_counterexamples=self.use_counterexamples,
            use_early_termination=self.use_early_termination,
            use_reachability_heuristic=self.use_reachability_heuristic,
            timeout=timeout,
            warm_order=warm_order,
            handover=handover,
        )
        if self.remove_waits:
            plan = remove_waits(self.topology, init, plan, ingresses)
        else:
            plan.stats.waits_before_removal = plan.num_waits()
            plan.stats.waits_after_removal = plan.num_waits()
        return plan
