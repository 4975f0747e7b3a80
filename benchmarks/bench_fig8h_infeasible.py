"""Figure 8(h): reporting switch-granularity impossibility.

Double-diamond instances (two flows routed in opposite directions over the
same arcs) admit no simple switch-granularity update order.  The benchmark
measures how quickly the synthesizer proves this.

Expected shape (paper): infeasibility is reported in time comparable to (or
faster than) solving a feasible instance of the same size, thanks to the
SAT-based early-termination optimization.
"""

from repro.bench import experiments
from repro.bench.report import format_table


def test_fig8h_infeasible(once):
    rows = once(experiments.fig8h_infeasible, sizes=(8, 16, 32, 64))
    print()
    print(
        format_table(
            "Fig 8(h) infeasible instances (switch granularity)",
            ["switches", "updating", "seconds", "feasible", "reason"],
            [(r.switches, r.updates, r.seconds, r.feasible, r.reason) for r in rows],
        )
    )
    assert all(not r.feasible for r in rows)
    # the SAT early termination (§4.2.B) must fire at every size
    assert all(r.reason == "sat" for r in rows)
    assert all(r.seconds < 120 for r in rows)
