"""Figure 8(i): rule granularity solves the switch-impossible instances.

The same double diamonds as Figure 8(h), synthesized at rule granularity:
per-flow updates decouple the two diamonds and an order exists.

Expected shape (paper): all instances solve; runtime is higher than
switch-granular feasible cases (about twice the units) but scales; the
wait-removal pass leaves only a few waits (paper: ~2.6 average, max 4).
"""

from repro.bench import experiments
from repro.bench.report import format_table


def test_fig8i_rule_granularity(once):
    rows = once(experiments.fig8i_rule_granularity, sizes=(8, 16, 32, 64))
    print()
    print(
        format_table(
            "Fig 8(i) rule-granularity synthesis",
            ["switches", "updates", "model checks", "seconds", "waits kept"],
            [
                (r.switches, r.updates, r.model_checks, r.seconds, r.waits_after)
                for r in rows
            ],
        )
    )
    waits = experiments.waits_summary(rows)
    print("waits summary:", waits)
    assert all(r.updates > 0 for r in rows)
    assert waits["max_kept"] <= 4
    assert waits["removed_fraction"] > 0.85
