"""Figure 8(g): synthesis scalability in problem size, three properties.

Large diamond updates (ring diamonds for reachability; chained diamonds for
waypointing and service chaining, whose articulation waypoints survive every
intermediate configuration), synthesized with the incremental backend.

Expected shapes (paper, at 1015 updating switches): reachability is cheap
(<1s there, scaled here), waypointing mid, service chaining most expensive;
runtime grows superlinearly but remains tractable.
"""

from repro.bench import experiments
from repro.bench.report import format_table


def test_fig8g_scaling(once):
    rows = once(
        experiments.fig8g_scaling,
        sizes=(20, 40, 80, 160),
        props=("reachability", "waypoint", "chain"),
    )
    print()
    print(
        format_table(
            "Fig 8(g) scalability (incremental backend)",
            ["property", "switches", "updates", "seconds", "waits kept"],
            [(r.prop, r.switches, r.updates, r.seconds, r.waits_after) for r in rows],
        )
    )
    by_prop = {}
    for row in rows:
        by_prop.setdefault(row.prop, []).append(row)
    # every property completes, runtime grows with size
    for prop_rows in by_prop.values():
        assert prop_rows[-1].seconds < 300
    # the richer the property, the costlier the largest instance
    biggest = {p: max(r.seconds for r in rs) for p, rs in by_prop.items()}
    assert biggest["chain"] >= biggest["reachability"] * 0.5
    # wait removal: plain (ring) diamonds keep ~1-2 waits as in the paper;
    # chained diamonds keep about one *necessary* wait per articulation
    # waypoint (traffic always flows through them), still removing the
    # overwhelming majority overall
    waits = experiments.waits_summary(rows)
    print("waits summary:", waits)
    for row in by_prop["reachability"]:
        assert row.waits_after <= 2
    assert waits["removed_fraction"] > 0.8


def test_fig8g_paper_scale_reachability(once):
    """Reachability at the paper's scale: ring_diamond(1024) updates 1,023
    switches, about the paper's 1,015.  The search never backtracks or
    meets a counterexample, so it checks each update once, plus the
    initial and final configurations."""
    rows = once(
        experiments.fig8g_scaling, sizes=(1024, 2048), props=("reachability",)
    )
    print()
    print(
        format_table(
            "Fig 8(g) reachability at paper scale (incremental backend)",
            ["switches", "updates", "model checks", "seconds", "waits kept"],
            [
                (r.switches, r.updates, r.model_checks, r.seconds, r.waits_after)
                for r in rows
            ],
        )
    )
    for row in rows:
        assert row.model_checks == row.updates + 2
        assert row.waits_after <= 2


def test_fig8g_paper_scale_waypoint(once):
    """Waypointing at paper scale: chained diamonds of 320 and 640 switches.
    The counts are exact: the search meets the same counterexamples and
    checks the same configurations on every run."""
    rows = once(experiments.fig8g_scaling, sizes=(320, 640), props=("waypoint",))
    print()
    print(
        format_table(
            "Fig 8(g) waypointing at paper scale (incremental backend)",
            ["switches", "updates", "model checks", "seconds", "waits kept"],
            [
                (r.switches, r.updates, r.model_checks, r.seconds, r.waits_after)
                for r in rows
            ],
        )
    )
    assert [row.model_checks for row in rows] == [2117, 9537]
    assert [row.waits_after for row in rows] == [35, 71]
