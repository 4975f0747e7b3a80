"""Plans must not depend on object addresses.

Kripke states hash by identity, so a set of states iterates in address
order, and addresses differ from run to run.  The search and the checkers
must produce the same plans and counters regardless.  Two interpreters with
one ``PYTHONHASHSEED`` synthesize the smoke and full quick corpora at both
granularities; one of them first fragments its heap with a few MB of
padding objects, which moves every later allocation.

The corpora forward unicast along single paths, so a counterexample rarely
has a choice of successor.  The probe also walks a two-class ring through
random multicast tables under the incremental checker and records each
step's dirty states, verdict and counterexample, where it has many.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = r"""
import json, sys

padding = [tuple(range(i % 11)) for i in range(int(sys.argv[1]))]
del padding[::3]

import random

from repro.errors import ForwardingLoopError, UpdateInfeasibleError
from repro.kripke.structure import KripkeStructure
from repro.ltl import specs
from repro.mc.incremental import IncrementalChecker
from repro.net.commands import Wait
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.scenarios.corpus import generate_corpus
from repro.synthesis import order_update, remove_waits
from repro.topo import ring_diamond


def counters(stats):
    return [
        stats.model_checks, stats.counterexamples, stats.pruned_visited,
        stats.pruned_wrong, stats.loops_rejected, stats.backtracks,
        stats.sat_terminated, stats.warm_hits,
    ]


out = {}
for suite in ("smoke", "full"):
    for record in generate_corpus(suite, quick=True):
        p = record.problem
        for granularity in ("switch", "rule"):
            key = f"{record.scenario_id}@{granularity}"
            try:
                plan = order_update(
                    p.topology, p.init, p.final, p.ingresses, p.spec,
                    granularity=granularity, timeout=60,
                )
            except UpdateInfeasibleError as err:
                out[key] = {"infeasible": err.reason, "stats": counters(err.stats)}
                continue
            slim = remove_waits(p.topology, p.init, plan, p.ingresses)
            out[key] = {
                "commands": [str(c) for c in plan.commands],
                "waits": [i for i, c in enumerate(slim.commands) if isinstance(c, Wait)],
                "stats": counters(plan.stats),
            }

rng = random.Random(7)
sc = ring_diamond(12, seed=7)
(forth,) = sc.ingresses
back = TrafficClass.make("back", src="Hdst", dst="Hsrc")
classes = [forth, back]
ks = KripkeStructure(sc.topology, sc.init, {forth: ["Hsrc"], back: ["Hdst"]})
spec = specs.all_of([specs.reachability(forth, "Hdst"), specs.reachability(back, "Hsrc")])
checker = IncrementalChecker(ks, spec)
walk = [[str(s) for s in checker.full_check().counterexample or ()]]
switches = sorted(sc.topology.switches)
for step in range(300):
    switch = rng.choice(switches)
    rules = []
    for priority in range(rng.randint(1, 3)):
        peers = rng.sample(sc.topology.neighbors(switch), rng.choice([1, 2, 2]))
        ports = tuple(Forward(sc.topology.port_to(switch, peer)) for peer in peers)
        rules.append(Rule(priority, Pattern(None, rng.choice(classes).fields), ports))
    try:
        dirty = ks.update_switch(switch, Table(rules))
    except ForwardingLoopError:
        walk.append("loop")
        continue
    result = checker.apply_update(dirty)
    walk.append([[str(s) for s in dirty], result.ok, [str(s) for s in result.counterexample or ()]])
print(json.dumps({"plans": out, "walk": walk}, sort_keys=True))
"""


def _plans(padding: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(padding)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(done.stdout)


def test_plans_do_not_depend_on_object_addresses():
    plain = _plans(0)
    padded = _plans(60_000)
    plans = plain["plans"]
    assert len(plans) > 200
    assert sum(entry["stats"][1] for entry in plans.values()) > 0  # counterexamples met
    assert any("infeasible" in entry for entry in plans.values())
    violations = [step for step in plain["walk"][1:] if step != "loop" and not step[1]]
    assert len(violations) > 20
    assert padded["plans"] == plans
    assert padded["walk"] == plain["walk"]
