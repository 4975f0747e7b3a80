"""JSON (de)serialization: topologies, configurations, problems, plans.

Defines the on-disk *problem file* format consumed by the command-line tool
(:mod:`repro.cli`): a single JSON document carrying the topology, the
traffic classes with their ingress hosts, the initial and final
configurations, and the LTL specification (in the concrete syntax of
:mod:`repro.ltl.parser`).

Example problem file::

    {
      "topology": {
        "switches": ["T1", "A1"],
        "hosts": ["H1"],
        "links": [["H1", "T1"], ["T1", "A1"]]
      },
      "classes": [
        {"name": "f", "fields": {"src": "H1", "dst": "H3"}, "ingress": ["H1"]}
      ],
      "init":  {"T1": [{"priority": 100, "match": {"dst": "H3"}, "actions": [{"fwd": 2}]}]},
      "final": {"T1": [{"priority": 100, "match": {"dst": "H3"}, "actions": [{"fwd": 3}]}]},
      "spec": "dst=H3 => F at(H3)"
    }
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.ltl.parser import parse
from repro.ltl.syntax import Formula
from repro.net.commands import Command, RuleGranUpdate, SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Action, Forward, Pattern, Rule, SetField, Table
from repro.net.topology import NodeId, Port, Topology
from repro.synthesis.plan import UpdatePlan


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    return {
        "switches": sorted(topology.switches),
        "hosts": sorted(topology.hosts),
        "links": [
            [link.node_a, link.node_b, link.port_a, link.port_b]
            for link in topology.links
        ],
    }


def link_from_dict(
    entry: Any, *, where: str = "link"
) -> Tuple[NodeId, NodeId, Optional[Port], Optional[Port]]:
    """One wire link entry as ``(node_a, node_b, port_a, port_b)``.

    An entry is ``[node_a, node_b]`` or ``[node_a, node_b, port_a, port_b]``.
    Node ids are strings; a port is an integer >= 1, or ``null`` to take
    the node's next free port.  Anything else raises
    :class:`~repro.errors.ParseError`, whose message starts with ``where``.
    """
    if isinstance(entry, (list, tuple)) and len(entry) == 4:
        node_a, node_b, port_a, port_b = entry
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        (node_a, node_b), port_a, port_b = entry, None, None
    else:
        raise ParseError(f"bad {where} entry {entry!r}")
    if not (isinstance(node_a, str) and isinstance(node_b, str)):
        raise ParseError(f"{where} node ids must be strings, got {entry!r}")
    if not (_is_port(port_a) and _is_port(port_b)):
        if all(port is None or type(port) is int for port in (port_a, port_b)):
            raise ParseError(f"{where} ports must be >= 1, got {entry!r}")
        raise ParseError(f"{where} ports must be integers, got {entry!r}")
    return node_a, node_b, port_a, port_b


def _is_port(port: Any) -> bool:
    """A wire port: ``null``, or a JSON integer (not a boolean) >= 1."""
    return port is None or (type(port) is int and port >= 1)


def topology_from_dict(data: Mapping[str, Any]) -> Topology:
    topology = Topology()
    for switch in data.get("switches", []):
        if not isinstance(switch, str):
            raise ParseError(f"switch ids must be strings, got {switch!r}")
        topology.add_switch(switch)
    for host in data.get("hosts", []):
        if not isinstance(host, str):
            raise ParseError(f"host ids must be strings, got {host!r}")
        topology.add_host(host)
    topology.add_links(map(link_from_dict, data.get("links", [])))
    return topology


# ----------------------------------------------------------------------
# rules / configurations
# ----------------------------------------------------------------------
def _action_to_dict(action: Action) -> Dict[str, Any]:
    if isinstance(action, Forward):
        return {"fwd": action.port}
    if isinstance(action, SetField):
        return {"set": [action.field, action.value]}
    raise ParseError(f"unserializable action {action!r}")


def _action_from_dict(data: Mapping[str, Any]) -> Action:
    if "fwd" in data:
        port = data["fwd"]
        if port is None or not _is_port(port):
            raise ParseError(f"rule fwd port must be an integer >= 1, got {port!r}")
        return Forward(port)
    if "set" in data:
        field, value = data["set"]
        return SetField(str(field), str(value))
    raise ParseError(f"bad action entry {dict(data)!r}")


def rule_to_dict(rule: Rule) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "priority": rule.priority,
        "match": dict(rule.pattern.fields),
        "actions": [_action_to_dict(a) for a in rule.actions],
    }
    if rule.pattern.in_port is not None:
        out["in_port"] = rule.pattern.in_port
    return out


def _match_value(field: Any, value: Any) -> str:
    if isinstance(value, (list, tuple, dict)):
        raise ParseError(
            f"rule match value of {field!r} must not be a list or object, got {value!r}"
        )
    return str(value)


def rule_from_dict(data: Mapping[str, Any]) -> Rule:
    """Decode one wire rule.  ``priority`` must be a JSON integer, and
    ``in_port`` (optional) and each ``fwd`` port an integer >= 1; a
    boolean, float or string there raises :class:`~repro.errors.ParseError`
    rather than being coerced."""
    in_port = data.get("in_port")
    if not _is_port(in_port):
        raise ParseError(f"rule in_port must be an integer >= 1 or null, got {in_port!r}")
    priority = data.get("priority", 0)
    if type(priority) is not int:
        raise ParseError(f"rule priority must be an integer, got {priority!r}")
    pattern = Pattern(
        in_port,
        tuple(sorted((str(k), _match_value(k, v)) for k, v in data.get("match", {}).items())),
    )
    actions = data.get("actions", [])
    if not isinstance(actions, (list, tuple)):
        raise ParseError(f"rule actions must be a list, got {actions!r}")
    return Rule(priority, pattern, tuple(_action_from_dict(a) for a in actions))


def table_from_dict(
    rules: Sequence[Mapping[str, Any]], memo: Dict[bytes, Table]
) -> Table:
    """Decode one wire rule list, sharing the result with identical lists.

    ``memo`` maps each rule list decoded so far to its :class:`Table`, by
    the list's :mod:`marshal` encoding.  That key is exact: equal bytes
    mean the same values of the same types, so ``true``, ``1`` and
    ``1.0``, which compare equal in Python but decode to different match
    values, key apart.  A list marshal cannot encode decodes without the
    memo, and a malformed list raises as it would without it.  Identical
    lists thus decode and validate once, and every switch holding one
    shares its cached hash and
    :meth:`~repro.net.rules.Table.canonical_json`.

    Two switches with the same wire table get one :class:`Table`; a
    table whose match value is ``true`` instead of ``"H2"`` gets its own:

    >>> rules = '[{"priority": 1, "match": {"dst": "H2"}, "actions": [{"fwd": 2}]}]'
    >>> wire = json.loads('{"S1": %s, "S2": %s}' % (rules, rules))
    >>> memo = {}
    >>> config = config_from_dict(wire, memo)
    >>> config.table("S1") is config.table("S2")
    True
    >>> other = json.loads(rules.replace('"H2"', "true"))
    >>> table_from_dict(other, memo) is config.table("S1"), len(memo)
    (False, 2)
    """
    try:
        key = marshal.dumps(rules)
    except ValueError:  # not plain JSON data
        return Table(rule_from_dict(r) for r in rules)
    table = memo.get(key)
    if table is None:
        table = memo[key] = Table(rule_from_dict(r) for r in rules)
    return table


def config_to_dict(config: Configuration) -> Dict[str, List[Dict[str, Any]]]:
    return {
        switch: [rule_to_dict(r) for r in config.table(switch)]
        for switch in sorted(config.switches())
    }


def config_from_dict(
    data: Mapping[str, Sequence[Mapping[str, Any]]],
    memo: Optional[Dict[bytes, Table]] = None,
) -> Configuration:
    """Decode a configuration; ``memo`` (see :func:`table_from_dict`) lets
    the configurations of one problem share their identical tables."""
    if memo is None:
        memo = {}
    return Configuration(
        {switch: table_from_dict(rules, memo) for switch, rules in data.items()}
    )


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
@dataclass
class Problem:
    """A complete synthesis problem, as read from a problem file."""

    topology: Topology
    ingresses: Dict[TrafficClass, List[NodeId]]
    init: Configuration
    final: Configuration
    spec: Formula
    spec_text: str

    @property
    def classes(self) -> List[TrafficClass]:
        return list(self.ingresses)


def problem_to_dict(problem: Problem) -> Dict[str, Any]:
    return {
        "topology": topology_to_dict(problem.topology),
        "classes": [
            {
                "name": tc.name,
                "fields": tc.field_map(),
                "ingress": list(hosts),
            }
            for tc, hosts in problem.ingresses.items()
        ],
        "init": config_to_dict(problem.init),
        "final": config_to_dict(problem.final),
        "spec": problem.spec_text,
    }


def problem_from_dict(data: Mapping[str, Any]) -> Problem:
    topology = topology_from_dict(data["topology"])
    ingresses: Dict[TrafficClass, List[NodeId]] = {}
    for entry in data.get("classes", []):
        tc = TrafficClass(
            str(entry["name"]),
            tuple(sorted((str(k), str(v)) for k, v in entry.get("fields", {}).items())),
        )
        ingresses[tc] = [str(h) for h in entry.get("ingress", [])]
    spec_text = data.get("spec", "true")
    tables: Dict[bytes, Table] = {}  # init and final share their equal tables
    return Problem(
        topology=topology,
        ingresses=ingresses,
        init=config_from_dict(data.get("init", {}), tables),
        final=config_from_dict(data.get("final", {}), tables),
        spec=parse(spec_text),
        spec_text=spec_text,
    )


def load_problem(path: str) -> Problem:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: bad JSON: {err}") from err
    try:
        return problem_from_dict(data)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ParseError(f"{path}: bad problem document: {err!r}") from err


def save_problem(problem: Problem, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2)
        handle.write("\n")


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def command_to_dict(command: Command) -> Dict[str, Any]:
    if isinstance(command, SwitchUpdate):
        return {
            "op": "update",
            "switch": command.switch,
            "table": [rule_to_dict(r) for r in command.table],
        }
    if isinstance(command, RuleGranUpdate):
        return {
            "op": "update-class",
            "switch": command.switch,
            "class": command.tc.name,
            "table": [rule_to_dict(r) for r in command.table],
        }
    if isinstance(command, Wait):
        return {"op": "wait"}
    raise ParseError(f"unserializable command {command!r}")


def plan_to_dict(plan: UpdatePlan) -> Dict[str, Any]:
    return {
        "granularity": plan.granularity,
        "commands": [command_to_dict(c) for c in plan.commands],
        "stats": {
            "model_checks": plan.stats.model_checks,
            "counterexamples": plan.stats.counterexamples,
            "pruned_visited": plan.stats.pruned_visited,
            "pruned_wrong": plan.stats.pruned_wrong,
            "loops_rejected": plan.stats.loops_rejected,
            "backtracks": plan.stats.backtracks,
            "sat_terminated": plan.stats.sat_terminated,
            "waits_before_removal": plan.stats.waits_before_removal,
            "waits_after_removal": plan.stats.waits_after_removal,
            "wait_removal_seconds": plan.stats.wait_removal_seconds,
            "synthesis_seconds": plan.stats.synthesis_seconds,
            "warm_units": plan.stats.warm_units,
            "warm_hits": plan.stats.warm_hits,
            "labeling_seconds": plan.stats.labeling_seconds,
            "sat_seconds": plan.stats.sat_seconds,
        },
    }


def unit_order_to_wire(order: Sequence[Any]) -> List[Any]:
    """A search-unit order as a JSON-safe list.

    Switch-granularity units (plain node ids) pass through as strings;
    rule-granularity units (``(switch, class_name)`` tuples) become
    two-element lists.  Inverse: :func:`unit_order_from_wire`.
    """
    wire: List[Any] = []
    for unit in order:
        if isinstance(unit, tuple):
            wire.append([str(unit[0]), str(unit[1])])
        else:
            wire.append(str(unit))
    return wire


def unit_order_from_wire(data: Sequence[Any]) -> List[Any]:
    """Inverse of :func:`unit_order_to_wire` (lists back to unit tuples)."""
    order: List[Any] = []
    for entry in data:
        if isinstance(entry, str):
            order.append(entry)
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            order.append((str(entry[0]), str(entry[1])))
        else:
            raise ParseError(f"bad warm-order unit {entry!r}")
    return order


def command_from_dict(
    data: Mapping[str, Any],
    classes: Optional[Mapping[str, TrafficClass]] = None,
) -> Command:
    """Inverse of :func:`command_to_dict`.

    ``classes`` maps traffic-class names to :class:`TrafficClass` objects for
    rehydrating rule-granularity commands; unknown names fall back to a
    field-less class of the same name.
    """
    op = data.get("op")
    if op == "wait":
        return Wait()
    if op in ("update", "update-class"):
        table = Table(rule_from_dict(r) for r in data.get("table", []))
        switch = str(data["switch"])
        if op == "update":
            return SwitchUpdate(switch, table)
        name = str(data["class"])
        tc = (classes or {}).get(name, TrafficClass(name))
        return RuleGranUpdate(switch, tc, table)
    raise ParseError(f"bad command entry {dict(data)!r}")


def plan_from_dict(
    data: Mapping[str, Any],
    classes: Optional[Mapping[str, TrafficClass]] = None,
) -> UpdatePlan:
    """Inverse of :func:`plan_to_dict` (used by the service plan cache)."""
    plan = UpdatePlan(
        [command_from_dict(c, classes) for c in data.get("commands", [])],
        granularity=str(data.get("granularity", "switch")),
    )
    stats = data.get("stats", {})
    plan.stats.model_checks = int(stats.get("model_checks", 0))
    plan.stats.counterexamples = int(stats.get("counterexamples", 0))
    plan.stats.pruned_visited = int(stats.get("pruned_visited", 0))
    plan.stats.pruned_wrong = int(stats.get("pruned_wrong", 0))
    plan.stats.loops_rejected = int(stats.get("loops_rejected", 0))
    plan.stats.backtracks = int(stats.get("backtracks", 0))
    plan.stats.sat_terminated = bool(stats.get("sat_terminated", False))
    plan.stats.waits_before_removal = int(stats.get("waits_before_removal", 0))
    plan.stats.waits_after_removal = int(stats.get("waits_after_removal", 0))
    plan.stats.wait_removal_seconds = float(stats.get("wait_removal_seconds", 0.0))
    plan.stats.synthesis_seconds = float(stats.get("synthesis_seconds", 0.0))
    plan.stats.warm_units = int(stats.get("warm_units", 0))
    plan.stats.warm_hits = int(stats.get("warm_hits", 0))
    plan.stats.labeling_seconds = float(stats.get("labeling_seconds", 0.0))
    plan.stats.sat_seconds = float(stats.get("sat_seconds", 0.0))
    return plan
