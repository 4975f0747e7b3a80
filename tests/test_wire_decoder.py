"""The wire decoder: request and patch documents decode to the same objects
as the per-link, per-table reference decode, identical wire tables decode
once, and every malformed document is a parse error (HTTP 400)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import API_VERSION, SynthesisDelta, SynthesisRequest
from repro.errors import ParseError
from repro.ltl.parser import parse
from repro.net.config import Configuration
from repro.net.delta import ProblemPatch
from repro.net.fields import TrafficClass
from repro.net.rules import Table
from repro.net.serialize import (
    Problem,
    config_from_dict,
    problem_from_dict,
    problem_to_dict,
    rule_from_dict,
)
from repro.net.topology import Topology
from repro.scenarios.churn import generate_churn
from repro.scenarios.corpus import generate_corpus
from repro.service import ReproServer
from repro.service.fingerprint import problem_fingerprint
from repro.topo import mini_datacenter


def wire(document):
    """``document`` as a JSON client would send it."""
    return json.loads(json.dumps(document))


def reference_topology(data):
    """The topology as built before the one-pass decoder: one
    ``add_link`` per link, each re-sorting its two port lists."""
    topology = Topology()
    for switch in data["switches"]:
        topology.add_switch(switch)
    for host in data["hosts"]:
        topology.add_host(host)
    for node_a, node_b, *ports in data["links"]:
        topology.add_link(node_a, node_b, *ports)
    return topology


def reference_config(data):
    """The configuration as decoded before tables were shared."""
    return Configuration(
        {switch: Table(rule_from_dict(r) for r in rules) for switch, rules in data.items()}
    )


def internals(topology):
    """Every index of a topology, dicts in insertion order."""
    return {
        "switches": topology._switches,
        "hosts": topology._hosts,
        "links": list(topology._links),
        "next_port": list(topology._next_port.items()),
        "peer": list(topology._peer.items()),
        "ports": list(topology._ports.items()),
        "port_to": list(topology._port_to.items()),
    }


def assert_decodes_like_reference(problem):
    data = wire(problem_to_dict(problem))
    # every generator's ports are >= 1, or this raises
    parsed = problem_from_dict(data)
    assert internals(parsed.topology) == internals(reference_topology(data["topology"]))
    for side in ("init", "final"):
        decoded = getattr(parsed, side)
        assert decoded == reference_config(data[side]) == getattr(problem, side)
    return parsed


class TestDecoderDifferential:
    @pytest.mark.parametrize("quick", [True, False])
    @pytest.mark.parametrize("suite", ["smoke", "full", "zoo", "churn"])
    def test_every_corpus_suite(self, suite, quick):
        for record in generate_corpus(suite, quick=quick):
            assert_decodes_like_reference(record.problem)

    @pytest.mark.parametrize("quick", [True, False])
    def test_every_churn_delta_chain(self, quick):
        for trace in generate_churn(quick=quick):
            problem = trace.records[0].problem
            for patch in trace.patches:
                decoded = ProblemPatch.from_dict(wire(patch.to_dict()))
                resolved = decoded.apply_to(problem)
                problem = patch.apply_to(problem)
                assert internals(resolved.topology) == internals(problem.topology)
                assert resolved.init == problem.init and resolved.final == problem.final
                assert_decodes_like_reference(problem)

    def test_auto_assigned_ports_match_add_link(self):
        data = {
            "switches": ["S1", "S2", "S3"],
            "hosts": ["H1"],
            "links": [["S1", "S2", 4, None], ["S2", "S3"], ["S1", "S3", None, 2],
                      ["H1", "S1", None, 1]],
        }
        topology = problem_from_dict({"topology": data}).topology
        assert internals(topology) == internals(reference_topology(data))
        assert topology.ports("S1") == (1, 4, 5)


def match_table(value, **extra):
    return [dict({"priority": 1, "match": {"dst": value}, "actions": [{"fwd": 2}]}, **extra)]


class TestTableSharing:
    def test_identical_tables_decode_to_one_object_and_encode_once(self, monkeypatch):
        import repro.net.serialize as serialize

        same = match_table("H3")
        problem = problem_from_dict(
            wire(
                {
                    "topology": {"switches": ["S1", "S2", "S3"]},
                    "init": {"S1": same, "S2": same, "S3": match_table("H4")},
                    "final": {"S1": same, "S2": match_table("H4"), "S3": same},
                }
            )
        )
        tables = [problem.init.table(s) for s in ("S1", "S2", "S3")]
        tables += [problem.final.table(s) for s in ("S1", "S2", "S3")]
        assert len({id(t) for t in tables}) == 2
        assert problem.init.table("S1") is problem.final.table("S3")
        assert problem.init.table("S3") is problem.final.table("S2")

        encoded = []
        real = serialize.rule_to_dict
        monkeypatch.setattr(serialize, "rule_to_dict", lambda r: encoded.append(r) or real(r))
        problem_fingerprint(problem)
        assert len(encoded) == 2  # one rule in each of two distinct tables

    @pytest.mark.parametrize(
        "first, second",
        [
            (match_table(True), match_table(1)),
            (match_table(1.0), match_table(1)),
            (match_table("1"), match_table(1)),
            (match_table(-0.0), match_table(0.0)),
            (match_table("H3", in_port=None), match_table("H3")),
        ],
    )
    def test_tables_differing_in_json_type_stay_apart(self, first, second):
        data = wire({"S1": first, "S2": second})
        config = config_from_dict(data)
        assert config.table("S1") is not config.table("S2")
        assert config == reference_config(data)
        for switch in ("S1", "S2"):
            assert config.table(switch) == Table(rule_from_dict(r) for r in data[switch])


# ----------------------------------------------------------------------
# malformed documents
# ----------------------------------------------------------------------
TC = TrafficClass.make("h1_to_h3", src="H1", dst="H3")
SPEC = "dst=H3 => F at(H3)"


def fig1_problem():
    topo = mini_datacenter()
    red = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
    green = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
    return Problem(
        topology=topo,
        ingresses={TC: ["H1"]},
        init=Configuration.from_paths(topo, {TC: red}),
        final=Configuration.from_paths(topo, {TC: green}),
        spec=parse(SPEC),
        spec_text=SPEC,
    )


#: link entries added to fig1's topology (T1 port 1 faces A1; C1 and T1
#: are not linked), each with the messages of documents rejected before
#: the one-pass decoder: (request message, delta message)
BAD_LINKS = {
    "self-link": (
        ["T1", "T1"],
        ("request: bad problem: TopologyError(\"self-link on 'T1'\")",
         "patch does not apply to base: self-link on 'T1'"),
    ),
    "duplicate link": (
        ["A1", "T1"],
        ("request: bad problem: TopologyError(\"duplicate link 'A1' <-> 'T1'\")",
         "patch does not apply to base: duplicate link 'A1' <-> 'T1'"),
    ),
    "reused port": (
        ["T1", "C1", 1, 5],
        ("request: bad problem: TopologyError(\"port 1 on 'T1' already wired\")",
         "patch does not apply to base: port 1 on 'T1' already wired"),
    ),
    "unknown node": (
        ["T1", "X9"],
        ("request: bad problem: TopologyError(\"unknown node 'X9'\")",
         "patch does not apply to base: unknown node 'X9'"),
    ),
    "3-element entry": (
        ["T1", "C1", 5],
        ("bad link entry ['T1', 'C1', 5]",
         "patch 'links_add' entries must be [node_a, node_b] or "
         "[node_a, node_b, port_a, port_b], got ['T1', 'C1', 5]"),
    ),
    "bool port": (
        ["T1", "C1", True, 5],
        (None, "patch 'links_add' ports must be integers, got ['T1', 'C1', True, 5]"),
    ),
    "float port": (
        ["T1", "C1", 1.5, 5],
        (None, "patch 'links_add' ports must be integers, got ['T1', 'C1', 1.5, 5]"),
    ),
    "negative port": (["T1", "C1", -3, 5], (None, None)),
    "zero port": (["T1", "C1", 0, 5], (None, None)),
    "string port": (
        ["T1", "C1", "5", 5],
        (None, "patch 'links_add' ports must be integers, got ['T1', 'C1', '5', 5]"),
    ),
    "non-string node id": ([1, "T1"], (None, None)),
}

#: rule lists given to switch T1
BAD_TABLES = {
    "list-valued match": [{"priority": 1, "match": {"dst": ["H3"]}, "actions": []}],
    "object actions": [{"priority": 1, "match": {}, "actions": {"fwd": 1}}],
    "string actions": [{"priority": 1, "match": {}, "actions": "fwd"}],
}
#: rule fields that must be JSON integers, never coerced
for _name, _rule in {
    "float fwd": {"actions": [{"fwd": 2.7}]},
    "string fwd": {"actions": [{"fwd": "2"}]},
    "bool fwd": {"actions": [{"fwd": True}]},
    "zero fwd": {"actions": [{"fwd": 0}]},
    "null fwd": {"actions": [{"fwd": None}]},
    "bool priority": {"priority": True},
    "string priority": {"priority": "3"},
    "float priority": {"priority": 1.0},
    "bool in_port": {"in_port": True},
    "string in_port": {"in_port": "1"},
    "float in_port": {"in_port": 1.0},
    "zero in_port": {"in_port": 0},
}.items():
    BAD_TABLES[_name] = [dict({"priority": 1, "match": {}, "actions": []}, **_rule)]


def bad_requests():
    """(name, request document, message of a document rejected before)."""
    for name, (entry, (message, _)) in BAD_LINKS.items():
        data = wire(SynthesisRequest(problem=fig1_problem()).to_dict())
        data["problem"]["topology"]["links"].append(entry)
        yield name, data, message
    data = wire(SynthesisRequest(problem=fig1_problem()).to_dict())
    data["problem"]["topology"]["switches"].append(1)
    data["problem"]["topology"]["links"].append([1, "C1"])
    yield "switch named 1", data, None
    for name, rules in BAD_TABLES.items():
        data = wire(SynthesisRequest(problem=fig1_problem()).to_dict())
        data["problem"]["init"]["T1"] = rules
        yield name, data, None


def bad_patches():
    """(name, patch document, message of a patch rejected before)."""
    for name, (entry, (_, message)) in BAD_LINKS.items():
        yield name, {"links_add": [entry]}, message
    for name, rules in BAD_TABLES.items():
        yield name, {"final_tables": {"T1": rules}}, None


def check_message(err, message):
    if message is not None:
        assert str(err) == message


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "data, message",
        [pytest.param(data, message, id=name) for name, data, message in bad_requests()],
    )
    def test_request_is_a_parse_error(self, data, message):
        with pytest.raises(ParseError) as excinfo:
            SynthesisRequest.from_dict(data)
        check_message(excinfo.value, message)

    @pytest.mark.parametrize(
        "patch, message",
        [pytest.param(patch, message, id=name) for name, patch, message in bad_patches()],
    )
    def test_delta_is_a_parse_error(self, patch, message):
        with pytest.raises(ParseError) as excinfo:
            delta = SynthesisDelta.from_dict(wire({"base": "fp", "patch": patch}))
            delta.patch.apply_to(fig1_problem())
        check_message(excinfo.value, message)

    def test_server_answers_400(self):
        def post(document):
            request = urllib.request.Request(
                server.url + "/v1/jobs",
                data=json.dumps(document).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        with ReproServer(port=0, workers=0) as server:
            base = post(SynthesisRequest(problem=fig1_problem()).to_dict())
            fingerprint = base["jobs"][0]["fingerprint"]
            documents = [data for _, data, _ in bad_requests()]
            documents += [
                {"api": API_VERSION, "base": fingerprint, "patch": patch}
                for _, patch, _ in bad_patches()
            ]
            for document in documents:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(document)
                assert excinfo.value.code == 400, document
                envelope = json.loads(excinfo.value.read())
                assert envelope["error"]["code"] == "parse", document
