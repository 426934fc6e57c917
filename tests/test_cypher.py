import re

import pytest

from graphabac import CombiningAlgorithm, Graph, load_model
from graphabac.cypher import (
    emit_cypher_data,
    emit_cypher_decision_query,
    emit_cypher_policies,
    quote,
    quote_name,
)
from graphabac.errors import UnsupportedAlgorithmError, UnsupportedExportError
from graphabac.policy import ConditionType, Decision, PolicyStore, Ref

DENY = CombiningAlgorithm.DENY_OVERRIDES
PERMIT = CombiningAlgorithm.PERMIT_OVERRIDES
SHORTEST = CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES


# A label or relationship type as the script writes it: a plain name, or
# backtick-quoted with each embedded backtick doubled.
_NAME = r"(?:\w+|`(?:[^`]|``)*`)"


def _unquoted(name):
    return name[1:-1].replace("``", "`") if name.startswith("`") else name


def script_structure(script):
    """(labels, name) per create plus (src, rel, dst) per merge, order-free;
    labels and relationship types unquoted."""
    nodes = set()
    edges = set()
    for line in script.splitlines():
        m = re.match(rf"create \(((?::{_NAME})+) \{{name:'((?:[^']|'')*)'", line)
        if m:
            labels = "".join(":" + _unquoted(lab) for lab in re.findall(f":({_NAME})", m.group(1)))
            nodes.add((labels, m.group(2).replace("''", "'")))
            continue
        m = re.match(
            r"match \(a \{name:'((?:[^']|'')*)'\}\), \(b \{name:'((?:[^']|'')*)'\}\) "
            rf"merge \(a\)-\[:({_NAME})\]->\(b\);",
            line,
        )
        if m:
            edges.add(
                (
                    m.group(1).replace("''", "'"),
                    _unquoted(m.group(3)),
                    m.group(2).replace("''", "'"),
                )
            )
    return nodes, edges


def statements(script):
    """The statements of ``script``, split at each ``;`` outside a string
    literal, with each ``//`` comment dropped.  A comment is taken to end at
    any line boundary of ``str.splitlines()``, a superset of the ones a
    Cypher reader ends it at."""
    found, current, i = [], [], 0
    while i < len(script):
        c = script[i]
        if c == "'":
            # A string literal; a backslash escapes the character after it.
            end = i + 1
            while script[end] != "'":
                end += 2 if script[end] == "\\" else 1
            current.append(script[i : end + 1])
            i = end + 1
        elif script.startswith("//", i):
            i += len(script[i:].splitlines()[0])
        elif c == ";":
            found.append("".join(current).strip())
            current, i = [], i + 1
        else:
            current.append(c)
            i += 1
    assert not "".join(current).strip(), "text after the last statement"
    return found


class TestEmitData:
    def test_healthcare_contains_sample_nodes(self, healthcare):
        script = emit_cypher_data(healthcare.graph)
        assert "(:Subject:User:Primitive {name:'Peter'})" in script
        assert "(:Record:Object:Primitive {name:'MR_1234'})" in script
        assert "{name:'Peter''s Family Clinic'}" in script

    def test_healthcare_structure_complete(self, healthcare):
        nodes, edges = script_structure(emit_cypher_data(healthcare.graph))
        g = healthcare.graph
        expected_nodes = {
            (":" + ":".join(n.labels), n.name) for n in g.nodes()
        }
        expected_edges = {
            (g.node(a).name, rel, g.node(b).name) for a, rel, b in g.edges()
        }
        assert nodes == expected_nodes
        assert edges == expected_edges

    def test_empty_model(self):
        assert emit_cypher_data(Graph()) == ""

    def test_names_that_are_not_plain_are_backtick_quoted(self):
        # Written bare, each name here would end its statement and start a
        # second one that deletes nodes.
        g = Graph()
        label, key = "X}) detach delete n //", "k}) detach delete n //"
        rel = "T]->(b) detach delete b //"
        a = g.add_node("a", [label, "Plain", "back`tick"], {key: 1, "ok": 2})
        b = g.add_node("b", ["Y"])
        g.add_edge(a, rel, b)
        g.freeze()
        script = emit_cypher_data(g)
        assert script_structure(script) == (
            {(f":{label}:Plain:back`tick", "a"), (":Y", "b")},
            {("a", rel, "b")},
        )
        assert script.splitlines()[0] == (
            "create (:`X}) detach delete n //`:Plain:`back``tick` "
            "{name:'a', `k}) detach delete n //`:1, ok:2});"
        )
        assert script.splitlines()[-1] == (
            "match (a {name:'a'}), (b {name:'b'}) "
            "merge (a)-[:`T]->(b) detach delete b //`]->(b);"
        )

    @pytest.mark.parametrize(
        "name, quoted",
        [
            ("HAS_ATTR", "HAS_ATTR"),
            ("_x1", "_x1"),
            ("1x", "`1x`"),
            ("a b", "`a b`"),
            ("a:b", "`a:b`"),
            ("a`b", "`a``b`"),
            ("`", "````"),
            ("\u00e9", "`\u00e9`"),
            ("", "``"),
        ],
    )
    def test_quote_name(self, name, quoted):
        assert quote_name(name) == quoted

    def test_single_node(self):
        model = load_model("node a : Attribute\n")
        script = emit_cypher_data(model.graph)
        assert script == "create (:Attribute {name:'a'});\n"

    def test_backslash_in_name(self):
        # The name is C:\new; unescaped, Cypher would read \n as a newline.
        model = load_model('node "C:\\\\new" : Attribute\n')
        assert model.graph.node(0).name == "C:\\new"
        script = emit_cypher_data(model.graph)
        assert script == "create (:Attribute {name:'C:\\\\new'});\n"

    def test_deterministic(self, healthcare_text):
        a = emit_cypher_data(load_model(healthcare_text).graph)
        b = emit_cypher_data(load_model(healthcare_text).graph)
        assert a == b


class TestEmitPolicies:
    def test_healthcare_policy2(self, healthcare):
        script = emit_cypher_policies(healthcare.policies)
        assert "create (pol:Policy {name:'Policy2', decision:'Permit'})" in script
        assert script.count("merge (pol)<-[:SUB_CON]-") == 5  # 1 + 2 + 2
        assert script.count("merge (pol)<-[:ACT_CON]-") == 3
        assert script.count("merge (pol)<-[:OBJ_CON]-") == 3

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x85", "\u2028"])
    def test_line_break_in_name_stays_in_its_comment(self, brk):
        # Written bare, the name's line break would end the comment and the
        # rest of the name would run as a second statement.
        g = Graph()
        a = g.add_node("a", ["Attribute"])
        g.freeze()
        store = PolicyStore(g)
        slots = {t: [Ref(a)] for t in ConditionType}
        names = [f"P{brk}match (n) detach delete n; //", "Q", f"R{brk}"]
        for name in names:
            store.create_policy(name, Decision.PERMIT, slots)
        found = statements(emit_cypher_policies(store))
        assert len(found) == len(names)
        for name, statement in zip(names, found):
            assert statement.startswith("match (sub1 {name:'a'})")
            assert f"create (pol:Policy {{name:{quote(name)}, " in statement

    def test_compound_policy_rejected(self):
        model = load_model(
            "node a : Attribute\n"
            "policy P permit { subject: (a or a); action: a; object: a; }\n"
        )
        with pytest.raises(UnsupportedExportError):
            emit_cypher_policies(model.policies)


class TestExportFromModel:
    NODES = "node a : Attribute\nnode b : Attribute\nnode c : Attribute\n"

    def test_declaration_order_of_edges_and_refs_ignored(self):
        one = load_model(
            self.NODES
            + "edge a -[HAS_ATTR]-> b\nedge b -[HAS_ATTR]-> c\nedge a -[LINK]-> c\n"
            + "policy P permit score 2 { subject: a; b; action: c; object: c; }\n"
        )
        two = load_model(
            self.NODES
            + "edge a -[LINK]-> c\nedge b -[HAS_ATTR]-> c\nedge a -[HAS_ATTR]-> b\n"
            + "policy P permit score 2 { subject: b; a; action: c; object: c; }\n"
        )
        assert emit_cypher_data(one.graph) == emit_cypher_data(two.graph)
        assert emit_cypher_policies(one.policies) == emit_cypher_policies(two.policies)

    def test_repeated_label_exported_once(self):
        script = emit_cypher_data(load_model("node a : X, X\n").graph)
        assert script == "create (:X {name:'a'});\n"

    def test_repeated_ref_exported_once(self):
        model = load_model(
            "node a : Attribute\npolicy P permit { subject: a; a; action: a; object: a; }\n"
        )
        assert emit_cypher_policies(model.policies).count("merge (pol)<-[:SUB_CON]-") == 1


class TestDecisionQuery:
    def test_deny_overrides_clause_and_bound(self):
        script = emit_cypher_decision_query(DENY, 5)
        assert "[:HAS_ATTR*0..5]" in script
        assert (
            "return case when count(pol) = 0 or 'Deny' in collect(pol.decision) "
            "then 'Deny' else 'Permit' end as decision" in script
        )
        assert "SUBJECT_NAME" in script and "OBJECT_NAME" in script
        assert "ACTION_NAME" in script

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            emit_cypher_decision_query(DENY, -1)

    def test_permit_overrides_clause(self):
        script = emit_cypher_decision_query(PERMIT, 3)
        assert "[:HAS_ATTR*0..3]" in script
        assert (
            "return case when 'Permit' in collect(pol.decision) "
            "then 'Permit' else 'Deny' end as decision" in script
        )

    def test_shortest_path_statement(self):
        script = emit_cypher_decision_query(SHORTEST, 5)
        assert "order by plen asc limit 1" in script
        assert "length(path) + plen as plen" in script
        assert "unwind pols as pol" in script

    def test_three_count_gates(self):
        script = emit_cypher_decision_query(DENY, 5)
        assert script.count("where req_cons = sat_cons") == 3
        for rel in ("SUB_CON", "OBJ_CON", "ACT_CON"):
            assert f"-[:{rel}]->" in script
            assert f"(pol)<-[:{rel}]- (rc)" in script

    @pytest.mark.parametrize(
        "alg",
        [
            CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES,
            CombiningAlgorithm.FIRST_APPLICABLE,
        ],
    )
    def test_unsupported_algorithms(self, alg):
        with pytest.raises(UnsupportedAlgorithmError):
            emit_cypher_decision_query(alg, 5)

    def test_byte_stable(self):
        assert emit_cypher_decision_query(DENY, 5) == emit_cypher_decision_query(DENY, 5)

    def test_full_text_at_depth_five(self):
        plain = [
            "with $AQ as req",
            "// Stage 1 - Subject Conditions",
            "match (sub {name:req.SUBJECT_NAME})-[:HAS_ATTR*0..5]->(sc)-[:SUB_CON]->(pol:Policy)",
            "with req, pol, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:SUB_CON]- (rc)",
            "with req, pol, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
            "// Stage 2 - Object Conditions",
            "match (obj {name:req.OBJECT_NAME})-[:HAS_ATTR*0..5]->(sc)-[:OBJ_CON]->(pol)",
            "with req, pol, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:OBJ_CON]- (rc)",
            "with req, pol, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
            "// Stage 3 - Action Conditions",
            "match (act {name:req.ACTION_NAME})-[:HAS_ATTR*0..5]->(sc)-[:ACT_CON]->(pol)",
            "with req, pol, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:ACT_CON]- (rc)",
            "with req, pol, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
        ]
        deny = (
            "return case when count(pol) = 0 or 'Deny' in collect(pol.decision) "
            "then 'Deny' else 'Permit' end as decision"
        )
        permit = (
            "return case when 'Permit' in collect(pol.decision) "
            "then 'Permit' else 'Deny' end as decision"
        )
        shortest = [
            "with $AQ as req",
            "// Stage 1 - Subject Conditions",
            "match path=(sub {name:req.SUBJECT_NAME})-[:HAS_ATTR*0..5]->(sc)-[:SUB_CON]->(pol:Policy)",
            "with req, pol, length(path) as plen, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:SUB_CON]- (rc)",
            "with req, pol, plen, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
            "// Stage 2 - Object Conditions",
            "match path=(obj {name:req.OBJECT_NAME})-[:HAS_ATTR*0..5]->(sc)-[:OBJ_CON]->(pol)",
            "with req, pol, length(path) + plen as plen, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:OBJ_CON]- (rc)",
            "with req, pol, plen, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
            "// Stage 3 - Action Conditions",
            "match path=(act {name:req.ACTION_NAME})-[:HAS_ATTR*0..5]->(sc)-[:ACT_CON]->(pol)",
            "with req, pol, length(path) + plen as plen, size(collect(distinct sc)) as sat_cons",
            "match (pol)<-[:ACT_CON]- (rc)",
            "with req, pol, plen, sat_cons, size(collect(rc)) as req_cons where req_cons = sat_cons",
            "with plen, collect(pol) as pols order by plen asc limit 1",
            "unwind pols as pol",
            deny,
        ]
        assert emit_cypher_decision_query(DENY, 5) == "\n".join([*plain, deny]) + "\n"
        assert emit_cypher_decision_query(PERMIT, 5) == "\n".join([*plain, permit]) + "\n"
        assert emit_cypher_decision_query(SHORTEST, 5) == "\n".join(shortest) + "\n"


class TestQuote:
    def test_apostrophe_doubling(self):
        assert quote("Peter's Profile") == "'Peter''s Profile'"

    def test_backslash_doubling(self):
        assert quote("C:\\new") == "'C:\\\\new'"
        assert quote("\\'") == "'\\\\'''"

    def test_scalars(self):
        assert quote(3) == "3"
        assert quote(True) == "true"
