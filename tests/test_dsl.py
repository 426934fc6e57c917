import random

import pytest

from graphabac import (
    ConditionType,
    Decision,
    ModelLoadError,
    load_model,
    parse_model,
    serialize_model,
)
from graphabac.dsl import NameRef, NotExpr, OrExpr

from randdocs import MALFORMED_CORPUS, random_document

SUB = ConditionType.SUB_CON


def model_fingerprint(model):
    """Structural identity of a loaded model: names, labels, edges, policies."""
    g = model.graph
    nodes = frozenset(
        (n.name, n.labels, tuple(sorted(n.properties.items()))) for n in g.nodes()
    )
    edges = frozenset(
        (g.node(a).name, rel, g.node(b).name) for a, rel, b in g.edges()
    )
    policies = frozenset(
        (
            p.name,
            p.decision,
            p.score,
            tuple(
                frozenset(_expr_fp(g, e) for e in p.conditions[t])
                for t in ConditionType
            ),
        )
        for p in model.policies.policies()
    )
    return nodes, edges, policies


def _expr_fp(g, expr):
    from graphabac.policy import And, Not, Or, Ref

    if isinstance(expr, Ref):
        return ("ref", g.node(expr.node).name)
    if isinstance(expr, Not):
        return ("not", _expr_fp(g, expr.inner))
    kind = "and" if isinstance(expr, And) else "or"
    return (kind, frozenset(_expr_fp(g, c) for c in expr.children))


class TestParseModel:
    def test_healthcare_counts(self, healthcare_text):
        doc = parse_model(healthcare_text)
        assert not doc.errors
        assert len(doc.nodes) == 17
        assert len(doc.policies) == 3
        has_attr = [e for e in doc.edges if e.rel_type == "HAS_ATTR"]
        owner_of = [e for e in doc.edges if e.rel_type == "OWNER_OF"]
        assert len(has_attr) == 12
        assert len(owner_of) == 2

    def test_empty_input(self):
        doc = parse_model("")
        assert doc.nodes == [] and doc.edges == [] and doc.policies == []
        assert not doc.errors
        model = load_model("")
        assert model.graph.node_count() == 0

    def test_missing_condition_types_at_load(self):
        text = 'node Doctor : Attribute\npolicy P permit { subject: Doctor; }\n'
        doc = parse_model(text)
        assert not doc.errors
        with pytest.raises(ModelLoadError) as exc:
            load_model(text)
        (err,) = exc.value.errors
        assert (err.line, err.col, err.kind) == (2, 1, "policy")
        assert "ACT_CON" in err.message and "OBJ_CON" in err.message

    def test_syntax_error_has_position(self):
        doc = parse_model("node x :\nnode y : Label\n")
        assert doc.errors
        assert doc.errors[0].line == 2  # error surfaces at the unexpected token
        assert len(doc.nodes) == 1  # parser resynchronized

    def test_forward_references_allowed(self):
        text = (
            "edge a -[HAS_ATTR]-> b\n"
            "node a : Primitive\n"
            "node b : Attribute\n"
        )
        model = load_model(text)
        assert model.graph.edge_count("HAS_ATTR") == 1

    def test_compound_expressions(self):
        text = (
            "node s : Attribute\nnode t : Attribute\nnode u : Attribute\n"
            "policy P permit {\n"
            "    subject: (s or (t and u)); not t;\n"
            "    action: s;\n"
            "    object: u;\n"
            "}\n"
        )
        model = load_model(text)
        exprs = model.policies.get("P").conditions[SUB]
        assert len(exprs) == 2

    def test_mixed_and_or_rejected(self):
        doc = parse_model("policy P permit { subject: (a and b or c); }")
        assert any("mixed" in e.message for e in doc.errors)

    def test_attribute_cycle_reported(self):
        text = (
            "node a : Attribute\nnode b : Attribute\n"
            "edge a -[HAS_ATTR]-> b\nedge b -[HAS_ATTR]-> a\n"
        )
        with pytest.raises(ModelLoadError) as exc:
            load_model(text)
        assert any("cycle" in e.message for e in exc.value.errors)

    def test_duplicate_node_reported_with_position(self):
        text = "node a : X\nnode a : Y\n"
        with pytest.raises(ModelLoadError) as exc:
            load_model(text)
        (err,) = exc.value.errors
        assert err.line == 2 and err.kind == "graph"

    def test_dangling_policy_ref_reported(self):
        text = (
            "node a : Attribute\n"
            "policy P permit { subject: Ghost; action: a; object: a; }\n"
        )
        with pytest.raises(ModelLoadError) as exc:
            load_model(text)
        assert any("Ghost" in e.message for e in exc.value.errors)

    def test_quoted_names_and_escapes(self):
        text = 'node "He said \\"hi\\"" : Attribute\nnode "a\\\\b" : Attribute\n'
        model = load_model(text)
        assert model.graph.find_node('He said "hi"') is not None
        assert model.graph.find_node("a\\b") is not None

    def test_scores_and_properties(self):
        text = (
            'node a : Attribute {weight = 3, tag = "x", flag = true}\n'
            "policy P deny score 7 { subject: a; action: a; object: a; }\n"
        )
        model = load_model(text)
        node = model.graph.node(model.graph.find_node("a"))
        assert node.properties == {"weight": 3, "tag": "x", "flag": True}
        pol = model.policies.get("P")
        assert pol.decision is Decision.DENY and pol.score == 7


class TestMalformedInputs:
    @pytest.mark.parametrize("text", MALFORMED_CORPUS)
    def test_positioned_errors_no_crash(self, text):
        doc = parse_model(text)
        assert doc.errors, f"expected errors for {text!r}"
        for err in doc.errors:
            assert err.line >= 1 and err.col >= 1
            assert err.message


class TestSerializeModel:
    def test_empty_document(self):
        from graphabac.dsl import ModelDocument

        assert serialize_model(ModelDocument()) == ""

    def test_healthcare_round_trip(self, healthcare_text, healthcare):
        text = serialize_model(parse_model(healthcare_text))
        reloaded = load_model(text)
        assert model_fingerprint(reloaded) == model_fingerprint(healthcare)

    def test_canonical_quoting(self):
        # The same name spelled bare and quoted normalizes to one form.
        a = serialize_model(parse_model('node Doctor : Role\n'))
        b = serialize_model(parse_model('node "Doctor" : Role\n'))
        assert a == b == "node Doctor : Role\n"

    def test_serialize_is_idempotent_fixed_point(self, healthcare_text):
        once = serialize_model(parse_model(healthcare_text))
        twice = serialize_model(parse_model(once))
        assert once == twice

    def test_random_documents_round_trip(self):
        rng = random.Random(1234)
        for _ in range(100):
            doc = random_document(rng)
            text = serialize_model(doc)
            doc2 = parse_model(text)
            assert not doc2.errors, text
            assert serialize_model(doc2) == text
            from graphabac.dsl import load_document

            assert model_fingerprint(load_document(doc)) == model_fingerprint(
                load_document(doc2)
            )

    def test_expr_formatting(self):
        from graphabac.dsl import format_expr

        expr = OrExpr((NameRef("Manager"), NotExpr(NameRef("On Leave"))))
        assert format_expr(expr) == '(Manager or not "On Leave")'
