import copy
import gc
import pickle
import random
from bisect import bisect_right
import tracemalloc
import weakref
from unittest import mock

import pytest

from graphabac import (
    AccessQuery,
    CombiningAlgorithm,
    ConditionType,
    Decision,
    ModelLoadError,
    evaluate,
    load_model,
    parse_model,
    serialize_model,
)
from graphabac import dsl
from graphabac.dsl import (
    MAX_NESTING,
    EdgeDecl,
    ModelDocument,
    ModelError,
    NameRef,
    NodeDecl,
    PolicyDecl,
    _locator,
    load_document,
)
from graphabac.policy import And, Not, Or, Ref

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

    def test_parser_freed_without_cycle_collection(self, healthcare_text):
        # A reference cycle through the token stream would keep the scan
        # state alive after parsing, until the next cyclic collection.
        from graphabac.dsl import _DocumentSink, _Parser

        gc.disable()
        try:
            parser = _Parser(healthcare_text, _DocumentSink(healthcare_text))
            assert not parser.parse()
            alive = weakref.ref(parser)
            del parser
            assert alive() is None
        finally:
            gc.enable()

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


# Texts that start with a plain statement form but must not be read as one
# (see the dsl module docstring), with the errors the token parser reports.
PLAIN_FORM_PITFALLS = [
    pytest.param(
        "node a : L\npolicypol10 permit { subject: a; action: a; object: a; }\n",
        [(2, 1, "expected 'node', 'edge' or 'policy', found 'policypol10'")],
        id="keyword-ends-at-word-boundary",
    ),
    pytest.param(
        "node a : Lnode\n"
        "policy P denyscore 5 { subject: a; action: a; object: a; }\n"
        "policy Q permit score5 { subject: a; action: a; object: a; }\n"
        "edge a -[T]-> bedge\n",
        [
            (2, 10, "expected 'permit' or 'deny', found 'denyscore'"),
            (3, 17, "expected '{', found 'score5'"),
        ],
        id="words-end-where-the-lexer-ends-them",
    ),
    pytest.param(
        "node #cp12 : L\nnode b : M #node\n: c\n",
        [
            (2, 1, "expected a name, found 'node'"),
            (3, 1, "expected 'node', 'edge' or 'policy', found ':'"),
        ],
        id="comment-runs-to-newline",
    ),
    pytest.param(
        "node John : SubjectATTR]-, User, Primitive\n",
        [(1, 24, "unexpected character ']'"), (1, 25, "unexpected character '-'")],
        id="lexer-error-after-plain-prefix",
    ),
    pytest.param(
        "node aé : L\nedge a -[T]-> bé\npolicy P permit { subject: aé; action: a; object: a; }\n",
        [
            (1, 7, "unexpected character 'é'"),
            (2, 16, "unexpected character 'é'"),
            (3, 29, "unexpected character 'é'"),
        ],
        id="non-ascii-letter-ends-a-word",
    ),
    pytest.param(
        'node a : L\n"a\\qb" node b : M\n',
        [
            (2, 1, "invalid escape sequence \\q"),
            (2, 1, "expected 'node', 'edge' or 'policy', found 'ab'"),
        ],
        id="escape-error-in-lookahead-once",
    ),
    pytest.param(
        "node score : M\nnode a : not\nedge b -[node]-> node\nnode c : L\n"
        "policy subject permit { subject: a; action: b; object: c; }\n"
        "policy P permit { subject: a; true; }\npolicy Q permit { subject: a; subject; }\n",
        [
            (1, 6, "expected a name, found 'score'"),
            (2, 10, "expected a label, found 'not'"),
            (3, 18, "expected a name, found 'node'"),
            (4, 1, "expected a name, found 'node'"),
            (5, 8, "expected a name, found 'subject'"),
            (6, 31, "expected 'subject' or 'action' or 'object', found 'true'"),
            (7, 38, "expected ':', found ';'"),
        ],
        id="keyword-as-name",
    ),
]


class TestErrorPositions:
    # (line, col, message) of every error, in order.  Lines end at "\n"
    # only; "\r" and tab are one column each.
    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(
                "node a : X\nnode b : Y\n\t$ node c : Z\n",
                [(3, 2, "unexpected character '$'")],
                id="after-tab",
            ),
            pytest.param(
                'node "abc : X\nnode b : Y\n',
                [
                    (1, 6, "unterminated string literal"),
                    (2, 1, "expected a name, found 'node'"),
                ],
                id="unterminated-string",
            ),
            pytest.param(
                'node a : X {k = "x\\qy"}\n',
                [(1, 17, "invalid escape sequence \\q")],
                id="invalid-escape",
            ),
            pytest.param(
                "node a : X\r\nnode b : @\r\nnode c :\r\n",
                [
                    (2, 10, "unexpected character '@'"),
                    (3, 1, "expected a label, found 'node'"),
                    (4, 1, "expected a label, found 'end of input'"),
                ],
                id="crlf",
            ),
            pytest.param(
                "node a : X\nnode b :",
                [(2, 9, "expected a label, found 'end of input'")],
                id="end-of-input",
            ),
            pytest.param(
                'node a : "l\\x"\n',
                [
                    (1, 10, "invalid escape sequence \\x"),
                    (1, 10, "expected a label, found 'l'"),
                ],
                id="lexer-error-first",
            ),
            *PLAIN_FORM_PITFALLS,
        ],
    )
    def test_exact_positions(self, text, expected):
        errors = parse_model(text).errors
        assert [(e.line, e.col, e.message) for e in errors] == expected


def _nested_model(depth: int, opener: str) -> str:
    """A model whose policy P nests its subject ``depth`` levels deep, with
    `not` or `(`, followed by a policy Q that parses."""
    if opener == "not":
        subject = "not " * depth + "a"
    else:
        subject = "(" * depth + "a" + " and a)" * depth
    return (
        "node a : Attribute\n"
        f"policy P permit {{ subject: {subject}; action: a; object: a; }}\n"
        "policy Q deny { subject: a; action: a; object: a; }\n"
    )


class TestNestingLimit:
    @pytest.mark.parametrize("opener", ["not", "("])
    def test_deep_nesting_is_one_error_at_the_policy(self, opener):
        doc = parse_model(_nested_model(5000, opener))
        assert [(e.line, e.col, e.message) for e in doc.errors] == [
            (2, 1, f"policy 'P' nests conditions deeper than {MAX_NESTING} levels")
        ]
        assert [p.name for p in doc.policies] == ["Q"]  # resynchronized

    @pytest.mark.parametrize("opener", ["not", "("])
    def test_nesting_at_the_limit_loads_and_matches(self, opener):
        assert parse_model(_nested_model(MAX_NESTING + 1, opener)).errors
        model = load_model(_nested_model(MAX_NESTING, opener))
        a = model.graph.find_node("a")
        decision = evaluate(
            model.policies, AccessQuery(a, a, a), CombiningAlgorithm.PERMIT_OVERRIDES
        ).decision
        # An even number of `not`s, or a conjunction of a, holds at a itself.
        assert decision is Decision.PERMIT


def _not_chain(depth):
    expr = NameRef("a")
    for _ in range(depth):
        expr = Not(expr)
    return expr


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

        expr = Or((NameRef("Manager"), Not(NameRef("On Leave"))))
        assert format_expr(expr) == '(Manager or not "On Leave")'

    @pytest.mark.parametrize(
        "decl, message",
        [
            pytest.param(
                NodeDecl("a\nb", ("L",), {}),
                "node 'a\\nb': name 'a\\nb' holds a newline",
                id="name-newline",
            ),
            pytest.param(
                NodeDecl("n", ("L",), {"k": "x\ny"}),
                "node 'n': string 'x\\ny' holds a newline",
                id="string-newline",
            ),
            pytest.param(
                NodeDecl("n", ("L",), {"k": 1.5}),
                "node 'n': property value 1.5 is not a bool, int or str",
                id="float",
            ),
            pytest.param(NodeDecl("n", (), {}), "node 'n': it has no label", id="no-label"),
            pytest.param(
                NodeDecl("n", ("L", "node"), {}),
                "node 'n': label 'node' is a keyword",
                id="keyword-label",
            ),
            pytest.param(
                NodeDecl("n", ("Senior Staff",), {}),
                "node 'n': label 'Senior Staff' is not an identifier",
                id="label-not-identifier",
            ),
            pytest.param(
                EdgeDecl("a", "HAS-ATTR", "b"),
                "edge 'a' -['HAS-ATTR']-> 'b': relationship type 'HAS-ATTR' is not an identifier",
                id="rel-type-not-identifier",
            ),
            pytest.param(
                NodeDecl("n", ("L",), {"k 2": 1}),
                "node 'n': property key 'k 2' is not an identifier",
                id="key-not-identifier",
            ),
            pytest.param(
                EdgeDecl("a", "R", "b\nc"),
                "edge 'a' -['R']-> 'b\\nc': name 'b\\nc' holds a newline",
                id="edge-end-newline",
            ),
            pytest.param(
                PolicyDecl(
                    "p", Decision.PERMIT, None, {SUB: [Or((NameRef("a"), NameRef("b\nc")))]}
                ),
                "policy 'p': name 'b\\nc' holds a newline",
                id="condition-newline",
            ),
            pytest.param(
                PolicyDecl("p", Decision.PERMIT, None, {SUB: []}),
                "policy 'p': it has no condition",
                id="no-condition",
            ),
            pytest.param(
                PolicyDecl("p", Decision.PERMIT, True, {SUB: [NameRef("a")]}),
                "policy 'p': score True is not an int",
                id="bool-score",
            ),
            pytest.param(
                PolicyDecl("p", Decision.PERMIT, 1.5, {SUB: [NameRef("a")]}),
                "policy 'p': score 1.5 is not an int",
                id="float-score",
            ),
            pytest.param(
                PolicyDecl("p", Decision.PERMIT, None, {SUB: [_not_chain(MAX_NESTING + 1)]}),
                f"policy 'p': a condition nests deeper than {MAX_NESTING} levels",
                id="nested-one-too-deep",
            ),
            pytest.param(
                PolicyDecl("p", Decision.PERMIT, None, {SUB: [_not_chain(5000)]}),
                f"policy 'p': a condition nests deeper than {MAX_NESTING} levels",
                id="nested-5000-deep",
            ),
        ],
    )
    def test_unparseable_declaration_raises(self, decl, message):
        kind = {NodeDecl: "nodes", EdgeDecl: "edges", PolicyDecl: "policies"}[type(decl)]
        doc = ModelDocument(**{kind: [decl]})
        with pytest.raises(ValueError) as exc:
            serialize_model(doc)
        assert str(exc.value) == "cannot serialize " + message

    def test_nesting_at_the_limit_round_trips(self):
        doc = ModelDocument(
            nodes=[NodeDecl("a", ("L",), {})],
            policies=[PolicyDecl("p", Decision.PERMIT, None, {SUB: [_not_chain(MAX_NESTING)]})],
        )
        text = serialize_model(doc)
        reparsed = parse_model(text)
        assert not reparsed.errors and serialize_model(reparsed) == text

    def test_depth_check_takes_a_shared_part_once(self):
        # 2 ** 101 paths, but 102 distinct parts: the check is linear in them.
        expr = NameRef("a")
        for _ in range(MAX_NESTING + 1):
            expr = And((expr, expr))
        doc = ModelDocument(policies=[PolicyDecl("p", Decision.PERMIT, None, {SUB: [expr]})])
        with pytest.raises(ValueError, match="nests deeper than"):
            serialize_model(doc)

    def test_keywords_where_the_parser_takes_them(self):
        # A property key and a relationship type may be keywords.
        doc = ModelDocument(
            nodes=[NodeDecl("a", ("L",), {"true": 1}), NodeDecl("b", ("L",), {})],
            edges=[EdgeDecl("a", "node", "b")],
        )
        text = serialize_model(doc)
        assert text == "node a : L {true = 1}\nnode b : L\n\nedge a -[node]-> b\n"
        reparsed = parse_model(text)
        assert not reparsed.errors and serialize_model(reparsed) == text


# -- one-pass load ------------------------------------------------------


def _load_outcome(load, text):
    """Everything a load decides: the exact error list, or the nodes, each
    node's HAS_ATTR children in order, and the policies with their seqs."""
    try:
        model = load(text)
    except ModelLoadError as exc:
        return [(e.line, e.col, e.message, e.kind) for e in exc.errors]
    g = model.graph
    return (
        [(n.ref, n.name, n.labels, n.properties) for n in g.nodes()],
        list(g._children),
        sorted(g.edges()),
        [
            (p.name, p.seq, p.decision, p.score, [p.conditions[t] for t in ConditionType])
            for p in model.policies.policies()
        ],
    )


def _document_load(text):
    return load_document(parse_model(text))


def _assert_one_pass_agrees(text):
    expected = _load_outcome(_document_load, text)
    assert _load_outcome(load_model, text) == expected, text
    return expected


def _statements(text):
    """The text's declarations, one string each, comments dropped."""
    stmts = []
    for line in text.splitlines():
        if line.startswith(("node", "edge", "policy")):
            stmts.append(line)
        elif stmts and line.strip() and not line.startswith("#"):
            stmts[-1] += "\n" + line
    return stmts


def _mutated(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.3:
            lines[i], lines[j] = lines[j], lines[i]
        elif roll < 0.5:
            lines.insert(i, lines[j])
        elif roll < 0.7 and len(lines) > 1:
            del lines[i]
        else:
            words = lines[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(
                ["Ghost", "Doctor", "Write", '"Full Access"', "Policy1", "{", ";"]
            )
            lines[i] = " ".join(words)
    return "\n".join(lines)


class TestOnePassLoad:
    """``load_model`` builds while it parses; it must decide exactly what
    ``load_document(parse_model(text))`` decides."""

    def test_random_documents_in_any_order(self):
        rng = random.Random(2024)
        loaded = 0
        for _ in range(60):
            stmts = _statements(serialize_model(random_document(rng)))
            kinds = {k: [s for s in stmts if s.startswith(k)] for k in ("node", "edge", "policy")}
            orders = [
                stmts,
                kinds["policy"] + kinds["edge"] + kinds["node"],
                rng.sample(stmts, len(stmts)),
            ]
            for order in orders:
                outcome = _assert_one_pass_agrees("\n".join(order) + "\n")
                loaded += isinstance(outcome, tuple)
        assert loaded > 100

    def test_mutated_healthcare_models(self, healthcare_text):
        rng = random.Random(77)
        failed = 0
        for _ in range(300):
            text = _mutated(rng, healthcare_text)
            if rng.random() < 0.3:
                stmts = _statements(text)
                text = "\n".join(rng.sample(stmts, len(stmts))) + "\n"
            failed += isinstance(_assert_one_pass_agrees(text), list)
        assert 50 < failed < 250

    def test_edge_before_both_nodes(self):
        # n0's children 9 and 1 share a slot in a small set, so the child
        # tuple's order shows which edge went in first.
        text = (
            "edge n0 -[HAS_ATTR]-> n9\n"
            + "".join(f"node n{i} : Attribute\n" for i in range(10))
            + "edge n0 -[HAS_ATTR]-> n1\n"
        )
        nodes, children, _, _ = _assert_one_pass_agrees(text)
        assert [name for _, name, _, _ in nodes] == [f"n{i}" for i in range(10)]
        assert sorted(children[0]) == [1, 9]

    def test_policy_before_its_nodes(self):
        text = (
            "node a : Attribute\n"
            "policy Early permit { subject: late; action: a; object: a; }\n"
            "policy Known deny { subject: a; action: a; object: a; }\n"
            "node late : Attribute\n"
        )
        _, _, _, policies = _assert_one_pass_agrees(text)
        assert [(name, seq) for name, seq, *_ in policies] == [("Early", 0), ("Known", 1)]

    def test_duplicate_policy_name_after_a_waiting_copy(self):
        text = (
            "node a : Attribute\n"
            "policy P permit { subject: late; action: a; object: a; }\n"
            "policy P deny { subject: a; action: a; object: a; }\n"
            "node late : Attribute\n"
        )
        assert _assert_one_pass_agrees(text) == [
            (3, 1, "policy 'P' already exists", "policy")
        ]

    def test_error_order_by_kind(self):
        # Errors arrive edge, node, policy in the text; they are reported by
        # kind, and policy errors not at all while the graph has some.
        text = (
            "node a : Attribute\n"
            "edge a -[HAS_ATTR]-> a\n"
            "policy P permit { subject: ghost; action: a; object: a; }\n"
            "node a : Attribute\n"
            "edge a -[HAS_ATTR]-> nowhere\n"
        )
        assert _assert_one_pass_agrees(text) == [
            (4, 1, "node 'a' already exists", "graph"),
            (2, 1, "HAS_ATTR self-loop on 'a'", "graph"),
            (5, 1, "unknown node 'nowhere'", "graph"),
        ]

    def test_syntax_errors_come_alone(self):
        text = "node a : Attribute\nnode a : Attribute\nnode b :\n"
        assert _assert_one_pass_agrees(text) == [
            (4, 1, "expected a label, found 'end of input'", "syntax")
        ]


def _generated_model_text(rng, n_nodes, n_edges, n_policies):
    names = [f"n{i}" for i in range(n_nodes)]
    lines = [f"node {n} : Attribute" for n in names]
    for _ in range(n_edges):
        i, j = sorted(rng.sample(range(n_nodes), 2))
        lines.append(f"edge {names[i]} -[HAS_ATTR]-> {names[j]}")
    for p in range(n_policies):
        slots = " ".join(
            f"{t.value}: " + "; ".join(rng.sample(names, rng.randint(1, 3))) + ";"
            for t in ConditionType
        )
        lines.append(f"policy P{p} permit {{ {slots} }}")
    return "\n".join(lines) + "\n"


def _traced_peak(fn, arg):
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(arg)  # noqa: F841 - held while the peak is read
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- plain statements, one match each ------------------------------------


def _parse_and_load(text):
    return parse_model(text), _load_outcome(load_model, text)


def _token_parser_only(text):
    # With no plain forms, every statement goes through the token parser.
    with mock.patch.dict(dsl._PLAIN_FORMS, clear=True):
        return _parse_and_load(text)


def _counting_plain_forms(taken):
    """The plain forms, each counting in ``taken`` the statements it reads."""

    def counted(match, declare):
        def declare_and_count(m, where):
            taken[0] += 1
            return declare(m, where)

        return match, declare_and_count

    return {word: counted(*form) for word, form in dsl._PLAIN_FORMS.items()}


def _bench_layout_text(rng):
    """A small model laid out as the benchmark's generator writes one: one
    label a node, and policies with a score and one slot a line, some of
    them compound."""
    names = [f"p{i}" for i in range(4)] + [f"a{i}_{i * 7}" for i in range(6)]
    lines = [f"node {n} : {'Primitive' if n[0] == 'p' else 'Attribute'}" for n in names]
    for _ in range(12):
        i, j = sorted(rng.sample(range(len(names)), 2))
        lines.append(f"edge {names[i]} -[HAS_ATTR]-> {names[j]}")
    for p in range(3):
        lines.append(f"policy pol{p} {rng.choice(('permit', 'deny'))} score {p} {{")
        for slot in ("subject", "action", "object"):
            exprs = rng.sample(names, rng.randint(1, 3))
            if rng.random() < 0.1:
                exprs[-1] = f"({exprs[-1]} or {rng.choice(names)})"
            lines.append(f"    {slot}: " + "; ".join(exprs) + ";")
        lines.append("}")
    return "\n".join(lines) + "\n"


# Spliced into texts by _spliced: statement and other keywords, a word that
# starts with one, comments, quotes and escapes, punctuation, whitespace the
# lexer skips and some it rejects, and nothing (a deletion).
_FRAGMENTS = [
    "node", "edge", "policy", "policypol10", "not", "and", "or", "score 3", "score",
    "permit", "deny", "subject:", "true", "#", "# c\n", '"', '"a\\qb"', '""', "\\",
    ",", ":", ";", "{", "}", "(", ")", "-", "-[", "]->", "]-", "=", "\n", "\r\n",
    "\t", " ", "\x0c", "é", "7", "_x", "Doctor", "",
]


def _spliced(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.choice((0, 0, 1, 2, 5)))
        text = text[:i] + rng.choice(_FRAGMENTS) + text[j:]
    return text


def test_plain_forms_agree_with_the_token_parser(healthcare_text):
    # The same documents, positions, errors and loads as the token parser
    # alone, on the pitfalls and on mutated healthcare and generated models.
    rng = random.Random(23)
    texts = [param.values[0] for param in PLAIN_FORM_PITFALLS]
    for k in range(2000):
        text = healthcare_text if k % 2 else _bench_layout_text(rng)
        if rng.random() < 0.5:
            text = _mutated(rng, text)
        texts.append(_spliced(rng, text) if rng.random() < 0.7 else text)
    taken, statements, failed = [0], 0, 0
    for text in texts:
        with mock.patch.dict(dsl._PLAIN_FORMS, _counting_plain_forms(taken)):
            doc, outcome = _parse_and_load(text)
        assert (doc, outcome) == _token_parser_only(text), text
        statements += len(doc.nodes) + len(doc.edges) + len(doc.policies)
        failed += isinstance(outcome, list)
    # Each text is read twice, by parse_model and by load_model: over half
    # of the statements were plain, and both paths saw texts that load and
    # texts that do not.
    assert taken[0] > statements
    assert 200 < failed < len(texts) - 200


def test_plain_forms_share_of_the_healthcare_model(healthcare_text):
    # Its 14 edges, 3 policies and 2 one-label nodes are plain; its other
    # 15 nodes have more labels.
    taken = [0]
    with mock.patch.dict(dsl._PLAIN_FORMS, _counting_plain_forms(taken)):
        doc = parse_model(healthcare_text)
    assert doc == _token_parser_only(healthcare_text)[0]
    assert taken[0] == 19


def _raises(*args, **kwargs):
    raise AssertionError("called on a clean load")


def _clean_load_texts(healthcare_text):
    return [healthcare_text, _generated_model_text(random.Random(5), 400, 1200, 400)]


def test_clean_load_makes_no_declaration_records(healthcare_text):
    # Every name is declared before use, so no record and no NameRef is made.
    records = {name: _raises for name in ("NodeDecl", "EdgeDecl", "PolicyDecl", "NameRef")}
    for text in _clean_load_texts(healthcare_text):
        expected = _load_outcome(load_model, text)
        with mock.patch.multiple(dsl, **records):
            assert _load_outcome(load_model, text) == expected


def test_clean_load_computes_no_position(healthcare_text):
    for text in _clean_load_texts(healthcare_text):
        expected = _load_outcome(load_model, text)
        with mock.patch.object(dsl, "_locator", lambda text: _raises):
            assert _load_outcome(load_model, text) == expected


def test_load_peak_below_parse_peak():
    # No parsed document is kept while loading, so the whole load peaks
    # lower than parsing into a document alone.
    text = _generated_model_text(random.Random(5), 400, 1200, 400)
    assert _traced_peak(load_model, text) < _traced_peak(parse_model, text)


# Empty lines (leading, inner and last), "\r\n", tabs, and no final newline.
_POSITION_TEXT = "\nnode a : X\r\n\n\tnode b\t: Y\r\n\r\n  \n# c\n\n\nnode c : Z {k = 1}"


def _bisect_position(text, offset):
    starts = [0, *(i + 1 for i, ch in enumerate(text) if ch == "\n")]
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


@pytest.mark.parametrize("order", ["increasing", "decreasing", "random"])
def test_position_parity_with_bisect(order):
    text = _POSITION_TEXT
    offsets = list(range(len(text) + 1))
    if order == "decreasing":
        offsets.reverse()
    elif order == "random":
        rng = random.Random(17)
        offsets = rng.sample(offsets, len(offsets)) + rng.choices(offsets, k=200)
    where = _locator(text)
    assert [where(o) for o in offsets] == [_bisect_position(text, o) for o in offsets]


def test_syntax_tree_and_load_records_have_no_instance_dict(healthcare_text):
    doc = parse_model(healthcare_text)
    records = [doc, doc.nodes[0], doc.edges[0], doc.policies[0], load_model(healthcare_text)]
    records += [ModelError(1, 1, "m"), NameRef("a"), Not(NameRef("a"))]
    records.append(Or((NameRef("a"), NameRef("b"))))
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_records_survive_copy_and_pickle(healthcare_text):
    doc = parse_model(healthcare_text)
    policy = load_model(healthcare_text).policies.get("Policy2")
    records = [doc, doc.policies[0], ModelError(1, 2, "m", "graph"), NameRef("a", 1, 2)]
    records += [Or((NameRef("a"), Not(NameRef("b")))), policy]
    records.append(And((Ref(1), Not(Or((Ref(2), Ref(3)))))))
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
    frozen = NameRef("a", 1, 2)
    assert copy.copy(frozen) == frozen and hash(copy.deepcopy(frozen)) == hash(frozen)
