import copy
import gc
import io
import pickle
import random
import sys
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
    Graph,
    LoadedModel,
    ModelLoadError,
    PolicyStore,
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
from graphabac.errors import AbacError, AttributeCycleError, GraphError, SelfLoopError
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


def _long_integer_model(where):
    """A model with a 5 000-digit integer, as a score read by the plain form,
    as a score the token parser reads, or as a negative property value,
    followed by a policy Q that parses; and the error the integer makes."""
    big = "9" * 5000
    slots = "{ subject: a; action: a; object: a; }"
    node, score = "node a : Attribute\n", ""
    if where == "property":
        node, position, size = f"node a : Attribute {{k = -{big}}}\n", (1, 25), 5001
    else:
        score, position, size = f"score {big} ", (2, 23), 5000
    if where == "token-score":
        slots = "{ subject: not not a; action: a; object: a; }"
    text = node + f"policy P permit {score}{slots}\npolicy Q deny {slots}\n"
    return text, (*position, f"integer too long: {size} characters", "syntax")


class TestIntegerLimit:
    """CPython 3.11 and later convert at most ``sys.get_int_max_str_digits()``
    digits (4 300 by default); a longer integer is a syntax error at its
    position, never an exception.  Elsewhere the model loads."""

    @pytest.mark.parametrize("where", ["plain-score", "token-score", "property"])
    def test_refused_integer_is_a_syntax_error(self, where):
        text, error = _long_integer_model(where)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        doc = parse_model(text)
        if 0 < limit < 5000:
            errors = [error]
            assert [(e.line, e.col, e.message, e.kind) for e in doc.errors] == errors
            # Only the statement holding the integer is dropped.
            assert len(doc.nodes) + len(doc.policies) == 2
            with pytest.raises(ModelLoadError) as exc:
                load_model(text)
            assert [(e.line, e.col, e.message, e.kind) for e in exc.value.errors] == errors
        else:
            assert not doc.errors
            load_model(text)


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


def _reference_load(text):
    """``parse_model(text)`` loaded through the public Graph and PolicyStore
    API alone, in four steps: add the nodes; add the edges in order, an
    unknown name or a self-loop being an error at its edge; freeze; resolve
    and create the policies in order.  Errors are reported as the dsl module
    docstring orders them."""
    doc = parse_model(text)
    if doc.errors:
        raise ModelLoadError(doc.errors)
    g = Graph()
    errors = []
    for nd in doc.nodes:
        try:
            g.add_node(nd.name, nd.labels, nd.properties)
        except (GraphError, ValueError) as exc:
            errors.append(ModelError(nd.line, nd.col, str(exc), "graph"))
    for ed in doc.edges:
        src, dst = g.find_node(ed.src), g.find_node(ed.dst)
        if src is None or dst is None:
            for name, ref in ((ed.src, src), (ed.dst, dst)):
                if ref is None:
                    errors.append(ModelError(ed.line, ed.col, f"unknown node {name!r}", "graph"))
            continue
        try:
            g.add_edge(src, ed.rel_type, dst)
        except SelfLoopError as exc:
            errors.append(ModelError(ed.line, ed.col, str(exc), "graph"))
    if not errors:
        try:
            g.freeze()
        except AttributeCycleError as exc:
            errors.append(ModelError(0, 0, str(exc), "graph"))
    if errors:
        raise ModelLoadError(errors)
    store = PolicyStore(g)
    for pd in doc.policies:
        unknown = []

        def resolve(expr):
            if isinstance(expr, Not):
                return Not(resolve(expr.inner))
            if isinstance(expr, (And, Or)):
                return type(expr)(tuple([resolve(part) for part in expr.children]))
            ref = g.find_node(expr.name)
            if ref is not None:
                return Ref(ref)
            unknown.append(expr)
            return expr

        conditions = {t: [resolve(e) for e in exprs] for t, exprs in pd.slots.items()}
        for leaf in unknown:
            message = f"policy {pd.name!r} references unknown node {leaf.name!r}"
            errors.append(ModelError(leaf.line, leaf.col, message, "policy"))
        if unknown:
            continue
        try:
            store.create_policy(pd.name, pd.decision, conditions, pd.score)
        except AbacError as exc:
            errors.append(ModelError(pd.line, pd.col, str(exc), "policy"))
    if errors:
        raise ModelLoadError(errors)
    return LoadedModel(g, store)


def _assert_one_pass_agrees(text):
    expected = _load_outcome(_reference_load, text)
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
    ``_reference_load`` decides, loading the parsed document step by step."""

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


# -- loading in pieces ---------------------------------------------------

# Piece sizes small enough that a statement, a keyword, a comment or a
# string often spans a read.
PIECE_SIZES = [1, 7, 64]

_FILLER = "".join(f"node f{i} : Attribute\n" for i in range(12))

# Texts whose statements meet the cuts in every way a cut can fall, each
# with a statement that loads and one that fails where that matters.
PIECE_CASES = [
    pytest.param(
        "node a : X\r\nnode b : Y\r\nedge a -[HAS_ATTR]-> b\r\n"
        "policy P permit { subject: a; action: b; object: a; }\r\nnode c : @\r\nnode d :\r\n",
        id="crlf",
    ),
    pytest.param("node a : X\rnode b : Y\r\nnode c : Z\rnode d :\r", id="lone-cr"),
    pytest.param("\ufeffnode a : X\nnode b : Y\n", id="bom"),
    pytest.param(
        'node "a\u00e9\u20ac\U0001f600" : X\nnode b : Y\nedge "a\u00e9\u20ac\U0001f600" -[T]-> b\n',
        id="multi-byte",
    ),
    pytest.param(
        "node a : X # node b : Y\nnode b : Y #\n# edge a -[HAS_ATTR]-> b\nedge a -[T]-> b\n",
        id="comment-before-cut",
    ),
    pytest.param(
        'node "a#node" : X\nnode b : Y {k = "v\\"node"}\nnode c : Z {k = "open\nnode d : W\n',
        id="string-before-cut",
    ),
    pytest.param(
        "node a : X\npolicy Early permit { subject: late; action: a; object: a; }\n"
        "edge a -[HAS_ATTR]-> late\n" + _FILLER + "node late : X\n",
        id="forward-reference-resolved",
    ),
    pytest.param(
        "node a : X\npolicy Early permit { subject: late; action: a; object: ghost; }\n"
        + _FILLER
        + "node late : X\n",
        id="forward-reference-unknown",
    ),
    pytest.param(
        "node a : X {\nnode = 1,\nedge = 2}\nnode b : Y\nedge a -[\nnode]-> b\n"
        "edge a\n-[\npolicy\n]->\nb\n",
        id="keyword-read-as-a-word",
    ),
    pytest.param("node a : X {\nnode\nnode b : Y\nedge a -[\nedge\n", id="keyword-word-malformed"),
    pytest.param(
        "node a : X\npolicy P permit {\nsubject: a;\nnode\n}\nnode\nedge\npolicy\n",
        id="keyword-in-a-policy",
    ),
    pytest.param(
        "node a : X {\n\n\r\n\nnode = 1}\nnode b : Y\nedge a -[T]-> b\n", id="brace-blank-lines"
    ),
    pytest.param(
        "node a : X { # comment {\nedge = 1}\nnode b : Y {\n# c\nedge = 1, k = 2}\n",
        id="brace-comment",
    ),
    pytest.param(
        'node a : X {k = 1,\n# comment\n\nnode = 2}\nnode b : Y {k = "#",\n  # c\nnode = 3}\n',
        id="comma-comment-line",
    ),
    pytest.param(
        "node a : X\nnode b : Y\nedge a -[\n\npolicy]-> b\nedge b -[ # c\n\r\nnode]-> a\n",
        id="bracket-blank-line",
    ),
    pytest.param(
        'node a : X {\n"open\nnode = 1}\nnode b : Y {\n@\nedge = 2}\nnode c : Z { "x\nnode = 1}\n',
        id="brace-lexer-error-line",
    ),
    pytest.param(
        "node b : X node b : Y {\nnode = 1}\nnode a : Z edge a -[\nnode]-> late\n"
        "node c : Z edge c -[\nedge]-> ghost\nnode d : Z node e : Y @ {k = 1,\nnode = 2}\n"
        "node late : Z\n",
        id="keyword-read-as-a-word-mid-line",
    ),
]


def _load_string_in_pieces(text):
    return dsl._load(dsl._pieces(io.StringIO(text).read))


def _reference_load_file(path):
    return _reference_load(dsl.read_model_file(path))


def _in_pieces(size, load, arg):
    with mock.patch.object(dsl, "PIECE_CHARS", size):
        return _load_outcome(load, arg)


def _write_model(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _load_whole_file(path):
    return load_model(dsl.read_model_file(path))


def _assert_pieces_agree(tmp_path, text):
    """Loading ``text`` in pieces of every size, from a string and from a
    file, decides what ``_reference_load``, which never cuts, decides;
    returns that outcome."""
    path = _write_model(tmp_path / "model.abac", text)
    whole = _load_outcome(_reference_load, text)
    whole_file = _load_outcome(_reference_load_file, path)
    assert _load_outcome(load_model, text) == whole, text
    for size in PIECE_SIZES:
        assert _in_pieces(size, _load_string_in_pieces, text) == whole, (size, text)
        assert _in_pieces(size, dsl.load_model_file, path) == whole_file, (size, text)
    return whole


def _read_by(size, text):
    """``text`` as ``_pieces`` reads it, ``size`` characters at a time."""
    with mock.patch.object(dsl, "PIECE_CHARS", size):
        return list(dsl._pieces(io.StringIO(text).read))


def _cut_offsets(pieces):
    """The offsets in the whole text where ``pieces`` were cut."""
    offsets, at = [], 0
    for _, stop in pieces[:-1]:
        at += stop
        offsets.append(at)
    return offsets


# Separators for run-on texts: mostly a space, and otherwise a line end, a
# blank line or a comment line, none of which stops a line-start keyword
# after "{", "," or "-[" from being a word; some texts also use the broken
# ones, which leave a lexer error on a line.
_RUN_ON_SEPARATORS = [" "] * 8 + ["\n", "\r\n", "\n\n", "\n# node {\n", "\n \t\n", " # ,\n"]
_BROKEN_SEPARATORS = ["\n@\n", '\n"open\n', ' "x\n']


def _run_on_text(rng):
    """Nodes n0-n3, some with properties, edges among them and policies on
    them, in any order, with statement keywords as property keys and
    relationship types and strings that hold "#"; a token may be dropped."""
    names = [f"n{i}" for i in range(4)]
    word = ["node", "edge", "policy", "k"]
    statements = []
    for name in names:
        tokens = ["node", name, ":", "X"]
        if rng.random() < 0.7:
            tokens.append("{")
            for i in range(rng.randint(1, 3)):
                value = rng.choice(["1", '"#node"', '"a # b"', "true"])
                tokens += [","] * (i > 0) + [rng.choice(word), "=", value]
            tokens.append("}")
        statements.append(tokens)
    for _ in range(rng.randint(1, 5)):
        src, dst = rng.sample(names, 2)
        statements.append(["edge", src, "-[", rng.choice(word[:3] + ["T"]), "]->", dst])
    for p in range(rng.randint(0, 2)):
        tokens = ["policy", f"P{p}", "permit", "{"]
        for slot in ("subject", "action", "object"):
            tokens += [slot, ":", rng.choice(names), ";"]
        statements.append(tokens + ["}"])
    rng.shuffle(statements)
    tokens = sum(statements, [])
    if rng.random() < 0.2:
        del tokens[rng.randrange(len(tokens))]
    separators = _RUN_ON_SEPARATORS + (_BROKEN_SEPARATORS if rng.random() < 0.3 else [])
    return "".join(token + rng.choice(separators) for token in tokens)


class TestLoadInPieces:
    @pytest.mark.parametrize("text", PIECE_CASES)
    def test_cases_at_every_cut(self, tmp_path, text):
        _assert_pieces_agree(tmp_path, text)

    @pytest.mark.parametrize("text, expected", PLAIN_FORM_PITFALLS)
    def test_plain_form_pitfalls(self, tmp_path, text, expected):
        outcome = _assert_pieces_agree(tmp_path, text)
        assert [(line, col, message) for line, col, message, _ in outcome] == expected

    def test_mutated_and_generated_texts(self, tmp_path, healthcare_text):
        rng = random.Random(31)
        failed = 0
        for k in range(90):
            if k % 3 == 0:
                text = _mutated(rng, healthcare_text)
            elif k % 3 == 1:
                text = _spliced(rng, _bench_layout_text(rng))
            else:
                text = serialize_model(random_document(rng))
                stmts = _statements(text)
                text = "\n".join(rng.sample(stmts, len(stmts))) + "\n"
            failed += isinstance(_assert_pieces_agree(tmp_path, text), list)
        assert 10 < failed < 80
        # Run-on texts, from a generator of their own so the texts above stay
        # what they were.
        rng = random.Random(37)
        failed = 0
        for _ in range(60):
            failed += isinstance(_assert_pieces_agree(tmp_path, _run_on_text(rng)), list)
        assert 10 < failed < 50

    def test_pieces_end_at_line_start_keywords(self, healthcare_text):
        text = healthcare_text + "\r\nnode x : Y\rnode z : Y\nnodes\nedge_\n"
        for size in PIECE_SIZES:
            pieces = _read_by(size, text)
            assert "".join(piece[:stop] for piece, stop in pieces) == text
            assert pieces[-1][1] == len(pieces[-1][0])
            for (piece, stop), (after, _) in zip(pieces, pieces[1:]):
                assert piece[stop - 1] == "\n" and piece[stop:] in ("node", "edge", "policy")
                assert after.startswith(piece[stop:] + " ")
            assert len(pieces) > len(text) // 200

    def test_no_cut_after_a_token_that_runs_on(self):
        # Past blank, comment and lexer-error lines, the keyword lines here
        # follow a "{", "," or "-[", but for three: "node b" follows a "}",
        # and "edge a" and "edge b" follow a name.  Read a character at a
        # time, the text is cut at each of those three and nowhere else.
        text = (
            'node a : X {\n\nnode = 1,\n# c\n@\nedge = 2,\n"open\npolicy = 3}\n'
            "node b : Y\nedge a -[ # c\n\r\nnode]-> b\nedge b -[T]-> a\n"
        )
        cuts = [text.index(line) for line in ("node b", "edge a", "edge b")]
        assert _cut_offsets(_read_by(1, text)) == cuts
        for size in PIECE_SIZES:
            assert set(_cut_offsets(_read_by(size, text))) <= set(cuts)

    def test_forward_reference_across_a_cut_is_placed(self, tmp_path):
        text = PIECE_CASES[7].values[0]
        assert _assert_pieces_agree(tmp_path, text) == [
            (2, 57, "policy 'Early' references unknown node 'ghost'", "policy")
        ]

    def test_statement_that_runs_on_from_mid_line_keeps_its_columns(self, tmp_path):
        text = PIECE_CASES[-1].values[0]
        assert _assert_pieces_agree(tmp_path, text) == [
            (7, 23, "unexpected character '@'", "syntax")
        ]
        text = text.replace("@ ", "")
        assert _assert_pieces_agree(tmp_path, text) == [
            (1, 12, "node 'b' already exists", "graph"),
            (5, 12, "unknown node 'ghost'", "graph"),
        ]

    def test_multi_byte_character_across_a_decoder_read(self, tmp_path):
        # The file decoder reads 8 KiB at a time; the 4-byte character
        # starts 2 bytes before the first such boundary.
        head = "node a : X\n"
        pad = "#" * (8183 - len(head)) + "\n"
        name = "\U0001f600\u00e9"
        text = head + pad + f'node "{name}" : X\nedge a -[HAS_ATTR]-> "{name}"\n'
        assert text.encode().index(name.encode()) == 8190
        nodes, children, _, _ = _assert_pieces_agree(tmp_path, text)
        assert [node[1] for node in nodes] == ["a", name] and children == [(1,), ()]

    @pytest.mark.parametrize("at", [0, 40, 9000])
    def test_undecodable_bytes_are_the_whole_file_error(self, tmp_path, at):
        data = bytearray(b"node a : X\n" * 1000)
        data[at:at] = b"\xff"
        path = tmp_path / "bad.abac"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelLoadError) as whole:
            dsl.read_model_file(path)
        for size in PIECE_SIZES:
            with mock.patch.object(dsl, "PIECE_CHARS", size), pytest.raises(ModelLoadError) as got:
                dsl.load_model_file(path)
            assert got.value.errors == whole.value.errors
            assert f"position {at}:" in got.value.errors[0].message

    def test_file_peak_below_whole_text_peak(self, tmp_path):
        # About 1 MB of text: the file is loaded holding one piece of it at a
        # time, so its peak is lower by most of the text.
        text = _generated_model_text(random.Random(5), 7000, 18000, 3500)
        assert 0.9e6 < len(text) < 1.3e6
        path = _write_model(tmp_path / "big.abac", text)
        in_pieces = _traced_peak(dsl.load_model_file, path)
        whole = _traced_peak(_load_whole_file, path)
        assert in_pieces < whole - len(text) // 2


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
