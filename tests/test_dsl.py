import copy
import gc
import pickle
import random
from bisect import bisect_right
import tracemalloc
import weakref

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
from graphabac.dsl import (
    MAX_NESTING,
    ModelError,
    NameRef,
    NotExpr,
    OrExpr,
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
        from graphabac.dsl import _Parser

        gc.disable()
        try:
            parser = _Parser(healthcare_text)
            assert not parser.parse_model().errors
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
    records += [ModelError(1, 1, "m"), NameRef("a"), NotExpr(NameRef("a"))]
    records.append(OrExpr((NameRef("a"), NameRef("b"))))
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_records_survive_copy_and_pickle(healthcare_text):
    doc = parse_model(healthcare_text)
    policy = load_model(healthcare_text).policies.get("Policy2")
    records = [doc, doc.policies[0], ModelError(1, 2, "m", "graph"), NameRef("a", 1, 2)]
    records += [OrExpr((NameRef("a"), NotExpr(NameRef("b")))), policy]
    records.append(And((Ref(1), Not(Or((Ref(2), Ref(3)))))))
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
    frozen = NameRef("a", 1, 2)
    assert copy.copy(frozen) == frozen and hash(copy.deepcopy(frozen)) == hash(frozen)
