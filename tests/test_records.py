"""The contract of the model's record classes: the condition tree and
``Policy`` (policy.py), ``Node`` (graph.py) and the syntax tree and load
records (dsl.py).

``dnf_expand`` sorts expressions by ``repr`` and error texts print it, so a
record's ``repr`` is pinned byte for byte.  Records compare equal only to a
record of the same class with equal fields, in field order.  A frozen record
hashes as the tuple of its fields, so set and frozenset orders follow from
the field values alone, and rejects assignment and deletion; a mutable one
compares but does not hash.
"""

import pytest

from graphabac.dsl import (
    AndExpr,
    EdgeDecl,
    LoadedModel,
    ModelDocument,
    ModelError,
    NameRef,
    NodeDecl,
    NotExpr,
    OrExpr,
    PolicyDecl,
)
from graphabac.graph import Node, _NO_PROPERTIES
from graphabac.policy import And, ConditionType, Decision, Not, Or, Policy, Ref

SUB = ConditionType.SUB_CON
NO_COMPOUND = ((), (), ())


def _policy(name="p", seq=0):
    return Policy(name, Decision.PERMIT, 0, seq, ((1,), (2,), (3,)), NO_COMPOUND)


class _Opaque:
    """A stand-in for a graph and a store, with a fixed repr."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


# (record, its repr, its field values in field order)
REPRS = [
    (Ref(1), "Ref(node=1)", (1,)),
    (Not(Ref(2)), "Not(inner=Ref(node=2))", (Ref(2),)),
    (
        And((Ref(1), Not(Ref(2)))),
        "And(children=(Ref(node=1), Not(inner=Ref(node=2))))",
        ((Ref(1), Not(Ref(2))),),
    ),
    (Or((Ref(1), Ref(2))), "Or(children=(Ref(node=1), Ref(node=2)))", ((Ref(1), Ref(2)),)),
    (
        _policy(),
        "Policy(name='p', decision=<Decision.PERMIT: 'Permit'>, score=0, seq=0, "
        "nodes=((1,), (2,), (3,)), compound=((), (), ()))",
        ("p", Decision.PERMIT, 0, 0, ((1,), (2,), (3,)), NO_COMPOUND),
    ),
    (
        Node(0, "a", ("L",)),
        "Node(ref=0, name='a', labels=('L',), properties=mappingproxy({}))",
        (0, "a", ("L",), _NO_PROPERTIES),
    ),
    (NameRef("x"), "NameRef(name='x', line=0, col=0)", ("x", 0, 0)),
    (
        NotExpr(NameRef("x", 1, 2)),
        "NotExpr(inner=NameRef(name='x', line=1, col=2))",
        (NameRef("x", 1, 2),),
    ),
    (
        AndExpr((NameRef("a"), NameRef("b"))),
        "AndExpr(children=(NameRef(name='a', line=0, col=0), NameRef(name='b', line=0, col=0)))",
        ((NameRef("a"), NameRef("b")),),
    ),
    (
        OrExpr((NameRef("a"), NotExpr(NameRef("b")))),
        "OrExpr(children=(NameRef(name='a', line=0, col=0), "
        "NotExpr(inner=NameRef(name='b', line=0, col=0))))",
        ((NameRef("a"), NotExpr(NameRef("b"))),),
    ),
    (
        NodeDecl("n", ("L",), {"k": 1}),
        "NodeDecl(name='n', labels=('L',), properties={'k': 1}, line=0, col=0)",
        ("n", ("L",), {"k": 1}, 0, 0),
    ),
    (
        EdgeDecl("a", "HAS_ATTR", "b", 3, 4),
        "EdgeDecl(src='a', rel_type='HAS_ATTR', dst='b', line=3, col=4)",
        ("a", "HAS_ATTR", "b", 3, 4),
    ),
    (
        PolicyDecl("p", Decision.DENY, None, {SUB: [NameRef("a")]}),
        "PolicyDecl(name='p', decision=<Decision.DENY: 'Deny'>, score=None, "
        "slots={<ConditionType.SUB_CON: 'subject'>: [NameRef(name='a', line=0, col=0)]}, "
        "line=0, col=0)",
        ("p", Decision.DENY, None, {SUB: [NameRef("a")]}, 0, 0),
    ),
    (
        ModelError(1, 2, "m"),
        "ModelError(line=1, col=2, message='m', kind='syntax')",
        (1, 2, "m", "syntax"),
    ),
    (
        ModelDocument(),
        "ModelDocument(nodes=[], edges=[], policies=[], errors=[])",
        ([], [], [], []),
    ),
    (
        LoadedModel(_Opaque("<graph>"), _Opaque("<store>")),
        "LoadedModel(graph=<graph>, policies=<store>)",
        None,
    ),
]

FROZEN = [
    Node(0, "a", ("L",)),
    Ref(1),
    Not(Ref(1)),
    And((Ref(1), Ref(2))),
    Or((Ref(1), Ref(2))),
    NameRef("x", 1, 2),
    NotExpr(NameRef("x")),
    AndExpr((NameRef("a"), NameRef("b"))),
    OrExpr((NameRef("a"), NameRef("b"))),
]

UNHASHABLE = [
    _policy(),
    NodeDecl("n", ("L",), {}),
    EdgeDecl("a", "R", "b"),
    PolicyDecl("p", Decision.PERMIT, 1, {}),
    ModelError(1, 1, "m"),
    ModelDocument(),
    LoadedModel(None, None),
]


def _name(value):
    return type(value).__name__


@pytest.mark.parametrize("record, text, _", REPRS, ids=[_name(r) for r, _, _ in REPRS])
def test_repr(record, text, _):
    assert repr(record) == text


@pytest.mark.parametrize("record, _, values", REPRS, ids=[_name(r) for r, _, _ in REPRS])
def test_equal_to_a_copy_of_the_same_class_only(record, _, values):
    if values is None:
        values = (record.graph, record.policies)
    copy = type(record)(*values)
    assert copy == record and not copy != record
    assert record != values and values != record


def test_equality_is_within_one_class():
    children = (Ref(1), Ref(2))
    assert Ref(1) != Not(Ref(1))
    assert And(children) != Or(children) and Or(children) != And(children)
    names = (NameRef("a"), NameRef("b"))
    assert AndExpr(names) != OrExpr(names)
    assert NotExpr(NameRef("a")) != Not(Ref(1))
    assert Ref(1) != NameRef(1)
    assert NodeDecl("a", (), {}, 1, 2) != EdgeDecl("a", (), {}, 1, 2)


def test_equality_compares_every_field_in_order():
    assert NameRef("a", 1, 2) != NameRef("a", 2, 1)
    assert NameRef("a", 1, 2) != NameRef("a", 1, 3)
    assert Ref(1) != Ref(2) and Ref(1) == Ref(1)
    assert _policy("p", 0) != _policy("p", 1)
    assert ModelError(1, 2, "m") != ModelError(1, 2, "m", "graph")


def test_frozen_records_hash_as_their_field_tuple():
    assert hash(Ref(1)) == hash((1,))
    assert hash(Not(Ref(1))) == hash((Ref(1),)) == hash(((1,),))
    children = (Ref(1), Ref(2))
    assert hash(And(children)) == hash(Or(children)) == hash((children,))
    assert hash(NameRef("a", 1, 2)) == hash(("a", 1, 2))
    assert hash(NotExpr(NameRef("a"))) == hash((NameRef("a"),))
    assert len({Ref(1), Ref(1), Ref(2)}) == 2


def test_node_hashes_like_its_field_tuple():
    # A node's properties are a mappingproxy, which hashes on some Python
    # versions and not on others; the node hashes as its fields do.
    node = Node(0, "a", ("L",))
    fields = (0, "a", ("L",), node.properties)
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(node)
    else:
        assert hash(node) == expected


@pytest.mark.parametrize("record", FROZEN, ids=_name)
def test_frozen_records_reject_assignment_and_deletion(record):
    for field in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "extra")
    for field in _fields(record):
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == type(record)(*(getattr(record, f) for f in _fields(record)))


def _fields(record):
    return {
        Node: ("ref", "name", "labels", "properties"),
        Ref: ("node",),
        Not: ("inner",),
        And: ("children",),
        Or: ("children",),
        NameRef: ("name", "line", "col"),
        NotExpr: ("inner",),
        AndExpr: ("children",),
        OrExpr: ("children",),
    }[type(record)]


@pytest.mark.parametrize("record", UNHASHABLE, ids=_name)
def test_mutable_records_compare_but_do_not_hash(record):
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(TypeError):
        {record}


def test_mutable_records_accept_assignment_to_their_fields():
    doc = ModelDocument()
    doc.errors = [ModelError(1, 1, "m")]
    assert doc.errors == [ModelError(1, 1, "m")]
    policy = _policy()
    policy.score = 5
    assert policy.score == 5
    error = ModelError(1, 2, "m")
    error.kind = "policy"
    assert repr(error) == "ModelError(line=1, col=2, message='m', kind='policy')"


def test_fields_by_keyword():
    assert Node(ref=0, name="a", labels=()) == Node(0, "a", ())
    assert NameRef(name="a", col=3) == NameRef("a", 0, 3)
    assert ModelError(line=1, col=2, message="m", kind="graph").kind == "graph"
    assert EdgeDecl(src="a", rel_type="R", dst="b").line == 0
    assert LoadedModel(graph=1, policies=2).policies == 2


def test_defaults():
    ref = NameRef("a")
    assert (ref.line, ref.col) == (0, 0)
    assert ModelError(1, 2, "m").kind == "syntax"
    assert Node(0, "a", ()).properties is _NO_PROPERTIES
    for decl in (
        NodeDecl("n", (), {}),
        EdgeDecl("a", "R", "b"),
        PolicyDecl("p", Decision.PERMIT, None, {}),
    ):
        assert (decl.line, decl.col) == (0, 0)


def test_each_document_gets_four_fresh_lists():
    first, second = ModelDocument(), ModelDocument()
    lists = [first.nodes, first.edges, first.policies, first.errors]
    lists += [second.nodes, second.edges, second.policies, second.errors]
    assert all(lst == [] for lst in lists)
    assert len({id(lst) for lst in lists}) == 8
    first.nodes.append(NodeDecl("n", (), {}))
    assert second.nodes == []


def test_model_error_prints_its_position_and_message():
    assert str(ModelError(3, 14, "unknown node 'x'", "graph")) == "3:14: unknown node 'x'"
    assert f"{ModelError(1, 1, 'm')}" == "1:1: m"


@pytest.mark.parametrize("kind", [And, Or])
def test_and_or_need_two_children(kind):
    for children in ((), (Ref(1),)):
        with pytest.raises(ValueError, match=f"{kind.__name__} requires at least two children"):
            kind(children)
    assert kind((Ref(1), Ref(1))).children == (Ref(1), Ref(1))
