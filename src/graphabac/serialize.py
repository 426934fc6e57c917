"""Canonical text for a ``ModelDocument``: ``serialize_model`` and the
``format_*`` helpers it writes each declaration with.

Loading and deciding never write a model, so this module is imported only
on first use: ``graphabac.serialize_model`` and ``graphabac.dsl``'s
``serialize_model``, ``format_expr`` and ``format_name`` are looked up here
by a module ``__getattr__`` (PEP 562).
"""

from __future__ import annotations

import re
from typing import Callable

from .dsl import (
    _DECISIONS, KEYWORDS, EdgeDecl, ExprDecl, ModelDocument, NameRef, NodeDecl, PolicyDecl
)
from .graph import Scalar
from .policy import MAX_NESTING, And, ConditionType, Not, Or, _children

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Decision -> the word the parser reads it from.
_DECISION_WORDS = {decision: word for word, decision in _DECISIONS.items()}


def _quote(text: str, what: str) -> str:
    """``text`` as a double-quoted string; ValueError if it holds a newline,
    which no string literal can."""
    if "\n" in text:
        raise ValueError(f"{what} {text!r} holds a newline")
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_name(name: str) -> str:
    """Bare identifier when possible, double-quoted otherwise."""
    if _IDENT_RE.match(name) and name not in KEYWORDS:
        return name
    return _quote(name, "name")


def _format_word(word: str, what: str, keyword_ok: bool = True) -> str:
    """A label, relationship type or property key as the parser reads it;
    ValueError if it is not an identifier, or a keyword where none goes."""
    if not _IDENT_RE.match(word):
        raise ValueError(f"{what} {word!r} is not an identifier")
    if not keyword_ok and word in KEYWORDS:
        raise ValueError(f"{what} {word!r} is a keyword")
    return word


def _format_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _quote(value, "string")
    raise ValueError(f"property value {value!r} is not a bool, int or str")


def format_expr(decl: ExprDecl) -> str:
    if isinstance(decl, NameRef):
        return format_name(decl.name)
    if isinstance(decl, Not):
        return f"not {format_expr(decl.inner)}"
    op = " and " if isinstance(decl, And) else " or "
    return "(" + op.join(format_expr(c) for c in decl.children) + ")"


def _format_node(nd: NodeDecl) -> str:
    if not nd.labels:
        raise ValueError("it has no label")
    text = f"node {format_name(nd.name)} : "
    text += ", ".join(_format_word(label, "label", keyword_ok=False) for label in nd.labels)
    if nd.properties:
        body = ", ".join(
            f"{_format_word(k, 'property key')} = {_format_scalar(v)}"
            for k, v in sorted(nd.properties.items())
        )
        text += " {" + body + "}"
    return text


def _format_edge(ed: EdgeDecl) -> str:
    rel_type = _format_word(ed.rel_type, "relationship type")
    return f"edge {format_name(ed.src)} -[{rel_type}]-> {format_name(ed.dst)}"


def _nests_too_deep(expr) -> bool:
    """Whether ``expr`` nests ``Not``/``And``/``Or`` more than ``MAX_NESTING``
    levels deep: the parts one level further down, by ``id`` so a shared
    part counts once, taken ``MAX_NESTING + 1`` times, without recursion."""
    level = {id(expr): expr}
    for _ in range(MAX_NESTING + 1):
        compound = [e for e in level.values() if isinstance(e, (Not, And, Or))]
        level = {id(part): part for e in compound for part in _children(e)}
    return bool(level)


def _format_policy(pd: PolicyDecl) -> str:
    head = f"policy {format_name(pd.name)} {_DECISION_WORDS[pd.decision]}"
    if pd.score is not None:
        if type(pd.score) is not int:
            raise ValueError(f"score {pd.score!r} is not an int")
        head += f" score {pd.score}"
    lines = [head + " {"]
    for ctype in ConditionType:
        decls = pd.slots.get(ctype)
        if decls:
            if any(map(_nests_too_deep, decls)):
                raise ValueError(f"a condition nests deeper than {MAX_NESTING} levels")
            rendered = sorted(set(format_expr(d) for d in decls))
            lines.append(f"    {ctype.value}: " + "; ".join(rendered) + ";")
    if len(lines) == 1:
        raise ValueError("it has no condition")
    lines.append("}")
    return "\n".join(lines)


def _format(decl, what: str, format_decl: Callable) -> str:
    try:
        return format_decl(decl)
    except ValueError as exc:
        raise ValueError(f"cannot serialize {what}: {exc}") from None


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text form: declarations sorted within kind, normalized
    quoting and whitespace.  Round-trips to an isomorphic model.

    Raises ValueError, naming the declaration, for one that no text parses
    back to: a name or string that holds a newline, a property value that is
    not a ``bool``, ``int`` or ``str``, a node with no label, a label that
    is a keyword, a label, relationship type or property key that is not an
    identifier, a policy with no condition, a score that is not an ``int``
    (a ``bool`` included), or a condition that nests ``Not``/``And``/``Or``
    deeper than ``MAX_NESTING`` levels."""
    lines = [
        _format(nd, f"node {nd.name!r}", _format_node)
        for nd in sorted(doc.nodes, key=lambda d: d.name)
    ]
    if doc.nodes and doc.edges:
        lines.append("")
    for ed in sorted(doc.edges, key=lambda d: (d.src, d.rel_type, d.dst)):
        lines.append(_format(ed, f"edge {ed.src!r} -[{ed.rel_type!r}]-> {ed.dst!r}", _format_edge))
    for pd in sorted(doc.policies, key=lambda d: d.name):
        lines += ["", _format(pd, f"policy {pd.name!r}", _format_policy)]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
