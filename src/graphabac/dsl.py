"""The ``.abac`` model-definition language.

Grammar (``#`` starts a line comment):

    model    ::= stmt*
    stmt     ::= node | edge | policy
    node     ::= "node" name ":" label ("," label)* props?
    props    ::= "{" key "=" scalar ("," key "=" scalar)* "}"
    edge     ::= name "-[" reltype "]->" name        (prefixed by "edge")
    policy   ::= "policy" name ("permit" | "deny") ("score" integer)?
                 "{" slot+ "}"
    slot     ::= ("subject" | "action" | "object") ":" expr (";" expr)* ";"?
    expr     ::= "not" expr | "(" expr (("and" | "or") expr)+ ")" | name
    name     ::= IDENT | DQUOTED_STRING

Multiple expressions in one slot form that slot's conjunctive condition
set.  Parsing is total: malformed input yields positioned errors, never an
exception, and the parser resynchronizes at the next statement keyword.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Union

from .errors import (
    AbacError,
    AttributeCycleError,
    DuplicateNameError,
    EmptyNameError,
    SelfLoopError,
)
from .graph import Graph, Scalar
from .policy import (
    And,
    ConditionExpr,
    ConditionType,
    Decision,
    Not,
    Or,
    PolicyStore,
    Ref,
)

MODEL_FILE_EXTENSION = ".abac"

KEYWORDS = frozenset(
    {
        "node", "edge", "policy", "permit", "deny", "score",
        "subject", "action", "object", "not", "and", "or",
        "true", "false",
    }
)

# Slot keyword -> type, derived from ConditionType so the parser pays one
# dict lookup per slot instead of an enum call.
_SLOT_TYPES = {t.value: t for t in ConditionType}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# -- syntax tree ------------------------------------------------------


@dataclass(frozen=True)
class NameRef:
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class NotExpr:
    inner: "ExprDecl"


@dataclass(frozen=True)
class AndExpr:
    children: tuple["ExprDecl", ...]


@dataclass(frozen=True)
class OrExpr:
    children: tuple["ExprDecl", ...]


ExprDecl = Union[NameRef, NotExpr, AndExpr, OrExpr]


@dataclass
class NodeDecl:
    name: str
    labels: tuple[str, ...]
    properties: dict[str, Scalar]
    line: int = 0
    col: int = 0


@dataclass
class EdgeDecl:
    src: str
    rel_type: str
    dst: str
    line: int = 0
    col: int = 0


@dataclass
class PolicyDecl:
    name: str
    decision: Decision
    score: Optional[int]
    slots: dict[ConditionType, list[ExprDecl]]
    line: int = 0
    col: int = 0


@dataclass
class ModelError:
    line: int
    col: int
    message: str
    kind: str = "syntax"  # syntax | graph | policy

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


@dataclass
class ModelDocument:
    nodes: list[NodeDecl] = field(default_factory=list)
    edges: list[EdgeDecl] = field(default_factory=list)
    policies: list[PolicyDecl] = field(default_factory=list)
    errors: list[ModelError] = field(default_factory=list)


class ModelLoadError(AbacError):
    def __init__(self, errors: list[ModelError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


@dataclass
class LoadedModel:
    document: ModelDocument
    graph: Graph
    policies: PolicyStore


# -- tokenizer --------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT STRING INT PUNCT EOF ERROR
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<badstring>"[^"\n]*)
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>-\[|\]->)
    | (?P<punct>[{}():,;=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> tuple[list[_Token], list[ModelError]]:
    tokens: list[_Token] = []
    errors: list[ModelError] = []
    line, col, pos = 1, 1, 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            errors.append(ModelError(line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        raw = m.group(0)
        kind = m.lastgroup
        if kind == "string":
            value, err = _unescape(raw, line, col)
            if err is not None:
                errors.append(err)
            tokens.append(_Token("STRING", value, line, col))
        elif kind == "badstring":
            errors.append(ModelError(line, col, "unterminated string literal"))
        elif kind == "int":
            tokens.append(_Token("INT", raw, line, col))
        elif kind == "ident":
            tokens.append(_Token("IDENT", raw, line, col))
        elif kind in ("arrow", "punct"):
            tokens.append(_Token("PUNCT", raw, line, col))
        # whitespace and comments are dropped
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens, errors


def _unescape(raw: str, line: int, col: int) -> tuple[str, Optional[ModelError]]:
    body = raw[1:-1]
    out: list[str] = []
    err: Optional[ModelError] = None
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            nxt = body[i + 1] if i + 1 < len(body) else ""
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
            err = err or ModelError(line, col, f"invalid escape sequence \\{nxt}")
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out), err


# -- parser -----------------------------------------------------------


class _SyntaxFailure(Exception):
    def __init__(self, token: _Token, message: str):
        super().__init__(message)
        self.token = token
        self.message = message


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ModelError] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value in words

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == value:
            return self.advance()
        raise _SyntaxFailure(tok, f"expected {value!r}, found {tok.value or 'end of input'!r}")

    def expect_keyword(self, *words: str) -> _Token:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in words:
            return self.advance()
        want = " or ".join(repr(w) for w in words)
        raise _SyntaxFailure(tok, f"expected {want}, found {tok.value or 'end of input'!r}")

    def parse_name(self) -> _Token:
        tok = self.peek()
        if tok.kind == "STRING":
            return self.advance()
        if tok.kind == "IDENT" and tok.value not in KEYWORDS:
            return self.advance()
        raise _SyntaxFailure(tok, f"expected a name, found {tok.value or 'end of input'!r}")

    def resync(self) -> None:
        # Skip forward to the next statement keyword (or EOF).
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or self.at_keyword("node", "edge", "policy"):
                return
            self.advance()

    def parse_model(self) -> ModelDocument:
        doc = ModelDocument()
        while self.peek().kind != "EOF":
            try:
                if self.at_keyword("node"):
                    doc.nodes.append(self.parse_node())
                elif self.at_keyword("edge"):
                    doc.edges.append(self.parse_edge())
                elif self.at_keyword("policy"):
                    doc.policies.append(self.parse_policy())
                else:
                    tok = self.peek()
                    raise _SyntaxFailure(
                        tok,
                        f"expected 'node', 'edge' or 'policy', found {tok.value or 'end of input'!r}",
                    )
            except _SyntaxFailure as fail:
                self.errors.append(
                    ModelError(fail.token.line, fail.token.col, fail.message)
                )
                # Keep the token when it can start the next statement; the
                # statement's own keyword is consumed before any failure, so
                # this always makes progress.
                if not self.at_keyword("node", "edge", "policy"):
                    self.advance()
                self.resync()
        doc.errors = self.errors
        return doc

    def parse_node(self) -> NodeDecl:
        kw = self.expect_keyword("node")
        name = self.parse_name()
        self.expect_punct(":")
        labels = [self.expect_label()]
        while self.peek().kind == "PUNCT" and self.peek().value == ",":
            self.advance()
            labels.append(self.expect_label())
        props: dict[str, Scalar] = {}
        if self.peek().kind == "PUNCT" and self.peek().value == "{":
            props = self.parse_props()
        return NodeDecl(name.value, tuple(labels), props, kw.line, kw.col)

    def expect_label(self) -> str:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value not in KEYWORDS:
            return self.advance().value
        raise _SyntaxFailure(tok, f"expected a label, found {tok.value or 'end of input'!r}")

    def parse_props(self) -> dict[str, Scalar]:
        self.expect_punct("{")
        props: dict[str, Scalar] = {}
        while True:
            key = self.peek()
            if key.kind != "IDENT":
                raise _SyntaxFailure(key, "expected a property key")
            self.advance()
            self.expect_punct("=")
            props[key.value] = self.parse_scalar()
            if self.peek().kind == "PUNCT" and self.peek().value == ",":
                self.advance()
                continue
            break
        self.expect_punct("}")
        return props

    def parse_scalar(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "STRING":
            return self.advance().value
        if tok.kind == "INT":
            return int(self.advance().value)
        if tok.kind == "IDENT" and tok.value in ("true", "false"):
            return self.advance().value == "true"
        raise _SyntaxFailure(tok, f"expected a scalar value, found {tok.value or 'end of input'!r}")

    def parse_edge(self) -> EdgeDecl:
        kw = self.expect_keyword("edge")
        src = self.parse_name()
        self.expect_punct("-[")
        rel = self.peek()
        if rel.kind != "IDENT":
            raise _SyntaxFailure(rel, "expected a relationship type")
        self.advance()
        self.expect_punct("]->")
        dst = self.parse_name()
        return EdgeDecl(src.value, rel.value, dst.value, kw.line, kw.col)

    def parse_policy(self) -> PolicyDecl:
        kw = self.expect_keyword("policy")
        name = self.parse_name()
        decision_tok = self.expect_keyword("permit", "deny")
        decision = Decision.PERMIT if decision_tok.value == "permit" else Decision.DENY
        score: Optional[int] = None
        if self.at_keyword("score"):
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise _SyntaxFailure(tok, "expected an integer score")
            score = int(self.advance().value)
        self.expect_punct("{")
        slots: dict[ConditionType, list[ExprDecl]] = {}
        while not (self.peek().kind == "PUNCT" and self.peek().value == "}"):
            ctype = _SLOT_TYPES[self.expect_keyword(*_SLOT_TYPES).value]
            self.expect_punct(":")
            exprs = slots.setdefault(ctype, [])
            exprs.append(self.parse_expr())
            while self.peek().kind == "PUNCT" and self.peek().value == ";":
                self.advance()
                if self._at_expr_start():
                    exprs.append(self.parse_expr())
                else:
                    break
        self.expect_punct("}")
        if not slots:
            raise _SyntaxFailure(kw, f"policy {name.value!r} declares no condition slots")
        return PolicyDecl(name.value, decision, score, slots, kw.line, kw.col)

    def _at_expr_start(self) -> bool:
        tok = self.peek()
        if tok.kind == "STRING":
            return True
        if tok.kind == "PUNCT" and tok.value == "(":
            return True
        if tok.kind == "IDENT":
            return tok.value == "not" or tok.value not in KEYWORDS
        return False

    def parse_expr(self) -> ExprDecl:
        tok = self.peek()
        if self.at_keyword("not"):
            self.advance()
            return NotExpr(self.parse_expr())
        if tok.kind == "PUNCT" and tok.value == "(":
            self.advance()
            children = [self.parse_expr()]
            op: Optional[str] = None
            while self.at_keyword("and", "or"):
                op_tok = self.advance()
                if op is None:
                    op = op_tok.value
                elif op != op_tok.value:
                    raise _SyntaxFailure(
                        op_tok, "mixed 'and'/'or' in one group; add parentheses"
                    )
                children.append(self.parse_expr())
            if op is None:
                raise _SyntaxFailure(
                    self.peek(), "expected 'and' or 'or' inside parentheses"
                )
            self.expect_punct(")")
            if op == "and":
                return AndExpr(tuple(children))
            return OrExpr(tuple(children))
        name = self.parse_name()
        return NameRef(name.value, name.line, name.col)


def parse_model(text: str) -> ModelDocument:
    """Parse source text into a ModelDocument; syntax errors land in
    ``document.errors`` with line/column positions."""
    tokens, lex_errors = _tokenize(text)
    parser = _Parser(tokens)
    parser.errors.extend(lex_errors)
    doc = parser.parse_model()
    doc.errors.sort(key=lambda e: (e.line, e.col))
    return doc


# -- loading ----------------------------------------------------------


def load_document(doc: ModelDocument) -> LoadedModel:
    """Build the frozen graph and policy store, or raise ModelLoadError
    carrying every positioned error.  Never yields a partial model."""
    errors = list(doc.errors)
    if errors:
        raise ModelLoadError(errors)

    graph = Graph()
    for nd in doc.nodes:
        try:
            graph.add_node(nd.name, nd.labels, nd.properties)
        except (DuplicateNameError, EmptyNameError, ValueError) as exc:
            errors.append(ModelError(nd.line, nd.col, str(exc), "graph"))
    for ed in doc.edges:
        src = graph.find_node(ed.src)
        dst = graph.find_node(ed.dst)
        if src is None:
            errors.append(ModelError(ed.line, ed.col, f"unknown node {ed.src!r}", "graph"))
        if dst is None:
            errors.append(ModelError(ed.line, ed.col, f"unknown node {ed.dst!r}", "graph"))
        if src is None or dst is None:
            continue
        try:
            graph.add_edge(src, ed.rel_type, dst)
        except SelfLoopError as exc:
            errors.append(ModelError(ed.line, ed.col, str(exc), "graph"))
    if not errors:
        try:
            graph.freeze()
        except AttributeCycleError as exc:
            errors.append(ModelError(0, 0, str(exc), "graph"))
    if errors:
        raise ModelLoadError(errors)

    store = PolicyStore(graph)
    for pd in doc.policies:
        errors.extend(_load_policy(graph, store, pd))
    if errors:
        raise ModelLoadError(errors)
    return LoadedModel(doc, graph, store)


def _load_policy(graph: Graph, store: PolicyStore, pd: PolicyDecl) -> list[ModelError]:
    errors: list[ModelError] = []
    conditions: dict[ConditionType, set[ConditionExpr]] = {}
    for t, decls in pd.slots.items():
        resolved: set[ConditionExpr] = set()
        for decl in decls:
            expr = _resolve_expr(graph, pd, decl, errors)
            if expr is not None:
                resolved.add(expr)
        conditions[t] = resolved
    if errors:
        return errors
    try:
        store.create_policy(pd.name, pd.decision, conditions, pd.score)
    except AbacError as exc:
        errors.append(ModelError(pd.line, pd.col, str(exc), "policy"))
    return errors


def _resolve_expr(
    graph: Graph, pd: PolicyDecl, decl: ExprDecl, errors: list[ModelError]
) -> Optional[ConditionExpr]:
    if isinstance(decl, NameRef):
        ref = graph.find_node(decl.name)
        if ref is None:
            errors.append(
                ModelError(
                    decl.line or pd.line, decl.col or pd.col,
                    f"policy {pd.name!r} references unknown node {decl.name!r}",
                    "policy",
                )
            )
            return None
        return Ref(ref)
    if isinstance(decl, NotExpr):
        inner = _resolve_expr(graph, pd, decl.inner, errors)
        return None if inner is None else Not(inner)
    children = [_resolve_expr(graph, pd, c, errors) for c in decl.children]
    if any(c is None for c in children):
        return None
    if isinstance(decl, AndExpr):
        return And(tuple(children))
    return Or(tuple(children))


def load_model(text: str) -> LoadedModel:
    return load_document(parse_model(text))


def load_model_file(path) -> LoadedModel:
    """Read and load a UTF-8 model file.  Undecodable bytes raise
    ModelLoadError like any other malformed input; OSError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        message = f"model file is not UTF-8 text: {exc}"
        raise ModelLoadError([ModelError(0, 0, message)]) from None
    return load_model(text)


# -- serialization ----------------------------------------------------


def format_name(name: str) -> str:
    """Bare identifier when possible, double-quoted otherwise."""
    if _IDENT_RE.match(name) and name not in KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _format_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def format_expr(decl: ExprDecl) -> str:
    if isinstance(decl, NameRef):
        return format_name(decl.name)
    if isinstance(decl, NotExpr):
        return f"not {format_expr(decl.inner)}"
    op = " and " if isinstance(decl, AndExpr) else " or "
    return "(" + op.join(format_expr(c) for c in decl.children) + ")"


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text form: declarations sorted within kind, normalized
    quoting and whitespace.  Round-trips to an isomorphic model."""
    lines: list[str] = []
    for nd in sorted(doc.nodes, key=lambda d: d.name):
        decl = f"node {format_name(nd.name)} : " + ", ".join(nd.labels)
        if nd.properties:
            body = ", ".join(
                f"{k} = {_format_scalar(v)}" for k, v in sorted(nd.properties.items())
            )
            decl += " {" + body + "}"
        lines.append(decl)
    if doc.nodes and doc.edges:
        lines.append("")
    for ed in sorted(doc.edges, key=lambda d: (d.src, d.rel_type, d.dst)):
        lines.append(
            f"edge {format_name(ed.src)} -[{ed.rel_type}]-> {format_name(ed.dst)}"
        )
    for pd in sorted(doc.policies, key=lambda d: d.name):
        lines.append("")
        head = f"policy {format_name(pd.name)} {pd.decision.value.lower()}"
        if pd.score is not None:
            head += f" score {pd.score}"
        lines.append(head + " {")
        for ctype in ConditionType:
            decls = pd.slots.get(ctype)
            if not decls:
                continue
            rendered = sorted(set(format_expr(d) for d in decls))
            lines.append(f"    {ctype.value}: " + "; ".join(rendered) + ";")
        lines.append("}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# -- bundled sample ---------------------------------------------------


def bundled_model_text(name: str = "healthcare") -> str:
    return (
        resources.files("graphabac.data")
        .joinpath(name + MODEL_FILE_EXTENSION)
        .read_text(encoding="utf-8")
    )


def load_bundled_model(name: str = "healthcare") -> LoadedModel:
    return load_model(bundled_model_text(name))
