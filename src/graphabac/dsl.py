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
set.  An expression nests ``not`` and ``(`` at most ``MAX_NESTING`` levels
deep.  Parsing is total: malformed input yields positioned errors, never an
exception, and the parser resynchronizes at the next statement keyword.  A
policy that nests deeper is one error, at the policy.

The text is lexed in one ``finditer`` pass into ``(kind, value, offset)``
tuples: kind is ``IDENT``, ``STRING``, ``INT``, ``PUNCT`` or, last,
``EOF``; value is the token text (a string's unescaped contents); offset is
the character index where the token starts.  Tokens stream to the parser,
which holds one lookahead token, and lexer errors go straight into the
parser's error list.  Line and column are computed only where they are
recorded, on a ``ModelError``, ``NodeDecl``, ``EdgeDecl``, ``PolicyDecl``
or ``NameRef``, by counting the newlines between the previous position
asked for and this one, backwards when the parser asks for an earlier
one (a policy's keyword after the names inside it); no table of line
starts is kept.  Lines end at ``\\n`` and count from 1, and every other
character, ``\\r`` and tab included, is one column.

The syntax tree and the load records are slotted records (see
``records.py``): ``NameRef``, ``NotExpr``, ``AndExpr`` and ``OrExpr`` are
frozen and hash by their fields; the declarations, ``ModelError``,
``ModelDocument`` and ``LoadedModel`` compare by their fields but do not
hash.

The parser hands each declaration, as soon as it is complete, to a sink.
``parse_model`` appends them to a ``ModelDocument``.  ``load_model`` and
``load_model_file`` hand them to ``_ModelBuilder``, which loads the model
in the same pass, so no document exists on that path: a node goes into the
graph at once, an edge when both of its ends are known, and a policy is
created when every name it uses is known.  Declarations may refer to nodes
declared later; such an edge or policy, and every later one of its kind,
waits until the end of input, so edges and policies still go in in source
order, which fixes child order, policy ``seq`` and first-applicable
results.  ``load_document`` feeds a document's declarations to the same
builder.  Either way a ``ModelLoadError`` lists the errors in one order:
any syntax errors, and then nothing else; otherwise node errors, then edge
errors, then a ``HAS_ATTR`` cycle; and policy errors only when the graph
has none.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Optional, Union

from .errors import (
    AbacError,
    AttributeCycleError,
    DuplicateNameError,
    EmptyNameError,
    SelfLoopError,
)
from .graph import Graph, Scalar
from .policy import (
    MAX_NESTING,
    And,
    ConditionExpr,
    ConditionType,
    Decision,
    Not,
    Or,
    PolicyStore,
    Ref,
)
from .records import FrozenRecord, Record, _set

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


class NameRef(FrozenRecord):
    __slots__ = ("name", "line", "col")

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        _set(self, "name", name)
        _set(self, "line", line)
        _set(self, "col", col)


class NotExpr(FrozenRecord):
    __slots__ = ("inner",)

    def __init__(self, inner: ExprDecl) -> None:
        _set(self, "inner", inner)


class AndExpr(FrozenRecord):
    __slots__ = ("children",)

    def __init__(self, children: tuple[ExprDecl, ...]) -> None:
        _set(self, "children", children)


class OrExpr(FrozenRecord):
    __slots__ = ("children",)

    def __init__(self, children: tuple[ExprDecl, ...]) -> None:
        _set(self, "children", children)


ExprDecl = Union[NameRef, NotExpr, AndExpr, OrExpr]


class NodeDecl(Record):
    __slots__ = ("name", "labels", "properties", "line", "col")

    def __init__(
        self, name: str, labels: tuple[str, ...], properties: dict, line: int = 0, col: int = 0
    ) -> None:
        self.name, self.labels, self.properties = name, labels, properties
        self.line, self.col = line, col


class EdgeDecl(Record):
    __slots__ = ("src", "rel_type", "dst", "line", "col")

    def __init__(self, src: str, rel_type: str, dst: str, line: int = 0, col: int = 0) -> None:
        self.src, self.rel_type, self.dst, self.line, self.col = src, rel_type, dst, line, col


class PolicyDecl(Record):
    __slots__ = ("name", "decision", "score", "slots", "line", "col")

    def __init__(
        self,
        name: str,
        decision: Decision,
        score: Optional[int],
        slots: dict[ConditionType, list[ExprDecl]],
        line: int = 0,
        col: int = 0,
    ) -> None:
        self.name, self.decision, self.score, self.slots = name, decision, score, slots
        self.line, self.col = line, col


class ModelError(Record):
    __slots__ = ("line", "col", "message", "kind")

    def __init__(self, line: int, col: int, message: str, kind: str = "syntax") -> None:
        # kind: syntax | graph | policy
        self.line, self.col, self.message, self.kind = line, col, message, kind

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ModelDocument(Record):
    __slots__ = ("nodes", "edges", "policies", "errors")

    def __init__(self, nodes=None, edges=None, policies=None, errors=None) -> None:
        # A list not given is the document's own.
        lists = ([] if given is None else given for given in (nodes, edges, policies, errors))
        self.nodes, self.edges, self.policies, self.errors = lists


class ModelLoadError(AbacError):
    def __init__(self, errors: list[ModelError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


class LoadedModel(Record):
    __slots__ = ("graph", "policies")

    def __init__(self, graph: Graph, policies: PolicyStore) -> None:
        self.graph, self.policies = graph, policies


# -- lexer and parser -------------------------------------------------


# Alternatives are tried in order at each offset; every character matches
# one of them, so ``finditer`` never skips text.  ``.`` does not match a
# newline, which always lexes as whitespace, so no string spans lines.
_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>[ \t\r\n]+|\#[^\n]*)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>-\[|\]->|[{}():,;=])
    | (?P<STRING>"(?:[^"\\\n]|\\.)*")
    | (?P<BADSTRING>"[^"\n]*)
    | (?P<INT>-?\d+)
    | (?P<CHAR>.)
    """,
    re.VERBOSE,
)

# One escape per match, paired left to right as the lexer pairs them:
# group 1 is a valid escaped character, group 2 an invalid one.
_ESCAPE_RE = re.compile(r'\\(?:(["\\])|(.))')


def _locator(text: str) -> Callable[[int], tuple[int, int]]:
    """Map a character offset into ``text`` to its 1-based (line, column).

    Each call counts the newlines between the previous offset asked for and
    this one, in either direction, so a parse that asks for positions
    roughly in text order scans the text about once and keeps no table of
    line starts."""
    # The line of the last offset asked for, and the offset its line starts at.
    line, start, last = 1, 0, 0

    def where(offset: int) -> tuple[int, int]:
        nonlocal line, start, last
        if offset >= last:
            crossed = text.count("\n", last, offset)
            if crossed:
                line += crossed
                start = text.rfind("\n", last, offset) + 1
        else:
            crossed = text.count("\n", offset, last)
            if crossed:
                line -= crossed
                start = text.rfind("\n", 0, offset) + 1
        last = offset
        return line, offset - start + 1

    return where


def _lex(
    text: str, errors: list[ModelError], where: Callable[[int], tuple[int, int]]
) -> Iterator[tuple[str, str, int]]:
    """Yield ``(kind, value, offset)`` per token, then ``EOF``; lexer errors
    go to ``errors`` as the scan reaches them."""
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "STRING":
            value = m.group()[1:-1]
            if "\\" in value:
                invalid = [bad for _, bad in _ESCAPE_RE.findall(value) if bad]
                if invalid:
                    message = f"invalid escape sequence \\{invalid[0]}"
                    errors.append(ModelError(*where(m.start()), message))
                value = _ESCAPE_RE.sub(r"\1", value)
            yield kind, value, m.start()
        elif kind == "BADSTRING":
            errors.append(ModelError(*where(m.start()), "unterminated string literal"))
        elif kind == "CHAR":
            message = f"unexpected character {m.group()!r}"
            errors.append(ModelError(*where(m.start()), message))
        else:
            yield kind, m.group(), m.start()
    yield "EOF", "", len(text)


class _SyntaxFailure(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


class _TooDeep(Exception):
    """An expression nests deeper than MAX_NESTING."""


class _Parser:
    def __init__(self, text: str):
        self.errors: list[ModelError] = []
        self.where = _locator(text)
        # The token stream holds no reference back to the parser, so the
        # scan state is freed with the parser, not at a cyclic collection.
        self._next = _lex(text, self.errors, self.where).__next__
        self.tok = self._next()

    def advance(self) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != "EOF":
            self.tok = self._next()
        return tok

    def at_keyword(self, *words: str) -> bool:
        kind, value, _ = self.tok
        return kind == "IDENT" and value in words

    def at_punct(self, value: str) -> bool:
        kind, found, _ = self.tok
        return kind == "PUNCT" and found == value

    def unexpected(self, wanted: str) -> _SyntaxFailure:
        """The failure for a lookahead token that is not ``wanted``."""
        _, value, offset = self.tok
        return _SyntaxFailure(offset, f"expected {wanted}, found {value or 'end of input'!r}")

    def expect_punct(self, value: str) -> None:
        if not self.at_punct(value):
            raise self.unexpected(repr(value))
        self.advance()

    def expect_keyword(self, *words: str) -> tuple[str, str, int]:
        if not self.at_keyword(*words):
            raise self.unexpected(" or ".join(repr(w) for w in words))
        return self.advance()

    def parse_name(self) -> tuple[str, str, int]:
        kind, value, _ = self.tok
        if kind == "STRING" or (kind == "IDENT" and value not in KEYWORDS):
            return self.advance()
        raise self.unexpected("a name")

    def resync(self) -> None:
        # Skip forward to the next statement keyword (or EOF).
        while self.tok[0] != "EOF" and not self.at_keyword("node", "edge", "policy"):
            self.advance()

    def parse_model(self) -> ModelDocument:
        doc = ModelDocument()
        doc.errors = self.parse(doc.nodes.append, doc.edges.append, doc.policies.append)
        return doc

    def parse(
        self,
        on_node: Callable[[NodeDecl], None],
        on_edge: Callable[[EdgeDecl], None],
        on_policy: Callable[[PolicyDecl], None],
    ) -> list[ModelError]:
        """Hand each complete declaration to its callback, in source order,
        and return the syntax errors sorted by position."""
        while self.tok[0] != "EOF":
            try:
                if self.at_keyword("node"):
                    on_node(self.parse_node())
                elif self.at_keyword("edge"):
                    on_edge(self.parse_edge())
                elif self.at_keyword("policy"):
                    on_policy(self.parse_policy())
                else:
                    raise self.unexpected("'node', 'edge' or 'policy'")
            except _SyntaxFailure as fail:
                self.errors.append(ModelError(*self.where(fail.offset), fail.message))
                # Keep the token when it can start the next statement; the
                # statement's own keyword is consumed before any failure, so
                # this always makes progress.
                if not self.at_keyword("node", "edge", "policy"):
                    self.advance()
                self.resync()
        # Stable: at one position a lexer error was recorded before the parser
        # could fail on the token there.
        self.errors.sort(key=lambda e: (e.line, e.col))
        return self.errors

    def parse_node(self) -> NodeDecl:
        kw = self.expect_keyword("node")
        name = self.parse_name()[1]
        self.expect_punct(":")
        labels = [self.expect_label()]
        while self.at_punct(","):
            self.advance()
            labels.append(self.expect_label())
        props = self.parse_props() if self.at_punct("{") else {}
        return NodeDecl(name, tuple(labels), props, *self.where(kw[2]))

    def expect_label(self) -> str:
        kind, value, _ = self.tok
        if kind == "IDENT" and value not in KEYWORDS:
            return self.advance()[1]
        raise self.unexpected("a label")

    def parse_props(self) -> dict[str, Scalar]:
        self.expect_punct("{")
        props: dict[str, Scalar] = {}
        while True:
            kind, key, offset = self.tok
            if kind != "IDENT":
                raise _SyntaxFailure(offset, "expected a property key")
            self.advance()
            self.expect_punct("=")
            props[key] = self.parse_scalar()
            if not self.at_punct(","):
                break
            self.advance()
        self.expect_punct("}")
        return props

    def parse_scalar(self) -> Scalar:
        kind, value, _ = self.tok
        if kind == "STRING":
            return self.advance()[1]
        if kind == "INT":
            return int(self.advance()[1])
        if kind == "IDENT" and value in ("true", "false"):
            return self.advance()[1] == "true"
        raise self.unexpected("a scalar value")

    def parse_edge(self) -> EdgeDecl:
        kw = self.expect_keyword("edge")
        src = self.parse_name()[1]
        self.expect_punct("-[")
        kind, rel, offset = self.tok
        if kind != "IDENT":
            raise _SyntaxFailure(offset, "expected a relationship type")
        self.advance()
        self.expect_punct("]->")
        dst = self.parse_name()[1]
        return EdgeDecl(src, rel, dst, *self.where(kw[2]))

    def parse_policy(self) -> PolicyDecl:
        kw = self.expect_keyword("policy")
        name = self.parse_name()[1]
        permit = self.expect_keyword("permit", "deny")[1] == "permit"
        decision = Decision.PERMIT if permit else Decision.DENY
        score: Optional[int] = None
        if self.at_keyword("score"):
            self.advance()
            kind, value, offset = self.tok
            if kind != "INT":
                raise _SyntaxFailure(offset, "expected an integer score")
            self.advance()
            score = int(value)
        self.expect_punct("{")
        slots: dict[ConditionType, list[ExprDecl]] = {}
        try:
            while not self.at_punct("}"):
                ctype = _SLOT_TYPES[self.expect_keyword(*_SLOT_TYPES)[1]]
                self.expect_punct(":")
                exprs = slots.setdefault(ctype, [])
                exprs.append(self.parse_expr())
                while self.at_punct(";"):
                    self.advance()
                    if not self._at_expr_start():
                        break
                    exprs.append(self.parse_expr())
        except _TooDeep:
            raise _SyntaxFailure(
                kw[2], f"policy {name!r} nests conditions deeper than {MAX_NESTING} levels"
            ) from None
        self.expect_punct("}")
        if not slots:
            raise _SyntaxFailure(kw[2], f"policy {name!r} declares no condition slots")
        return PolicyDecl(name, decision, score, slots, *self.where(kw[2]))

    def _at_expr_start(self) -> bool:
        kind, value, _ = self.tok
        if kind == "IDENT":
            return value == "not" or value not in KEYWORDS
        return kind == "STRING" or self.at_punct("(")

    def parse_expr(self, room: int = MAX_NESTING) -> ExprDecl:
        """One expression, with at most ``room`` levels of `not` and `(`."""
        if self.at_keyword("not"):
            if not room:
                raise _TooDeep
            self.advance()
            return NotExpr(self.parse_expr(room - 1))
        if self.at_punct("("):
            if not room:
                raise _TooDeep
            self.advance()
            children = [self.parse_expr(room - 1)]
            op: Optional[str] = None
            while self.at_keyword("and", "or"):
                _, value, offset = self.advance()
                if op is None:
                    op = value
                elif op != value:
                    raise _SyntaxFailure(
                        offset, "mixed 'and'/'or' in one group; add parentheses"
                    )
                children.append(self.parse_expr(room - 1))
            if op is None:
                raise _SyntaxFailure(
                    self.tok[2], "expected 'and' or 'or' inside parentheses"
                )
            self.expect_punct(")")
            if op == "and":
                return AndExpr(tuple(children))
            return OrExpr(tuple(children))
        _, name, offset = self.parse_name()
        return NameRef(name, *self.where(offset))


def parse_model(text: str) -> ModelDocument:
    """Parse source text into a ModelDocument; syntax errors land in
    ``document.errors`` with line/column positions."""
    return _Parser(text).parse_model()


# -- loading ----------------------------------------------------------


class _ModelBuilder:
    """Loads declarations into a graph and policy store as they arrive, in
    source order, and holds back those that name a node not declared yet
    (see the module docstring)."""

    def __init__(self) -> None:
        self.graph = Graph()
        self.store = PolicyStore(self.graph)
        self.node_errors: list[ModelError] = []
        self.edge_errors: list[ModelError] = []
        self.policy_errors: list[ModelError] = []
        # The first edge (policy) that named an unknown node, and every later
        # one, left for finish().
        self.waiting_edges: list[EdgeDecl] = []
        self.waiting_policies: list[PolicyDecl] = []

    def node(self, nd: NodeDecl) -> None:
        try:
            self.graph.add_node(nd.name, nd.labels, nd.properties)
        except (DuplicateNameError, EmptyNameError, ValueError) as exc:
            self.node_errors.append(ModelError(nd.line, nd.col, str(exc), "graph"))

    def edge(self, ed: EdgeDecl) -> None:
        if self.waiting_edges or self._load_edge(ed):
            self.waiting_edges.append(ed)

    def policy(self, pd: PolicyDecl) -> None:
        if self.waiting_policies or self._load_policy(pd):
            self.waiting_policies.append(pd)

    def finish(self, syntax_errors: list[ModelError]) -> LoadedModel:
        """Load what waited, freeze, and return the model, or raise
        ModelLoadError carrying every positioned error."""
        if syntax_errors:
            raise ModelLoadError(list(syntax_errors))
        for ed in self.waiting_edges:
            self.edge_errors += self._load_edge(ed)
        errors = self.node_errors + self.edge_errors
        if not errors:
            try:
                self.graph.freeze()
            except AttributeCycleError as exc:
                errors.append(ModelError(0, 0, str(exc), "graph"))
        if errors:
            raise ModelLoadError(errors)
        for pd in self.waiting_policies:
            self.policy_errors += self._load_policy(pd)
        if self.policy_errors:
            raise ModelLoadError(self.policy_errors)
        return LoadedModel(self.graph, self.store)

    def _load_edge(self, ed: EdgeDecl) -> list[ModelError]:
        """Add the edge, recording a rejection, unless it names an unknown
        node: then add nothing and return one error per unknown end."""
        src = self.graph.find_node(ed.src)
        dst = self.graph.find_node(ed.dst)
        if src is None or dst is None:
            return [
                ModelError(ed.line, ed.col, f"unknown node {name!r}", "graph")
                for name, ref in ((ed.src, src), (ed.dst, dst))
                if ref is None
            ]
        try:
            self.graph.add_edge(src, ed.rel_type, dst)
        except SelfLoopError as exc:
            self.edge_errors.append(ModelError(ed.line, ed.col, str(exc), "graph"))
        return []

    def _load_policy(self, pd: PolicyDecl) -> list[ModelError]:
        """Create the policy, recording a rejection, unless it names an
        unknown node: then create nothing and return one error per unknown
        name."""
        unknown: list[ModelError] = []
        conditions: dict[ConditionType, list[ConditionExpr]] = {}
        for t, decls in pd.slots.items():
            resolved: list[ConditionExpr] = []
            for decl in decls:
                expr = _resolve_expr(self.graph, pd, decl, unknown)
                if expr is not None:
                    resolved.append(expr)
            conditions[t] = resolved
        if not unknown:
            try:
                self.store.create_policy(pd.name, pd.decision, conditions, pd.score)
            except AbacError as exc:
                self.policy_errors.append(ModelError(pd.line, pd.col, str(exc), "policy"))
        return unknown


def load_document(doc: ModelDocument) -> LoadedModel:
    """Build the frozen graph and policy store, or raise ModelLoadError
    carrying every positioned error.  Never yields a partial model."""
    builder = _ModelBuilder()
    if not doc.errors:
        for nd in doc.nodes:
            builder.node(nd)
        for ed in doc.edges:
            builder.edge(ed)
        for pd in doc.policies:
            builder.policy(pd)
    return builder.finish(doc.errors)


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
    """Parse and load source text in one pass; the same model, or the same
    ModelLoadError, as ``load_document(parse_model(text))``."""
    builder = _ModelBuilder()
    errors = _Parser(text).parse(builder.node, builder.edge, builder.policy)
    return builder.finish(errors)


def read_model_file(path) -> str:
    """The text of a UTF-8 model file; a leading byte-order mark is dropped.
    Undecodable bytes raise ModelLoadError like any other malformed input;
    OSError passes through."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        message = f"model file is not UTF-8 text: {exc}"
        raise ModelLoadError([ModelError(0, 0, message)]) from None


def load_model_file(path) -> LoadedModel:
    """Read and load a model file (see ``read_model_file``)."""
    return load_model(read_model_file(path))


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
    # Imported here: only the bundled model reads package data.
    from importlib import resources

    return (
        resources.files("graphabac.data")
        .joinpath(name + MODEL_FILE_EXTENSION)
        .read_text(encoding="utf-8")
    )


def load_bundled_model(name: str = "healthcare") -> LoadedModel:
    return load_model(bundled_model_text(name))
