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
policy that nests deeper is one error, at the policy; an integer with more
digits than ``int()`` converts (``sys.get_int_max_str_digits()``, CPython
3.11 and later) is one error, at the integer.

The text is lexed in one ``finditer`` pass into ``(kind, value, offset)``
tuples: kind is ``IDENT``, ``STRING``, ``INT``, ``PUNCT`` or, last,
``EOF``; value is the token text (a string's unescaped contents); offset is
the character index where the token starts.  Tokens stream to the parser,
which holds one lookahead token, and lexer errors go straight into the
parser's error list.  The parser passes positions on as offsets.  A line
and column are computed only where they are recorded: on every record
``parse_model`` makes, and, when loading, on a ``ModelError`` and on what
waits for a later declaration (see below).  The first one asked for builds
a list of the text's line starts, and each is then one ``bisect``, so a
load without errors and without forward references builds no such list;
it only counts each piece's newlines, with one ``str.count``.  Lines end
at ``\\n`` and count from 1, and every other character, ``\\r`` and tab
included, is one column.

Most statements are never lexed.  At each statement keyword the parser first
tries one anchored ``re.match`` of the statement's plain form:

    node NAME : LABEL
    edge NAME -[TYPE]-> NAME
    policy NAME (permit | deny) [score INT] { slot: NAME; ... }

where every condition is a name, bare or quoted with no backslash, and only
whitespace separates the tokens.  A plain statement is taken only when it
is followed, after whitespace and comments,
by a whole-word ``node``, ``edge`` or ``policy`` or by the end of input,
where the token parser would end it too.  A plain node or edge hands the
sink the declaration the token parser would, at the same offset.  A plain
policy is taken only when no name is quoted (one may hold ``;`` or ``:``)
and the sink's ``find`` knows every name: ``str.split`` cuts its body into
slots, one ``map`` over ``find`` looks up each slot, and the sink gets one
node tuple per slot, each node once, in the order first named.  The lexer
restarts after the last statement read this way.  Anything else goes to
the token parser from the statement's keyword: properties, a second label,
``not``/``and``/``or``, a string with a backslash, a keyword where a name
goes, a comment inside the statement, a score too long for ``int()``, all
malformed text, and a policy with a name not declared yet or read into a
document, so every syntax error comes from the token parser.

A parsed condition is the engine's own ``Not``/``And``/``Or`` (see
``policy.py``), so the parser, the loader and the store share one
expression type; its leaves are whatever the sink makes of each name:
``NameRef``s in a document, ``Ref``s when loading.
The syntax tree and the load records are slotted records (see
``records.py``): ``NameRef`` is frozen and hashes by its fields; the
declarations, ``ModelError``, ``ModelDocument`` and ``LoadedModel`` compare
by their fields but do not hash.

The parser hands each declaration's fields and its offset to a sink, as
soon as it is complete: ``node(pos, name, labels, props)``, ``edge(pos,
src, rel_type, dst)`` or ``policy(pos, name, decision, score, slots)``,
whose ``slots`` maps condition types to expressions, or, from a plain
policy, holds one node tuple per slot in ``_SLOTS`` order.  The token
parser asks ``leaf(pos, name)`` for each condition leaf.  A sink also has
``where``, which places an offset, and ``find``, a lookup of a name's node
or None.  ``parse_model``'s sink, ``_DocumentSink``, has no ``find`` and
makes the records of a ``ModelDocument``.  ``load_model`` and
``load_model_file`` hand them to ``_ModelBuilder``, which loads the model
in the same pass and makes no record: a node goes into the graph at once,
an edge when both of its ends are known, and a policy when every name it
uses is known, node tuples through ``PolicyStore._add``, with no ``Ref``
and nothing to compile.  Each name is looked up once.  Declarations may
refer to nodes declared later: a name not known yet becomes a ``NameRef``
placed at its line and column, and such an edge or policy, and every later
one of its kind, waits, placed the same way, as its argument tuple until
the end of input, when the names still left are looked up again.  So
edges and policies still go in in source order, which fixes child order,
policy ``seq`` and first-applicable results.
``load_document`` replays a document into the same builder, each record's
(line, column) standing for its offset.  Either way a ``ModelLoadError``
lists the errors in one order: any syntax errors, and then nothing else;
otherwise node errors, then edge errors, then a ``HAS_ATTR`` cycle; and
policy errors only when the graph has none.

``load_model_file`` reads the text in pieces of about ``PIECE_CHARS``
characters, so a load holds the model and one piece, never the whole
text; ``load_model`` loads its string, already held, as one piece.  A piece
is cut just before a ``node``, ``edge`` or ``policy`` that starts a line
and is followed by a character that ends the word, unless the last token
before that line is ``{``, ``,`` or ``-[``: only there, as a property key
or a relationship type, is the keyword read as a word, so no statement
runs on past a cut.  The piece keeps the keyword as its last token, the
stop; the next piece starts at it.  A line start is never inside a comment
or a string, so each line lexes alone as it does in the whole text, and up
to the stop a piece lexes and matches as the whole text does.  The parser
ends a piece when its lookahead reaches the stop, so the plain forms'
lookahead and every message (``found 'node'``, not ``found 'end of
input'``) see what the whole text shows them.  Offsets count from the
start of their piece: each piece has its own ``where``, whose lines go on
from the lines before the piece, which is why whatever waits past its piece
is placed when it starts to wait.  A file that does not decode is read again
whole, so its error names the byte ``read_model_file`` names.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Iterable, Iterator, Optional, Union

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
    ConditionType,
    Decision,
    Not,
    Or,
    PolicyStore,
    Ref,
    _NO_COMPOUND,
    _children,
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
_DECISIONS = {"permit": Decision.PERMIT, "deny": Decision.DENY}

# -- syntax tree ------------------------------------------------------


class NameRef(FrozenRecord):
    __slots__ = ("name", "line", "col")

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        _set(self, "name", name)
        _set(self, "line", line)
        _set(self, "col", col)


# A condition as parsed: the engine's own expression over NameRef leaves.
ExprDecl = Union[NameRef, Not, And, Or]


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

# The plain statement forms, each read with one anchored match (see the
# module docstring).  A pattern is tried only where its keyword is a whole
# word: at a keyword token, or where the last match's lookahead found one.
# Under re.ASCII, \w is the lexer's identifier character and \b ends a word
# where the lexer's IDENT ends, so a match splits the text into the lexer's
# tokens, and it matches no text the lexer reports an error in.  A comment
# runs to the end of its line whatever backtracking tries.  No pattern nests
# a repeat, so a failing match backtracks in linear time.  A name may match a
# keyword; the declaration functions check that, and a quoted name holds no
# quote, so strip('"') unquotes it.  A plain score has at most 640 digits, the
# least limit sys.set_int_max_str_digits() accepts, so int() always converts
# it; a longer one goes to the token parser.
_WS = r"[ \t\r\n]*"
_NAME = r'(?:[A-Za-z_]\w*\b|"[^"\\\n]*")'
_NEXT = rf"{_WS}(?:#[^\n]*(?![^\n]){_WS})*(?=(?P<next>node|edge|policy)\b|\Z)"
_SLOT = rf"(?:subject|action|object){_WS}:{_WS}{_NAME}(?:{_WS};{_WS}{_NAME})*"
_PLAIN_NODE_RE = re.compile(
    rf"node{_WS}(?P<name>{_NAME}){_WS}:{_WS}(?P<label>[A-Za-z_]\w*\b){_NEXT}", re.ASCII
)
_PLAIN_EDGE_RE = re.compile(
    rf"edge{_WS}(?P<src>{_NAME}){_WS}-\[{_WS}(?P<rel>[A-Za-z_]\w*){_WS}\]->{_WS}"
    rf"(?P<dst>{_NAME}){_NEXT}",
    re.ASCII,
)
_PLAIN_POLICY_RE = re.compile(
    rf"policy{_WS}(?P<name>{_NAME}){_WS}(?P<decision>permit|deny)\b{_WS}"
    rf"(?:score\b{_WS}(?P<score>-?[0-9]{{1,640}}){_WS})?"
    rf"\{{(?P<body>(?:{_WS}{_SLOT}(?:{_WS};)?)+){_WS}\}}{_NEXT}",
    re.ASCII,
)


def _plain_node(m: re.Match, sink) -> bool:
    name, label = m.group("name", "label")
    if name in KEYWORDS or label in KEYWORDS:
        return False
    sink.node(m.start(), name.strip('"'), (label,), {})
    return True


def _plain_edge(m: re.Match, sink) -> bool:
    src, rel, dst = m.group("src", "rel", "dst")
    if src in KEYWORDS or dst in KEYWORDS:
        return False
    sink.edge(m.start(), src.strip('"'), rel, dst.strip('"'))
    return True


def _plain_policy(m: re.Match, sink) -> bool:
    name, decision, score, body = m.group("name", "decision", "score", "body")
    find = sink.find
    # A quoted condition name may hold ";" or ":", and a sink without
    # ``find`` takes each name as a leaf: both go to the token parser.
    if find is None or name in KEYWORDS or '"' in body:
        return False
    # Without a quoted name, the match leaves a word just before a ":" as a
    # slot keyword and every other word as a name.  So each piece between
    # two colons holds one slot's names and then the next slot's keyword.
    pieces = [piece.split() for piece in body.replace(";", " ").split(":")]
    keywords = [piece.pop() for piece in pieces[:-1]]
    slots: dict[str, list] = {}
    for keyword, names in zip(keywords, pieces[1:]):
        found = list(map(find, names))
        # A keyword where a name goes is a syntax error, and a name not
        # declared yet waits as a leaf.
        if None in found or not KEYWORDS.isdisjoint(names):
            return False
        slots.setdefault(keyword, []).extend(found)
    nodes = tuple([tuple(dict.fromkeys(slots.get(word, ()))) for word in _SLOT_TYPES])
    score = None if score is None else int(score)
    sink.policy(m.start(), name.strip('"'), _DECISIONS[decision], score, nodes)
    return True


# Statement keyword -> (its pattern's match, a function that hands a match's
# declaration to the sink and returns True, or returns False, handing
# nothing, if a name in it is a keyword or the sink cannot take it as it is).
_PLAIN_FORMS = {
    "node": (_PLAIN_NODE_RE.match, _plain_node),
    "edge": (_PLAIN_EDGE_RE.match, _plain_edge),
    "policy": (_PLAIN_POLICY_RE.match, _plain_policy),
}


def _locator(text: str) -> Callable[[int], tuple[int, int]]:
    """Map a character offset into ``text`` to its 1-based (line, column).

    The table of line starts is built at the first call, so a text whose
    positions are never asked for is never scanned for newlines."""
    starts: list[int] = []

    def where(offset: int) -> tuple[int, int]:
        if not starts:
            starts.append(0)
            starts.extend([m.end() for m in re.finditer("\n", text)])
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    return where


def _lex(
    text: str, errors: list[ModelError], where: Callable[[int], tuple[int, int]], pos: int = 0
) -> Iterator[tuple[str, str, int]]:
    """Yield ``(kind, value, offset)`` per token from ``pos``, then ``EOF``;
    lexer errors go to ``errors`` as the scan reaches them."""
    for m in _TOKEN_RE.finditer(text, pos):
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


def int_literal(text: str) -> int:
    """``text``, a decimal integer literal, as an int.  Raises ValueError
    for a literal longer than ``int()`` reads: CPython 3.11 and later refuse
    one longer than sys.get_int_max_str_digits() allows."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer too long: {len(text)} characters") from None


class _SyntaxFailure(Exception):
    """A syntax error; its args are its offset and its message."""


class _TooDeep(Exception):
    """An expression nests deeper than MAX_NESTING."""


class _Parser:
    """Parses ``text`` into calls on ``sink`` (see the module docstring):
    ``node``, ``edge`` and ``policy`` per declaration, in source order, and
    ``leaf`` per condition name the token parser reads.  Each ``pos`` is a
    character offset, and ``sink.where`` maps one to (line, column) for a
    syntax error."""

    def __init__(
        self,
        text: str,
        sink,
        errors: Optional[list[ModelError]] = None,
        stop: Optional[int] = None,
    ) -> None:
        self.text = text
        self.sink = sink
        self.errors: list[ModelError] = [] if errors is None else errors
        # The offset of the token that ends the parse: a statement keyword
        # that the next piece starts with, or the end of input.
        self.stop = len(text) if stop is None else stop
        self.lex_from(0)

    def lex_from(self, pos: int) -> None:
        """(Re)start the token stream at ``pos`` and read its first token."""
        # The token stream holds no reference back to the parser, so the
        # scan state is freed with the parser, not at a cyclic collection.
        self._next = _lex(self.text, self.errors, self.sink.where, pos).__next__
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

    def parse(self) -> list[ModelError]:
        """Hand the declarations to the sink and return the syntax errors
        sorted by position."""
        self.parse_to_stop()
        _by_position(self.errors)
        return self.errors

    def parse_to_stop(self) -> None:
        """Hand the declarations before ``stop`` to the sink, adding syntax
        errors to ``errors`` as they are found."""
        while True:
            self.parse_plain()
            if self.tok[2] >= self.stop:
                return
            try:
                if not self.at_keyword("node", "edge", "policy"):
                    raise self.unexpected("'node', 'edge' or 'policy'")
                getattr(self, "parse_" + self.tok[1])()
            except _SyntaxFailure as fail:
                offset, message = fail.args
                self.errors.append(ModelError(*self.sink.where(offset), message))
                # Keep the token when it can start the next statement; the
                # statement's own keyword is consumed before any failure, so
                # this always makes progress.
                if not self.at_keyword("node", "edge", "policy"):
                    self.advance()
                self.resync()

    def parse_plain(self) -> None:
        """Read the statements from the lookahead on, while each has a plain
        form, with one match each, and restart the lexer after the last one
        read; the lookahead then starts no plain statement."""
        kind, word, start = self.tok
        end = start
        while kind == "IDENT" and word in _PLAIN_FORMS:
            match, declare = _PLAIN_FORMS[word]
            m = match(self.text, end)
            if m is None or not declare(m, self.sink):
                break
            end, word = m.end(), m["next"]
        if end != start:
            self.lex_from(end)

    def parse_node(self) -> None:
        kw = self.expect_keyword("node")
        name = self.parse_name()[1]
        self.expect_punct(":")
        labels = [self.expect_label()]
        while self.at_punct(","):
            self.advance()
            labels.append(self.expect_label())
        props = self.parse_props() if self.at_punct("{") else {}
        self.sink.node(kw[2], name, tuple(labels), props)

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
            return self.parse_int()
        if kind == "IDENT" and value in ("true", "false"):
            return self.advance()[1] == "true"
        raise self.unexpected("a scalar value")

    def parse_int(self) -> int:
        """The lookahead, an ``INT`` token, as an int."""
        _, value, offset = self.advance()
        try:
            return int_literal(value)
        except ValueError as exc:
            raise _SyntaxFailure(offset, str(exc)) from None

    def parse_edge(self) -> None:
        kw = self.expect_keyword("edge")
        src = self.parse_name()[1]
        self.expect_punct("-[")
        kind, rel, offset = self.tok
        if kind != "IDENT":
            raise _SyntaxFailure(offset, "expected a relationship type")
        self.advance()
        self.expect_punct("]->")
        dst = self.parse_name()[1]
        self.sink.edge(kw[2], src, rel, dst)

    def parse_policy(self) -> None:
        kw = self.expect_keyword("policy")
        name = self.parse_name()[1]
        decision = _DECISIONS[self.expect_keyword(*_DECISIONS)[1]]
        score: Optional[int] = None
        if self.at_keyword("score"):
            self.advance()
            if self.tok[0] != "INT":
                raise _SyntaxFailure(self.tok[2], "expected an integer score")
            score = self.parse_int()
        self.expect_punct("{")
        slots: dict[ConditionType, list] = {}
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
        self.sink.policy(kw[2], name, decision, score, slots)

    def _at_expr_start(self) -> bool:
        kind, value, _ = self.tok
        if kind == "IDENT":
            return value == "not" or value not in KEYWORDS
        return kind == "STRING" or self.at_punct("(")

    def parse_expr(self, room: int = MAX_NESTING):
        """One expression, with at most ``room`` levels of `not` and `(`."""
        if self.at_keyword("not"):
            if not room:
                raise _TooDeep
            self.advance()
            return Not(self.parse_expr(room - 1))
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
            return (And if op == "and" else Or)(tuple(children))
        _, name, offset = self.parse_name()
        return self.sink.leaf(offset, name)


class _DocumentSink:
    """The parser's sink for ``parse_model``: a record per declaration and a
    ``NameRef`` per condition name, each with its line and column."""

    # Every condition name is a leaf of its own, so no policy is read as
    # names alone.
    find = None

    def __init__(self, text: str) -> None:
        self.doc = ModelDocument()
        self.where = _locator(text)

    def node(self, pos: int, name: str, labels: tuple[str, ...], props: dict) -> None:
        self.doc.nodes.append(NodeDecl(name, labels, props, *self.where(pos)))

    def edge(self, pos: int, src: str, rel_type: str, dst: str) -> None:
        self.doc.edges.append(EdgeDecl(src, rel_type, dst, *self.where(pos)))

    def policy(self, pos: int, name: str, decision: Decision, score, slots: dict) -> None:
        self.doc.policies.append(PolicyDecl(name, decision, score, slots, *self.where(pos)))

    def leaf(self, pos: int, name: str) -> NameRef:
        return NameRef(name, *self.where(pos))


def parse_model(text: str) -> ModelDocument:
    """Parse source text into a ModelDocument; syntax errors land in
    ``document.errors`` with line/column positions."""
    sink = _DocumentSink(text)
    sink.doc.errors = _Parser(text, sink).parse()
    return sink.doc


def _by_position(errors: list[ModelError]) -> None:
    # Stable: at one position a lexer error was recorded before the parser
    # could fail on the token there.
    errors.sort(key=lambda e: (e.line, e.col))


# -- loading ----------------------------------------------------------


def _swap_names(expr, swap: Callable[[NameRef], object]):
    """``expr`` with ``swap(leaf)`` in place of each ``NameRef`` leaf."""
    if isinstance(expr, NameRef):
        return swap(expr)
    if isinstance(expr, Ref):
        return expr
    parts = tuple([_swap_names(part, swap) for part in _children(expr)])
    return Not(parts[0]) if isinstance(expr, Not) else type(expr)(parts)


class _ModelBuilder:
    """The parser's sink for ``load_model``: loads each declaration into a
    graph and policy store as it arrives, in source order, and holds back,
    as its argument tuple, each edge or policy that names a node not
    declared yet (see the module docstring).  A position is kept as it
    comes, and ``where`` turns it into (line, column) only for an error or
    for a declaration or leaf that waits: while a piece is parsed,
    ``where`` maps an offset into it; outside one, every position is
    already a (line, column) and ``where`` is ``_placed``."""

    def __init__(self, where: Callable) -> None:
        self.where = where
        self.graph = Graph()
        self.store = PolicyStore(self.graph)
        self.node_errors: list[ModelError] = []
        self.edge_errors: list[ModelError] = []
        self.policy_errors: list[ModelError] = []
        # The first edge (policy) that named an unknown node, and every later
        # one, left for finish().
        self.waiting_edges: list[tuple] = []
        self.waiting_policies: list[tuple] = []
        # The leaves made for unknown names since the last policy.
        self.unknown: list[NameRef] = []
        # A name's node, or None, for the plain policy form.
        self.find = self.graph._by_name.get

    def error(self, pos, message: str, kind: str) -> ModelError:
        return ModelError(*self.where(pos), message, kind)

    def node(self, pos, name: str, labels: tuple[str, ...], props: dict) -> None:
        try:
            self.graph.add_node(name, labels, props)
        except (DuplicateNameError, EmptyNameError, ValueError) as exc:
            self.node_errors.append(self.error(pos, str(exc), "graph"))

    def edge(self, pos, src: str, rel_type: str, dst: str) -> None:
        if self.waiting_edges or not self._add_edge(pos, src, rel_type, dst):
            self.waiting_edges.append((self.where(pos), src, rel_type, dst))

    def leaf(self, pos, name: str):
        """A ``Ref`` to the node ``name`` or, for a node not declared yet, a
        ``NameRef`` placed at the leaf."""
        node = self.graph.find_node(name)
        if node is not None:
            return Ref(node)
        ref = NameRef(name, *self.where(pos))
        self.unknown.append(ref)
        return ref

    def policy(self, pos, name: str, decision: Decision, score, slots) -> None:
        """Create the policy, from its conditions mapping or, from the plain
        form, one node tuple per slot in ``_SLOTS`` order, or hold it back
        as it is while a name in it or an earlier policy waits."""
        if self.unknown or self.waiting_policies:
            self.waiting_policies.append((self.where(pos), name, decision, score, slots))
        else:
            self._create(pos, name, decision, score, slots)
        self.unknown.clear()

    def finish(self, syntax_errors: list[ModelError]) -> LoadedModel:
        """Load what waited, freeze, and return the model, or raise
        ModelLoadError carrying every positioned error."""
        if syntax_errors:
            raise ModelLoadError(list(syntax_errors))
        for pos, src, rel_type, dst in self.waiting_edges:
            if not self._add_edge(pos, src, rel_type, dst):
                unknown = [name for name in (src, dst) if self.graph.find_node(name) is None]
                self.edge_errors += [self.error(pos, f"unknown node {n!r}", "graph") for n in unknown]
        errors = self.node_errors + self.edge_errors
        if not errors:
            try:
                self.graph.freeze()
            except AttributeCycleError as exc:
                errors.append(ModelError(0, 0, str(exc), "graph"))
        if errors:
            raise ModelLoadError(errors)
        for pos, name, decision, score, slots in self.waiting_policies:
            if type(slots) is dict:
                # Each leaf still a NameRef is looked up again.
                self.unknown.clear()
                swap = self._leaf_again
                slots = {t: [_swap_names(e, swap) for e in es] for t, es in slots.items()}
                for ref in self.unknown:
                    message = f"policy {name!r} references unknown node {ref.name!r}"
                    self.policy_errors.append(ModelError(ref.line, ref.col, message, "policy"))
                if self.unknown:
                    continue
            self._create(pos, name, decision, score, slots)
        if self.policy_errors:
            raise ModelLoadError(self.policy_errors)
        return LoadedModel(self.graph, self.store)

    def _add_edge(self, pos, src: str, rel_type: str, dst: str) -> bool:
        """Add the edge, recording a rejection, and return True; or return
        False, adding nothing, if it names an unknown node."""
        src_ref = self.graph.find_node(src)
        dst_ref = self.graph.find_node(dst)
        if src_ref is None or dst_ref is None:
            return False
        try:
            # Both refs were just found, so the graph need not check them.
            self.graph._link(src_ref, rel_type, dst_ref)
        except SelfLoopError as exc:
            self.edge_errors.append(self.error(pos, str(exc), "graph"))
        return True

    def _leaf_again(self, ref: NameRef):
        return self.leaf((ref.line, ref.col), ref.name)

    def _create(self, pos, name: str, decision: Decision, score, slots) -> None:
        """Create the policy from its conditions mapping, or store it from
        its node tuples, and record a rejection."""
        try:
            if type(slots) is dict:
                self.store.create_policy(name, decision, slots, score)
            else:
                self.store._add(name, decision, score, slots, _NO_COMPOUND)
        except AbacError as exc:
            self.policy_errors.append(self.error(pos, str(exc), "policy"))


def load_document(doc: ModelDocument) -> LoadedModel:
    """Build the frozen graph and policy store, or raise ModelLoadError
    carrying every positioned error.  Never yields a partial model."""
    # A record's (line, col) is its position, already what errors report.
    builder = _ModelBuilder(_placed)
    if not doc.errors:
        for nd in doc.nodes:
            builder.node((nd.line, nd.col), nd.name, nd.labels, nd.properties)
        for ed in doc.edges:
            builder.edge((ed.line, ed.col), ed.src, ed.rel_type, ed.dst)
        for pd in doc.policies:
            # A leaf without a position of its own is placed at its policy.
            def leaf(ref: NameRef):
                return builder.leaf((ref.line or pd.line, ref.col or pd.col), ref.name)

            slots = {t: [_swap_names(e, leaf) for e in exprs] for t, exprs in pd.slots.items()}
            builder.policy((pd.line, pd.col), pd.name, pd.decision, pd.score, slots)
    return builder.finish(doc.errors)


def _placed(pos: tuple[int, int]) -> tuple[int, int]:
    """The position of a record or of a waiting declaration: already a
    (line, column)."""
    return pos


# The characters read at a time when loading: a piece is this much text
# and what is left of the last one, cut before the last statement keyword
# that starts a line and can start a statement there.
PIECE_CHARS = 1 << 18

# A statement keyword and the character after it, which ends the word.
_CUT_RE = re.compile(r"(?:node|edge|policy)[^A-Za-z0-9_]")

# After one of these tokens a word is read as a property key ("{" and ",")
# or a relationship type ("-["), a statement keyword too; after any other,
# a statement keyword starts a statement or ends one that failed.
_RUNS_ON = ("{", ",", "-[")


def _pieces(read: Callable[[int], str]) -> Iterator[tuple[str, int]]:
    """The text that ``read(n)`` returns, ``n`` characters or fewer at a
    time and ``""`` at its end, as ``(piece, stop)`` pairs: ``piece[:stop]``
    is the next part of the text, and the rest of ``piece`` is the
    statement keyword that starts both a line and the next part.  The last
    piece's ``stop`` is its length.

    The cut is the last line-start keyword that the text read so far
    shows whole, with the character after it, and whose last token before
    it is none of ``_RUNS_ON``; text with none is read on until one shows
    or the text ends."""
    text = ""
    while chunk := read(PIECE_CHARS):
        # Every line start with room for a keyword and the character after
        # it before this chunk came was searched then.
        searched = max(len(text) - 8, 0)
        text += chunk
        del chunk
        stop, end = _cut(text, searched)
        if stop:
            piece, text = text[:end], text[stop:]
            yield piece, stop
            del piece
    yield text, len(text)


def _cut(text: str, searched: int) -> tuple[int, int]:
    """``(stop, end)`` for the last statement keyword in ``text`` that
    starts a line after offset ``searched``, has a character after it and
    can start a statement, where ``stop`` is the keyword's offset and
    ``end`` where it ends; or ``(0, 0)`` for none."""
    end = len(text)
    while (end := text.rfind("\n", searched, end)) >= 0:
        if (m := _CUT_RE.match(text, end + 1)) and _last_token(text, end) not in _RUNS_ON:
            return end + 1, m.end() - 1
    return 0, 0


def _last_token(text: str, end: int) -> str:
    """The text of the last token in ``text`` before the line end at
    ``end``, or ``""`` for none.  A line start is never inside a string or
    a comment, so each line, lexed alone, has the tokens it has in the
    whole text; lines without one are passed over."""
    while end >= 0:
        start = text.rfind("\n", 0, end) + 1
        tokens = [
            m.group()
            for m in _TOKEN_RE.finditer(text, start, end)
            if m.lastgroup in ("IDENT", "PUNCT", "STRING", "INT")
        ]
        if tokens:
            return tokens[-1]
        end = start - 1
    return ""


def _load(pieces: Iterable[tuple[str, int]]) -> LoadedModel:
    """Parse and load the text of ``pieces`` (see ``_pieces``) one piece at
    a time, so no more of it is held than the piece being parsed."""
    builder = _ModelBuilder(_placed)
    errors: list[ModelError] = []
    lines = 0  # the lines before the piece
    for piece, stop in pieces:
        builder.where = _at_line(_locator(piece), lines)
        _Parser(piece, builder, errors, stop).parse_to_stop()
        lines += piece.count("\n")
        # Nothing holds a piece while the next one is read.
        del piece
        builder.where = _placed
    _by_position(errors)
    return builder.finish(errors)


def _at_line(where: Callable[[int], tuple[int, int]], lines: int) -> Callable:
    """``where``, its line numbers moved on by ``lines``."""
    if not lines:
        return where

    def placed(offset: int) -> tuple[int, int]:
        line, col = where(offset)
        return line + lines, col

    return placed


def load_model(text: str) -> LoadedModel:
    """Parse and load source text in one pass, as one piece; the same
    model, or the same ModelLoadError, as
    ``load_document(parse_model(text))``."""
    return _load([(text, len(text))])


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
    """Read and load a model file (see ``read_model_file``), one piece at a
    time: the same model, or the same ModelLoadError, as
    ``load_model(read_model_file(path))``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return _load(_pieces(fh.read))
    except UnicodeDecodeError:
        # A decoder fed block by block places a bad byte within its block,
        # so the error comes from one read of the whole file.
        return load_model(read_model_file(path))


# -- serialization ----------------------------------------------------


def __getattr__(name: str):
    # The serializer is its own module, imported on first use: loading and
    # deciding never write a model.
    if name in ("serialize_model", "format_expr", "format_name"):
        from . import serialize

        return getattr(serialize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- bundled sample ---------------------------------------------------


# The one model shipped in ``graphabac.data``.
_BUNDLED_MODEL = "healthcare" + MODEL_FILE_EXTENSION


def bundled_model_text() -> str:
    # Imported here: only the bundled model reads package data.
    from importlib import resources

    return resources.files("graphabac.data").joinpath(_BUNDLED_MODEL).read_text(encoding="utf-8")


def load_bundled_model() -> LoadedModel:
    return load_model(bundled_model_text())
