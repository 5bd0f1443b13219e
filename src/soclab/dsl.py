"""A small textual language for wiring processes together.

A diagram file declares named systems and boxes, then optionally builds one
expression out of them::

    # teleport the wire around a loop
    system Q = 2 ;
    box noise : Q -> Q @ "noise.json" ;

    (id[Q] * cup[Q]) ; (noise * id[Q] * id[Q]) ; (cap[Q] * id[Q])

``;`` is sequential composition read left to right (run the left part
first), ``*`` is side-by-side placement and binds tighter.  Builtins are
``id[A]``, ``swap[A,B]``, ``cup[A]``, ``cap[A]`` and ``discard[A]``; ``I``
names the empty type.  Box bodies are loaded from process files, resolved
relative to the diagram's own directory.

Parsing raises :class:`DiagramSyntaxError` and evaluation raises
:class:`DiagramTypeError`, both carrying line and column.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import DiagramSyntaxError, DiagramTypeError
from .process import (
    Process,
    _read_json,
    cap,
    compose_par,
    compose_seq,
    cup,
    discard_process,
    identity_process,
    process_from_dict,
    swap_process,
)
from .tensor import System

KEYWORDS = ("system", "box")
# name -> (constructor, number of system arguments)
BUILTINS = {"id": (identity_process, 1), "swap": (swap_process, 2), "cup": (cup, 1), "cap": (cap, 1), "discard": (discard_process, 1)}
RESERVED = {*KEYWORDS, *BUILTINS, "I"}
# Each level of parentheses costs the parser three stack frames; this bound
# keeps a parse well inside Python's recursion limit.
_MAX_NESTING = 100

# One alternative per token class, tried in order at each position.  A name
# may start with any word character that is not a digit; ``tokenize`` then
# refuses one whose first character is not a letter or ``_``.
_TOKEN = re.compile(
    r'(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)|"(?P<string>[^"\n]*)"'
    r"|(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<punct>->|[=;:@*()\[\],])|(?P<bad>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "bad" or kind == "name" and not (value[0].isalpha() or value[0] == "_"):
            message = "unterminated string" if value == '"' else f"unexpected character {value[0]!r}"
            raise DiagramSyntaxError(message, line, col)
        if kind not in ("blank", "comment"):
            toks.append(Token(value if kind == "punct" else kind, value, line, col))
        if kind != "comment":  # a comment does not move the column: an eof after one keeps its start
            col += m.end() - m.start()
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass(frozen=True)
class SystemDecl:
    name: str
    size: int
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)


@dataclass(frozen=True)
class BoxDecl:
    name: str
    in_type: tuple[str, ...]
    out_type: tuple[str, ...]
    path: str
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)


@dataclass(frozen=True)
class Ref:
    name: str
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)


@dataclass(frozen=True)
class Builtin:
    kind: str
    args: tuple[str, ...]
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)


def _same_tree(e: "Expr", other) -> bool:
    """``e == other`` for a composition, compared with an explicit stack so
    that trees of any depth compare; positions are not compared."""
    if type(other) is not type(e):
        return NotImplemented
    todo = [(e, other)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (SeqComp, ParComp)):
            todo += [(a.right, b.right), (a.left, b.left)]
        elif a != b:
            return False
    return True


@dataclass(frozen=True)
class SeqComp:
    left: "Expr"
    right: "Expr"
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)

    __eq__ = _same_tree


@dataclass(frozen=True)
class ParComp:
    left: "Expr"
    right: "Expr"
    line: int = field(compare=False, repr=False)
    col: int = field(compare=False, repr=False)

    __eq__ = _same_tree


Expr = Union[Ref, Builtin, SeqComp, ParComp]


@dataclass(frozen=True)
class Program:
    decls: tuple[Union[SystemDecl, BoxDecl], ...]
    expr: Expr | None


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.value or t.kind
            raise DiagramSyntaxError(f"expected {kind!r}, found {shown!r}", t.line, t.col)
        return self.advance()

    def parse_program(self) -> Program:
        decls = []
        while self.peek().kind == "name" and self.peek().value in KEYWORDS:
            decls.append(self.parse_decl())
        expr = None
        if self.peek().kind != "eof":
            expr = self.parse_seq()
        self.expect("eof")
        return Program(tuple(decls), expr)

    def parse_decl(self):
        kw = self.advance()
        if kw.value == "system":
            name = self.expect("name")
            self.expect("=")
            size = self.expect("int")
            self.expect(";")
            try:
                value = int(size.value)
            except ValueError:  # more digits than int() will read
                raise DiagramSyntaxError(f"system size has too many digits ({len(size.value)})", size.line, size.col) from None
            return SystemDecl(name.value, value, kw.line, kw.col)
        name = self.expect("name")
        self.expect(":")
        in_type = self.parse_type()
        self.expect("->")
        out_type = self.parse_type()
        self.expect("@")
        path = self.expect("string")
        self.expect(";")
        return BoxDecl(name.value, in_type, out_type, path.value, kw.line, kw.col)

    def parse_type(self) -> tuple[str, ...]:
        first = self.expect("name")
        if first.value == "I":
            return ()
        names = [first.value]
        while self.peek().kind == "*":
            self.advance()
            names.append(self.expect("name").value)
        return tuple(names)

    def parse_seq(self) -> Expr:
        node = self.parse_par()
        while self.peek().kind == ";":
            op = self.advance()
            if self.peek().kind == "eof":
                raise DiagramSyntaxError("expected expression after ';'", op.line, op.col)
            node = SeqComp(node, self.parse_par(), op.line, op.col)
        return node

    def parse_par(self) -> Expr:
        node = self.parse_atom()
        while self.peek().kind == "*":
            op = self.advance()
            node = ParComp(node, self.parse_atom(), op.line, op.col)
        return node

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "(":
            if self.depth == _MAX_NESTING:
                raise DiagramSyntaxError(f"parentheses nested more than {_MAX_NESTING} deep", t.line, t.col)
            self.advance()
            self.depth += 1
            node = self.parse_seq()
            self.expect(")")
            self.depth -= 1
            return node
        if t.kind != "name":
            shown = t.value or t.kind
            raise DiagramSyntaxError(f"expected an expression, found {shown!r}", t.line, t.col)
        self.advance()
        if t.value in BUILTINS:
            self.expect("[")
            args = [self.expect("name").value]
            while self.peek().kind == ",":
                self.advance()
                args.append(self.expect("name").value)
            self.expect("]")
            want = BUILTINS[t.value][1]
            if len(args) != want:
                raise DiagramSyntaxError(
                    f"{t.value} takes {want} system argument{'s' if want > 1 else ''}, got {len(args)}",
                    t.line,
                    t.col,
                )
            return Builtin(t.value, tuple(args), t.line, t.col)
        return Ref(t.value, t.line, t.col)


def parse(text: str) -> Program:
    return _Parser(tokenize(text)).parse_program()


def unparse(program: Program) -> str:
    lines = []
    for d in program.decls:
        if isinstance(d, SystemDecl):
            lines.append(f"system {d.name} = {d.size} ;")
        else:
            it = " * ".join(d.in_type) if d.in_type else "I"
            ot = " * ".join(d.out_type) if d.out_type else "I"
            lines.append(f'box {d.name} : {it} -> {ot} @ "{d.path}" ;')
    if program.expr is not None:
        lines.append(unparse_expr(program.expr))
    return "\n".join(lines) + "\n"


def unparse_expr(e: Expr) -> str:
    """The text that parses back to ``e``, bracketing only what left
    association and ``*`` binding tighter than ``;`` do not already say.
    Written with an explicit stack, so a chain of any length prints."""
    out: list[str] = []
    # Each entry is text to emit or an expression with the binding level
    # of its place: 0 anywhere, 1 a left operand of ``*`` or right operand
    # of ``;``, 2 a right operand of ``*``.
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, level = item
        if isinstance(e, Ref):
            out.append(e.name)
        elif isinstance(e, Builtin):
            out.append(f"{e.kind}[{', '.join(e.args)}]")
        else:
            bind = 1 if isinstance(e, ParComp) else 0
            if bind < level:
                out.append("(")
                todo.append(")")
            todo += [(e.right, bind + 1), " * " if bind else " ; ", (e.left, bind)]
    return "".join(out)


def _resolve(systems: dict[str, int], names: tuple[str, ...], line: int, col: int) -> System:
    for n in names:
        if n not in systems:
            raise DiagramTypeError(f"unknown system {n!r}", line, col)
    return System(tuple(systems[n] for n in names))


def build_environment(program: Program, base_dir: str = ".") -> tuple[dict[str, int], dict[str, Process]]:
    """Process the declarations into the ``systems`` (name -> dimension) and
    ``boxes`` (name -> process) of the diagram, loading each box body from
    its file.

    File and serialization problems propagate as-is (``OSError``,
    ``json.JSONDecodeError``, :class:`~soclab.errors.DimensionError`); a
    body whose wires disagree with the declared type is a
    :class:`~soclab.errors.DiagramTypeError`.
    """
    systems: dict[str, int] = {}
    boxes: dict[str, Process] = {}
    for d in program.decls:
        if d.name in RESERVED:
            raise DiagramTypeError(f"{d.name!r} is reserved", d.line, d.col)
        if d.name in systems or d.name in boxes:
            raise DiagramTypeError(f"{d.name!r} declared twice", d.line, d.col)
        if isinstance(d, SystemDecl):
            if d.size < 1:
                raise DiagramTypeError(f"system {d.name!r} must have positive dimension", d.line, d.col)
            systems[d.name] = d.size
            continue
        in_sys = _resolve(systems, d.in_type, d.line, d.col)
        out_sys = _resolve(systems, d.out_type, d.line, d.col)
        # An absolute path stays as it is.
        body = process_from_dict(_read_json(os.path.join(base_dir, d.path)))
        if body.in_sys.dims != in_sys.dims or body.out_sys.dims != out_sys.dims:
            raise DiagramTypeError(
                f"box {d.name!r} declared {in_sys.dims} -> {out_sys.dims} "
                f"but its file holds {body.in_sys.dims} -> {body.out_sys.dims}",
                d.line,
                d.col,
            )
        boxes[d.name] = body
    return systems, boxes


def eval_expr(e: Expr, systems: dict[str, int], boxes: dict[str, Process]) -> Process:
    # A chain ``a ; b ; c`` parses as a left spine; walk it in a loop, so
    # only parentheses (whose depth the parser bounds) cost recursion.
    spine = []
    while isinstance(e, (SeqComp, ParComp)):
        spine.append(e)
        e = e.left
    if isinstance(e, Builtin):
        make, _ = BUILTINS[e.kind]
        result = make(*(_resolve(systems, (a,), e.line, e.col) for a in e.args))
    elif e.name in boxes:
        result = boxes[e.name]
    else:
        hint = " (it names a system)" if e.name in systems else ""
        raise DiagramTypeError(f"unknown box {e.name!r}{hint}", e.line, e.col)
    for node in reversed(spine):
        right = eval_expr(node.right, systems, boxes)
        if isinstance(node, ParComp):
            result = compose_par(result, right)
        elif result.out_sys.dims == right.in_sys.dims:
            result = compose_seq(result, right)
        else:
            raise DiagramTypeError(
                f"cannot chain: left side produces {result.out_sys.dims}, right side expects {right.in_sys.dims}",
                node.line,
                node.col,
            )
    return result


def evaluate(text: str, base_dir: str = ".") -> Process | None:
    """Parse and run a diagram; ``None`` when it only holds declarations."""
    program = parse(text)
    systems, boxes = build_environment(program, base_dir)
    return None if program.expr is None else eval_expr(program.expr, systems, boxes)
