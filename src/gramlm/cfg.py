"""Context-free grammar model with a regular-expression production body.

Production bodies are trees of :class:`Term` (quoted terminal),
:class:`Ref` (nonterminal reference), :class:`Seq`, :class:`Alt`, and
postfix :class:`Star`. Constructors normalize away single-element
sequences and alternations so structural equality matches the text format.

Text format, one production per line::

    s -> np vp | ( "hello" )* "world" ;

The first production is the start symbol.

:func:`components` is the one strongly connected component search over
production names, for left-recursion elimination and the parser's unit ranks.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import GramlmError


@dataclass(frozen=True)
class Term:
    token: str


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Seq:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Alt:
    options: tuple["Expr", ...]


@dataclass(frozen=True)
class Star:
    body: "Expr"


Expr = Term | Ref | Seq | Alt | Star


def seq(items) -> Expr:
    items = tuple(items)
    if len(items) == 1:
        return items[0]
    return Seq(items)


def alt(options) -> Expr:
    options = tuple(options)
    if len(options) == 1:
        return options[0]
    return Alt(options)


@dataclass(frozen=True)
class ContextFreeGrammar:
    start: str
    productions: tuple[tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.productions]
        if len(set(names)) != len(names):
            raise GramlmError("duplicate production names")
        defined = set(names)
        if self.start not in defined:
            raise GramlmError(f"start symbol {self.start!r} has no production")
        # Elimination shares subexpressions, so the productions can be far
        # larger as trees than as DAGs: walk each distinct sequence, option
        # list and repetition once, so each edge of the DAG is followed once.
        # Children go on the stack reversed, so the first undefined reference
        # found is the first in the text.
        checked: set[int] = set()
        for name, expr in self.productions:
            stack = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, Ref):
                    if node.name not in defined:
                        raise GramlmError(f"{name!r} references undefined {node.name!r}")
                elif isinstance(node, Term) or id(node) in checked:
                    continue
                else:
                    checked.add(id(node))
                    if isinstance(node, Seq):
                        stack.extend(reversed(node.items))
                    elif isinstance(node, Alt):
                        stack.extend(reversed(node.options))
                    else:
                        stack.append(node.body)


_DONE = 1 << 62  # the low link of a node whose component is complete


def components(edges: Mapping[str, Iterable[str]]) -> list[list[str]]:
    """The strongly connected components of the graph ``edges`` maps each
    node's children in, each listed as soon as it is complete, so a
    component comes after every component it reaches (Tarjan 1972). Roots
    are tried in the order of ``edges`` and children in their listed order;
    a name that appears only as a child is a node too. Members are listed
    in the order the walk reaches them."""
    # A node on the stack is numbered by its place there, which it keeps
    # while it is on it; its low link is the least number it is known to reach.
    low: dict[str, int] = {}
    stack: list[str] = []
    found: list[list[str]] = []
    for root in edges:
        if root in low:
            continue
        children = edges[root]
        if not children:  # no out-edges: a component of its own at once
            low[root] = _DONE
            found.append([root])
            continue
        low[root] = len(stack)
        stack.append(root)
        calls = [(root, 0, iter(children))]
        while calls:
            node, at, children = calls[-1]
            for child in children:
                if child not in low:
                    grand = edges.get(child)
                    if not grand:
                        low[child] = _DONE
                        found.append([child])
                        continue
                    low[child] = len(stack)
                    calls.append((child, len(stack), iter(grand)))
                    stack.append(child)
                    break
                if low[child] < low[node]:
                    low[node] = low[child]
            else:
                calls.pop()
                if low[node] == at:
                    component = stack[at:]
                    del stack[at:]
                    for member in component:
                        low[member] = _DONE
                    found.append(component)
                elif low[node] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[node]
    return found


def _render(expr: Expr, parent: str) -> str:
    if isinstance(expr, Term):
        return f'"{expr.token}"'
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Star):
        return f"( {_render(expr.body, 'star')} )*"
    if isinstance(expr, Seq):
        body = " ".join(_render(item, "seq") for item in expr.items)
        return f"( {body} )" if parent == "seq" else body
    body = " | ".join(_render(option, "alt") for option in expr.options)
    return body if parent in ("top", "star") else f"( {body} )"


def cfg_to_text(cfg: ContextFreeGrammar) -> str:
    lines = [f"{name} -> {_render(expr, 'top')} ;" for name, expr in cfg.productions]
    return "\n".join(lines) + "\n"


_CFG_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<arrow>->)
  | (?P<punct>[()|;*])
  | (?P<string>"[^"]*")
  | (?P<name>[a-z0-9_+]+(?:-[a-z0-9_+]+)*)
    """,
    re.VERBOSE,
)


# Deepest nesting of groups and repetitions cfg_from_text accepts. The
# parser and every walk over an expression recurse once per level, so this
# keeps them far inside Python's recursion limit.
_MAX_NESTING = 100


def cfg_from_text(text: str) -> ContextFreeGrammar:
    """Parse the text format; every syntax error names its line."""
    tokens: list[tuple[str, str]] = []
    lines: list[int] = []
    line_no = 1
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            match = _CFG_TOKEN_RE.match(line, pos)
            if match is None:
                raise GramlmError(f"line {line_no}: unexpected character {line[pos]!r}")
            kind = match.lastgroup or ""
            if kind == "comment":
                break
            if kind != "ws":
                tokens.append((kind, match.group()))
                lines.append(line_no)
            pos = match.end()
    tokens.append(("end", "end of input"))
    lines.append(line_no)

    index = 0

    def error(message: str) -> GramlmError:
        return GramlmError(f"line {lines[index]}: {message}")

    def peek() -> tuple[str, str]:
        return tokens[index]

    def take(kind: str, value=None) -> str:
        nonlocal index
        got_kind, got = peek()
        if got_kind != kind or (value is not None and got != value):
            raise error(f"expected {value or kind!r}, got {got!r}")
        index += 1
        return got

    # Each parse_* takes the number of enclosing groups and returns the node
    # with its nesting: the groups and repetitions on its deepest path.
    def parse_alt(depth: int) -> tuple[Expr, int]:
        option, nesting = parse_seq(depth)
        options = [option]
        while peek() == ("punct", "|"):
            take("punct", "|")
            option, inner = parse_seq(depth)
            options.append(option)
            nesting = max(nesting, inner)
        return alt(options), nesting

    def parse_seq(depth: int) -> tuple[Expr, int]:
        item, nesting = parse_postfix(depth)
        items = [item]
        while peek()[0] in ("name", "string") or peek() == ("punct", "("):
            item, inner = parse_postfix(depth)
            items.append(item)
            nesting = max(nesting, inner)
        return seq(items), nesting

    def parse_postfix(depth: int) -> tuple[Expr, int]:
        node, nesting = parse_primary(depth)
        while peek() == ("punct", "*"):
            take("punct", "*")
            node, nesting = Star(node), nesting + 1
            if depth + nesting > _MAX_NESTING:
                raise error(f"groups and repetitions nested deeper than {_MAX_NESTING}")
        return node, nesting

    def parse_primary(depth: int) -> tuple[Expr, int]:
        kind, value = peek()
        if kind == "string":
            take("string")
            return Term(value[1:-1]), 0
        if kind == "name":
            refs.append(index)
            take("name")
            return Ref(value), 0
        if (kind, value) == ("punct", "("):
            if depth == _MAX_NESTING:
                raise error(f"groups and repetitions nested deeper than {_MAX_NESTING}")
            take("punct", "(")
            node, nesting = parse_alt(depth + 1)
            take("punct", ")")
            return node, nesting + 1
        raise error(f"expected a terminal, name, or group, got {value!r}")

    productions: list[tuple[str, Expr]] = []
    # The token index of each production's name and of each reference.
    heads: list[int] = []
    refs: list[int] = []
    while peek()[0] != "end":
        heads.append(index)
        name = take("name")
        take("arrow")
        expr, _ = parse_alt(0)
        take("punct", ";")
        productions.append((name, expr))
    if not productions:
        raise GramlmError("empty grammar text")
    # Checked after the whole text parses, so syntax errors come first.
    defined: dict[str, int] = {}
    for head in heads:
        name = tokens[head][1]
        if name in defined:
            raise GramlmError(f"line {lines[head]}: duplicate production {name!r} (first on line {defined[name]})")
        defined[name] = lines[head]
    for at in refs:
        ref = tokens[at][1]
        if ref not in defined:
            name = tokens[heads[bisect(heads, at) - 1]][1]
            raise GramlmError(f"line {lines[at]}: {name!r} references undefined {ref!r}")
    return ContextFreeGrammar(productions[0][0], tuple(productions))
