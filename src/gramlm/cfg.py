"""Context-free grammar model with a regular-expression production body.

Production bodies are trees of :class:`Term` (quoted terminal),
:class:`Ref` (nonterminal reference), :class:`Seq`, :class:`Alt`, and
postfix :class:`Star`, each a :func:`~gramlm.errors.record` (a frozen
dataclass with slots, built through them). Constructors normalize away
single-element sequences and alternations so structural equality matches
the text format.

Text format, one production per line::

    s -> np vp | ( "hello" )* "world" ;

The first production is the start symbol. :func:`cfg_from_text` reads it
back with one ``findall`` and one loop, and interns its leaves: a read
holds one :class:`Ref` per distinct name and one :class:`Term` per distinct
quoted token. It finds the line of an error only when raising one, and
checks the names itself, so the grammar it returns is built without the
node walk :class:`ContextFreeGrammar` makes on every other construction.
It runs with the cyclic garbage collector paused.

:func:`components` is the one strongly connected component search over
production names, for left-recursion elimination and the parser's unit ranks.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import GramlmError, collector_paused, record


@record
class Term:
    token: str


@record
class Ref:
    name: str


@record
class Seq:
    items: tuple["Expr", ...]


@record
class Alt:
    options: tuple["Expr", ...]


@record
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


def _prechecked(start: str, productions: tuple[tuple[str, Expr], ...]) -> ContextFreeGrammar:
    """A grammar whose names the caller has already checked as
    :meth:`ContextFreeGrammar.__post_init__` checks them, built without
    walking its nodes again."""
    cfg = object.__new__(ContextFreeGrammar)
    object.__setattr__(cfg, "start", start)
    object.__setattr__(cfg, "productions", productions)
    return cfg


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


# The characters str.splitlines breaks lines at; no token or comment spans one.
_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_NAME = r"[a-z0-9_+]+(?:-[a-z0-9_+]+)*"

# One match per token: the blanks and comments before it, then the token. A
# character that starts no token is a token of its own, so none is skipped.
# The last one or two matches hold no token.
_CFG_TOKEN_RE = re.compile(
    rf"""(?: \s+ | \#[^{_BREAKS}]* )*
    ( -> | [()|;*] | "[^"{_BREAKS}]*" | {_NAME} | . )?""",
    re.VERBOSE,
)
_NAME_RE = re.compile(_NAME)


# Deepest nesting of groups and repetitions cfg_from_text accepts. Every
# walk over an expression recurses once per level, so this keeps them far
# inside Python's recursion limit.
_MAX_NESTING = 100
_TOO_DEEP = f"groups and repetitions nested deeper than {_MAX_NESTING}"


@collector_paused
def cfg_from_text(text: str) -> ContextFreeGrammar:
    """Parse the text format; every syntax error names its line.

    The tokens are the strings of one ``findall``, read by one loop with a
    stack of open groups. A read makes one :class:`Ref` per distinct name
    and one :class:`Term` per distinct quoted token. A line is found only
    when raising, by scanning the text again. Duplicate heads and undefined
    names are checked here, from the heads and the interned names, so the
    grammar is built without a second walk over its nodes.
    """
    tokens = _CFG_TOKEN_RE.findall(text)
    nodes: dict[str, Expr] = {}  # each name and quoted token (quotes kept) read so far
    productions: list[tuple[str, Expr]] = []
    heads: list[int] = []  # the token index of each production's name
    at = 0
    while tokens[at]:
        name = tokens[at]
        if not _NAME_RE.fullmatch(name):
            raise _error(text, tokens, at, "expected 'name', got {got}")
        if tokens[at + 1] != "->":
            raise _error(text, tokens, at + 1, "expected 'arrow', got {got}")
        heads.append(at)
        at += 2
        # Each open group keeps the options, items and nesting of the group
        # it is in. A node's nesting counts the groups and repetitions on its
        # deepest path; `last` is the last item's.
        stack: list[tuple[list[Expr], list[Expr], int]] = []
        options: list[Expr] = []
        items: list[Expr] = []  # empty where a sequence must start
        deep = last = 0
        while True:
            token = tokens[at]
            at += 1
            node = nodes.get(token)
            if node is None:
                if token == "(":
                    if len(stack) == _MAX_NESTING:
                        raise _error(text, tokens, at - 1, _TOO_DEEP)
                    stack.append((options, items, deep))
                    options, items, deep = [], [], 0
                    continue
                if items:
                    if token == "|":
                        options.append(seq(items))
                        items = []
                        continue
                    if token == "*":  # a name or a quoted token has no nesting
                        last = last + 1 if tokens[at - 2] in (")", "*") else 1
                        if len(stack) + last > _MAX_NESTING:
                            raise _error(text, tokens, at, _TOO_DEEP)
                        items[-1] = Star(items[-1])
                        deep = max(deep, last)
                        continue
                    if token == (")" if stack else ";"):
                        options.append(seq(items))
                        node = alt(options)
                        if not stack:
                            productions.append((name, node))
                            break
                        last = deep + 1
                        options, items, deep = stack.pop()
                        deep = max(deep, last)
                        items.append(node)
                        continue
                if token[:1] == '"' and len(token) > 1:
                    node = nodes[token] = Term(token[1:-1])
                elif _NAME_RE.fullmatch(token):
                    node = nodes[token] = Ref(token)
                else:
                    expected = "a terminal, name, or group" if not items else "')'" if stack else "';'"
                    raise _error(text, tokens, at - 1, f"expected {expected}, got {{got}}")
            items.append(node)
    if not productions:
        raise GramlmError("empty grammar text")
    # Checked after the whole text parses, so syntax errors come first.
    defined: dict[str, int] = {}
    for head in heads:
        name = tokens[head]
        if name in defined:
            line, first = _line(text, head), _line(text, defined[name])
            raise GramlmError(f"line {line}: duplicate production {name!r} (first on line {first})")
        defined[name] = head
    undefined = {token for token in nodes if token[0] != '"' and token not in defined}
    if undefined:  # every undefined name in the text is a reference, not a head
        at = next(at for at, token in enumerate(tokens) if token in undefined)
        name = tokens[heads[bisect(heads, at) - 1]]
        raise GramlmError(f"line {_line(text, at)}: {name!r} references undefined {tokens[at]!r}")
    return _prechecked(productions[0][0], tuple(productions))


def _error(text: str, tokens: list[str], at: int, message: str) -> GramlmError:
    """``message`` about token ``at``, which it names as ``{got}``, with its
    line; but the first stray character in the text, if any, is the error."""
    for stray, token in enumerate(tokens):
        if len(token) == 1 and token not in "()|;*" and not _NAME_RE.fullmatch(token):
            return GramlmError(f"line {_line(text, stray)}: unexpected character {token!r}")
    message = message.format(got=repr(tokens[at] or "end of input"))
    return GramlmError(f"line {_line(text, at)}: {message}")


def _line(text: str, at: int) -> int:
    """The line of token ``at``, as ``str.splitlines`` counts lines; the end
    of the text is on its last line."""
    start = [match.start(1) for match in _CFG_TOKEN_RE.finditer(text)][at]
    return len(text[: start + 1].splitlines()) if start >= 0 else len(text.splitlines()) or 1
