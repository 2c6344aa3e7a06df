"""Probabilistic finite-state graphs over a compiled CFG, plus evaluation.

Each nonterminal becomes one graph: node 0 is the start, node 1 the end,
interior nodes follow in creation order. Transition labels are either
terminal words or references to another graph; there are no unlabeled
transitions. Probability mass is split uniformly at each level of the
production's choice structure, so every non-end node's outgoing mass sums
to one. Repetition attaches loop transitions carrying total mass 0.5 to
the node the starred group follows; when the star trails the whole
production that node is the end node, whose residual 0.5 is the implicit
stop (the end node is exempt from the sum-to-one invariant).

So no symbol of a model derives the empty string: each yields at least one
token. A production, or a repetition body, that admits the empty string has
no graph, and the plain grammar below refuses both with :class:`CompileError`.

Evaluation runs on the plain grammar, a star-free rewrite in which a star
is a 0.5 skip / 0.5 enter choice over a fresh one-or-more production. Those
are the graph's loop masses, so the graph and the grammar assign every
string the same probability. :func:`cfg_parse` scores a sentence with one
Earley pass, carrying probabilities with a binary exponent so that long
sentences do not underflow. It completes right recursion, which every star
becomes in the plain grammar, in linear time, taking each deterministic
chain of completions in one step. Its tables are built per call, and the
Earley positions only for the productions the sentence predicts, with
their rules filed by first symbol, so that prediction reads only the rules
that can start the next word;
:func:`perplexity` keeps one set of tables for its whole corpus, growing
them as its sentences predict more. :func:`cfg_enumerate` and
:func:`pfsg_enumerate` list the strings of the grammar and of the graphs up
to a length, in separate code so that each checks the other.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cfg import Alt, ContextFreeGrammar, Expr, Ref, Seq, Star, Term, components
from .errors import CAP_STRINGS, CompileError, ResourceCapError, UndefinedPerplexityError, collector_paused, record

LOOP_MASS = 0.5


@record
class Transition:
    src: int
    dst: int
    label: str
    is_ref: bool
    prob: float


@dataclass
class Pfsg:
    name: str
    num_nodes: int
    start: int
    end: int
    transitions: tuple[Transition, ...]


@dataclass
class PfsgSet:
    top: str
    graphs: dict[str, Pfsg]  # insertion-ordered; top first


class _GraphBuilder:
    def __init__(self, name: str):
        self.name = name
        self.nodes = 2  # 0 = start, 1 = end
        self.edges: list[tuple[int, int, str, bool, float]] = []

    def fresh(self) -> int:
        self.nodes += 1
        return self.nodes - 1

    def edge(self, src: int, dst: int, expr: Expr, mass: float) -> None:
        if isinstance(expr, Term):
            self.edges.append((src, dst, expr.token, False, mass))
        else:
            assert isinstance(expr, Ref)
            self.edges.append((src, dst, expr.name, True, mass))

    def build(self, expr: Expr, src: int, dst: int, mass: float, top: bool) -> None:
        """Connect src to dst with expr's strings, spending ``mass`` at src."""
        if isinstance(expr, (Term, Ref)):
            self.edge(src, dst, expr, mass)
            return
        if isinstance(expr, Alt):
            share = mass / len(expr.options)
            for option in expr.options:
                self.build(option, src, dst, share, top=False)
            return
        if isinstance(expr, Star):
            raise CompileError(
                f"graph {self.name!r}: a bare repetition cannot be a whole "
                "alternative (it would admit the empty string)"
            )
        # A sequence: non-star items advance through fresh nodes, star items
        # loop on the node they follow.
        items = expr.items
        if isinstance(items[0], Star):
            raise CompileError(
                f"graph {self.name!r}: repetition at the head of a sequence is not supported"
            )
        for previous, item in zip(items, items[1:]):
            if isinstance(previous, Star) and isinstance(item, Star):
                raise CompileError(
                    f"graph {self.name!r}: adjacent repetitions are not supported"
                )
        plain = [i for i, item in enumerate(items) if not isinstance(item, Star)]
        trailing_star = plain[-1] != len(items) - 1
        if trailing_star and not top:
            raise CompileError(
                f"graph {self.name!r}: a trailing repetition below the top "
                "level of a production is not supported"
            )
        current = src
        current_mass = mass
        for idx, item in enumerate(items):
            if isinstance(item, Star):
                self.build(item.body, current, current, LOOP_MASS, top=False)
                current_mass = LOOP_MASS  # continuation shares the node with the loop
                continue
            last_plain = idx == plain[-1]
            nxt = dst if last_plain else self.fresh()
            self.build(item, current, nxt, current_mass, top=False)
            current = nxt
            current_mass = 1.0
        return

    def finish(self) -> Pfsg:
        ordered = sorted(self.edges, key=lambda e: (e[0], e[1], e[3], e[2]))
        transitions = tuple(Transition(*e) for e in ordered)
        # Every non-end node must spend exactly unit mass.
        outgoing: dict[int, float] = {}
        for t in transitions:
            outgoing[t.src] = outgoing.get(t.src, 0.0) + t.prob
        for node in range(self.nodes):
            if node == 1:
                continue
            if not math.isclose(outgoing.get(node, 0.0), 1.0, rel_tol=0, abs_tol=1e-9):
                raise CompileError(
                    f"graph {self.name!r}: node {node} spends {outgoing.get(node, 0.0)}"
                )
        return Pfsg(self.name, self.nodes, 0, 1, transitions)


@collector_paused
def build_pfsg(cfg: ContextFreeGrammar) -> PfsgSet:
    graphs: dict[str, Pfsg] = {}
    for name, expr in cfg.productions:
        builder = _GraphBuilder(name)
        builder.build(expr, 0, 1, 1.0, top=True)
        graphs[name] = builder.finish()
    ordered = {cfg.start: graphs[cfg.start]}
    for name in sorted(graphs):
        ordered.setdefault(name, graphs[name])
    return PfsgSet(cfg.start, ordered)


def pfsg_to_text(pfsgs: PfsgSet) -> str:
    lines: list[str] = []
    for graph in pfsgs.graphs.values():
        lines.append(
            f"graph {graph.name} nodes={graph.num_nodes} start={graph.start} end={graph.end}"
        )
        for t in graph.transitions:
            label = f"@{t.label}" if t.is_ref else t.label
            lines.append(f"t {t.src} {t.dst} {label} {t.prob:.9f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CategoryMetrics:
    category: str
    graph_count: int
    mean_nodes: float
    mean_transitions: float


@dataclass
class MetricsReport:
    total_graphs: int
    total_nodes: int
    total_transitions: int
    max_transitions_per_graph: int
    per_graph: dict[str, tuple[int, int]]  # name -> (nodes, transitions)
    per_category: dict[str, CategoryMetrics]


def _category_of(name: str) -> str:
    return name.split("__", 1)[0]


def measure(pfsgs: PfsgSet) -> MetricsReport:
    """Size metrics per graph and per category.

    Terminal words live inline on transitions (there are no separate word
    nodes), so transition counts are the size measure that tracks lexical
    and structural growth together.
    """
    per_graph = {
        name: (g.num_nodes, len(g.transitions)) for name, g in sorted(pfsgs.graphs.items())
    }
    buckets: dict[str, list[tuple[int, int]]] = {}
    for name, sizes in per_graph.items():
        buckets.setdefault(_category_of(name), []).append(sizes)
    per_category = {
        category: CategoryMetrics(
            category,
            len(sizes),
            sum(n for n, _ in sizes) / len(sizes),
            sum(t for _, t in sizes) / len(sizes),
        )
        for category, sizes in sorted(buckets.items())
    }
    return MetricsReport(
        total_graphs=len(per_graph),
        total_nodes=sum(n for n, _ in per_graph.values()),
        total_transitions=sum(t for _, t in per_graph.values()),
        max_transitions_per_graph=max((t for _, t in per_graph.values()), default=0),
        per_graph=per_graph,
        per_category=per_category,
    )


def metrics_to_kv(report: MetricsReport) -> str:
    lines = [
        f"total_graphs={report.total_graphs}",
        f"total_nodes={report.total_nodes}",
        f"total_transitions={report.total_transitions}",
        f"max_transitions_per_graph={report.max_transitions_per_graph}",
    ]
    for category, m in report.per_category.items():
        lines.append(f"category.{category}.graph_count={m.graph_count}")
        # repr round-trips floats exactly, so reading the file back
        # reconstructs the report bit for bit
        lines.append(f"category.{category}.mean_nodes={m.mean_nodes!r}")
        lines.append(f"category.{category}.mean_transitions={m.mean_transitions!r}")
    for name, (nodes, transitions) in report.per_graph.items():
        lines.append(f"per_graph.{name}.nodes={nodes}")
        lines.append(f"per_graph.{name}.transitions={transitions}")
    return "\n".join(lines) + "\n"


_CATEGORY_METRICS = {"graph_count": int, "mean_nodes": float, "mean_transitions": float}


def _kv_number(line_no: int, key: str, value: str, parse: type) -> float:
    try:
        return parse(value)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"line {line_no}: {key!r} must be {kind}, not {value!r}") from None


def metrics_from_kv(text: str) -> MetricsReport:
    """Read back what :func:`metrics_to_kv` writes.

    A line that is not ``key=value``, a key naming no known metric, or a
    value that does not parse as the metric's number raises ``ValueError``
    naming the line.
    """
    totals = {"total_graphs": 0, "total_nodes": 0, "total_transitions": 0, "max_transitions_per_graph": 0}
    per_graph: dict[str, list[Optional[int]]] = {}
    categories: dict[str, dict[str, float]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value")
        key, value = line.split("=", 1)
        if key in totals:
            totals[key] = _kv_number(line_no, key, value, int)
        elif key.startswith("category."):
            category, _, metric = key[len("category.") :].partition(".")
            parse = _CATEGORY_METRICS.get(metric)
            if parse is None:
                raise ValueError(f"line {line_no}: {key!r} names no category metric ({', '.join(_CATEGORY_METRICS)})")
            categories.setdefault(category, {})[metric] = _kv_number(line_no, key, value, parse)
        elif key.startswith("per_graph."):
            name, _, metric = key[len("per_graph.") :].rpartition(".")
            if not name or metric not in ("nodes", "transitions"):
                raise ValueError(f"line {line_no}: {key!r} names no per-graph metric (nodes, transitions)")
            slot = per_graph.setdefault(name, [None, None])
            slot[0 if metric == "nodes" else 1] = _kv_number(line_no, key, value, int)
        else:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
    per_category = {
        category: CategoryMetrics(
            category,
            int(values.get("graph_count", 0)),
            values.get("mean_nodes", 0.0),
            values.get("mean_transitions", 0.0),
        )
        for category, values in sorted(categories.items())
    }
    graphs = {name: (int(v[0] or 0), int(v[1] or 0)) for name, v in sorted(per_graph.items())}
    return MetricsReport(
        totals["total_graphs"],
        totals["total_nodes"],
        totals["total_transitions"],
        totals["max_transitions_per_graph"],
        graphs,
        per_category,
    )


def metrics_to_table(report: MetricsReport) -> str:
    lines = [
        "# Graph size metrics. Terminal words are counted inline on the",
        "# transitions that carry them; there are no separate word nodes.",
        "",
        f"graphs             {report.total_graphs}",
        f"nodes              {report.total_nodes}",
        f"transitions        {report.total_transitions}",
        f"max transitions    {report.max_transitions_per_graph}",
        "",
        f"{'category':<20} {'graphs':>8} {'mean nodes':>12} {'mean transitions':>18}",
    ]
    for category, m in report.per_category.items():
        lines.append(
            f"{category:<20} {m.graph_count:>8} {m.mean_nodes:>12.2f} {m.mean_transitions:>18.2f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Star-free rewrite shared by parsing and enumeration. A star expands to a
# 0.5 skip / 0.5 enter choice over a fresh one-or-more nonterminal, matching
# the graph's loop masses, so probabilities agree between the two backends.

_TERM = "t"
_REF = "n"

Symbol = tuple[str, str]  # (_TERM, word) or (_REF, production name)


@dataclass
class _PlainGrammar:
    start: str
    productions: dict[str, list[tuple[tuple[Symbol, ...], float]]]


def _flat(expr: Expr) -> Optional[tuple[Symbol, ...]]:
    """The symbols of a term, a reference or a sequence of them; None for
    any other shape."""
    symbols = []
    for item in expr.items if isinstance(expr, Seq) else (expr,):
        if isinstance(item, Term):
            symbols.append((_TERM, item.token))
        elif isinstance(item, Ref):
            symbols.append((_REF, item.name))
        else:
            return None
    return tuple(symbols)


def _expand(expr: Expr, fresh: dict[str, list], prefix: str) -> list[tuple[tuple[Symbol, ...], float]]:
    """Weighted star-free alternative symbol lists for an expression.

    Flat options, the only ones emit writes, are read without recursion.
    """
    symbols = _flat(expr)
    if symbols is not None:
        return [(symbols, 1.0)]
    if isinstance(expr, Alt):
        out = []
        for option in expr.options:
            symbols = _flat(option)
            if symbols is not None:
                out.append((symbols, 1.0 / len(expr.options)))
                continue
            for symbols, weight in _expand(option, fresh, prefix):
                out.append((symbols, weight / len(expr.options)))
        return out
    if isinstance(expr, Seq):
        combos: list[tuple[tuple[Symbol, ...], float]] = [((), 1.0)]
        for item in expr.items:
            expanded = _expand(item, fresh, prefix)
            combos = [
                (have + more, w1 * w2) for have, w1 in combos for more, w2 in expanded
            ]
        return combos
    name = f"{prefix}@{len(fresh)}"
    fresh[name] = []  # claim the name before recursing into the body
    rules: list[tuple[tuple[Symbol, ...], float]] = []
    for symbols, weight in _expand(expr.body, fresh, prefix):
        if not symbols:
            raise CompileError(f"production {prefix!r} repeats a body that admits the empty string")
        rules.append((symbols, weight * (1 - LOOP_MASS)))
        rules.append((symbols + ((_REF, name),), weight * LOOP_MASS))
    fresh[name] = rules
    return [((), 1 - LOOP_MASS), (((_REF, name),), LOOP_MASS)]


def _plain_grammar(cfg: ContextFreeGrammar) -> _PlainGrammar:
    productions: dict[str, list] = {}
    for name, expr in cfg.productions:
        fresh: dict[str, list] = {}
        alternatives = _expand(expr, fresh, name)
        if any(not symbols for symbols, _ in alternatives):
            raise CompileError(f"production {name!r} admits the empty string")
        productions[name] = alternatives
        productions.update(fresh)
    return _PlainGrammar(cfg.start, productions)


@dataclass
class CfgParseResult:
    accepted: bool
    derivation_count: int
    log2_prob: float  # -inf when rejected


def _min_yields(grammar: _PlainGrammar, limit: int) -> dict[str, int]:
    """Shortest derivable length per production, up to ``limit``."""
    min_yield: dict[str, int] = {}
    for _ in range(len(grammar.productions) + 1):
        changed = False
        for name, alternatives in grammar.productions.items():
            for symbols, _ in alternatives:
                total = 0
                ok = True
                for kind, value in symbols:
                    if kind == _TERM:
                        total += 1
                    elif value in min_yield:
                        total += min_yield[value]
                    else:
                        ok = False
                        break
                if ok and total < min_yield.get(name, limit + 1):
                    min_yield[name] = total
                    changed = True
        if not changed:
            break
    return min_yield


def _budgets(
    options: dict[Symbol, list[tuple[tuple[Symbol, ...], list[int]]]],
    start: Symbol,
    max_len: int,
) -> dict[Symbol, int]:
    """Each symbol's budget: ``max_len`` less the least yield of any context
    it has in a derivation from ``start``; unreachable symbols are absent.

    ``options`` maps a symbol to its alternatives, each with the least
    yield of each suffix. Contexts only grow down a derivation, so budgets
    are settled largest first, as in Dijkstra's algorithm.
    """
    budget: dict[Symbol, int] = {}
    heap = [(-max_len, start)]
    while heap:
        negated, symbol = heapq.heappop(heap)
        if symbol in budget:
            continue
        budget[symbol] = -negated
        for symbols, tail_min in options.get(symbol, ()):
            over = negated + tail_min[0]  # least yield less the budget
            if over > 0:
                continue
            for idx, child in enumerate(symbols):
                if child[0] == _REF and child not in budget:
                    heapq.heappush(heap, (over - tail_min[idx] + tail_min[idx + 1], child))
    return budget


# A mantissa below this is renormalised with frexp, so that the product of
# two stored mantissas is still a normal float.
_TINY = 2.0**-256


def _add(table: dict, key, count: int, mantissa: float, exponent: int, cap: int) -> None:
    """Add a value, as (count, mantissa, binary exponent), into ``table[key]``."""
    have = table.get(key)
    if have is None:
        table[key] = [count, mantissa, exponent]
        return
    have[0] = min(have[0] + count, cap)
    if have[2] == exponent:
        have[1] += mantissa
    elif have[2] > exponent:
        have[1] += math.ldexp(mantissa, exponent - have[2])
    else:
        have[1] = mantissa + math.ldexp(have[1], have[2] - exponent)
        have[2] = exponent


def _unit_ranks(units: dict[str, list[str]]) -> dict[str, int]:
    """Rank each production above those it has unit alternatives for, by
    the place of its component in the order :func:`components` lists them.

    A unit cycle raises :class:`CompileError`. The cycle named starts at the
    first member of the first cyclic component and follows, within it, each
    name's first unit daughter until a name repeats; it is written from
    where it closes, each name a unit daughter of the next."""
    order = components(units)
    for component in order:
        if len(component) > 1 or component[0] in units.get(component[0], ()):
            members, path = set(component), [component[0]]
            while path.count(path[-1]) == 1:
                path.append(next(d for d in units[path[-1]] if d in members))
            cycle = path[path.index(path[-1]) :]
            raise CompileError(f"unit cycle {' -> '.join(reversed(cycle))}")
    return {component[0]: rank for rank, component in enumerate(order)}


class _Earley:
    """Earley parse tables over the plain grammar of one model.

    A position is a rule with a dot before one of its symbols. An item is a
    position, its origin and its inside value: the derivation count, capped,
    and the rule weight times the probability of the symbols before the dot,
    carried as a mantissa and a binary exponent so that no sentence length
    underflows. Scaling by powers of two is exact, and capped counts are
    exact in any grouping, so the count is the true one, capped.

    Right recursion completes in linear time (Leo 1991). A span is a link
    when its column holds one item alone waiting on it, and the span
    completes that item's rule: its only use is then to complete the one
    span that rule covers. Links form deterministic chains. A completed
    link adds straight into its chain's topmost span, and the spans within
    the chain are never made, so a word that ends n nested right-recursive
    spans costs a few completions rather than n. A chain is followed once
    per parse: each link keeps the topmost item and the product of the item
    values up to it, so a probability is the plain product regrouped and
    may differ from it in the last place. No chain passes through the start
    symbol from column 0, the span the result is read from. Only a link
    of two or more words looks a chain up: one-word spans, the commonest
    completions of a short sentence, skip the link test, and a chain that
    one of them would start is taken up a word later from its second link.

    The plain grammar, the left-corner tables and the unit ranks are built
    up front, so that any error the grammar has is raised before a token is
    read; the tables read only each alternative's first symbol and length.
    The plain grammar has no empty alternative, so every production yields
    at least one token and every rule has a first symbol.
    Unit ranks order the productions by the components of their unit
    alternatives (:func:`~gramlm.cfg.components`); a unit cycle is an error.
    A production's positions are built the first time a column predicts it,
    and then kept, so a parse builds those of the productions its sentence
    predicts and numbers them in the order it predicts them. Its rules are
    then filed by first symbol (a left-corner index, Moore 2000), so that
    prediction reads only the word rules that start with the next word.
    """

    def __init__(self, cfg: ContextFreeGrammar):
        grammar = _plain_grammar(cfg)
        self.start = grammar.start
        self.productions = grammar.productions
        self.lhs: list[str] = []
        # What the position waits on: a production name, or a terminal as
        # its (_TERM, word) symbol so that the two cannot collide.
        self.wants: list[object] = []
        self.after: list[int] = []  # position past the next symbol; -1 completes
        # Once predicted: the rules by first symbol (see _rules).
        self.rules: dict[str, tuple[dict[Symbol, list], list[tuple[str, int, float]]]] = {}
        self.starts_with: dict[str, set[str]] = {}  # word -> productions
        self.left_parents: dict[str, set[str]] = {}  # production -> productions
        self.starters: dict[str, set[str]] = {}  # word -> its FIRST set's owners
        units: dict[str, list[str]] = {}
        for name, alternatives in grammar.productions.items():
            units[name] = []
            for symbols, _ in alternatives:
                kind, value = symbols[0]
                corner = self.starts_with if kind == _TERM else self.left_parents
                corner.setdefault(value, set()).add(name)
                if len(symbols) == 1 and kind == _REF:
                    units[name].append(value)
        self.rank = _unit_ranks(units)

    def _rules(self, name: str) -> tuple[dict, list]:
        """The production's rules by first symbol, with their positions built
        on the first call: (first position, weight) lists under each first
        word's symbol, and (first production, first position, weight) for
        the rest, all in rule order."""
        rules = self.rules.get(name)
        if rules is None:
            words, refs = rules = self.rules[name] = ({}, [])
            lhs, wants, after = self.lhs, self.wants, self.after
            for symbols, weight in self.productions[name]:
                kind, value = symbols[0]
                if kind == _TERM:
                    words.setdefault(symbols[0], []).append((len(lhs), weight))
                else:
                    refs.append((value, len(lhs), weight))
                for dot, (kind, value) in enumerate(symbols, start=1):
                    lhs.append(name)
                    wants.append(value if kind == _REF else (kind, value))
                    after.append(len(lhs) if dot < len(symbols) else -1)
        return rules

    def _column(self, k: int, items: dict, word: str, wanted: Iterable[str]) -> dict:
        """Index column k's items by what they wait on, and predict the rules
        whose FIRST set holds ``word``, the next one. Items waiting on a
        production that cannot start with it are dropped. Of a predicted
        production's rules that start with a word, only those that start
        with ``word`` are read."""
        if word not in self.starters:
            found, stack = set(), list(self.starts_with.get(word, ()))
            while stack:
                name = stack.pop()
                if name not in found:
                    found.add(name)
                    stack.extend(self.left_parents.get(name, ()))
            self.starters[word] = found
        starters, scanned = self.starters[word], (_TERM, word)
        waiting: dict[object, list[tuple]] = {}
        for (pos, origin), value in items.items():
            want = self.wants[pos]
            if want == scanned or want in starters:
                waiting.setdefault(want, []).append((pos, origin, *value))
        stack = [name for name in dict.fromkeys([*waiting, *wanted]) if name in starters]
        seen = set(stack)
        while stack:
            words, refs = self._rules(stack.pop())
            for pos, weight in words.get(scanned, ()):
                waiting.setdefault(scanned, []).append((pos, k, 1, weight, 0))
            for want, pos, weight in refs:
                if want in starters:
                    waiting.setdefault(want, []).append((pos, k, 1, weight, 0))
                    if want not in seen:
                        seen.add(want)
                        stack.append(want)
        return waiting

    def _chain(self, columns: list[dict], chains: list[dict], i: int, name: str, cap: int) -> tuple:
        """The chain that a link, a span of ``name`` from column i, starts:
        its topmost item, with the item values up to it multiplied in.

        The item a link completes covers the next span up; the chain stops
        at the first span that is not a link, or at the start symbol from
        column 0. Every link walked keeps its result in ``chains``, so a
        parse walks a link once.
        """
        lhs, after = self.lhs, self.after
        stop = (0, self.start)
        path, top = [], chains[i].get(name)
        while top is None:
            item = columns[i][name][0]
            path.append((i, name, item))
            i, name = item[1], lhs[item[0]]
            waiting = columns[i].get(name, ())
            if (i, name) == stop or len(waiting) != 1 or after[waiting[0][0]] >= 0:
                i, name, top = path.pop()
                chains[i][name] = top
            else:
                top = chains[i].get(name)
        for i, name, (_, _, c, m, e) in reversed(path):
            m *= top[3]
            e += top[4]
            if m < _TINY:
                m, shift = math.frexp(m)
                e += shift
            top = chains[i][name] = (top[0], top[1], min(c * top[2], cap), m, e)
        return top

    def parse(self, tokens: Sequence[str], cap: int) -> CfgParseResult:
        n = len(tokens)
        rejected = CfgParseResult(False, 0, float("-inf"))
        lhs, after, rank = self.lhs, self.after, self.rank
        items: dict[tuple[int, int], list] = {}
        columns: list[dict] = []
        chains: list[dict] = []  # per column: production -> its chain's top item
        for k in range(1, n + 1):
            columns.append(self._column(k - 1, items, tokens[k - 1], () if columns else [self.start]))
            if not columns[-1]:
                return rejected
            chains.append({})
            items = {}
            # The word is a span (k - 1, k) ranked below every production.
            done: dict[int, dict] = {k - 1: {(_TERM, tokens[k - 1]): [1, 1.0, 0]}}
            # Narrowest span first: completing (i, k) adds only spans (o, k)
            # with o < i, or with o == i through a unit alternative, whose
            # production ranks above the one completed.
            origins = [1 - k]
            while origins:
                i = -heapq.heappop(origins)
                group = done[i]
                chained = i < k - 1
                names = [(rank.get(name, -1), name) for name in group]
                heapq.heapify(names)
                while names:
                    name = heapq.heappop(names)[1]
                    count, mantissa, exponent = group[name]
                    waiting = columns[i].get(name, ())
                    if chained and len(waiting) == 1 and after[waiting[0][0]] < 0:
                        waiting = (self._chain(columns, chains, i, name, cap),)
                    for pos, origin, c, m, e in waiting:
                        c = min(c * count, cap)
                        m *= mantissa
                        e += exponent
                        if m < _TINY:
                            m, shift = math.frexp(m)
                            e += shift
                        if after[pos] >= 0:
                            if k < n:
                                _add(items, (after[pos], origin), c, m, e, cap)
                            continue
                        mother = lhs[pos]
                        target = done.get(origin)
                        if target is None:
                            target = done[origin] = {}
                            heapq.heappush(origins, -origin)
                        elif origin == i and mother not in target:
                            heapq.heappush(names, (rank[mother], mother))
                        _add(target, mother, c, m, e, cap)
        value = done.get(0, {}).get(self.start) if n else None
        if value is None:
            return rejected
        count, mantissa, exponent = value
        return CfgParseResult(True, count, math.log2(mantissa) + exponent)


def cfg_parse(
    cfg: ContextFreeGrammar, tokens: Sequence[str], count_cap: int = 10**6
) -> CfgParseResult:
    """Weighted recognition: derivation count and total inside probability.

    One Earley pass over the plain grammar gives both. Only rules whose
    FIRST set holds the next word are predicted, and prediction reads the
    rules by first symbol, so it does not walk the word rules that start
    with other words. The tables built for the call hold positions only
    for the productions predicted. The spans ending at a word are completed
    by origin, narrowest first, and unit chains in topological order.
    Deterministic chains of completions, which right recursion makes, are
    taken in one step, so right recursion costs time linear in the sentence
    length rather than quadratic. A unit cycle, or a production that admits
    the empty string, raises :class:`CompileError` before any token is read
    (compiled models have no unit cycle, as left recursion is eliminated).
    Counts are capped at every step, which gives min(true count,
    ``count_cap``). Probabilities carry a binary exponent, so long sentences
    do not underflow; they are reported in log2. Unknown tokens make the
    sentence out-of-language (an ordinary rejection), which is the behavior
    perplexity's exclusion rule needs.
    """
    return _Earley(cfg).parse(tokens, count_cap)


@collector_paused
def cfg_enumerate(
    cfg: ContextFreeGrammar, max_len: int, cap: int = CAP_STRINGS
) -> set[tuple[str, ...]]:
    """All strings of length <= max_len in the grammar's language.

    Evaluation by length. For n = 1, 2, ..., max_len each production's
    strings of length n are built once, from the strings of its
    alternatives' symbols whose lengths sum to n. The plain grammar has no
    empty alternative (a production or a repetition body that admits the
    empty string raises :class:`CompileError`), so every symbol yields at
    least one token: an alternative of two or more symbols reads only
    lengths already complete. An alternative of one reference reads strings
    of the length it builds; those unit alternatives are settled by a
    worklist within the length: each string a production gains at length n
    passes through its unit alternatives once, so unit cycles end.

    Each production has a length budget: ``max_len`` less the least yield
    of any context it has in a derivation from the start symbol. Only its
    strings within the budget can end up in a string of length <= max_len,
    so no longer ones are built. Alternatives of unreachable productions,
    or whose least yield exceeds the mother's budget, are skipped.

    ``cap`` bounds the number of distinct (production, string) entries
    stored, each within its production's budget; each is charged when it
    is first kept, and exceeding the cap raises :class:`ResourceCapError`.
    """
    grammar = _plain_grammar(cfg)
    min_yield = _min_yields(grammar, max_len)
    # Each production's alternatives that fit in max_len, with the least
    # yield of each of their suffixes.
    options: dict[Symbol, list[tuple[tuple[Symbol, ...], list[int]]]] = {}
    for name, alts in grammar.productions.items():
        for symbols, _ in alts:
            tail_min = [0] * (len(symbols) + 1)
            for idx in range(len(symbols) - 1, -1, -1):
                kind, value = symbols[idx]
                need = 1 if kind == _TERM else min_yield.get(value, max_len + 1)
                tail_min[idx] = tail_min[idx + 1] + need
            if tail_min[0] <= max_len:
                options.setdefault((_REF, name), []).append((symbols, tail_min))
    budget = _budgets(options, (_REF, grammar.start), max_len)

    # lang[symbol][n]: the symbol's strings of length n; a terminal holds
    # its word at length 1. longest[symbol]: the longest length it holds.
    lang: dict[Symbol, dict[int, set[tuple[str, ...]]]] = {}
    longest: dict[Symbol, int] = {}
    # The alternatives that fit their mother's budget. words[n][mother]
    # holds the strings of those of n terminals, until length n takes the
    # sets over. Those of two or more symbols are listed as (mother,
    # symbols, least yield of each suffix, budget); units[ref] lists those
    # of the one reference ``ref`` as (mother, budget).
    words: dict[int, dict[Symbol, set[tuple[str, ...]]]] = {}
    alternatives: list[tuple[Symbol, tuple[Symbol, ...], list[int], int]] = []
    units: dict[Symbol, list[tuple[Symbol, int]]] = {}
    for mother, alts in options.items():
        limit = budget.get(mother, -1)
        for symbols, tail_min in alts:
            if tail_min[0] > limit:
                continue
            if all(kind == _TERM for kind, _ in symbols):
                string = tuple(word for _, word in symbols)
                words.setdefault(len(string), {}).setdefault(mother, set()).add(string)
                continue
            if len(symbols) == 1:
                units.setdefault(symbols[0], []).append((mother, limit))
                continue
            for symbol in symbols:
                if symbol[0] == _TERM:
                    lang[symbol] = {1: {(symbol[1],)}}
                    longest[symbol] = 1
            alternatives.append((mother, symbols, tail_min, limit))

    stored = 0
    # Strings gained at the current length by symbols with unit alternatives.
    pending: dict[Symbol, set[tuple[str, ...]]] = {}

    def keep(symbol: Symbol, n: int, got: set[tuple[str, ...]], owned: bool = False) -> None:
        """File ``got`` as strings of length n of ``symbol``. An ``owned``
        set is held by nothing else, so it may become the symbol's bucket."""
        nonlocal stored
        buckets = lang.setdefault(symbol, {})
        bucket = buckets.get(n)
        queue = symbol in units
        if bucket is None:
            new = bucket = buckets[n] = got if owned else set(got)
            longest[symbol] = n
            gained = len(new)
        elif queue:
            new = got - bucket
            bucket |= new
            gained = len(new)
        else:
            size = len(bucket)
            bucket |= got
            gained = len(bucket) - size
        if gained:
            stored += gained
            if stored > cap:
                raise ResourceCapError("enumerated strings", cap)
            if queue:
                queued = pending.get(symbol)
                if queued is None:
                    pending[symbol] = new
                elif queued is not bucket:
                    queued |= new

    for n in range(1, max_len + 1):
        for mother, strings in words.pop(n, {}).items():
            keep(mother, n, strings, True)
        for mother, symbols, tail_min, limit in alternatives:
            if not tail_min[0] <= n <= limit or sum(longest.get(symbol, 0) for symbol in symbols) < n:
                continue
            # partial[length]: strings of the symbols so far.
            partial: dict[int, set[tuple[str, ...]]] = {0: {()}}
            for idx, symbol in enumerate(symbols[:-1]):
                room = n - tail_min[idx + 1]
                grown: dict[int, set[tuple[str, ...]]] = {}
                for got_len, got in lang.get(symbol, {}).items():
                    for length, prefixes in partial.items():
                        total = length + got_len
                        if total > room:
                            continue
                        if idx == 0:  # the empty prefix: share the set
                            grown[total] = got
                        else:
                            grown.setdefault(total, set()).update(p + s for p in prefixes for s in got)
                partial = grown
            held = lang.get(symbols[-1], {})
            strings: set[tuple[str, ...]] = set()
            for length, prefixes in partial.items():
                got = held.get(n - length)
                if got:
                    strings.update(p + s for p in prefixes for s in got)
            if strings:
                keep(mother, n, strings, True)
        while pending:
            symbol, got = pending.popitem()
            for mother, limit in units[symbol]:
                if n <= limit:
                    keep(mother, n, got)

    # Free the other symbols' strings, then merge into the largest bucket.
    found = sorted(lang.get((_REF, grammar.start), {}).values(), key=len)
    lang.clear()
    result = found.pop() if found else set()
    for bucket in found:
        result |= bucket
    return result


def pfsg_enumerate(
    pfsgs: PfsgSet, max_len: int, cap: int = CAP_STRINGS
) -> set[tuple[str, ...]]:
    """All strings of length <= max_len the graph set generates.

    Walks each graph's transitions with a length-bucketed fixpoint over
    graph references, entirely separate code from :func:`cfg_enumerate` so
    the two can check each other.
    """
    lang: dict[str, dict[int, set[tuple[str, ...]]]] = {
        name: {} for name in pfsgs.graphs
    }
    stored = 0

    while True:
        changed = False
        for name, graph in pfsgs.graphs.items():
            # reach[node][length] = strings arriving at node with that length
            reach: dict[int, dict[int, set[tuple[str, ...]]]] = {
                graph.start: {0: {()}}
            }
            for _ in range(max_len + graph.num_nodes + 1):
                grew = False
                for t in graph.transitions:
                    sources = reach.get(t.src)
                    if not sources:
                        continue
                    if t.is_ref:
                        additions = [
                            (length + got_len, prefix + s)
                            for got_len, got in lang[t.label].items()
                            for length, strings in sources.items()
                            if length + got_len <= max_len
                            for prefix in strings
                            for s in got
                        ]
                    else:
                        additions = [
                            (length + 1, prefix + (t.label,))
                            for length, strings in sources.items()
                            if length + 1 <= max_len
                            for prefix in strings
                        ]
                    target = reach.setdefault(t.dst, {})
                    for length, string in additions:
                        bucket = target.setdefault(length, set())
                        if string not in bucket:
                            bucket.add(string)
                            grew = True
                if not grew:
                    break
            buckets = lang[name]
            for length, strings in reach.get(graph.end, {}).items():
                bucket = buckets.setdefault(length, set())
                for string in strings:
                    if string not in bucket:
                        bucket.add(string)
                        stored += 1
                        if stored > cap:
                            raise ResourceCapError("enumerated strings", cap)
                        changed = True
        if not changed:
            break

    result: set[tuple[str, ...]] = set()
    for bucket in lang[pfsgs.top].values():
        result.update(bucket)
    return result


@dataclass
class PerplexityReport:
    value: float
    sentences: int
    included: int
    excluded: list[tuple[str, ...]]  # out-of-language sentences
    words: int
    total_log2: float


def perplexity(cfg: ContextFreeGrammar, corpus: Iterable[Sequence[str]]) -> PerplexityReport:
    """Per-word perplexity of the model over in-language corpus sentences.

    Out-of-language sentences are reported and excluded; if the corpus has
    no sentences, or every sentence is excluded, the perplexity is undefined
    and raises.
    """
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise UndefinedPerplexityError("the corpus has no sentences")
    total_log2 = 0.0
    words = 0
    excluded: list[tuple[str, ...]] = []
    parser = _Earley(cfg)
    for sentence in sentences:
        result = parser.parse(sentence, 1)  # perplexity reads no derivation counts
        if not result.accepted:
            excluded.append(sentence)
            continue
        total_log2 += result.log2_prob
        words += len(sentence)
    if words == 0:
        raise UndefinedPerplexityError(
            f"all {len(sentences)} sentence(s) fell outside the language"
        )
    value = 2.0 ** (-total_log2 / words)
    return PerplexityReport(
        value, len(sentences), len(sentences) - len(excluded), excluded, words, total_log2
    )
