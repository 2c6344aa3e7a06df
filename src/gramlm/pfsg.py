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

The same 0.5 loop/continue split drives :func:`cfg_parse`, so the graph
and the grammar assign every string the same probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cfg import Alt, ContextFreeGrammar, Expr, Ref, Seq, Star, Term
from .errors import CompileError, ResourceCapError, UndefinedPerplexityError

LOOP_MASS = 0.5


@dataclass(frozen=True)
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


def metrics_from_kv(text: str) -> MetricsReport:
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
            totals[key] = int(value)
        elif key.startswith("category."):
            _, category, metric = key.split(".", 2)
            categories.setdefault(category, {})[metric] = float(value)
        elif key.startswith("per_graph."):
            name, metric = key[len("per_graph.") :].rsplit(".", 1)
            slot = per_graph.setdefault(name, [None, None])
            slot[0 if metric == "nodes" else 1] = int(value)
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


def _expand(expr: Expr, fresh: dict[str, list], prefix: str) -> list[tuple[tuple[Symbol, ...], float]]:
    """Weighted star-free alternative symbol lists for an expression."""
    if isinstance(expr, Term):
        return [(((_TERM, expr.token),), 1.0)]
    if isinstance(expr, Ref):
        return [(((_REF, expr.name),), 1.0)]
    if isinstance(expr, Alt):
        out = []
        for option in expr.options:
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


def cfg_parse(
    cfg: ContextFreeGrammar, tokens: Sequence[str], count_cap: int = 10**6
) -> CfgParseResult:
    """Weighted recognition: derivation count and total inside probability.

    Unknown tokens make the sentence out-of-language (an ordinary
    rejection), which is the behavior perplexity's exclusion rule needs.
    Probabilities are summed in ordinary float space — the intended
    sentences are short — and reported in log2.
    """
    grammar = _plain_grammar(cfg)
    tokens = tuple(tokens)
    n = len(tokens)
    if n == 0:
        return CfgParseResult(False, 0, float("-inf"))
    min_yield = _min_yields(grammar, n)

    # Split each production into unit alternatives (a single reference,
    # which can sit on the same span) and the rest (every symbol strictly
    # narrower once split, so their sub-results are already settled).
    unit_alts: dict[str, list[tuple[str, float]]] = {}
    other_alts: dict[str, list[tuple[tuple[Symbol, ...], float]]] = {}
    for name, alternatives in grammar.productions.items():
        units, others = [], []
        for symbols, weight in alternatives:
            if len(symbols) == 1 and symbols[0][0] == _REF:
                units.append((symbols[0][1], weight))
            else:
                others.append((symbols, weight))
        unit_alts[name] = units
        other_alts[name] = others

    # inside[(i, j)][name] = (count, prob)
    inside: dict[tuple[int, int], dict[str, tuple[int, float]]] = {}

    def symbol_inside(symbol: Symbol, i: int, j: int) -> tuple[int, float]:
        kind, value = symbol
        if kind == _TERM:
            if j - i == 1 and tokens[i] == value:
                return 1, 1.0
            return 0, 0.0
        got = inside.get((i, j), {}).get(value)
        return got if got is not None else (0, 0.0)

    def alternative_inside(symbols: tuple[Symbol, ...], i: int, j: int) -> tuple[int, float]:
        # Fold the symbol list left to right over all split points.
        states: dict[int, tuple[int, float]] = {i: (1, 1.0)}
        for idx, symbol in enumerate(symbols):
            remaining = len(symbols) - idx - 1
            next_states: dict[int, tuple[int, float]] = {}
            for pos, (count, prob) in states.items():
                for end in range(pos + 1, j - remaining + 1):
                    sub_count, sub_prob = symbol_inside(symbol, pos, end)
                    if sub_count == 0:
                        continue
                    have = next_states.get(end, (0, 0.0))
                    next_states[end] = (
                        min(have[0] + count * sub_count, count_cap),
                        have[1] + prob * sub_prob,
                    )
            states = next_states
            if not states:
                return 0, 0.0
        return states.get(j, (0, 0.0))

    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            base: dict[str, tuple[int, float]] = {}
            for name in grammar.productions:
                if min_yield.get(name, n + 1) > width:
                    continue
                count = 0
                prob = 0.0
                for symbols, weight in other_alts[name]:
                    sub_count, sub_prob = alternative_inside(symbols, i, j)
                    if sub_count:
                        count = min(count + sub_count, count_cap)
                        prob += weight * sub_prob
                if count:
                    base[name] = (count, prob)
            cell = dict(base)
            inside[(i, j)] = cell
            # Unit closure: chains settle in at most chain-depth passes; a
            # unit cycle would plateau at the count cap instead of looping.
            for _ in range(len(grammar.productions) + 1):
                changed = False
                for name in grammar.productions:
                    if not unit_alts[name]:
                        continue
                    count, prob = base.get(name, (0, 0.0))
                    for ref, weight in unit_alts[name]:
                        sub_count, sub_prob = cell.get(ref, (0, 0.0))
                        if sub_count:
                            count = min(count + sub_count, count_cap)
                            prob += weight * sub_prob
                    if count and cell.get(name) != (count, prob):
                        cell[name] = (count, prob)
                        changed = True
                if not changed:
                    break

    count, prob = inside.get((0, n), {}).get(grammar.start, (0, 0.0))
    if count == 0 or prob <= 0.0:
        return CfgParseResult(False, 0, float("-inf"))
    return CfgParseResult(True, count, math.log2(prob))


def cfg_enumerate(
    cfg: ContextFreeGrammar, max_len: int, cap: int = 10**6
) -> set[tuple[str, ...]]:
    """All strings of length <= max_len in the grammar's language.

    Semi-naive evaluation. Each symbol's strings are held per length in two
    tables: ``old``, held before the previous pass, and ``delta``, gained in
    it. The first pass derives from the all-terminal alternatives only.
    Every later pass re-derives an alternative once per reference position
    k whose referent gained strings: position k reads only that delta,
    positions before k read ``old`` and positions after k read everything
    held. These sets of derivations are disjoint and together cover every
    derivation that uses a string gained in the previous pass, so nothing
    already concatenated is concatenated again. The loop stops when a pass
    gains nothing.

    ``cap`` bounds the number of distinct (production, string) entries
    stored; each is charged when it is first kept, and exceeding the cap
    raises :class:`ResourceCapError`.
    """
    grammar = _plain_grammar(cfg)
    min_yield = _min_yields(grammar, max_len)
    # old/delta/fresh[symbol][length] -> strings; a terminal holds its word
    # in ``old`` from the start and never gains anything.
    Table = dict[Symbol, dict[int, set[tuple[str, ...]]]]
    old: Table = {}
    delta: Table = {}
    fresh: Table = {}
    stored = 0

    alternatives: list[tuple[Symbol, tuple[Symbol, ...], list[int]]] = []
    users: dict[Symbol, set[int]] = {}
    for name, options in grammar.productions.items():
        for symbols, _ in options:
            tail_min = [0] * (len(symbols) + 1)
            for idx in range(len(symbols) - 1, -1, -1):
                kind, value = symbols[idx]
                need = 1 if kind == _TERM else min_yield.get(value, max_len + 1)
                tail_min[idx] = tail_min[idx + 1] + need
            if tail_min[0] > max_len:
                continue
            for symbol in symbols:
                if symbol[0] == _TERM:
                    old[symbol] = {1: {(symbol[1],)}}
                else:
                    users.setdefault(symbol, set()).add(len(alternatives))
            alternatives.append(((_REF, name), symbols, tail_min))

    def extend(partial, got, rest):
        """Append each of ``got`` to each partial string; ``rest`` is the
        least yield of the symbols still to come."""
        grown: dict[int, set[tuple[str, ...]]] = {}
        for got_len, got_strings in got:
            for length, strings in partial.items():
                total = length + got_len
                if total + rest > max_len:
                    continue
                grown.setdefault(total, set()).update(
                    p + s for p in strings for s in got_strings
                )
        return grown

    def keep(symbol, partial) -> None:
        nonlocal stored
        held_old = old.get(symbol, {})
        held_delta = delta.get(symbol, {})
        for length, strings in partial.items():
            new = strings.difference(
                held_old.get(length, ()),
                held_delta.get(length, ()),
                fresh.get(symbol, {}).get(length, ()),
            )
            if new:
                stored += len(new)
                if stored > cap:
                    raise ResourceCapError("enumerated strings", cap)
                fresh.setdefault(symbol, {}).setdefault(length, set()).update(new)

    for mother, symbols, tail_min in alternatives:
        if all(kind == _TERM for kind, _ in symbols):
            partial = {0: {()}}
            for idx, symbol in enumerate(symbols):
                partial = extend(partial, old[symbol].items(), tail_min[idx + 1])
            keep(mother, partial)

    while True:
        for symbol, buckets in delta.items():
            held = old.setdefault(symbol, {})
            for length, strings in buckets.items():
                held.setdefault(length, set()).update(strings)
        if not fresh:
            break
        delta, fresh = fresh, {}
        todo = sorted({idx for symbol in delta for idx in users.get(symbol, ())})
        for mother, symbols, tail_min in map(alternatives.__getitem__, todo):
            last = max(k for k, symbol in enumerate(symbols) if symbol in delta)
            prefix = {0: {()}}  # old strings of the positions before k
            for k, symbol in enumerate(symbols[: last + 1]):
                if symbol in delta:
                    partial = extend(prefix, delta[symbol].items(), tail_min[k + 1])
                    for idx in range(k + 1, len(symbols)):
                        if not partial:
                            break
                        after = symbols[idx]
                        got = [*old.get(after, {}).items(), *delta.get(after, {}).items()]
                        partial = extend(partial, got, tail_min[idx + 1])
                    keep(mother, partial)
                if k < last:
                    prefix = extend(prefix, old.get(symbol, {}).items(), tail_min[k + 1])
                    if not prefix:
                        break

    result: set[tuple[str, ...]] = set()
    for bucket in old.get((_REF, grammar.start), {}).values():
        result.update(bucket)
    return result


def pfsg_enumerate(
    pfsgs: PfsgSet, max_len: int, cap: int = 10**6
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

    Out-of-language sentences are reported and excluded; if every sentence
    is excluded the perplexity is undefined and raises.
    """
    sentences = [tuple(s) for s in corpus]
    total_log2 = 0.0
    words = 0
    excluded: list[tuple[str, ...]] = []
    for sentence in sentences:
        result = cfg_parse(cfg, sentence)
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
