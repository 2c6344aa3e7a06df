"""Reference parser and enumerator working directly on the feature grammar.

This module is the ground truth the compiled artifacts are checked against,
so it deliberately shares no machinery with the compiler: items are
(symbol, feature map) pairs where unconstrained features stay FREE, daughter
matching walks the rule left to right carrying variable bindings, and
subsets are expanded to atoms at lexical seeding time.

Counting caveat: ``derivation_count`` counts (tree, forced value choice)
combinations. A rule mother with an unconstrained subset slot, or a variable
that appears only on the mother more than once, forces a value split and
inflates the count relative to bare trees. None of the bundled grammars use
those corners on counted symbols. Unary rule cycles would diverge; counts
saturate at ``count_cap`` instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import CAP_STRINGS, ResourceCapError, UnknownTokenError, collector_paused
from .grammar import Category, Grammar, LexEntry, Rule, Var, surface_tokens

FREE = None

# A feature map assigns each relevant feature of a symbol either a concrete
# value or FREE; maps are tuples aligned with the symbol's feature list.
FMap = tuple  # tuple[Optional[str], ...]

# A daughter category prepared for matching: its symbol and its constraints,
# each as (slot in the symbol's feature map, the values an atom or subset
# allows or None, a variable's name or None).
Pattern = tuple  # tuple[str, tuple[tuple[int, Optional[frozenset], Optional[str]], ...]]


@dataclass(frozen=True)
class _Item:
    symbol: str
    fmap: FMap


@dataclass
class ParseResult:
    accepted: bool
    derivation_count: int
    derivations: list[str]


class _Analyzer:
    """Per-grammar tables shared by parsing and enumeration."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.domains = {d.name: d.values for d in grammar.features}
        # Every symbol's features constrained on any of its occurrences, in
        # declaration order, gathered in one pass over the grammar.
        found: dict[str, set[str]] = {}
        for cat in [c for r in grammar.rules for c in r.categories()] + [e.category for e in grammar.lexicon]:
            found.setdefault(cat.symbol, set()).update(f for f, _ in cat.constraints)
        order = {d.name: i for i, d in enumerate(grammar.features)}
        self.symbols = set(found)
        self.relevant: dict[str, tuple[str, ...]] = {
            symbol: tuple(sorted(features, key=order.__getitem__)) for symbol, features in found.items()
        }
        self.patterns: dict[str, list[Pattern]] = {
            rule.id: [self._pattern(d) for d in rule.daughters] for rule in grammar.rules
        }
        self.mothers = {rule.id: self._mother_plan(rule) for rule in grammar.rules}
        self.known = surface_tokens(grammar)
        # Lexical entries by their first token, in lexicon order, each with
        # its concrete items.
        self.lexemes: dict[str, list[tuple[LexEntry, list[_Item]]]] = {}
        for entry in grammar.lexicon:
            items = [_Item(entry.category.symbol, fmap) for fmap in self.lexical_items(entry.category)]
            self.lexemes.setdefault(entry.surface[0], []).append((entry, items))

    def _pattern(self, cat: Category) -> Pattern:
        index = {f: i for i, f in enumerate(self.relevant[cat.symbol])}
        constraints = []
        for feature, value in cat.constraints:
            if isinstance(value, Var):
                constraints.append((index[feature], None, value.name))
            else:
                constraints.append((index[feature], frozenset(value.values), None))
        return cat.symbol, tuple(constraints)

    def lexical_items(self, cat: Category) -> list[FMap]:
        """Expand a lexical category into concrete items (subsets to atoms)."""
        feats = self.relevant[cat.symbol]
        choices: list[tuple[Optional[str], ...]] = []
        constraint = dict(cat.constraints)
        for feature in feats:
            value = constraint.get(feature)
            if isinstance(value, Var):  # validation rejects lexical variables
                raise AssertionError("variable in lexical entry")
            choices.append((FREE,) if value is None else value.values)
        return [tuple(combo) for combo in product(*choices)]

    def match_item(
        self, pattern: Pattern, item: _Item, bindings: dict[str, str]
    ) -> Optional[dict[str, str]]:
        """Unify a daughter pattern against an item; return extended bindings."""
        symbol, constraints = pattern
        if symbol != item.symbol:
            return None
        new = bindings
        for slot, allowed, name in constraints:
            have = item.fmap[slot]
            if have is FREE:
                continue
            if name is None:
                if have not in allowed:
                    return None
                continue
            bound = new.get(name)
            if bound is None:
                if new is bindings:
                    new = dict(bindings)
                new[name] = have
            elif bound != have:
                return None
        return new

    def _mother_plan(self, rule: Rule) -> tuple[list, dict[str, tuple[str, ...]]]:
        """Per relevant mother feature, the values it admits (FREE if
        unconstrained) or a variable's name; and the domain of each variable
        the mother repeats."""
        constraint = dict(rule.mother.constraints)
        names = [v.name for _, v in rule.mother.constraints if isinstance(v, Var)]
        slots: list = []
        repeated: dict[str, tuple[str, ...]] = {}
        for feature in self.relevant[rule.mother.symbol]:
            value = constraint.get(feature)
            if value is None:
                slots.append((FREE,))
            elif isinstance(value, Var):
                slots.append(value.name)
                if names.count(value.name) > 1:
                    repeated.setdefault(value.name, tuple(self.domains[feature]))
            else:
                slots.append(value.values)
        return slots, repeated

    def mother_items(self, rule: Rule, bindings: dict[str, str]) -> list[FMap]:
        """All mother items licensed by a completed daughter match."""
        slots, repeated = self.mothers[rule.id]
        # A repeated unbound mother variable must take a single concrete
        # value, shared by all its slots; split over the feature's domain.
        names = sorted(name for name in repeated if name not in bindings)
        items: list[FMap] = []
        for picked in product(*(repeated[name] for name in names)):
            full = {**bindings, **dict(zip(names, picked))}
            choices = [
                (full.get(slot, FREE),) if isinstance(slot, str) else slot for slot in slots
            ]
            items.extend(product(*choices))
        return items


# The tables of the grammar parsed last, matched by identity: hashing or
# comparing a Grammar walks every rule.
_last_analyzer: Optional[_Analyzer] = None


def _parse_analyzer(grammar: Grammar) -> _Analyzer:
    """The tables for ``grammar``, reused while the same object is parsed."""
    global _last_analyzer
    analyzer = _last_analyzer
    if analyzer is None or analyzer.grammar is not grammar:
        analyzer = _last_analyzer = _Analyzer(grammar)
    return analyzer


def oracle_parse(
    grammar: Grammar,
    tokens: Sequence[str],
    max_derivations: int = 10,
    count_cap: int = 10**6,
) -> ParseResult:
    """Parse a token sequence; count and render derivations.

    Derivations are rendered as bracketed trees, at most ``max_derivations``
    of them, in a deterministic order.

    The chart is filled span by span, narrower spans first. Items are
    indexed by (start position, symbol), so a daughter pattern reads only
    the items of its own symbol, and a rule is tried over a span only when
    its first daughter's symbol has an item at the span's start. Lexical
    entries are found by their first token. The first pass over a span
    tries every rule; later passes repeat only the unary rules, whose
    daughter may be an item the span itself has just gained.
    """
    tokens = tuple(tokens)
    analyzer = _parse_analyzer(grammar)
    for position, token in enumerate(tokens):
        if token not in analyzer.known:
            raise UnknownTokenError(token, position)
    n = len(tokens)
    if n == 0:
        return ParseResult(False, 0, [])

    # chart[(i, j)]: item -> derivation count (settled once per span);
    # back[(i, j)]: item -> origins, each ("lex", entry) or ("rule", rule, picked);
    # starts[i][symbol]: (end, item) for each item of the symbol from i.
    chart: dict[tuple[int, int], dict[_Item, int]] = {}
    back: dict[tuple[int, int], dict[_Item, list]] = {}
    starts: list[dict[str, list[tuple[int, _Item]]]] = [{} for _ in range(n + 1)]

    def add(span: tuple[int, int], item: _Item, origin) -> None:
        cell = chart.setdefault(span, {})
        if item not in cell:
            cell[item] = 0
            starts[span[0]].setdefault(item.symbol, []).append((span[1], item))
        back.setdefault(span, {}).setdefault(item, []).append(origin)

    for i, token in enumerate(tokens):
        for entry, items in analyzer.lexemes.get(token, ()):
            end = i + len(entry.surface)
            if tokens[i:end] == entry.surface:
                for item in items:
                    add((i, end), item, ("lex", entry))

    def matches(patterns: list[Pattern], i: int, j: int) -> list:
        """(bindings, [(span, item), ...]) for each complete daughter match."""
        states: list[tuple[int, dict, list]] = [(i, {}, [])]
        for daughter in patterns:
            next_states = []
            for pos, bindings, picked in states:
                for end, item in starts[pos].get(daughter[0], ()):
                    if end > j:
                        continue
                    extended = analyzer.match_item(daughter, item, bindings)
                    if extended is None:
                        continue
                    next_states.append((end, extended, picked + [((pos, end), item)]))
            states = next_states
            if not states:
                return []
        return [(bindings, picked) for pos, bindings, picked in states if pos == j]

    def settle_counts(i: int, j: int) -> None:
        """Evaluate counts over the span's origin graph to a fixpoint.

        Same-span children (unary chains) start at zero and rise monotonically,
        so iteration converges; a unary cycle would saturate at the cap.
        """
        cell = chart.get((i, j), {})
        for _ in range(max(64, len(cell) + 1)):
            changed = False
            for item in cell:
                total = 0
                for origin in back[(i, j)][item]:
                    if origin[0] == "lex":
                        total += 1
                    else:
                        prod = 1
                        for span, child in origin[2]:
                            prod *= chart[span][child]
                            if prod >= count_cap:
                                prod = count_cap
                                break
                        total += prod
                total = min(total, count_cap)
                if total != cell[item]:
                    cell[item] = total
                    changed = True
            if not changed:
                break

    # Every rule has a daughter and every lexeme a token, so every item
    # spans at least one token. A rule of two or more daughters over (i, j)
    # therefore completes only from strictly narrower spans, all settled
    # before (i, j): its first pass finds every match it ever will, and only
    # the unary rules need repeating until a pass adds nothing.
    rules = [(rule, analyzer.patterns[rule.id]) for rule in grammar.rules]
    units = [(rule, patterns) for rule, patterns in rules if len(patterns) == 1]
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            here = starts[i]
            recorded: set = set()
            tried = rules
            while True:
                grew = False
                for rule, patterns in tried:
                    # Checked here, not once per span: a unary rule can
                    # match an item an earlier rule added in this pass.
                    if patterns[0][0] not in here:
                        continue
                    for bindings, picked in matches(patterns, i, j):
                        key = (rule.id, tuple(picked))
                        if key in recorded:
                            continue
                        recorded.add(key)
                        grew = True
                        for fmap in analyzer.mother_items(rule, bindings):
                            add((i, j), _Item(rule.mother.symbol, fmap), ("rule", rule, picked))
                if not grew:
                    break
                tried = units
            settle_counts(i, j)

    total = 0
    roots = []
    for item, count in sorted(
        chart.get((0, n), {}).items(), key=lambda kv: (kv[0].symbol, str(kv[0].fmap))
    ):
        if item.symbol == grammar.start:
            total = min(total + count, count_cap)
            roots.append(item)

    derivations: list[str] = []

    def render(span: tuple[int, int], item: _Item, depth: int) -> list[str]:
        if depth > 64:
            return []
        rendered = []
        for origin in back.get(span, {}).get(item, []):
            if origin[0] == "lex":
                rendered.append(f"({item.symbol} {' '.join(origin[1].surface)})")
            else:
                _, _, picked = origin
                child_lists = [render(s, it, depth + 1) for s, it in picked]
                for combo in product(*child_lists):
                    rendered.append(f"({item.symbol} {' '.join(combo)})")
            if len(rendered) >= max_derivations:
                break
        return rendered[:max_derivations]

    seen: set[str] = set()
    for item in roots:
        for tree in render((0, n), item, 0):
            if tree not in seen:
                seen.add(tree)
                derivations.append(tree)
            if len(derivations) >= max_derivations:
                break
        if len(derivations) >= max_derivations:
            break

    return ParseResult(total > 0, total, derivations)


@collector_paused
def oracle_enumerate(
    grammar: Grammar,
    max_len: int,
    cap: int = CAP_STRINGS,
) -> set[tuple[str, ...]]:
    """All token sequences of length <= max_len derivable from the start symbol.

    Evaluation by length over items. For n = 1, 2, ..., max_len each item's
    strings of length n are built once: lexical entries of n tokens seed
    them, and each rule of two or more daughters concatenates daughter
    strings whose lengths sum to n. Every lexeme has a token, so each of
    those daughters yields fewer than n and reads only lengths already
    complete; items are indexed by (symbol, length), so a daughter is
    matched only against items that hold the length it takes. A rule of one
    daughter reads strings of the length it builds; those are settled by a
    worklist within the length, in which each string an item gains at
    length n passes through the unit rules once, so unit cycles end.

    Each symbol has a length budget: ``max_len`` less the least yield of
    any context it has under the start symbol, counted over symbols. An
    item's context yields at least its symbol's, so an item's strings
    longer than the budget cannot end up in the result and are not built.
    Lexical entries and rules of unreachable symbols, or whose least yield
    exceeds the budget, are skipped.

    ``cap`` bounds the number of distinct (item, string) pairs stored, each
    within its symbol's budget; each is charged when it is first kept, and
    exceeding the cap raises :class:`ResourceCapError`.
    """
    analyzer = _Analyzer(grammar)

    # Minimum yield per symbol prunes hopeless daughter suffixes.
    min_yield: dict[str, int] = {}
    for entry in grammar.lexicon:
        sym = entry.category.symbol
        min_yield[sym] = min(min_yield.get(sym, len(entry.surface)), len(entry.surface))
    for _ in range(len(analyzer.symbols) + 1):
        changed = False
        for rule in grammar.rules:
            if all(d.symbol in min_yield for d in rule.daughters):
                total = sum(min_yield[d.symbol] for d in rule.daughters)
                if total < min_yield.get(rule.mother.symbol, max_len + 1):
                    min_yield[rule.mother.symbol] = total
                    changed = True
        if not changed:
            break

    # The rules per mother that fit in max_len, with the least yield of each
    # suffix of their daughters.
    options: dict[str, list[tuple[Rule, list[int]]]] = {}
    for rule in grammar.rules:
        suffix_min = [0] * (len(rule.daughters) + 1)
        for idx in range(len(rule.daughters) - 1, -1, -1):
            need = min_yield.get(rule.daughters[idx].symbol, max_len + 1)
            suffix_min[idx] = suffix_min[idx + 1] + need
        if suffix_min[0] <= max_len:
            options.setdefault(rule.mother.symbol, []).append((rule, suffix_min))

    # Budgets, absent for unreachable symbols. Contexts only grow down a
    # derivation, so budgets settle largest first, as in Dijkstra's algorithm.
    budget: dict[str, int] = {}
    heap = [(-max_len, grammar.start)]
    while heap:
        negated, symbol = heapq.heappop(heap)
        if symbol in budget:
            continue
        budget[symbol] = -negated
        for rule, suffix_min in options.get(symbol, ()):
            over = negated + suffix_min[0]  # least yield less the budget
            if over > 0:
                continue
            for idx, daughter in enumerate(rule.daughters):
                if daughter.symbol not in budget:
                    need = suffix_min[idx] - suffix_min[idx + 1]
                    heapq.heappush(heap, (over - need, daughter.symbol))

    # The lexical items per surface length, within their symbol's budget.
    lexemes: dict[int, list[tuple[_Item, tuple[str, ...]]]] = {}
    for entry in grammar.lexicon:
        symbol = entry.category.symbol
        if len(entry.surface) <= budget.get(symbol, -1):
            for fmap in analyzer.lexical_items(entry.category):
                lexemes.setdefault(len(entry.surface), []).append((_Item(symbol, fmap), entry.surface))

    # The rules that fit their mother's budget: those of two or more
    # daughters as (rule, patterns, least yield of each suffix, budget);
    # those of one daughter per daughter symbol as (rule, pattern, budget).
    rules: list[tuple[Rule, list[Pattern], list[int], int]] = []
    units: dict[str, list[tuple[Rule, Pattern, int]]] = {}
    for mother, fitting in options.items():
        limit = budget.get(mother, -1)
        for rule, suffix_min in fitting:
            if suffix_min[0] > limit:
                continue
            patterns = analyzer.patterns[rule.id]
            if len(patterns) == 1:
                units.setdefault(patterns[0][0], []).append((rule, patterns[0], limit))
            else:
                rules.append((rule, patterns, suffix_min, limit))

    # strings[item][n]: the item's strings of length n; held[symbol][n]: the
    # items of the symbol that hold strings of length n; longest[symbol]:
    # the longest length its items hold.
    strings: dict[_Item, dict[int, set[tuple[str, ...]]]] = {}
    held: dict[str, dict[int, list[_Item]]] = {}
    longest: dict[str, int] = {}
    stored = 0
    # Strings gained at the current length by items with unit rules.
    pending: dict[_Item, set[tuple[str, ...]]] = {}

    def keep(item: _Item, n: int, got: set[tuple[str, ...]], owned: bool = False) -> None:
        """File ``got`` as strings of length n of ``item``. An ``owned`` set
        is held by nothing else, so it may become the item's bucket."""
        nonlocal stored
        buckets = strings.setdefault(item, {})
        bucket = buckets.get(n)
        queue = item.symbol in units
        if bucket is None:
            new = bucket = buckets[n] = got if owned else set(got)
            held.setdefault(item.symbol, {}).setdefault(n, []).append(item)
            longest[item.symbol] = n
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
                queued = pending.get(item)
                if queued is None:
                    pending[item] = new
                elif queued is not bucket:
                    queued |= new

    for n in range(1, max_len + 1):
        for item, surface in lexemes.get(n, ()):
            keep(item, n, {surface}, True)
        for rule, patterns, suffix_min, limit in rules:
            if not suffix_min[0] <= n <= limit:
                continue
            # The longest each suffix of the daughters yields so far.
            reach = [0] * (len(patterns) + 1)
            for idx in range(len(patterns) - 1, -1, -1):
                reach[idx] = reach[idx + 1] + longest.get(patterns[idx][0], 0)
            if reach[0] < n:
                continue
            # Partial matches as (bindings, strings by length); those with
            # equal bindings merge into one.
            states: list[tuple[dict, dict[int, set[tuple[str, ...]]]]] = [({}, {0: {()}})]
            for idx, pattern in enumerate(patterns):
                # What the rest of the daughters can still yield bounds the
                # length of the match so far.
                low, high = n - reach[idx + 1], n - suffix_min[idx + 1]
                next_states: dict[frozenset, tuple[dict, dict[int, set[tuple[str, ...]]]]] = {}
                for bindings, prefixes in states:
                    for got_len, items in held.get(pattern[0], {}).items():
                        fits = [(length, p) for length, p in prefixes.items() if low <= length + got_len <= high]
                        if not fits:
                            continue
                        for item in items:
                            extended = analyzer.match_item(pattern, item, bindings)
                            if extended is None:
                                continue
                            key = frozenset(extended.items())
                            state = next_states.get(key)
                            if state is None:
                                state = next_states[key] = (extended, {})
                            got = strings[item][got_len]
                            for length, p in fits:
                                bucket = state[1].setdefault(length + got_len, set())
                                if length:
                                    bucket.update(a + b for a in p for b in got)
                                else:
                                    bucket.update(got)
                states = list(next_states.values())
                if not states:
                    break
            for bindings, built in states:
                fmaps = analyzer.mother_items(rule, bindings)
                for idx, fmap in enumerate(fmaps):
                    # Only the last mother item may take the set itself.
                    keep(_Item(rule.mother.symbol, fmap), n, built[n], idx == len(fmaps) - 1)
        while pending:
            item, got = pending.popitem()
            for rule, pattern, limit in units[item.symbol]:
                if n > limit:
                    continue
                bindings = analyzer.match_item(pattern, item, {})
                if bindings is not None:
                    for fmap in analyzer.mother_items(rule, bindings):
                        keep(_Item(rule.mother.symbol, fmap), n, got)

    # Free the other items' strings, then merge into the largest bucket.
    found = sorted(
        (bucket for item, buckets in strings.items() if item.symbol == grammar.start for bucket in buckets.values()),
        key=len,
    )
    strings.clear()
    result = found.pop() if found else set()
    for bucket in found:
        result |= bucket
    return result
