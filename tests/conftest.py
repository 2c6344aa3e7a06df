"""Shared fixtures: cached asset loading and the acceptance summary hook.

The shuttle grammars take seconds to compile, so everything expensive is
cached per-process and shared across test modules.  Tests that need a
fresh, uncached object (determinism checks) call the library directly.
"""

import functools
import re
from bisect import bisect
from dataclasses import dataclass
from itertools import product
from math import prod
from pathlib import Path
from typing import Mapping, Sequence

from gramlm import (
    build_pfsg,
    compile_grammar,
    compute_instantiations,
    emit_cfg,
    measure,
    merge_all,
    parse_grammar_file,
)
from gramlm.cfg import ContextFreeGrammar, Expr, Ref, Star, Term, alt, seq
from gramlm.compiler import (
    DimSpec,
    InstantiationSet,
    Instantiations,
    Vector,
    _Index,
    _lex_vectors,
    _projector,
    rect_name,
)
from gramlm.errors import CAP_TUPLES, CompileError, GramlmError, ResourceCapError, UnknownTokenError
from gramlm.grammar import Grammar, Rule, Var
from gramlm.oracle import ParseResult, _Item, _parse_analyzer

ASSETS = Path(__file__).resolve().parent.parent / "src" / "gramlm" / "assets"

TOYS = [
    "tiny_agreement",
    "direct_left",
    "indirect_left",
    "right_rec",
    "wordplus3",
    "rel_linked",
    "rel_unlinked",
    "intj",
]
SHUTTLES = ["shuttle_no_rels", "shuttle_rels", "shuttle_unlinked"]


def asset(name: str) -> Path:
    return ASSETS / name


@functools.lru_cache(maxsize=None)
def grammar(name: str):
    return parse_grammar_file(ASSETS / f"{name}.gram")


@functools.lru_cache(maxsize=None)
def compiled(name: str):
    return compile_grammar(grammar(name))


@functools.lru_cache(maxsize=None)
def compiled_stages(name: str):
    """What ``compile_grammar`` makes between the stripped grammar and the
    model: instantiations, merged instances and the CFG before left-recursion
    elimination."""
    stripped = compiled(name).grammar
    inst = compute_instantiations(stripped)
    merged = merge_all(stripped, inst)
    return inst, merged, emit_cfg(stripped, inst, merged)


@functools.lru_cache(maxsize=None)
def pfsgs(name: str):
    return build_pfsg(compiled(name).cfg)


@functools.lru_cache(maxsize=None)
def metrics(name: str):
    return measure(pfsgs(name))


def data_lines(name: str) -> list[str]:
    """Non-comment, non-blank lines of an asset text file."""
    out = []
    for line in (ASSETS / name).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def pair_lines(name: str) -> list[tuple[bool, list[str]]]:
    """(must_parse, tokens) pairs from a +/- judgement file."""
    out = []
    for line in data_lines(name):
        sign, text = line[0], line[1:].strip()
        assert sign in "+-", f"bad judgement line: {line!r}"
        out.append((sign == "+", text.split()))
    return out


# ---------------------------------------------------------------------------
# Independent leftmost-cycle detector, kept deliberately separate from the
# production left-recursion machinery so the two cannot share a bug.


def leftmost_cycle_free(cfg) -> bool:
    """True iff no nonterminal reaches itself by descending left edges."""
    from gramlm.cfg import Alt, Ref, Seq, Star, Term

    bodies = dict(cfg.productions)

    nullable: dict[str, bool] = {name: False for name in bodies}

    def expr_nullable(expr) -> bool:
        if isinstance(expr, Term):
            return False
        if isinstance(expr, Ref):
            return nullable.get(expr.name, False)
        if isinstance(expr, Star):
            return True
        if isinstance(expr, Seq):
            return all(expr_nullable(item) for item in expr.items)
        if isinstance(expr, Alt):
            return any(expr_nullable(opt) for opt in expr.options)
        raise TypeError(type(expr))

    changed = True
    while changed:
        changed = False
        for name, body in bodies.items():
            if not nullable[name] and expr_nullable(body):
                nullable[name] = True
                changed = True

    def leftmost_refs(expr) -> set[str]:
        if isinstance(expr, Term):
            return set()
        if isinstance(expr, Ref):
            return {expr.name}
        if isinstance(expr, Star):
            return leftmost_refs(expr.body)
        if isinstance(expr, Alt):
            out: set[str] = set()
            for opt in expr.options:
                out |= leftmost_refs(opt)
            return out
        if isinstance(expr, Seq):
            out = set()
            for item in expr.items:
                out |= leftmost_refs(item)
                if not expr_nullable(item):
                    break
            return out
        raise TypeError(type(expr))

    edges = {name: leftmost_refs(body) & bodies.keys() for name, body in bodies.items()}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in bodies}

    def has_cycle(name: str) -> bool:
        color[name] = GREY
        for nxt in edges[name]:
            if color[nxt] == GREY:
                return True
            if color[nxt] == WHITE and has_cycle(nxt):
                return True
        color[name] = BLACK
        return False

    return not any(color[name] == WHITE and has_cycle(name) for name in bodies)


# ---------------------------------------------------------------------------
# Reference oracle parser: the parse loop of ``oracle_parse`` before its
# chart was indexed, kept unchanged so that the indexed parser can be held
# to the same ParseResult, derivation order included. It tries every rule
# over every span and repeats them all until a pass adds nothing.


def _reference_check_tokens(grammar: Grammar, tokens: Sequence[str]) -> None:
    known = {tok for entry in grammar.lexicon for tok in entry.surface}
    for position, token in enumerate(tokens):
        if token not in known:
            raise UnknownTokenError(token, position)


def reference_oracle_parse(
    grammar: Grammar,
    tokens: Sequence[str],
    max_derivations: int = 10,
    count_cap: int = 10**6,
) -> ParseResult:
    """Parse a token sequence; count and render derivations.

    Derivations are rendered as bracketed trees, at most ``max_derivations``
    of them, in a deterministic order.
    """
    tokens = tuple(tokens)
    _reference_check_tokens(grammar, tokens)
    analyzer = _parse_analyzer(grammar)
    n = len(tokens)
    if n == 0:
        return ParseResult(False, 0, [])

    # chart[(i, j)]: item -> derivation count (settled once per span);
    # back[(i, j)]: item -> origins, each ("lex", entry) or ("rule", rule, picked).
    chart: dict[tuple[int, int], dict[_Item, int]] = {}
    back: dict[tuple[int, int], dict[_Item, list]] = {}
    starts: dict[int, list[tuple[int, _Item]]] = {}

    def add(span: tuple[int, int], item: _Item, origin) -> bool:
        cell = chart.setdefault(span, {})
        fresh = item not in cell
        if fresh:
            cell[item] = 0
            starts.setdefault(span[0], []).append((span[1], item))
        back.setdefault(span, {}).setdefault(item, []).append(origin)
        return fresh

    for entry in grammar.lexicon:
        width = len(entry.surface)
        for i in range(n - width + 1):
            if tuple(tokens[i : i + width]) == entry.surface:
                for fmap in analyzer.lexical_items(entry.category):
                    add((i, i + width), _Item(entry.category.symbol, fmap), ("lex", entry))

    def matches(rule: Rule, i: int, j: int):
        """Yield (bindings, [(span, item), ...]) for complete daughter matches."""
        states: list[tuple[int, dict, list]] = [(i, {}, [])]
        for daughter in analyzer.patterns[rule.id]:
            next_states = []
            for pos, bindings, picked in states:
                for end, item in starts.get(pos, ()):
                    if end > j or item.symbol != daughter[0]:
                        continue
                    extended = analyzer.match_item(daughter, item, bindings)
                    if extended is None:
                        continue
                    next_states.append((end, extended, picked + [((pos, end), item)]))
            states = next_states
            if not states:
                return
        for pos, bindings, picked in states:
            if pos == j:
                yield bindings, picked

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

    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            recorded: set = set()
            while True:
                grew = False
                for rule in grammar.rules:
                    for bindings, picked in list(matches(rule, i, j)):
                        key = (rule.id, tuple(picked))
                        if key in recorded:
                            continue
                        recorded.add(key)
                        grew = True
                        for fmap in analyzer.mother_items(rule, bindings):
                            add((i, j), _Item(rule.mother.symbol, fmap), ("rule", rule, picked))
                if not grew:
                    break
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


# ---------------------------------------------------------------------------
# Reference merge and emission: ``merge_ranges`` and ``emit_cfg`` as they were
# before emission worked on bit masks, kept unchanged (with the instance type
# they built) so that the mask pipeline can be held to the same CFG text.
# Here merging decodes its masks to value names, and emission filters and
# compares those names as Python sets.


@dataclass(frozen=True)
class RuleInstance:
    """A merged instance: a value set per dimension (a rectangle of tuples)."""

    rule_id: str
    dims: tuple[DimSpec, ...]
    values: tuple[tuple[str, ...], ...]


def reference_merge_ranges(inst: InstantiationSet, grammar: Grammar) -> tuple[RuleInstance, ...]:
    """Greedily merge atomic tuples into disjoint rectangles of value sets.

    Instances agreeing everywhere except one mergeable dimension merge by
    unioning that dimension's sets; the dimensions are taken in turn until
    a round over them merges nothing. The result partitions the input
    tuple set exactly: merging never invents a tuple (instances in a merge
    bucket are identical off-dimension) and never drops one (every tuple
    starts as a singleton instance). The merged set does not depend on the
    order instances are visited in, and the result is sorted in the
    (feature declaration, domain) order of its value sets.

    Values are coded once as domain indices, each set as a bit mask, and
    decoded at the end.
    """
    decls = {d.name: d.values for d in grammar.features}
    domains = [decls[dim.slots[0].feature] for dim in inst.dims]
    codes = [{v: 1 << i for i, v in enumerate(domain)} for domain in domains]
    mergeable = [d_idx for d_idx, dim in enumerate(inst.dims) if dim.mergeable]
    instances = [tuple(code[v] for code, v in zip(codes, values)) for values in inst.tuples]
    while True:
        before = len(instances)
        for d_idx in mergeable:
            buckets: dict[tuple[int, ...], int] = {}
            for masks in instances:
                key = masks[:d_idx] + masks[d_idx + 1 :]
                buckets[key] = buckets.get(key, 0) | masks[d_idx]
            instances = [key[:d_idx] + (mask,) + key[d_idx:] for key, mask in buckets.items()]
        if len(instances) == before:
            break
    indexed = sorted(
        tuple(tuple(i for i in range(len(domain)) if mask >> i & 1) for domain, mask in zip(domains, masks))
        for masks in instances
    )
    return tuple(
        RuleInstance(
            inst.rule_id,
            inst.dims,
            tuple(tuple(domain[i] for i in span) for domain, span in zip(domains, spans)),
        )
        for spans in indexed
    )


def reference_emit_cfg(
    grammar: Grammar,
    inst: Instantiations,
    merged: Mapping[str, Sequence[RuleInstance]],
) -> ContextFreeGrammar:
    """Emit the context-free grammar over demanded rectangle nonterminals
    from ``merged``, the merged instances of ``inst`` (see :func:`merge_all`)."""
    index = inst.index

    # Per-position projections of the supported vectors, in domain order;
    # an unrestricted position of a rectangle spans its projection.
    projections: dict[str, tuple[tuple[str, ...], ...]] = {}
    for symbol in index.symbols:
        spans = []
        for pos, feature in enumerate(index.naming_dims[symbol]):
            values = {vec[pos] for vec in inst.supported[symbol]}
            spans.append(tuple(v for v in index.domains[feature] if v in values))
        projections[symbol] = tuple(spans)

    # Per rule: the mother naming positions linked to each dimension, and per
    # daughter the positions a tuple fixes there and the dimensions fixing them.
    plans: dict[str, tuple] = {}
    for rule in grammar.rules:
        (mother_positions, mother_dims), *occurrences = index.slot_positions(
            rule, inst.per_rule[rule.id].dims
        )
        links: dict[int, list[int]] = {}
        for pos, d_idx in zip(mother_positions, mother_dims):
            links.setdefault(d_idx, []).append(pos)
        daughters = [(cat.symbol, *occurrence) for cat, occurrence in zip(rule.daughters, occurrences)]
        plans[rule.id] = (tuple(links.items()), daughters)

    names: dict[tuple[str, tuple], str] = {}
    queue: list[tuple[str, tuple[tuple[str, ...], ...]]] = []

    def discover(symbol: str, spans: tuple[tuple[str, ...], ...]) -> str:
        key = (symbol, spans)
        if key not in names:
            names[key] = rect_name(symbol, index.naming_dims[symbol], spans)
            queue.append(key)
        return names[key]

    def child_ref(restricted: Sequence[tuple[str, ...]], daughter: tuple) -> Ref:
        """The daughter's rectangle under a restricted instance. Each of its
        tuples fired, so the daughter keys it fixes are all supported."""
        symbol, positions, picks = daughter
        spans = list(projections[symbol])
        for pos, d_idx in zip(positions, picks):
            spans[pos] = restricted[d_idx]
        return Ref(discover(symbol, tuple(spans)))

    discover(grammar.start, projections[grammar.start])
    productions: list[tuple[str, Expr]] = []
    cursor = 0
    while cursor < len(queue):
        symbol, spans = queue[cursor]
        cursor += 1
        rect = [set(span) for span in spans]
        alternatives: list[Expr] = []
        for rule in index.rules_by_mother.get(symbol, ()):
            links, daughters = plans[rule.id]
            for instance in merged[rule.id]:
                # Restrict the mother-linked dimensions by the rectangle.
                restricted = list(instance.values)
                for d_idx, positions in links:
                    for pos in positions:
                        restricted[d_idx] = tuple(filter(rect[pos].__contains__, restricted[d_idx]))
                    if not restricted[d_idx]:
                        break
                else:
                    alternatives.append(seq([child_ref(restricted, d) for d in daughters]))
        positions = index.positions[symbol]
        for entry in index.lex_by_symbol.get(symbol, ()):
            for feature, value in entry.category.constraints:
                pos = positions.get(feature)
                if pos is not None and rect[pos].isdisjoint(value.values):
                    break
            else:
                alternatives.append(seq([Term(tok) for tok in entry.surface]))
        unique = list(dict.fromkeys(alternatives))
        if not unique:
            raise CompileError(
                f"demanded nonterminal {names[(symbol, spans)]!r} has no alternatives"
            )
        productions.append((names[(symbol, spans)], alt(unique)))

    if len(set(names.values())) != len(names):
        raise CompileError("rectangle naming collision")
    return ContextFreeGrammar(productions[0][0], tuple(productions))


def reference_emit(grammar: Grammar, inst: Instantiations) -> tuple[dict, ContextFreeGrammar]:
    """The reference merge of every rule, in rule order, and the reference
    emission from it."""
    merged = {rule.id: reference_merge_ranges(inst.per_rule[rule.id], grammar) for rule in grammar.rules}
    return merged, reference_emit_cfg(grammar, inst, merged)


# ---------------------------------------------------------------------------
# Reference CFG text reader: ``cfg_from_text`` as it was when it split the
# text into lines, kept unchanged so that the one-pass reader can be held to
# the same grammars and the same error messages, lines included. It tokenizes
# each line with the pattern below, then parses by recursive descent.


_REFERENCE_CFG_TOKEN_RE = re.compile(
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


def reference_cfg_from_text(text: str) -> ContextFreeGrammar:
    """Parse the text format; every syntax error names its line."""
    tokens: list[tuple[str, str]] = []
    lines: list[int] = []
    line_no = 1
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            match = _REFERENCE_CFG_TOKEN_RE.match(line, pos)
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


# ---------------------------------------------------------------------------
# Reference instantiation: ``compute_instantiations`` as it was when it kept
# fired and retained candidates as (rule number, values) pairs and sorted
# each rule's retained tuples by their value codes, kept unchanged so that
# the candidate-number version can be held to the same tuples in the same
# order and the same supported vectors.


def reference_compute_instantiations(grammar: Grammar, cap_tuples: int = CAP_TUPLES) -> Instantiations:
    """Supported-and-demanded atomic tuples per rule.

    Each rule's candidate tuples are enumerated once over its dimensions.
    A candidate fires when its projection onto every daughter matches a
    supported vector; firing supports every mother vector the candidate
    fixes, with the mother's free naming positions ranging over their
    domains. Support is seeded from the lexicon, and every vector is filed
    at once in the projection tables of its symbol.

    Firing is counter-driven, as in linear-time Horn-clause closure
    (Dowling & Gallier 1984): each candidate waits under every daughter
    projection key it needs, with a count of the keys still missing. The
    first vector filed under a key decrements the candidates waiting on it,
    and a candidate fires when its count reaches zero, so no candidate is
    tested twice. Demand is then one worklist closure from every supported
    start vector: a fired candidate is retained iff its mother side equals
    a demanded vector, and retaining it demands every supported vector
    matching its projection onto a daughter.

    Every key is built by a projector made once per list of positions
    before the loops (see :func:`_projector`). Each list of positions a
    rule fixes on a symbol has one set of the keys already expanded, so
    each mother key and each daughter key is expanded once.

    The cap counts lexicon vectors, candidates and derived vectors.
    """
    index = _Index(grammar)
    budget = cap_tuples

    def spend(amount: int = 1) -> None:
        nonlocal budget
        budget -= amount
        if budget < 0:
            raise ResourceCapError("instantiation tuples", cap_tuples)

    # Per symbol and per tuple of naming positions some rule fixes on it as
    # a daughter: the projector of those positions, the supported vectors
    # keyed by their values there, the candidates waiting for a first vector
    # under a key, and the keys the demand pass has opened.
    daughter_entries: dict[str, dict[tuple[int, ...], tuple]] = {sym: {} for sym in index.symbols}
    # Per symbol and per tuple of naming positions some rule fixes on it as
    # a mother: the projector of those positions, the fired candidates keyed
    # by their values there, each as (rule number, values), and the keys the
    # demand pass has expanded.
    mother_entries: dict[str, dict[tuple[int, ...], tuple]] = {sym: {} for sym in index.symbols}
    rule_dims = [index.rule_dims(rule) for rule in grammar.rules]
    plans: list[tuple] = []
    rule_daughters: list[list[tuple]] = []
    # Per candidate: its rule number, its values and its count of missing keys.
    cand_rules: list[int] = []
    cand_values: list[Vector] = []
    missing: list[int] = []
    for number, (rule, dims) in enumerate(zip(grammar.rules, rule_dims)):
        (mother_positions, mother_dims), *occurrences = index.slot_positions(rule, dims)
        daughters = []
        waits = []
        for cat, (positions, picks) in zip(rule.daughters, occurrences):
            entries = daughter_entries[cat.symbol]
            if positions not in entries:
                entries[positions] = (_projector(positions), {}, {}, set())
            _, table, wait, opened = entries[positions]
            pick = _projector(picks)
            daughters.append((cat.symbol, pick, table, opened))
            waits.append((pick, wait))
        categories = (rule.mother, *rule.daughters)
        choices = []
        for dim in dims:
            slot = dim.slots[0]
            constraint = categories[slot.occ].constraint_for(slot.feature)
            choices.append(index.domains[slot.feature] if isinstance(constraint, Var) else constraint.values)
        free_spans = [
            index.domains[feature] for feature in index.naming_dims[rule.mother.symbol]
        ]
        entries = mother_entries[rule.mother.symbol]
        if mother_positions not in entries:
            entries[mother_positions] = (_projector(mother_positions), {}, set())
        groups = entries[mother_positions][1]
        plans.append((rule.mother.symbol, mother_positions, _projector(mother_dims), free_spans, groups))
        rule_daughters.append(daughters)
        count = prod(len(choice) for choice in choices)
        spend(count)
        # Every key is missing: no vector is filed before the lexicon below.
        first = len(cand_values)
        cand_values.extend(product(*choices))
        cand_rules.extend([number] * count)
        missing.extend([len(daughters)] * count)
        for pick, wait in waits:
            for cand, key in enumerate(map(pick, cand_values[first:]), first):
                wait.setdefault(key, []).append(cand)
    ready = [cand for cand, count in enumerate(missing) if not count]
    filings = {
        sym: [(project, table, wait) for project, table, wait, _ in entries.values()]
        for sym, entries in daughter_entries.items()
    }
    expansions = {sym: list(entries.values()) for sym, entries in mother_entries.items()}

    supported: dict[str, set[Vector]] = {sym: set() for sym in index.symbols}

    def support(symbol: str, vec: Vector) -> None:
        if vec in supported[symbol]:
            return
        spend()
        supported[symbol].add(vec)
        for project, table, wait in filings[symbol]:
            key = project(vec)
            filed = table.get(key)
            if filed is not None:
                filed.append(vec)
                continue
            table[key] = [vec]
            for cand in wait.pop(key, ()):
                missing[cand] -= 1
                if not missing[cand]:
                    ready.append(cand)

    for entry in grammar.lexicon:
        for vec in _lex_vectors(index, entry.category):
            support(entry.category.symbol, vec)

    # Fire candidates, and group the fired ones by their mother-side values.
    while ready:
        cand = ready.pop()
        number = cand_rules[cand]
        mother, mother_positions, project, free_spans, groups = plans[number]
        values = cand_values[cand]
        key = project(values)
        if key in groups:
            groups[key].append((number, values))
            continue
        groups[key] = [(number, values)]
        spans = list(free_spans)
        for pos, value in zip(mother_positions, key):
            spans[pos] = (value,)
        for vec in product(*spans):
            support(mother, vec)

    if not supported.get(grammar.start):
        where = f"line {grammar.start_line}: " if grammar.start_line else ""
        rules = ", ".join(
            f"{rule.id} on line {rule.line}" if rule.line else rule.id
            for rule in grammar.rules
            if rule.mother.symbol == grammar.start
        )
        raise CompileError(
            f"{where}start symbol {grammar.start!r} has no supported instantiations"
            + (f": none of its rules ({rules}) derives a string" if rules else "")
        )

    # Demand pass: walk supported vectors top-down from the start symbol.
    demanded: dict[str, set[Vector]] = {sym: set() for sym in index.symbols}
    demanded[grammar.start] = set(supported[grammar.start])
    worklist: list[tuple[str, Vector]] = [(grammar.start, v) for v in demanded[grammar.start]]
    retained: list[list[Vector]] = [[] for _ in grammar.rules]
    while worklist:
        symbol, vec = worklist.pop()
        for project, groups, done in expansions[symbol]:
            key = project(vec)
            if key in done:
                continue
            done.add(key)
            for number, values in groups.get(key, ()):
                retained[number].append(values)
                for daughter, pick, table, opened in rule_daughters[number]:
                    dkey = pick(values)
                    if dkey in opened:
                        continue
                    opened.add(dkey)
                    seen = demanded[daughter]
                    for dvec in table[dkey]:
                        if dvec not in seen:
                            seen.add(dvec)
                            worklist.append((daughter, dvec))

    per_rule = {}
    for rule, dims, tuples in zip(grammar.rules, rule_dims, retained):
        bits = [index.codes.bits[dim.slots[0].feature] for dim in dims]
        tuples.sort(key=lambda values: tuple(code[v] for code, v in zip(bits, values)))
        per_rule[rule.id] = InstantiationSet(rule.id, dims, tuple(tuples))
    return Instantiations(
        per_rule,
        {sym: frozenset(vectors) for sym, vectors in supported.items()},
        index,
    )


# ---------------------------------------------------------------------------
# Reference feature gathering: the per-symbol walk that ``_Index.naming_dims``
# (rule occurrences only) and the oracle's ``_Analyzer.relevant`` (the lexicon
# too) each gather in one pass.


def constrained_features(grammar: Grammar, symbol: str, include_lexicon: bool = True) -> tuple[str, ...]:
    """Features constrained on any occurrence of ``symbol``, in declaration order.

    With ``include_lexicon=False`` only rule occurrences count, which is the
    notion the compiler uses for naming dimensions.
    """
    found: set[str] = set()
    for rule in grammar.rules:
        for cat in rule.categories():
            if cat.symbol == symbol:
                found.update(f for f, _ in cat.constraints)
    if include_lexicon:
        for entry in grammar.lexicon:
            if entry.category.symbol == symbol:
                found.update(f for f, _ in entry.category.constraints)
    order = {d.name: i for i, d in enumerate(grammar.features)}
    return tuple(sorted(found, key=order.__getitem__))


# ---------------------------------------------------------------------------
# Acceptance reporting: test_acceptance.py appends one line per criterion and
# this hook replays them at the end of the run so they are visible even when
# pytest captures per-test stdout.

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"CRITERION {number}: {'PASS' if passed else 'FAIL'} — {detail}"
    )
    print(ACCEPTANCE_LINES[-1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
