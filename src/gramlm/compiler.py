"""Compilation from feature grammars to context-free grammars.

The pipeline has four stages:

1. :func:`strip_features` — drop semantic (or otherwise unwanted) features.
2. :func:`compute_instantiations` — per rule, the set of atomic value
   tuples over the rule's constrained slots that are both derivable
   bottom-up (supported) and reachable top-down from the start symbol
   (demanded). Each rule's candidate tuples are enumerated once. A
   candidate fires when every daughter projection is supported, which
   supports its mother vectors; passes over the rules repeat until one adds
   no vector. One demand closure from the start symbol then retains the
   fired candidates it reaches.
3. :func:`merge_ranges` — greedily merge atomic tuples into rule instances
   carrying value *sets* per dimension, preserving an exact disjoint cover
   of the tuple set. A dimension merges only if its slots span at most one
   mother and at most one daughter position; cross-daughter and repeated-
   mother variable groups must stay atomic or the cover would admit
   cross-terms the tuples never licensed.
4. :func:`emit_cfg` — nonterminals are (symbol, rectangle) pairs, where a
   rectangle gives a value set per naming dimension. Emission walks
   demanded rectangles from the start symbol's full supported rectangle,
   gathering every merged instance whose mother side intersects the
   rectangle and *restricting* linked dimensions by it. This restriction
   is the load-bearing mechanism: a rectangle demanding one atomic value
   of a linked feature splits the daughters one way per instance, while a
   rectangle demanding the full range rides through a one-mother/one-
   daughter link as a single alternative.

:func:`eliminate_left_recursion` and :func:`expansion_stats` round out the
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cfg import Alt, ContextFreeGrammar, Expr, Ref, Seq, Star, Term, alt, seq
from .errors import CompileError, ResourceCapError
from .grammar import (
    SEMANTIC,
    SYNTACTIC,
    Atom,
    Category,
    FeatureDecl,
    Grammar,
    LexEntry,
    Rule,
    Subset,
    Var,
)

Vector = tuple[str, ...]


def strip_features(grammar: Grammar, keep: Union[str, Iterable[str]] = "syntactic") -> Grammar:
    """Remove feature declarations and all constraints on them.

    ``keep`` is ``"syntactic"`` (drop semantic features), ``"all"`` (keep
    everything), or an explicit iterable of feature names to keep.
    """
    if keep == "all":
        return grammar
    if keep == "syntactic":
        kept = {d.name for d in grammar.features if d.kind == SYNTACTIC}
    else:
        kept = set(keep)
        unknown = kept - set(grammar.feature_names())
        if unknown:
            raise CompileError(f"cannot keep unknown features: {sorted(unknown)}")

    def strip_category(cat: Category) -> Category:
        return Category(cat.symbol, tuple((f, v) for f, v in cat.constraints if f in kept))

    return Grammar(
        tuple(d for d in grammar.features if d.name in kept),
        grammar.start,
        tuple(
            Rule(r.id, strip_category(r.mother), tuple(strip_category(d) for d in r.daughters), line=r.line)
            for r in grammar.rules
        ),
        tuple(LexEntry(e.surface, strip_category(e.category), line=e.line) for e in grammar.lexicon),
    )


@dataclass(frozen=True)
class SlotRef:
    """A constrained feature slot: occurrence 0 is the mother, 1.. daughters."""

    occ: int
    feature: str


@dataclass(frozen=True)
class DimSpec:
    """One instantiation dimension: a variable's slot group or a lone slot."""

    slots: tuple[SlotRef, ...]
    mergeable: bool


@dataclass(frozen=True)
class RuleInstance:
    """A merged instance: a value set per dimension (a rectangle of tuples)."""

    rule_id: str
    dims: tuple[DimSpec, ...]
    values: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class InstantiationSet:
    """The retained atomic tuples of one rule, over its dimensions."""

    rule_id: str
    dims: tuple[DimSpec, ...]
    tuples: tuple[Vector, ...]


@dataclass
class Instantiations:
    """Per-rule retained tuples plus the support tables emission needs."""

    per_rule: dict[str, InstantiationSet]
    supported: dict[str, frozenset[Vector]]
    index: _Index  # the lookup tables of the grammar they were computed for


class _Index:
    """Shared lookup tables for one grammar."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.decl_index = {d.name: i for i, d in enumerate(grammar.features)}
        self.domains = {d.name: d.values for d in grammar.features}
        self.value_index = {
            name: {v: i for i, v in enumerate(values)} for name, values in self.domains.items()
        }
        # Naming dimensions as constrained_features(include_lexicon=False)
        # defines them, gathered in one pass over the rules.
        constrained: dict[str, set[str]] = {}
        self.rules_by_mother: dict[str, list[Rule]] = {}
        for rule in grammar.rules:
            self.rules_by_mother.setdefault(rule.mother.symbol, []).append(rule)
            for cat in rule.categories():
                constrained.setdefault(cat.symbol, set()).update(f for f, _ in cat.constraints)
        self.lex_by_symbol: dict[str, list[LexEntry]] = {}
        for entry in grammar.lexicon:
            self.lex_by_symbol.setdefault(entry.category.symbol, []).append(entry)
            constrained.setdefault(entry.category.symbol, set())
        self.symbols = set(constrained)
        self.naming_dims = {
            sym: tuple(sorted(features, key=self.decl_index.__getitem__))
            for sym, features in constrained.items()
        }
        self.positions = {
            sym: {f: i for i, f in enumerate(dims)} for sym, dims in self.naming_dims.items()
        }

    def rule_dims(self, rule: Rule) -> tuple[DimSpec, ...]:
        var_slots: dict[str, list[SlotRef]] = {}
        lone: list[SlotRef] = []
        for occ, cat in enumerate(rule.categories()):
            for feature, constraint in cat.constraints:
                slot = SlotRef(occ, feature)
                if isinstance(constraint, Var):
                    var_slots.setdefault(constraint.name, []).append(slot)
                else:
                    lone.append(slot)
        dims = []
        for slots in var_slots.values():
            mothers = sum(1 for s in slots if s.occ == 0)
            dims.append(DimSpec(tuple(slots), mergeable=mothers <= 1 and len(slots) - mothers <= 1))
        for slot in lone:
            dims.append(DimSpec((slot,), mergeable=True))
        return tuple(
            sorted(dims, key=lambda d: min((self.decl_index[s.feature], s.occ) for s in d.slots))
        )

    def slot_positions(self, rule: Rule, dims: Sequence[DimSpec]) -> list[tuple[tuple[int, ...], ...]]:
        """Per occurrence, mother first: the naming positions a rule tuple
        fixes there, in order, and the index of the dimension fixing each."""
        categories = list(rule.categories())
        pairs: list[list[tuple[int, int]]] = [[] for _ in categories]
        for d_idx, dim in enumerate(dims):
            for slot in dim.slots:
                positions = self.positions[categories[slot.occ].symbol]
                pairs[slot.occ].append((positions[slot.feature], d_idx))
        out = []
        for occ_pairs in pairs:
            occ_pairs.sort()
            out.append((tuple(p for p, _ in occ_pairs), tuple(d for _, d in occ_pairs)))
        return out


def _lex_vectors(index: _Index, category: Category) -> Iterable[Vector]:
    """Expand a lexical category over its symbol's naming dimensions.

    Constraints on features that are not naming dimensions are ignored here:
    no rule ever unifies on them, so they cannot affect derivability.
    """
    constraint = dict(category.constraints)
    choices = []
    for feature in index.naming_dims[category.symbol]:
        value = constraint.get(feature)
        if value is None:
            choices.append(index.domains[feature])
        elif isinstance(value, Atom):
            choices.append((value.value,))
        elif isinstance(value, Subset):
            choices.append(value.values)
        else:  # pragma: no cover - validation rejects lexical variables
            raise AssertionError("variable in lexical entry")
    return product(*choices)


def compute_instantiations(grammar: Grammar, cap_tuples: int = 10**7) -> Instantiations:
    """Supported-and-demanded atomic tuples per rule.

    Each rule's candidate tuples are enumerated once over its dimensions.
    A candidate fires when its projection onto every daughter matches a
    supported vector; firing supports every mother vector the candidate
    fixes, with the mother's free naming positions ranging over their
    domains. Support is seeded from the lexicon, and every vector is filed
    at once in the projection tables of its symbol. Rules are visited in
    order, and a vector added late in a pass can fire a candidate of a rule
    visited earlier, so passes repeat until one adds nothing: four passes
    on each shuttle grammar and three on ``tiny_agreement`` and
    ``indirect_left``, the last adding nothing. Demand is then one worklist
    closure from every supported start vector: a fired candidate is
    retained iff its mother side equals a demanded vector, and retaining it
    demands every supported vector matching its projection onto a daughter.

    The cap counts lexicon vectors, candidates and derived vectors.
    """
    index = _Index(grammar)
    budget = cap_tuples

    def spend() -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceCapError("instantiation tuples", cap_tuples)

    # Per symbol and per tuple of naming positions some rule fixes on it as
    # a daughter: the supported vectors keyed by their values there.
    tables: dict[str, dict[tuple[int, ...], dict[Vector, list[Vector]]]] = {
        sym: {} for sym in index.symbols
    }
    rule_dims: dict[str, tuple[DimSpec, ...]] = {}
    plans: dict[str, tuple] = {}
    pending: dict[str, list[Vector]] = {}
    for rule in grammar.rules:
        dims = index.rule_dims(rule)
        rule_dims[rule.id] = dims
        (mother_positions, mother_dims), *occurrences = index.slot_positions(rule, dims)
        daughters = [
            (cat.symbol, picks, tables[cat.symbol].setdefault(positions, {}))
            for cat, (positions, picks) in zip(rule.daughters, occurrences)
        ]
        categories = (rule.mother, *rule.daughters)
        choices = []
        for dim in dims:
            slot = dim.slots[0]
            constraint = categories[slot.occ].constraint_for(slot.feature)
            if isinstance(constraint, Atom):
                choices.append((constraint.value,))
            elif isinstance(constraint, Subset):
                choices.append(constraint.values)
            else:
                choices.append(index.domains[slot.feature])
        candidates = []
        for values in product(*choices):
            spend()
            candidates.append(values)
        pending[rule.id] = candidates
        free_spans = [
            index.domains[feature] for feature in index.naming_dims[rule.mother.symbol]
        ]
        plans[rule.id] = (mother_positions, mother_dims, free_spans, {}, daughters)

    supported: dict[str, set[Vector]] = {sym: set() for sym in index.symbols}

    def support(symbol: str, vec: Vector) -> bool:
        if vec in supported[symbol]:
            return False
        spend()
        supported[symbol].add(vec)
        for positions, table in tables[symbol].items():
            table.setdefault(tuple(vec[p] for p in positions), []).append(vec)
        return True

    for entry in grammar.lexicon:
        for vec in _lex_vectors(index, entry.category):
            support(entry.category.symbol, vec)

    # Fire candidates, and group the fired ones by their mother-side values.
    while True:
        changed = False
        for rule in grammar.rules:
            mother_positions, mother_dims, free_spans, groups, daughters = plans[rule.id]
            waiting = []
            for values in pending[rule.id]:
                if not all(
                    tuple(values[d] for d in picks) in table for _, picks, table in daughters
                ):
                    waiting.append(values)
                    continue
                key = tuple(values[d] for d in mother_dims)
                if key not in groups:
                    groups[key] = []
                    spans = list(free_spans)
                    for pos, value in zip(mother_positions, key):
                        spans[pos] = (value,)
                    for vec in product(*spans):
                        changed = support(rule.mother.symbol, vec) or changed
                groups[key].append(values)
            pending[rule.id] = waiting
        if not changed:
            break

    if not supported.get(grammar.start):
        raise CompileError(
            f"start symbol {grammar.start!r} has no supported instantiations"
        )

    # Demand pass: walk supported vectors top-down from the start symbol.
    demanded: dict[str, set[Vector]] = {sym: set() for sym in index.symbols}
    demanded[grammar.start] = set(supported[grammar.start])
    worklist: list[tuple[str, Vector]] = [(grammar.start, v) for v in sorted(demanded[grammar.start])]
    retained: dict[str, set[Vector]] = {rule.id: set() for rule in grammar.rules}
    while worklist:
        symbol, vec = worklist.pop()
        for rule in index.rules_by_mother.get(symbol, ()):
            mother_positions, _, _, groups, daughters = plans[rule.id]
            kept = retained[rule.id]
            for values in groups.get(tuple(vec[p] for p in mother_positions), ()):
                if values in kept:
                    continue
                kept.add(values)
                for daughter, picks, table in daughters:
                    seen = demanded[daughter]
                    for dvec in table[tuple(values[d] for d in picks)]:
                        if dvec not in seen:
                            seen.add(dvec)
                            worklist.append((daughter, dvec))

    def tuple_key(rule: Rule):
        domains = [index.value_index[dim.slots[0].feature] for dim in rule_dims[rule.id]]
        return lambda values: tuple(dom[v] for dom, v in zip(domains, values))

    per_rule = {
        rule.id: InstantiationSet(
            rule.id, rule_dims[rule.id], tuple(sorted(retained[rule.id], key=tuple_key(rule)))
        )
        for rule in grammar.rules
    }
    return Instantiations(
        per_rule,
        {sym: frozenset(vectors) for sym, vectors in supported.items()},
        index,
    )


def merge_ranges(inst: InstantiationSet, grammar: Grammar) -> tuple[RuleInstance, ...]:
    """Greedily merge atomic tuples into disjoint rectangles of value sets.

    Dimensions are scanned in their canonical (feature declaration, slot)
    order; instances agreeing everywhere except the scanned dimension merge
    by unioning that dimension's sets. The result partitions the input
    tuple set exactly: merging never invents a tuple (instances in a merge
    bucket are identical off-dimension) and never drops one (every tuple
    starts as a singleton instance).
    """
    order = {d.name: {v: i for i, v in enumerate(d.values)} for d in grammar.features}
    domains = [order[dim.slots[0].feature] for dim in inst.dims]
    instances: list[tuple[tuple[str, ...], ...]] = [
        tuple((value,) for value in values) for values in inst.tuples
    ]
    while True:
        before = len(instances)
        for d_idx, dim in enumerate(inst.dims):
            if not dim.mergeable:
                continue
            buckets: dict[tuple, list[tuple[str, ...]]] = {}
            keys: list[tuple] = []
            for values in sorted(
                instances,
                key=lambda vs: tuple(
                    tuple(dom[v] for v in span) for dom, span in zip(domains, vs)
                ),
            ):
                key = tuple(span for i, span in enumerate(values) if i != d_idx)
                if key not in buckets:
                    buckets[key] = []
                    keys.append(key)
                buckets[key].append(values[d_idx])
            merged: list[tuple[tuple[str, ...], ...]] = []
            for key in keys:
                union = sorted(
                    {v for span in buckets[key] for v in span}, key=domains[d_idx].__getitem__
                )
                rebuilt = list(key)
                rebuilt.insert(d_idx, tuple(union))
                merged.append(tuple(rebuilt))
            instances = merged
        if len(instances) == before:
            break
    instances.sort(
        key=lambda vs: tuple(tuple(dom[v] for v in span) for dom, span in zip(domains, vs))
    )
    return tuple(RuleInstance(inst.rule_id, inst.dims, values) for values in instances)


def merge_all(grammar: Grammar, inst: Instantiations) -> dict[str, tuple[RuleInstance, ...]]:
    """merge_ranges applied to every rule, keyed by rule id in rule order."""
    return {
        rule.id: merge_ranges(inst.per_rule[rule.id], grammar) for rule in grammar.rules
    }


def rect_name(symbol: str, dims: Sequence[str], spans: Sequence[Sequence[str]]) -> str:
    """Deterministic nonterminal name for a (symbol, rectangle) pair."""
    parts = [symbol.lower()]
    for feature, span in zip(dims, spans):
        parts.append(f"__{feature}-{'+'.join(span)}")
    return "".join(parts)


def emit_cfg(
    grammar: Grammar,
    inst: Instantiations,
    merged: Optional[Mapping[str, Sequence[RuleInstance]]] = None,
) -> ContextFreeGrammar:
    """Emit the context-free grammar over demanded rectangle nonterminals."""
    if merged is None:
        merged = merge_all(grammar, inst)
    index = inst.index
    supported = inst.supported
    daughter_slots = {
        rule.id: index.slot_positions(rule, inst.per_rule[rule.id].dims)[1:] for rule in grammar.rules
    }

    # Per-dimension projections of the supported vectors, for canonicalizing.
    projections: dict[str, tuple[tuple[str, ...], ...]] = {}
    for symbol in index.symbols:
        dims = index.naming_dims[symbol]
        spans = []
        for pos, feature in enumerate(dims):
            values = {vec[pos] for vec in supported[symbol]}
            spans.append(
                tuple(sorted(values, key=index.value_index[feature].__getitem__))
            )
        projections[symbol] = tuple(spans)

    def canon_rect(symbol: str, spans: Sequence[Iterable[str]]) -> Optional[tuple[tuple[str, ...], ...]]:
        dims = index.naming_dims[symbol]
        out = []
        for pos, feature in enumerate(dims):
            span = tuple(
                sorted(
                    set(spans[pos]) & set(projections[symbol][pos]),
                    key=index.value_index[feature].__getitem__,
                )
            )
            if not span:
                return None
            out.append(span)
        return tuple(out)

    support_memo: dict[tuple[str, tuple], bool] = {}

    def rect_supported(symbol: str, spans: tuple[tuple[str, ...], ...]) -> bool:
        """Does any supported vector of ``symbol`` fall inside the rectangle?"""
        key = (symbol, spans)
        if key not in support_memo:
            support_memo[key] = any(
                all(v in span for v, span in zip(vec, spans)) for vec in supported[symbol]
            )
        return support_memo[key]

    start_spans = canon_rect(grammar.start, projections[grammar.start])
    if start_spans is None or not rect_supported(grammar.start, start_spans):
        raise CompileError(f"start symbol {grammar.start!r} has no supported instantiations")

    names: dict[tuple[str, tuple], str] = {}
    queue: list[tuple[str, tuple[tuple[str, ...], ...]]] = []

    def discover(symbol: str, spans: tuple[tuple[str, ...], ...]) -> str:
        key = (symbol, spans)
        if key not in names:
            names[key] = rect_name(symbol, index.naming_dims[symbol], spans)
            queue.append(key)
        return names[key]

    discover(grammar.start, start_spans)
    productions: list[tuple[str, Expr]] = []
    cursor = 0
    while cursor < len(queue):
        symbol, spans = queue[cursor]
        cursor += 1
        rect = dict(zip(index.naming_dims[symbol], spans))
        alternatives: list[Expr] = []
        for rule in index.rules_by_mother.get(symbol, ()):
            for instance in merged[rule.id]:
                restricted = _restrict_instance(instance, rect)
                if restricted is None:
                    continue
                refs: list[Expr] = []
                for daughter, (positions, picks) in zip(rule.daughters, daughter_slots[rule.id]):
                    child_spans = list(projections[daughter.symbol])
                    for pos, d_idx in zip(positions, picks):
                        child_spans[pos] = restricted[d_idx]
                    child = canon_rect(daughter.symbol, child_spans)
                    if child is None or not rect_supported(daughter.symbol, child):
                        refs = []
                        break
                    refs.append(Ref(discover(daughter.symbol, child)))
                if refs:
                    alternatives.append(seq(refs))
        for entry in index.lex_by_symbol.get(symbol, ()):
            constraint = dict(entry.category.constraints)
            ok = True
            for feature, span in rect.items():
                value = constraint.get(feature)
                if isinstance(value, Atom) and value.value not in span:
                    ok = False
                elif isinstance(value, Subset) and not set(value.values) & set(span):
                    ok = False
            if ok:
                alternatives.append(seq([Term(tok) for tok in entry.surface]))
        unique: list[Expr] = []
        seen: set[Expr] = set()
        for alternative in alternatives:
            if alternative not in seen:
                seen.add(alternative)
                unique.append(alternative)
        if not unique:
            raise CompileError(
                f"demanded nonterminal {names[(symbol, spans)]!r} has no alternatives"
            )
        productions.append((names[(symbol, spans)], alt(unique)))

    if len(set(names.values())) != len(names):
        raise CompileError("rectangle naming collision")
    return ContextFreeGrammar(productions[0][0], tuple(productions))


def _restrict_instance(
    instance: RuleInstance, rect: Mapping[str, Sequence[str]]
) -> Optional[tuple[tuple[str, ...], ...]]:
    """Intersect an instance's mother-linked dimensions with a rectangle."""
    out = []
    for dim, span in zip(instance.dims, instance.values):
        allowed = set(span)
        for slot in dim.slots:
            if slot.occ == 0:
                allowed &= set(rect[slot.feature])
        if not allowed:
            return None
        out.append(tuple(v for v in span if v in allowed))
    return tuple(out)


def _leftmost_refs(expr: Expr) -> tuple[set[str], bool]:
    """Referenced names reachable in leftmost position, plus nullability."""
    if isinstance(expr, Term):
        return set(), False
    if isinstance(expr, Ref):
        return {expr.name}, False
    if isinstance(expr, Star):
        refs, _ = _leftmost_refs(expr.body)
        return refs, True
    if isinstance(expr, Alt):
        refs: set[str] = set()
        nullable = False
        for option in expr.options:
            sub, n = _leftmost_refs(option)
            refs |= sub
            nullable = nullable or n
        return refs, nullable
    refs = set()
    for item in expr.items:
        sub, nullable = _leftmost_refs(item)
        refs |= sub
        if not nullable:
            return refs, False
    return refs, True


def _strongly_connected(order: Sequence[str], edges: Mapping[str, set[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative, preserving definition order within SCCs."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []
    counter = 0
    position = {name: i for i, name in enumerate(order)}

    for root in order:
        if root in index_of:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in edges and child not in index_of:
                    continue
                if child not in index_of:
                    index_of[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(edges.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort(key=position.__getitem__)
                result.append(component)
    return result


def _flatten_alternatives(expr: Expr) -> Optional[list[list[Expr]]]:
    """Production body as alternative item lists, or None if not flat.

    Stars are allowed as items (substitution introduces them mid-sequence);
    nested alternation is not.
    """
    options = expr.options if isinstance(expr, Alt) else (expr,)
    out: list[list[Expr]] = []
    for option in options:
        items = option.items if isinstance(option, Seq) else (option,)
        flat: list[Expr] = []
        for item in items:
            if isinstance(item, (Term, Ref, Star)):
                flat.append(item)
            else:
                return None
        out.append(flat)
    return out


def eliminate_left_recursion(cfg: ContextFreeGrammar) -> ContextFreeGrammar:
    """Rewrite left-recursive productions using trailing repetition.

    Direct recursion ``A -> A a1 | .. | A ak | b1 | .. | bm`` becomes
    ``A -> (b1|..|bm) (a1|..|ak)*`` — no fresh nonterminal and no empty
    production, which the graph backend requires. Indirect recursion is
    first reduced to direct recursion by substituting earlier members of
    the same leftmost-reference cycle, in definition order. Grammars whose
    leftmost-reference graph is already acyclic are returned unchanged
    (the same object). A starred body taking part in a cycle is not
    supported and raises :class:`CompileError`.
    """
    order = [name for name, _ in cfg.productions]
    bodies = {name: expr for name, expr in cfg.productions}
    edges = {name: _leftmost_refs(expr)[0] for name, expr in cfg.productions}
    components = _strongly_connected(order, edges)
    cyclic = [c for c in components if len(c) > 1 or (len(c) == 1 and c[0] in edges[c[0]])]
    if not cyclic:
        return cfg

    rewritten = dict(bodies)
    for component in cyclic:
        member_set = set(component)
        flat: dict[str, list[list[Expr]]] = {}
        for name in component:
            flattened = _flatten_alternatives(rewritten[name])
            if flattened is None:
                raise CompileError(
                    f"left recursion through a starred body at {name!r} is not supported"
                )
            flat[name] = flattened
        for i, name in enumerate(component):
            # Substitute earlier cycle members heading an alternative.
            for j in range(i):
                earlier = component[j]
                while True:
                    expanded: list[list[Expr]] = []
                    hit = False
                    for option in flat[name]:
                        if option and isinstance(option[0], Ref) and option[0].name == earlier:
                            hit = True
                            for replacement in flat[earlier]:
                                expanded.append(replacement + option[1:])
                        else:
                            expanded.append(option)
                    flat[name] = expanded
                    if not hit:
                        break
            recursive = [opt[1:] for opt in flat[name] if opt and isinstance(opt[0], Ref) and opt[0].name == name]
            others = [opt for opt in flat[name] if not (opt and isinstance(opt[0], Ref) and opt[0].name == name)]
            if not recursive:
                rewritten[name] = alt([seq(opt) for opt in flat[name]])
                continue
            if any(not tail for tail in recursive):
                raise CompileError(f"cyclic unit production at {name!r}")
            if not others:
                raise CompileError(f"production {name!r} is only left-recursive; its language is empty")
            base = alt([seq(opt) for opt in others])
            loop = Star(alt([seq(tail) for tail in recursive]))
            if isinstance(base, Seq):
                rewritten[name] = Seq(tuple(base.items) + (loop,))
            else:
                rewritten[name] = Seq((base, loop))
            # Later members substitute this member's full language, which is
            # each base alternative with the repetition appended.
            flat[name] = [opt + [loop] for opt in others]
        # Verify no member of the component is still leftmost-cyclic.
        for name in component:
            refs, _ = _leftmost_refs(rewritten[name])
            if name in refs:
                raise CompileError(f"left recursion at {name!r} survived elimination")

    productions = tuple((name, rewritten[name]) for name in order)
    return ContextFreeGrammar(cfg.start, productions)


@dataclass(frozen=True)
class ExpansionStats:
    """Rule-count accounting for one compilation."""

    naive_count: int
    emitted_rules: int

    @property
    def reduction_factor(self) -> Fraction:
        if self.emitted_rules == 0:
            raise ZeroDivisionError("no emitted rules")
        return Fraction(self.naive_count, self.emitted_rules)

    def reduction_text(self, digits: int = 12) -> str:
        """The factor as a decimal string; exact arithmetic, so huge ratios
        never overflow the way a float quotient would."""
        from decimal import Decimal, localcontext

        factor = self.reduction_factor
        with localcontext() as ctx:
            ctx.prec = digits
            value = Decimal(factor.numerator) / Decimal(factor.denominator)
        return format(value.normalize(), "f")


def expansion_stats(
    grammar: Grammar, merged: Mapping[str, Sequence[RuleInstance]]
) -> ExpansionStats:
    """Compare naive full-domain instantiation against the merged instances.

    The naive count instantiates every constrained slot over its feature's
    full domain (variables once per distinct variable), summed over rules;
    the lexicon is not counted on either side.
    """
    sizes = {d.name: len(d.values) for d in grammar.features}
    naive = 0
    for rule in grammar.rules:
        combos = 1
        seen_vars: set[str] = set()
        for cat in rule.categories():
            for feature, constraint in cat.constraints:
                if isinstance(constraint, Var):
                    if constraint.name not in seen_vars:
                        seen_vars.add(constraint.name)
                        combos *= sizes[feature]
                else:
                    combos *= sizes[feature]
        naive += combos
    emitted = sum(len(instances) for instances in merged.values())
    return ExpansionStats(naive, emitted)


@dataclass
class CompileResult:
    grammar: Grammar  # the stripped grammar that was compiled
    inst: Instantiations
    merged: dict[str, tuple[RuleInstance, ...]]
    cfg_raw: ContextFreeGrammar  # before left-recursion elimination
    cfg: ContextFreeGrammar
    stats: ExpansionStats


def compile_grammar(
    grammar: Grammar,
    features: Union[str, Iterable[str]] = "syntactic",
    cap_tuples: int = 10**7,
) -> CompileResult:
    """Run the whole pipeline on an (already variant-transformed) grammar."""
    stripped = strip_features(grammar, features)
    inst = compute_instantiations(stripped, cap_tuples=cap_tuples)
    merged = merge_all(stripped, inst)
    cfg_raw = emit_cfg(stripped, inst, merged)
    cfg = eliminate_left_recursion(cfg_raw)
    return CompileResult(stripped, inst, merged, cfg_raw, cfg, expansion_stats(stripped, merged))
