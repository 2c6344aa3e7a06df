"""Compilation from feature grammars to context-free grammars.

The pipeline has four stages:

1. :func:`strip_features` — drop semantic (or otherwise unwanted) features.
2. :func:`compute_instantiations` — per rule, the set of atomic value
   tuples over the rule's constrained slots that are both derivable
   bottom-up (supported) and reachable top-down from the start symbol
   (demanded). Each rule's candidate tuples are enumerated once, and each
   waits on the daughter projection keys it needs with a count of those
   still unsupported. The first vector supported under a key counts down
   the candidates waiting on it; a candidate fires at zero, which supports
   its mother vectors. One demand closure from the start symbol then
   retains the fired candidates it reaches. Fired and retained candidates
   are kept as their numbers, which run in product order over each rule's
   domain-ordered values, so sorting a rule's retained numbers puts its
   tuples in domain order.
3. :func:`merge_ranges` — greedily merge atomic tuples into rule instances
   carrying value *sets* per dimension, preserving an exact disjoint cover
   of the tuple set. A dimension merges only if its slots span at most one
   mother and at most one daughter position; cross-daughter and repeated-
   mother variable groups must stay atomic or the cover would admit
   cross-terms the tuples never licensed. A value set is a bit mask over
   its feature's domain; each instance keeps its masks beside the values
   they decode to, and each distinct mask of a feature is decoded once.
4. :func:`emit_cfg` — nonterminals are (symbol, rectangle) pairs, where a
   rectangle gives a value set per naming dimension, as a bit mask, and is
   decoded to its name once, when first demanded. Emission walks
   demanded rectangles from the start symbol's full supported rectangle,
   gathering every merged instance whose mother side intersects the
   rectangle and *restricting* linked dimensions by it. This restriction
   is the load-bearing mechanism: a rectangle demanding one atomic value
   of a linked feature splits the daughters one way per instance, while a
   rectangle demanding the full range rides through a one-mother/one-
   daughter link as a single alternative. Restricting is a bitwise AND of
   masks. A daughter rectangle takes the restricted masks where the rule
   fixes it and the symbol's supported projection elsewhere.

:func:`eliminate_left_recursion` and :func:`expansion_stats` round out the
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from .cfg import Alt, ContextFreeGrammar, Expr, Ref, Seq, Star, Term, alt, components, seq
from .errors import CAP_TUPLES, CompileError, ResourceCapError, collector_paused, record
from .grammar import SYNTACTIC, Category, FeatureDecl, Grammar, LexEntry, Rule, Var

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

    # A category, rule or entry that loses no constraint is kept as it is.
    def strip_category(cat: Category) -> Category:
        for feature, _ in cat.constraints:
            if feature not in kept:
                return Category(cat.symbol, tuple((f, v) for f, v in cat.constraints if f in kept))
        return cat

    def strip_rule(rule: Rule) -> Rule:
        mother = strip_category(rule.mother)
        daughters = tuple(map(strip_category, rule.daughters))
        if mother is rule.mother and daughters == rule.daughters:  # compared by identity first
            return rule
        return Rule(rule.id, mother, daughters, line=rule.line)

    def strip_entry(entry: LexEntry) -> LexEntry:
        category = strip_category(entry.category)
        return entry if category is entry.category else LexEntry(entry.surface, category, line=entry.line)

    features = tuple(d for d in grammar.features if d.name in kept)
    rules = tuple(map(strip_rule, grammar.rules))
    lexicon = tuple(map(strip_entry, grammar.lexicon))
    if features == grammar.features and rules == grammar.rules and lexicon == grammar.lexicon:
        return grammar
    return replace(grammar, features=features, rules=rules, lexicon=lexicon)


@record
class SlotRef:
    """A constrained feature slot: occurrence 0 is the mother, 1.. daughters."""

    occ: int
    feature: str


@record
class DimSpec:
    """One instantiation dimension: a variable's slot group or a lone slot."""

    slots: tuple[SlotRef, ...]
    mergeable: bool


@record
class RuleInstance:
    """A merged instance: a value set per dimension (a rectangle of tuples),
    as values in domain order and as the bit masks emission works on."""

    rule_id: str
    dims: tuple[DimSpec, ...]
    values: tuple[tuple[str, ...], ...]
    masks: tuple[int, ...] = field(compare=False, repr=False)


@record
class InstantiationSet:
    """The retained atomic tuples of one rule, over its dimensions."""

    rule_id: str
    dims: tuple[DimSpec, ...]
    tuples: tuple[Vector, ...]


@dataclass
class Instantiations:
    """Per-rule retained tuples and the supported vectors per symbol."""

    per_rule: dict[str, InstantiationSet]
    supported: dict[str, frozenset[Vector]]
    index: _Index  # the lookup tables of the grammar they were computed for


class _ValueCodes:
    """One grammar's feature values as bits: value ``i`` of a domain is
    ``1 << i``, so a value set is a bit mask. A mask is decoded back to
    domain indices and values, in domain order, once per feature."""

    def __init__(self, features: Iterable[FeatureDecl]):
        self.domains = {d.name: d.values for d in features}
        self.bits = {name: {v: 1 << i for i, v in enumerate(values)} for name, values in self.domains.items()}
        self._decoded: dict[str, dict[int, tuple[tuple[int, ...], tuple[str, ...]]]] = {
            name: {} for name in self.domains
        }

    def mask(self, feature: str, values: Iterable[str]) -> int:
        """The bit mask of a set of ``feature``'s values."""
        bits = self.bits[feature]
        mask = 0
        for value in values:
            mask |= bits[value]
        return mask

    def decode(self, feature: str, mask: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The domain indices and the values of ``mask``, in domain order."""
        known = self._decoded[feature]
        found = known.get(mask)
        if found is None:
            domain = self.domains[feature]
            indices = tuple(i for i in range(len(domain)) if mask >> i & 1)
            found = known[mask] = (indices, tuple(domain[i] for i in indices))
        return found


class _Index:
    """Shared lookup tables for one grammar."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.decl_index = {d.name: i for i, d in enumerate(grammar.features)}
        self.codes = _ValueCodes(grammar.features)
        self.domains = self.codes.domains
        # Naming dimensions: per symbol, the features some rule constrains
        # on it, in declaration order, gathered in one pass over the rules.
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
        if isinstance(value, Var):  # validation rejects lexical variables
            raise AssertionError("variable in lexical entry")
        choices.append(index.domains[feature] if value is None else value.values)
    return product(*choices)


def _projector(indices: Sequence[int]) -> Callable[[Sequence[str]], Vector]:
    """The values at ``indices``, always as a tuple (a bare ``itemgetter(i)``
    would return the value itself)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda values: (values[i],)
    return lambda values: ()


def compute_instantiations(grammar: Grammar, cap_tuples: int = CAP_TUPLES) -> Instantiations:
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

    Candidates are numbered rule by rule, in product order over each
    dimension's values in domain order; fired and retained candidates are
    kept as numbers, and each rule's tuples come out in number order, which
    is domain order, whatever order the demand pass walked its sets in.

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
    # a mother: the projector of those positions, the numbers of the fired
    # candidates keyed by their values there, and the keys the demand pass
    # has expanded.
    mother_entries: dict[str, dict[tuple[int, ...], tuple]] = {sym: {} for sym in index.symbols}
    rule_dims = [index.rule_dims(rule) for rule in grammar.rules]
    plans: list[tuple] = []
    rule_daughters: list[list[tuple]] = []
    # Per candidate: its rule number, its values and its count of missing
    # keys. Candidates are numbered rule by rule, each rule's in product
    # order over its choices, which are in domain order.
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
            if isinstance(constraint, Var):
                choices.append(index.domains[slot.feature])
            else:  # in domain order, as a parsed grammar already has it; unknown values last
                bits = index.codes.bits[slot.feature]
                choices.append(sorted(constraint.values, key=lambda value: bits.get(value, 1 << len(bits))))
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
        mother, mother_positions, project, free_spans, groups = plans[cand_rules[cand]]
        key = project(cand_values[cand])
        if key in groups:
            groups[key].append(cand)
            continue
        groups[key] = [cand]
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
    retained: list[list[int]] = [[] for _ in grammar.rules]
    while worklist:
        symbol, vec = worklist.pop()
        for project, groups, done in expansions[symbol]:
            key = project(vec)
            if key in done:
                continue
            done.add(key)
            for cand in groups.get(key, ()):
                number = cand_rules[cand]
                retained[number].append(cand)
                values = cand_values[cand]
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

    # A rule's candidates are numbered in product order over domain-ordered
    # choices, so sorting its retained numbers sorts its tuples in domain
    # order, whatever order the demand pass reached them in.
    per_rule = {}
    for rule, dims, cands in zip(grammar.rules, rule_dims, retained):
        cands.sort()
        per_rule[rule.id] = InstantiationSet(rule.id, dims, tuple(map(cand_values.__getitem__, cands)))
    return Instantiations(
        per_rule,
        {sym: frozenset(vectors) for sym, vectors in supported.items()},
        index,
    )


def merge_ranges(inst: InstantiationSet, grammar: Grammar) -> tuple[RuleInstance, ...]:
    """Greedily merge atomic tuples into disjoint rectangles of value sets.

    Instances agreeing everywhere except one mergeable dimension merge by
    unioning that dimension's sets; the dimensions are taken in turn until
    a round over them merges nothing. The result partitions the input
    tuple set exactly: merging never invents a tuple (instances in a merge
    bucket are identical off-dimension) and never drops one (every tuple
    starts as a singleton instance). The merged set does not depend on the
    order instances are visited in, and the result is sorted in the
    (feature declaration, domain) order of its value sets.

    Each value is coded as its bit (see :class:`_ValueCodes`), so each set
    is a bit mask. Every instance keeps its masks, for emission, and the
    values they decode to.
    """
    return _merge_ranges(inst, _ValueCodes(grammar.features))


def _merge_ranges(inst: InstantiationSet, codes: _ValueCodes) -> tuple[RuleInstance, ...]:
    features = [dim.slots[0].feature for dim in inst.dims]
    bits = [codes.bits[feature] for feature in features]
    mergeable = [d_idx for d_idx, dim in enumerate(inst.dims) if dim.mergeable]
    instances = [tuple(map(dict.__getitem__, bits, values)) for values in inst.tuples]
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
    # Sorted by the domain indices of each set in turn; equal indices
    # decode to the same values, so those never decide the order.
    decoded = sorted(
        (tuple(map(codes.decode, features, masks)), masks) for masks in instances
    )
    return tuple(
        RuleInstance(inst.rule_id, inst.dims, tuple(values for _, values in sets), masks)
        for sets, masks in decoded
    )


def merge_all(grammar: Grammar, inst: Instantiations) -> dict[str, tuple[RuleInstance, ...]]:
    """merge_ranges applied to every rule, keyed by rule id in rule order,
    with the value codes of ``inst``'s grammar shared by every rule."""
    codes = inst.index.codes
    return {rule.id: _merge_ranges(inst.per_rule[rule.id], codes) for rule in grammar.rules}


def rect_name(symbol: str, dims: Sequence[str], spans: Sequence[Sequence[str]]) -> str:
    """Deterministic nonterminal name for a (symbol, rectangle) pair."""
    parts = [symbol.lower()]
    for feature, span in zip(dims, spans):
        parts.append(f"__{feature}-{'+'.join(span)}")
    return "".join(parts)


def emit_cfg(
    grammar: Grammar,
    inst: Instantiations,
    merged: Mapping[str, Sequence[RuleInstance]],
) -> ContextFreeGrammar:
    """Emit the context-free grammar over demanded rectangle nonterminals
    from ``merged``, the merged instances of ``inst`` (see :func:`merge_all`).

    A rectangle is a bit mask per naming position, over the codes of
    ``inst``'s grammar, and each instance is read through its masks. Each
    rectangle is decoded once, into its name (see :func:`rect_name`), when
    it is first demanded.
    """
    index = inst.index
    codes = index.codes

    # Per symbol and naming position: the values the supported vectors take
    # there, as a mask; an unrestricted position of a rectangle spans it.
    projections: dict[str, tuple[int, ...]] = {}
    for symbol in index.symbols:
        supported = inst.supported[symbol]
        spans = []
        for pos, feature in enumerate(index.naming_dims[symbol]):
            spans.append(codes.mask(feature, {vec[pos] for vec in supported}))
        projections[symbol] = tuple(spans)

    def plan(rule: Rule) -> tuple:
        """The mother naming positions linked to each dimension of ``rule``;
        per daughter, its symbol, its projection, and the positions a tuple
        fixes there with the dimension fixing each; and the masks of each
        merged instance."""
        (mother_positions, mother_dims), *occurrences = index.slot_positions(
            rule, inst.per_rule[rule.id].dims
        )
        links: dict[int, list[int]] = {}
        for pos, d_idx in zip(mother_positions, mother_dims):
            links.setdefault(d_idx, []).append(pos)
        daughters = [
            (cat.symbol, projections[cat.symbol], tuple(zip(positions, picks)))
            for cat, (positions, picks) in zip(rule.daughters, occurrences)
        ]
        return tuple(links.items()), daughters, [instance.masks for instance in merged[rule.id]]

    plans = {symbol: [plan(rule) for rule in rules] for symbol, rules in index.rules_by_mother.items()}

    # Per lexical symbol: each entry's surface, its alternative, and the
    # mask its constraint allows at each naming position it constrains.
    lex_plans: dict[str, list[tuple[tuple[str, ...], Expr, list[tuple[int, int]]]]] = {}
    for symbol, entries in index.lex_by_symbol.items():
        positions = index.positions[symbol]
        lex_plans[symbol] = [
            (
                entry.surface,
                seq([Term(tok) for tok in entry.surface]),
                [
                    (positions[feature], codes.mask(feature, value.values))
                    for feature, value in entry.category.constraints
                    if feature in positions
                ],
            )
            for entry in entries
        ]

    names: dict[tuple[str, tuple[int, ...]], str] = {}
    refs: dict[str, Ref] = {}
    queue: list[tuple[str, tuple[int, ...]]] = []

    def discover(symbol: str, spans: tuple[int, ...]) -> str:
        key = (symbol, spans)
        name = names.get(key)
        if name is None:
            dims = index.naming_dims[symbol]
            name = names[key] = rect_name(
                symbol, dims, [codes.decode(feature, mask)[1] for feature, mask in zip(dims, spans)]
            )
            refs[name] = Ref(name)
            queue.append(key)
        return name

    def child_name(restricted: Sequence[int], daughter: tuple) -> str:
        """The daughter's rectangle under a restricted instance. Each of its
        tuples fired, so the daughter keys it fixes are all supported."""
        symbol, projection, fixes = daughter
        spans = list(projection)
        for pos, d_idx in fixes:
            spans[pos] = restricted[d_idx]
        return discover(symbol, tuple(spans))

    discover(grammar.start, projections[grammar.start])
    productions: list[tuple[str, Expr]] = []
    cursor = 0
    while cursor < len(queue):
        symbol, rect = queue[cursor]
        cursor += 1
        # Rule alternatives by their child names, then lexical ones by
        # their surfaces; the two never coincide as expressions.
        children: dict[tuple[str, ...], None] = {}
        for links, daughters, instances in plans.get(symbol, ()):
            for masks in instances:
                # Restrict the mother-linked dimensions by the rectangle.
                restricted = list(masks)
                for d_idx, positions in links:
                    mask = restricted[d_idx]
                    for pos in positions:
                        mask &= rect[pos]
                    if not mask:
                        break
                    restricted[d_idx] = mask
                else:
                    children[tuple([child_name(restricted, d) for d in daughters])] = None
        surfaces: dict[tuple[str, ...], Expr] = {}
        for surface, expr, allowed in lex_plans.get(symbol, ()):
            if all(rect[pos] & mask for pos, mask in allowed):
                surfaces.setdefault(surface, expr)
        name = names[(symbol, rect)]
        if not children and not surfaces:
            raise CompileError(f"demanded nonterminal {name!r} has no alternatives")
        alternatives = [seq([refs[child] for child in key]) for key in children]
        alternatives += surfaces.values()
        productions.append((name, alt(alternatives)))

    if len(refs) != len(names):
        raise CompileError("rectangle naming collision")
    return ContextFreeGrammar(productions[0][0], tuple(productions))


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


def eliminate_left_recursion(cfg: ContextFreeGrammar, cap: int = CAP_TUPLES) -> ContextFreeGrammar:
    """Rewrite left-recursive productions using trailing repetition.

    Direct recursion ``A -> A a1 | .. | A ak | b1 | .. | bm`` becomes
    ``A -> (b1|..|bm) (a1|..|ak)*`` — no fresh nonterminal and no empty
    production, which the graph backend requires. Indirect recursion is
    first reduced to direct recursion by substituting earlier members of
    the same leftmost-reference cycle, in definition order, one pass per
    earlier member. Grammars whose leftmost-reference graph is already
    acyclic are returned unchanged (the same object).

    Not supported, and raised as :class:`CompileError`: a cycle member
    whose body nests a group inside an alternative, a cyclic unit
    production, a member that is only left-recursive, and recursion
    through a repetition (``A -> (A a)* b``), which survives elimination.

    Substitution can multiply alternatives exponentially (Moore 2000), so
    every alternative it produces is charged to ``cap``; beyond it
    :class:`ResourceCapError` is raised.
    """
    edges = {name: _leftmost_refs(expr)[0] for name, expr in cfg.productions}
    # The leftmost-reference cycles, each in definition order, taken in the
    # order of their first members.
    position = {name: i for i, name in enumerate(edges)}
    cyclic = [sorted(c, key=position.get) for c in components(edges) if len(c) > 1 or c[0] in edges[c[0]]]
    cyclic.sort(key=lambda c: position[c[0]])
    if not cyclic:
        return cfg

    budget = cap
    rewritten = dict(cfg.productions)
    for component in cyclic:
        flat: dict[str, list[list[Expr]]] = {}
        for name in component:
            body = rewritten[name]
            options = body.options if isinstance(body, Alt) else (body,)
            flat[name] = [list(o.items) if isinstance(o, Seq) else [o] for o in options]
            if any(not isinstance(item, (Term, Ref, Star)) for o in flat[name] for item in o):
                raise CompileError(f"left recursion through a nested group at {name!r} is not supported")
        for i, name in enumerate(component):
            # One pass per earlier member is enough: once member j is
            # processed, none of its alternatives starts with a member of
            # index <= j, so no substitution brings back an earlier head.
            options = flat[name]
            for earlier in component[:i]:
                head = Ref(earlier)
                expanded: list[list[Expr]] = []
                for option in options:
                    if option[0] != head:
                        expanded.append(option)
                        continue
                    budget -= len(flat[earlier])
                    if budget < 0:
                        raise ResourceCapError("left-recursion alternatives", cap)
                    expanded.extend(replacement + option[1:] for replacement in flat[earlier])
                options = expanded
            head = Ref(name)
            recursive: list[list[Expr]] = []
            others: list[list[Expr]] = []
            for option in options:
                if option[0] == head:
                    recursive.append(option[1:])
                else:
                    others.append(option)
            if not recursive:
                rewritten[name] = alt([seq(option) for option in options])
                flat[name] = options
                continue
            if not all(recursive):
                raise CompileError(f"cyclic unit production at {name!r}")
            if not others:
                raise CompileError(f"production {name!r} is only left-recursive; its language is empty")
            loop = Star(alt([seq(tail) for tail in recursive]))
            if len(others) == 1:
                rewritten[name] = seq(others[0] + [loop])
            else:
                rewritten[name] = Seq((alt([seq(option) for option in others]), loop))
            # Later members substitute this member's full language, which is
            # each base alternative with the repetition appended.
            flat[name] = [option + [loop] for option in others]
        for name in component:
            if name in _leftmost_refs(rewritten[name])[0]:
                raise CompileError(f"left recursion at {name!r} survived elimination")

    return ContextFreeGrammar(cfg.start, tuple(rewritten.items()))


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
    inst: Instantiations, merged: Mapping[str, Sequence[RuleInstance]]
) -> ExpansionStats:
    """Compare naive full-domain instantiation against the merged instances.

    The naive count instantiates every dimension of every rule (see
    :class:`DimSpec`) over its feature's full domain, summed over rules; the
    lexicon is not counted on either side.
    """
    domains = inst.index.domains
    naive = sum(
        prod(len(domains[dim.slots[0].feature]) for dim in rule.dims) for rule in inst.per_rule.values()
    )
    emitted = sum(len(instances) for instances in merged.values())
    return ExpansionStats(naive, emitted)


@dataclass
class CompileResult:
    grammar: Grammar  # the stripped grammar that was compiled
    cfg: ContextFreeGrammar
    stats: ExpansionStats


@collector_paused
def compile_grammar(
    grammar: Grammar,
    features: Union[str, Iterable[str]] = "syntactic",
    cap_tuples: int = CAP_TUPLES,
) -> CompileResult:
    """Run the whole pipeline on an (already variant-transformed) grammar.

    ``cap_tuples`` caps instantiation and, as a separate budget, the
    alternatives left-recursion elimination substitutes. The cyclic
    garbage collector is paused throughout (see :func:`collector_paused`).
    """
    stripped = strip_features(grammar, features)
    inst = compute_instantiations(stripped, cap_tuples=cap_tuples)
    merged = merge_all(stripped, inst)
    cfg = eliminate_left_recursion(emit_cfg(stripped, inst, merged), cap=cap_tuples)
    return CompileResult(stripped, cfg, expansion_stats(inst, merged))
