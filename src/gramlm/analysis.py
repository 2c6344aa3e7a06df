"""Grammar variants and size-report comparison.

The variant constructors support the measurement workflow: compile two
variants, :func:`~gramlm.pfsg.measure` both, and :func:`compare` the
reports to find which categories grew.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import GramlmError
from .grammar import Category, Grammar, LexEntry, Rule, Var
from .pfsg import MetricsReport


def wordplus_grammar(vocabulary: Iterable[str]) -> Grammar:
    """A featureless grammar for one-or-more words over a vocabulary.

    Useful as a null model: its compiled graph sizes depend only on the
    vocabulary, so any structure a real grammar adds shows up against it.
    """
    words = sorted(set(vocabulary))
    if not words:
        raise GramlmError("wordplus grammar needs a nonempty vocabulary")
    for word in words:
        if not word or any(ch.isspace() for ch in word) or '"' in word:
            raise GramlmError(f"not a usable vocabulary word: {word!r}")
    rules = (
        Rule("wp_more", Category("S"), (Category("W"), Category("S"))),
        Rule("wp_one", Category("S"), (Category("W"),)),
    )
    lexicon = tuple(LexEntry((word,), Category("W")) for word in words)
    return Grammar((), "S", rules, lexicon)


def k_words_per_category(grammar: Grammar, k: int) -> Grammar:
    """Truncate the lexicon to the first ``k`` entries per distinct category.

    Entries count as the same category when symbol and constraints agree
    exactly; file order decides which survive. Rules are untouched, so the
    result has the same structure with a thinner vocabulary.
    """
    if k < 1:
        raise GramlmError(f"k must be at least 1, got {k}")
    kept: list[LexEntry] = []
    counts: dict[tuple, int] = {}
    for entry in grammar.lexicon:
        key = (entry.category.symbol, entry.category.constraints)
        seen = counts.get(key, 0)
        if seen < k:
            counts[key] = seen + 1
            kept.append(entry)
    return replace(grammar, lexicon=tuple(kept))


def unlink_features(grammar: Grammar, rule_id: str, features: Iterable[str]) -> Grammar:
    """Drop the named features' constraints from one rule, everywhere in it.

    This is the blowup fix: removing a variable link lets ranges ride
    through the rule instead of fissioning it per value. Unknown rule ids
    and features the rule never constrains are errors.
    """
    features = list(features)
    try:
        target = grammar.rule(rule_id)
    except KeyError:
        raise GramlmError(f"no rule named {rule_id!r}") from None
    constrained = {f for cat in target.categories() for f, _ in cat.constraints}
    missing = [f for f in features if f not in constrained]
    if missing:
        raise GramlmError(
            f"rule {rule_id!r} does not constrain feature(s): {', '.join(sorted(missing))}"
        )
    dropped = set(features)

    def strip_category(cat: Category) -> Category:
        return Category(cat.symbol, tuple((f, v) for f, v in cat.constraints if f not in dropped))

    rules = tuple(
        Rule(
            r.id,
            strip_category(r.mother),
            tuple(strip_category(d) for d in r.daughters),
            line=r.line,
        )
        if r.id == rule_id
        else r
        for r in grammar.rules
    )
    return replace(grammar, rules=rules)


def linked_features(grammar: Grammar, rule_id: str) -> tuple[str, ...]:
    """Features a rule links through variables, in declaration order."""
    rule = grammar.rule(rule_id)
    vars_seen: dict[str, list[str]] = {}
    for cat in rule.categories():
        for feature, value in cat.constraints:
            if isinstance(value, Var):
                vars_seen.setdefault(value.name, []).append(feature)
    linked = {f for feats in vars_seen.values() if len(feats) > 1 for f in feats}
    order = {name: i for i, name in enumerate(grammar.feature_names())}
    return tuple(sorted(linked, key=order.__getitem__))


@dataclass(frozen=True)
class CategoryDiff:
    category: str
    left_graphs: int
    right_graphs: int
    left_mean_transitions: float
    right_mean_transitions: float

    @property
    def ratio(self) -> Optional[float]:
        if self.left_mean_transitions == 0:
            return None
        return self.right_mean_transitions / self.left_mean_transitions


@dataclass
class DiffReport:
    left_totals: tuple[int, int, int]  # graphs, nodes, transitions
    right_totals: tuple[int, int, int]
    ranked: list[CategoryDiff]  # present on both sides, by ratio descending
    only_left: list[CategoryDiff]
    only_right: list[CategoryDiff]

    @property
    def transition_ratio(self) -> Optional[float]:
        if self.left_totals[2] == 0:
            return None
        return self.right_totals[2] / self.left_totals[2]


def compare(left: MetricsReport, right: MetricsReport) -> DiffReport:
    """Category-level growth from ``left`` to ``right``.

    Categories present on both sides are ranked by the ratio of mean
    transitions per graph, largest first, so the blown-up category tops
    the report; one-sided categories are listed separately.
    """
    ranked: list[CategoryDiff] = []
    only_left: list[CategoryDiff] = []
    only_right: list[CategoryDiff] = []
    names = sorted(set(left.per_category) | set(right.per_category))
    for name in names:
        l = left.per_category.get(name)
        r = right.per_category.get(name)
        diff = CategoryDiff(
            name,
            l.graph_count if l else 0,
            r.graph_count if r else 0,
            l.mean_transitions if l else 0.0,
            r.mean_transitions if r else 0.0,
        )
        if l and r:
            ranked.append(diff)
        elif l:
            only_left.append(diff)
        else:
            only_right.append(diff)
    ranked.sort(key=lambda d: (-(d.ratio if d.ratio is not None else float("inf")), d.category))
    return DiffReport(
        (left.total_graphs, left.total_nodes, left.total_transitions),
        (right.total_graphs, right.total_nodes, right.total_transitions),
        ranked,
        only_left,
        only_right,
    )


def diff_to_table(report: DiffReport) -> str:
    lines = [
        f"{'':<20} {'graphs':>10} {'nodes':>10} {'transitions':>12}",
        f"{'left':<20} {report.left_totals[0]:>10} {report.left_totals[1]:>10} {report.left_totals[2]:>12}",
        f"{'right':<20} {report.right_totals[0]:>10} {report.right_totals[1]:>10} {report.right_totals[2]:>12}",
    ]
    if report.transition_ratio is not None:
        lines.append(f"transition ratio (right/left): {report.transition_ratio:.3f}")
    lines.append("")
    lines.append(
        f"{'category':<20} {'graphs L>R':>12} {'mean trans L':>14} {'mean trans R':>14} {'ratio':>8}"
    )
    for d in report.ranked:
        ratio = f"{d.ratio:.3f}" if d.ratio is not None else "-"
        lines.append(
            f"{d.category:<20} {f'{d.left_graphs}>{d.right_graphs}':>12}"
            f" {d.left_mean_transitions:>14.2f} {d.right_mean_transitions:>14.2f} {ratio:>8}"
        )
    for label, rows in (("only left", report.only_left), ("only right", report.only_right)):
        if rows:
            lines.append("")
            lines.append(f"{label}:")
            for d in rows:
                side = d.left_mean_transitions if label == "only left" else d.right_mean_transitions
                count = d.left_graphs if label == "only left" else d.right_graphs
                lines.append(f"  {d.category:<18} graphs={count} mean_transitions={side:.2f}")
    return "\n".join(lines) + "\n"
