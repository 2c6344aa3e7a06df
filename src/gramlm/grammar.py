"""Feature grammar model, text format, and validation.

A grammar is a set of feature declarations, a start symbol, context-free
rules whose categories carry feature constraints, and a lexicon mapping
surface token sequences to categories.

Constraint values on a category:

* :class:`Atom` — the feature must be exactly one value.
* :class:`Subset` — the feature must be one of an explicit value set.
  Both give the values they allow as ``values``, so an atom reads as a
  one-value subset.
* :class:`Var` — a rule-scoped variable; all slots sharing the variable
  must agree on a single value.
* absence — the feature is unconstrained on that category occurrence.

The text format is line-oriented::

    # comment
    feature agr syn { s1, s3, pl }
    start S
    rule s_decl: S -> NP:[agr=A] VP:[agr=A, vform=fin]
    lex "the robot": NP:[agr=s3]

Lowercase identifiers in value position are domain values, uppercase ones
are variables, and ``{v1, v2}`` is a subset. Rules must have at least one
daughter, so empty productions cannot be written at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .errors import DslSyntaxError, ValidationError

SYNTACTIC = "syn"
SEMANTIC = "sem"


@dataclass(frozen=True)
class FeatureDecl:
    name: str
    kind: str  # SYNTACTIC or SEMANTIC
    values: tuple[str, ...]  # ordered domain
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Atom:
    value: str

    @property
    def values(self) -> tuple[str, ...]:
        return (self.value,)


@dataclass(frozen=True)
class Subset:
    values: tuple[str, ...]  # canonicalized to domain order, unknown values last


@dataclass(frozen=True)
class Var:
    name: str


Constraint = Atom | Subset | Var


@dataclass(frozen=True)
class Category:
    symbol: str
    constraints: tuple[tuple[str, Constraint], ...] = ()

    def constraint_for(self, feature: str) -> Optional[Constraint]:
        for name, value in self.constraints:
            if name == feature:
                return value
        return None


@dataclass(frozen=True)
class Rule:
    id: str
    mother: Category
    daughters: tuple[Category, ...]
    line: int = field(default=0, compare=False, repr=False)

    def categories(self) -> Iterator[Category]:
        yield self.mother
        yield from self.daughters


@dataclass(frozen=True)
class LexEntry:
    surface: tuple[str, ...]
    category: Category
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Grammar:
    features: tuple[FeatureDecl, ...]
    start: str
    rules: tuple[Rule, ...]
    lexicon: tuple[LexEntry, ...]
    start_line: int = field(default=0, compare=False, repr=False)

    def feature(self, name: str) -> FeatureDecl:
        for decl in self.features:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def feature_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.features)

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)


@dataclass(frozen=True, order=True)
class Diagnostic:
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.message}"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<arrow>->)
  | (?P<punct>[{}\[\]:,=])
  | (?P<string>"[^"]*")
  | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_LOWER_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_UPPER_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_SURFACE_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _tokenize_line(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """Return (kind, value, col) triples for one line, comments stripped."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = match.lastgroup or ""
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append((kind, match.group(), match.start() + 1))
        pos = match.end()
    return tokens


class _LineParser:
    """Recursive-descent parser over one line's token list."""

    def __init__(self, tokens: list[tuple[str, str, int]], line_no: int, length: int):
        self.tokens = tokens
        self.line = line_no
        self.length = length
        self.index = 0

    def _col(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][2]
        return self.length + 1

    def error(self, message: str) -> DslSyntaxError:
        return DslSyntaxError(message, self.line, self._col())

    def peek(self) -> Optional[tuple[str, str, int]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self, kind: str, value: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            got = tok[1] if tok else "end of line"
            raise self.error(f"expected {want!r}, got {got!r}")
        self.index += 1
        return tok[1]

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def word(self, what: str, pattern: re.Pattern[str]) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "word" or not pattern.match(tok[1]):
            got = tok[1] if tok else "end of line"
            raise self.error(f"expected {what}, got {got!r}")
        self.index += 1
        return tok[1]

    def category(self) -> Category:
        symbol = self.word("a category symbol (uppercase)", _UPPER_RE)
        constraints: list[tuple[str, Constraint]] = []
        tok = self.peek()
        if tok is not None and tok[1] == ":":
            self.take("punct", ":")
            self.take("punct", "[")
            while True:
                feature = self.word("a feature name (lowercase)", _LOWER_RE)
                self.take("punct", "=")
                constraints.append((feature, self.constraint_value()))
                if self.peek() is not None and self.peek()[1] == ",":
                    self.take("punct", ",")
                    continue
                break
            self.take("punct", "]")
        return Category(symbol, tuple(constraints))

    def constraint_value(self) -> Constraint:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a constraint value")
        if tok[1] == "{":
            self.take("punct", "{")
            values = [self.word("a domain value", _LOWER_RE)]
            while self.peek() is not None and self.peek()[1] == ",":
                self.take("punct", ",")
                values.append(self.word("a domain value", _LOWER_RE))
            self.take("punct", "}")
            return Subset(tuple(values))
        if tok[0] == "word" and _UPPER_RE.match(tok[1]):
            self.index += 1
            return Var(tok[1])
        value = self.word("a domain value or variable", _LOWER_RE)
        return Atom(value)


def parse_grammar(text: str) -> Grammar:
    """Parse and validate grammar text; raise on any syntax or semantic error."""
    features: list[FeatureDecl] = []
    start: Optional[str] = None
    start_line = 0
    rules: list[Rule] = []
    lexicon: list[LexEntry] = []
    diagnostics: list[Diagnostic] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        parser = _LineParser(tokens, line_no, len(raw))
        head = parser.take("word")
        if head == "feature":
            name = parser.word("a feature name (lowercase)", _LOWER_RE)
            kind = parser.word("'syn' or 'sem'", _LOWER_RE)
            if kind not in (SYNTACTIC, SEMANTIC):
                raise DslSyntaxError(
                    f"feature kind must be 'syn' or 'sem', got {kind!r}", line_no, 1
                )
            parser.take("punct", "{")
            values = [parser.word("a domain value", _LOWER_RE)]
            while parser.peek() is not None and parser.peek()[1] == ",":
                parser.take("punct", ",")
                values.append(parser.word("a domain value", _LOWER_RE))
            parser.take("punct", "}")
            features.append(FeatureDecl(name, kind, tuple(values), line=line_no))
            if len(set(values)) != len(values):
                diagnostics.append(
                    Diagnostic(line_no, "dup-value", f"feature {name!r} repeats a domain value")
                )
        elif head == "start":
            symbol = parser.word("a symbol", _UPPER_RE)
            if start is not None:
                diagnostics.append(
                    Diagnostic(line_no, "dup-start", "start symbol was already declared")
                )
            else:
                start = symbol
                start_line = line_no
        elif head == "rule":
            rule_id = parser.word("a rule id (lowercase)", _LOWER_RE)
            parser.take("punct", ":")
            mother = parser.category()
            parser.take("arrow")
            daughters = [parser.category()]
            while not parser.at_end():
                daughters.append(parser.category())
            rules.append(Rule(rule_id, mother, tuple(daughters), line=line_no))
        elif head == "lex":
            quoted = parser.take("string")
            surface = tuple(quoted[1:-1].split())
            parser.take("punct", ":")
            category = parser.category()
            if not surface:
                diagnostics.append(Diagnostic(line_no, "empty-surface", "empty surface form"))
            for token in surface:
                if not _SURFACE_TOKEN_RE.match(token):
                    diagnostics.append(
                        Diagnostic(
                            line_no,
                            "bad-token",
                            f"surface token {token!r} is not lowercase alphanumeric",
                        )
                    )
            lexicon.append(LexEntry(surface, category, line=line_no))
        else:
            raise DslSyntaxError(
                f"expected 'feature', 'start', 'rule', or 'lex', got {head!r}",
                line_no,
                tokens[0][2],
            )
        if not parser.at_end():
            raise parser.error("trailing input after statement")

    if start is None:
        diagnostics.append(Diagnostic(0, "no-start", "no start symbol declared"))
        start = "?"

    grammar = Grammar(tuple(features), start, tuple(rules), tuple(lexicon), start_line=start_line)
    grammar = _canonicalize(grammar, diagnostics)
    diagnostics.extend(validate(grammar))
    diagnostics = sorted(set(diagnostics))
    if diagnostics:
        raise ValidationError(diagnostics)
    return grammar


def parse_grammar_file(path) -> Grammar:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grammar(handle.read())


def _canonicalize(grammar: Grammar, diagnostics: list[Diagnostic]) -> Grammar:
    """Order constraints by feature declaration and subset values by domain.

    A subset value outside its domain sorts after the domain's, by name, and
    is kept so that :func:`validate` reports it.
    """
    decl_index = {d.name: i for i, d in enumerate(grammar.features)}
    domains = {d.name: d.values for d in grammar.features}

    def fix_category(cat: Category, line: int) -> Category:
        seen: set[str] = set()
        fixed: list[tuple[str, Constraint]] = []
        for feature, value in cat.constraints:
            if feature in seen:
                diagnostics.append(
                    Diagnostic(line, "dup-constraint", f"feature {feature!r} constrained twice")
                )
                continue
            seen.add(feature)
            if feature in domains and isinstance(value, Subset):
                order = {v: i for i, v in enumerate(domains[feature])}
                ranked = sorted(set(value.values), key=lambda v: (order.get(v, len(order)), v))
                value = Subset(tuple(ranked))
            fixed.append((feature, value))
        fixed.sort(key=lambda pair: decl_index.get(pair[0], len(decl_index)))
        return Category(cat.symbol, tuple(fixed))

    rules = tuple(
        Rule(
            r.id,
            fix_category(r.mother, r.line),
            tuple(fix_category(d, r.line) for d in r.daughters),
            line=r.line,
        )
        for r in grammar.rules
    )
    lexicon = tuple(
        LexEntry(e.surface, fix_category(e.category, e.line), line=e.line)
        for e in grammar.lexicon
    )
    return replace(grammar, rules=rules, lexicon=lexicon)


def validate(grammar: Grammar) -> list[Diagnostic]:
    """Check cross-references and variable discipline; return sorted findings."""
    out: list[Diagnostic] = []
    domains: dict[str, tuple[str, ...]] = {}
    for decl in grammar.features:
        if decl.name in domains:
            out.append(Diagnostic(decl.line, "dup-feature", f"feature {decl.name!r} declared twice"))
        domains[decl.name] = decl.values

    def check_category(cat: Category, line: int, allow_vars: bool) -> None:
        for feature, value in cat.constraints:
            if feature not in domains:
                out.append(
                    Diagnostic(line, "unknown-feature", f"feature {feature!r} is not declared")
                )
                continue
            if isinstance(value, Var):
                if not allow_vars:
                    out.append(
                        Diagnostic(
                            line,
                            "lexical-var",
                            f"variable {value.name!r} is not allowed in a lexical entry",
                        )
                    )
                continue
            for v in value.values:
                if v not in domains[feature]:
                    out.append(
                        Diagnostic(line, "unknown-value", f"value {v!r} is not in the domain of {feature!r}")
                    )

    rule_ids: set[str] = set()
    mothers: set[str] = set()
    for rule in grammar.rules:
        if rule.id in rule_ids:
            out.append(Diagnostic(rule.line, "dup-rule", f"rule id {rule.id!r} declared twice"))
        rule_ids.add(rule.id)
        mothers.add(rule.mother.symbol)
        var_domains: dict[str, set[tuple[str, ...]]] = {}
        for cat in rule.categories():
            check_category(cat, rule.line, allow_vars=True)
            for feature, value in cat.constraints:
                if isinstance(value, Var) and feature in domains:
                    var_domains.setdefault(value.name, set()).add(domains[feature])
        for var_name, seen in sorted(var_domains.items()):
            if len(seen) > 1:
                out.append(
                    Diagnostic(
                        rule.line,
                        "var-domain",
                        f"variable {var_name!r} links features with different domains",
                    )
                )

    lexical_symbols = {entry.category.symbol for entry in grammar.lexicon}
    for entry in grammar.lexicon:
        check_category(entry.category, entry.line, allow_vars=False)

    derivable = mothers | lexical_symbols
    for rule in grammar.rules:
        for daughter in rule.daughters:
            if daughter.symbol not in derivable:
                out.append(
                    Diagnostic(
                        rule.line,
                        "undefined-symbol",
                        f"daughter {daughter.symbol!r} is neither a rule mother "
                        "nor a lexical category",
                    )
                )

    if grammar.start != "?" and grammar.start not in derivable:
        out.append(
            Diagnostic(grammar.start_line, "bad-start", f"start symbol {grammar.start!r} is not derivable")
        )
    return sorted(set(out))


def _print_constraint(value: Constraint) -> str:
    if isinstance(value, Atom):
        return value.value
    if isinstance(value, Var):
        return value.name
    return "{" + ", ".join(value.values) + "}"


def _print_category(cat: Category) -> str:
    if not cat.constraints:
        return cat.symbol
    body = ", ".join(f"{f}={_print_constraint(v)}" for f, v in cat.constraints)
    return f"{cat.symbol}:[{body}]"


def print_grammar(grammar: Grammar) -> str:
    """Render a grammar in the text format; parse(print(g)) == g."""
    lines: list[str] = []
    for decl in grammar.features:
        lines.append(f"feature {decl.name} {decl.kind} {{ {', '.join(decl.values)} }}")
    if grammar.features:
        lines.append("")
    lines.append(f"start {grammar.start}")
    if grammar.rules:
        lines.append("")
    for rule in grammar.rules:
        daughters = " ".join(_print_category(d) for d in rule.daughters)
        lines.append(f"rule {rule.id}: {_print_category(rule.mother)} -> {daughters}")
    if grammar.lexicon:
        lines.append("")
    for entry in grammar.lexicon:
        lines.append(f'lex "{" ".join(entry.surface)}": {_print_category(entry.category)}')
    return "\n".join(lines) + "\n"


def surface_tokens(grammar: Grammar) -> frozenset[str]:
    """Every token that appears in some lexical surface form."""
    return frozenset(tok for entry in grammar.lexicon for tok in entry.surface)
