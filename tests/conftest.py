"""Shared fixtures: cached asset loading and the acceptance summary hook.

The shuttle grammars take seconds to compile, so everything expensive is
cached per-process and shared across test modules.  Tests that need a
fresh, uncached object (determinism checks) call the library directly.
"""

import functools
from itertools import product
from pathlib import Path
from typing import Sequence

from gramlm import (
    build_pfsg,
    compile_grammar,
    compute_instantiations,
    emit_cfg,
    measure,
    merge_all,
    parse_grammar_file,
)
from gramlm.errors import UnknownTokenError
from gramlm.grammar import Grammar, Rule
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
