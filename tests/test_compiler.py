"""Compile pipeline: stripping, instantiation, merging, emission, elimination."""

import dataclasses
import functools
import gc
import inspect
import itertools
import re
import time

import pytest
from conftest import (
    SHUTTLES,
    TOYS,
    compiled,
    compiled_stages,
    constrained_features,
    grammar,
    leftmost_cycle_free,
    reference_compute_instantiations,
    reference_emit,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pfsg import _cfgs

from gramlm import (
    CompileError,
    GramlmError,
    analysis,
    ResourceCapError,
    build_pfsg,
    cfg_enumerate,
    cfg_from_text,
    cfg_to_text,
    compile_grammar,
    compute_instantiations,
    eliminate_left_recursion,
    emit_cfg,
    merge_all,
    oracle_enumerate,
    oracle_parse,
    parse_grammar,
    parse_grammar_file,
    pfsg_enumerate,
    strip_features,
)
from gramlm.cfg import Alt, ContextFreeGrammar, Ref, Seq, Star, Term, alt, components, seq
from gramlm.cli import _build_parser
from gramlm.compiler import DimSpec, InstantiationSet, RuleInstance, SlotRef, _Index, _projector, rect_name
from gramlm.errors import CAP_TUPLES, record
from gramlm.pfsg import Transition
from gramlm.grammar import (
    SYNTACTIC,
    Atom,
    Category,
    FeatureDecl,
    Grammar,
    LexEntry,
    Rule,
    Subset,
    Var,
    surface_tokens,
)

ALL_ASSETS = TOYS + SHUTTLES


# ---- feature stripping ----


def test_strip_drops_semantic_features():
    g = grammar("shuttle_rels")
    stripped = strip_features(g, "syntactic")
    names = {d.name for d in stripped.features}
    assert "act" not in names
    assert {"agr", "sort", "ppu"} <= names
    # the semantic constraint is gone from the rules that carried it
    assert stripped.rule("s_decl").mother.constraint_for("act") is None


def test_strip_all_is_identity():
    g = grammar("shuttle_rels")
    assert strip_features(g, "all") == g


def test_strip_to_named_features():
    g = grammar("shuttle_rels")
    only_agr = strip_features(g, ("agr",))
    assert {d.name for d in only_agr.features} == {"agr"}
    assert only_agr.rule("s_decl").daughters[0].constraint_for("sort") is None
    assert only_agr.rule("s_decl").daughters[0].constraint_for("agr") is not None


def test_strip_is_idempotent():
    g = grammar("shuttle_rels")
    once = strip_features(g, "syntactic")
    assert strip_features(once, "syntactic") == once


def _strip_by_rebuilding(g: Grammar, kept: set[str]) -> Grammar:
    """Stripping as a fresh copy: every category, rule and entry rebuilt."""

    def category(cat: Category) -> Category:
        return Category(cat.symbol, tuple((f, v) for f, v in cat.constraints if f in kept))

    return Grammar(
        tuple(d for d in g.features if d.name in kept),
        g.start,
        tuple(Rule(r.id, category(r.mother), tuple(map(category, r.daughters)), line=r.line) for r in g.rules),
        tuple(LexEntry(e.surface, category(e.category), line=e.line) for e in g.lexicon),
        start_line=g.start_line,
    )


@pytest.mark.parametrize("keep", ["syntactic", "first", "none"])
@pytest.mark.parametrize("name", ALL_ASSETS)
def test_strip_keeps_every_part_that_loses_no_constraint(name, keep):
    g = grammar(name)
    kept = {
        "syntactic": {d.name for d in g.features if d.kind == SYNTACTIC},
        "first": {d.name for d in g.features[:1]},
        "none": set(),
    }[keep]
    stripped = strip_features(g, "syntactic" if keep == "syntactic" else kept)
    assert stripped == _strip_by_rebuilding(g, kept)
    assert stripped.start_line == g.start_line
    changed = 0
    for old, new in zip(g.rules, stripped.rules):
        assert new.line == old.line
        for before, after in zip(old.categories(), new.categories()):
            assert (after is before) == all(f in kept for f, _ in before.constraints)
        assert (new is old) == all(a is b for a, b in zip(old.categories(), new.categories()))
        changed += new is not old
    for old, new in zip(g.lexicon, stripped.lexicon):
        assert new.line == old.line
        assert (new is old) == (new.category is old.category) == all(f in kept for f, _ in old.category.constraints)
        changed += new is not old
    if keep == "syntactic":
        assert changed == (3 if name in SHUTTLES else 0)
    if stripped.features == g.features and not changed:
        assert stripped is g


# ---- instantiation and merging ----


def test_tiny_instantiations_follow_support():
    g = grammar("tiny_agreement")
    inst = compute_instantiations(g)
    # rule s: one linked dimension over {sg, pl}, both supported by the lexicon
    s = inst.per_rule["s"]
    assert len(s.dims) == 1
    assert sorted(s.tuples) == [("pl",), ("sg",)]


def test_unsupported_combinations_are_dropped():
    g = parse_grammar(
        """
        feature f syn {a, b, c}
        start X
        rule x: X -> Y:[f=V] Z:[f=V]
        lex "ya": Y:[f=a]
        lex "yb": Y:[f=b]
        lex "za": Z:[f=a]
        lex "zc": Z:[f=c]
        """
    )
    inst = compute_instantiations(g)
    # only f=a is supported on both daughters at once
    assert inst.per_rule["x"].tuples == (("a",),)


def assert_daughter_keys_supported(stripped, inst):
    """Every retained tuple agrees, at each daughter's fixed positions, with
    a vector the daughter supports; emission builds daughter rectangles
    from the merged instances on this alone."""
    for rule in stripped.rules:
        retained = inst.per_rule[rule.id]
        _, *occurrences = inst.index.slot_positions(rule, retained.dims)
        for cat, (positions, picks) in zip(rule.daughters, occurrences):
            keys = {tuple(vec[p] for p in positions) for vec in inst.supported[cat.symbol]}
            for values in retained.tuples:
                assert tuple(values[d] for d in picks) in keys, (rule.id, cat.symbol, values)


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_merged_instances_partition_the_tuples(name):
    """Every merged rectangle covers retained tuples exactly once."""
    inst, merged, _ = compiled_stages(name)
    for rule_id, instances in merged.items():
        atoms = set(inst.per_rule[rule_id].tuples)
        covered = []
        for instance in instances:
            covered.extend(itertools.product(*instance.values))
        assert len(covered) == len(set(covered)), f"overlap in {name}:{rule_id}"
        assert set(covered) == atoms, f"coverage gap in {name}:{rule_id}"
    assert_daughter_keys_supported(compiled(name).grammar, inst)


def test_merge_collapses_one_to_one_links():
    # rule np links num through a single mother slot and a single daughter
    # slot, so both values ride in one merged instance
    _, merged, _ = compiled_stages("tiny_agreement")
    (np_instance,) = merged["np"]
    assert set(np_instance.values[0]) == {"sg", "pl"}
    # rule s uses the variable in two daughter slots, so it must fission
    assert len(merged["s"]) == 2


def test_rect_names_are_deterministic():
    assert rect_name("NP", (), ()) == "np"
    assert rect_name("NP", ("agr",), (("s3",),)) == "np__agr-s3"
    assert (
        rect_name("VP", ("agr", "ppu"), (("pl",), ("u0", "u_loc")))
        == "vp__agr-pl__ppu-u0+u_loc"
    )


def test_instantiation_cap_raises():
    g = parse_grammar_file("src/gramlm/assets/shuttle_rels.gram")
    with pytest.raises(ResourceCapError) as err:
        compile_grammar(g, cap_tuples=100)
    assert "cap of 100" in str(err.value)


def test_instantiation_cap_threshold_is_pinned():
    # lexicon vectors + vectors derived by rules + candidate tuples: 4556 in all
    g = strip_features(grammar("shuttle_rels"))
    compute_instantiations(g, cap_tuples=4556)
    with pytest.raises(ResourceCapError):
        compute_instantiations(g, cap_tuples=4555)


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_index_naming_dims_match_constrained_features(name):
    for g in (grammar(name), strip_features(grammar(name))):
        index = _Index(g)
        symbols = {c.symbol for r in g.rules for c in r.categories()}
        symbols.update(e.category.symbol for e in g.lexicon)
        assert index.symbols == symbols
        for sym in symbols:
            assert index.naming_dims[sym] == constrained_features(g, sym, include_lexicon=False)


@pytest.mark.parametrize(
    "name, retained", [("shuttle_no_rels", 631), ("shuttle_rels", 745), ("shuttle_unlinked", 724)]
)
def test_shuttle_instantiation_counts(name, retained):
    inst, _, _ = compiled_stages(name)
    assert sum(len(vectors) for vectors in inst.supported.values()) == 976
    assert sum(len(s.tuples) for s in inst.per_rule.values()) == retained


@pytest.mark.parametrize("indices", [(), (1,), (0, 2), (2, 0), (1, 1), (3, 0, 3), (2, 1, 0)])
def test_projector_returns_a_tuple_of_the_indexed_values(indices):
    for values in (("a", "b", "c", "d"), ("sg", "pl", "x", "y")):
        assert _projector(indices)(values) == tuple(values[i] for i in indices)


def test_instantiation_keys_of_one_and_no_positions():
    # NP is named by (n, c). The daughter NP of rule s2 fixes no position,
    # the mothers of np and np2 fix one each, and vp's daughter NP fixes c
    # alone; every key is then a 0- or 1-tuple.
    g = parse_grammar(
        """
        feature n syn {sg, pl}
        feature c syn {x, y}
        start S
        rule s: S -> NP:[n=X] VP:[n=X]
        rule s2: S -> NP VP:[n=pl, c=y]
        rule np: NP:[n=N] -> D:[n=N] N
        rule np2: NP:[c=y] -> N N
        rule vp: VP:[c=C, n=N] -> V:[n=N] NP:[c=C]
        lex "d": D:[n=sg]
        lex "ds": D:[n=pl]
        lex "n": N
        lex "v": V:[n=sg]
        lex "vs": V:[n={sg, pl}]
        """
    )
    result = compile_grammar(g)
    inst = compute_instantiations(result.grammar)
    assert sum(len(s.tuples) for s in inst.per_rule.values()) == 10
    language = oracle_enumerate(g, 6)
    assert len(language) == 15
    assert cfg_enumerate(result.cfg, 6) == language


# ---- emitted grammar vs the reference enumerator ----


@pytest.mark.parametrize("name", TOYS)
def test_compiled_language_matches_oracle(name):
    g = grammar(name)
    result = compiled(name)
    want = oracle_enumerate(g, 6)
    assert cfg_enumerate(compiled_stages(name)[2], 6) == want
    assert cfg_enumerate(result.cfg, 6) == want


# Mother expansions no shipped asset exercises, with the supported vectors
# each must produce.
MOTHER_CORNERS = {
    "mother_only_variable": (
        """
        feature n syn {sg, pl}
        start S
        rule s: S -> NP:[n=X] V:[n=X]
        rule np: NP:[n=M] -> Q
        lex "q": Q
        lex "v": V:[n=pl]
        """,
        {"S": {()}, "NP": {("sg",), ("pl",)}, "Q": {()}, "V": {("pl",)}},
    ),
    "mother_subset": (
        """
        feature n syn {sg, du, pl}
        start S
        rule s: S -> NP:[n=X] V:[n=X]
        rule np: NP:[n={sg, du}] -> D
        lex "d": D
        lex "e": NP:[n=pl]
        lex "v": V:[n={du, pl}]
        lex "w": V:[n=sg]
        """,
        {
            "S": {()},
            "NP": {("sg",), ("du",), ("pl",)},
            "D": {()},
            "V": {("sg",), ("du",), ("pl",)},
        },
    ),
    "unconstrained_mother_dimension": (
        """
        feature n syn {sg, pl}
        feature c syn {x, y}
        start S
        rule s: S -> X:[n=N] W:[n=N]
        rule x: X:[c=x] -> Z
        rule x2: X:[n=sg, c=y] -> Z Z
        lex "z": Z
        lex "w": W:[n=pl]
        """,
        {"S": {()}, "X": {("sg", "x"), ("pl", "x"), ("sg", "y")}, "Z": {()}, "W": {("pl",)}},
    ),
    "repeated_mother_variable": (
        """
        feature f syn {a, b}
        feature g syn {a, b}
        start S
        rule s: S -> A:[f=X, g=X] B:[f=X]
        rule s2: S -> A:[f=a, g=b]
        rule a: A:[f=Y, g=Y] -> W
        rule b: B:[f=a] -> U
        lex "w": W
        lex "u": U
        """,
        {"S": {()}, "A": {("a", "a"), ("b", "b")}, "B": {("a",)}, "U": {()}, "W": {()}},
    ),
}


@pytest.mark.parametrize("name", sorted(MOTHER_CORNERS))
def test_mother_expansion_corners_match_oracle(name):
    text, supported = MOTHER_CORNERS[name]
    g = parse_grammar(text)
    result = compile_grammar(g)
    inst = compute_instantiations(result.grammar)
    assert {sym: set(vectors) for sym, vectors in inst.supported.items()} == supported
    for max_len in range(1, 6):
        assert cfg_enumerate(result.cfg, max_len) == oracle_enumerate(g, max_len)


def test_repeated_mother_variable_takes_one_value():
    # A:[f=Y, g=Y] -> W licenses A:[f=a, g=a] and A:[f=b, g=b], never
    # A:[f=a, g=b], so rule s2 derives nothing
    g = parse_grammar(MOTHER_CORNERS["repeated_mother_variable"][0])
    assert oracle_enumerate(g, 5) == cfg_enumerate(compile_grammar(g).cfg, 5) == {("w", "u")}
    assert not oracle_parse(g, ["w"]).accepted


def test_unsupported_start_symbol_is_a_compile_error():
    g = parse_grammar(
        """
        feature f syn {a, b}
        start S
        rule s: S -> A:[f=a]
        lex "x": A:[f=b]
        """
    )
    with pytest.raises(CompileError, match="^line 3: start symbol 'S' has no supported instantiations") as err:
        compile_grammar(g)
    assert str(err.value).endswith(": none of its rules (s on line 4) derives a string")


def test_start_symbol_survives_compilation():
    result = compiled("tiny_agreement")
    assert result.cfg.start == "s"


# ---- expansion statistics ----


@pytest.mark.parametrize(
    "name, naive, emitted",
    [
        ("tiny_agreement", 4, 3),
        ("rel_linked", 12, 6),
        ("rel_unlinked", 9, 3),
        ("wordplus3", 2, 2),
        ("intj", 0, 0),
    ],
)
def test_toy_expansion_stats(name, naive, emitted):
    stats = compiled(name).stats
    assert (stats.naive_count, stats.emitted_rules) == (naive, emitted)


def test_reduction_factor_is_exact():
    stats = compiled("rel_linked").stats
    assert stats.reduction_factor == 2
    assert stats.reduction_text() == "2"


def test_shuttle_naive_counts_are_astronomical():
    assert compiled("shuttle_rels").stats.naive_count == 249203089
    assert compiled("shuttle_no_rels").stats.naive_count == 249202913
    assert compiled("shuttle_rels").stats.emitted_rules == 91


def test_a_lexical_variable_is_never_read_as_a_domain():
    """Validation rejects it; built past validation, it still raises."""
    n_sg = Category("N", (("num", Atom("sg")),))
    g = Grammar(
        (FeatureDecl("num", SYNTACTIC, ("sg", "pl")),),
        "S",
        (Rule("s", Category("S"), (n_sg,)),),
        (LexEntry(("n",), Category("N", (("num", Var("X")),))),),
    )
    for run in (compute_instantiations, lambda g: oracle_enumerate(g, 1)):
        with pytest.raises(AssertionError, match="variable in lexical entry"):
            run(g)


def test_library_tuple_caps_match_the_command_line():
    parser = _build_parser()
    for argv in (
        ["compile", "g.gram", "--out", "d"],
        ["check", "g.gram", "--max-len", "1"],
        ["stats", "g.gram"],
        ["parse", "g.gram", "w"],
        ["enumerate", "g.gram", "--max-len", "1"],
        ["perplexity", "g.gram", "c.txt"],
    ):
        assert parser.parse_args(argv).cap_tuples == CAP_TUPLES
    for function, name in (
        (compute_instantiations, "cap_tuples"),
        (compile_grammar, "cap_tuples"),
        (eliminate_left_recursion, "cap"),
    ):
        assert inspect.signature(function).parameters[name].default == CAP_TUPLES


# ---- left-recursion elimination ----


def test_components_of_a_small_graph():
    """Roots in order, children in listed order; "c" is only a child."""
    graph = {"a": ["b"], "b": ["c", "a"], "d": ["d", "a"], "e": []}
    assert components(graph) == [["c"], ["a", "b"], ["d"], ["e"]]


# Graphs over a few names: children as lists or, as elimination passes them,
# as sets; self-loops and names that are only children are common.
_graphs = st.dictionaries(
    st.sampled_from("abcdefg"),
    st.lists(st.sampled_from("abcdefgh"), max_size=3) | st.sets(st.sampled_from("abcdefgh"), max_size=3),
    max_size=7,
)


@settings(max_examples=300, deadline=None)
@given(edges=_graphs)
def test_components_are_the_mutual_reachability_classes(edges):
    """Brute force: each node's closure, then the nodes that reach it back."""
    nodes = set(edges).union(*edges.values())
    reach = {node: {node} for node in nodes}
    for _ in nodes:
        for node in nodes:
            for child in edges.get(node, ()):
                reach[node] |= reach[child]
    classes = {frozenset(u for u in reach[v] if v in reach[u]) for v in nodes}
    found = components(edges)
    assert sorted(itertools.chain(*found)) == sorted(nodes)
    assert {frozenset(c) for c in found} == classes


@settings(max_examples=300, deadline=None)
@given(edges=_graphs)
def test_components_come_after_every_component_they_reach(edges):
    place = {node: i for i, component in enumerate(components(edges)) for node in component}
    for node, children in edges.items():
        for child in children:
            assert place[child] <= place[node]


def test_direct_left_recursion_removed():
    assert not leftmost_cycle_free(compiled_stages("direct_left")[2])
    assert leftmost_cycle_free(compiled("direct_left").cfg)


def test_indirect_left_recursion_removed():
    assert not leftmost_cycle_free(compiled_stages("indirect_left")[2])
    assert leftmost_cycle_free(compiled("indirect_left").cfg)


def test_right_recursion_left_untouched():
    cfg_raw = compiled_stages("right_rec")[2]
    assert leftmost_cycle_free(cfg_raw)
    assert compiled("right_rec").cfg == cfg_raw


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_no_compiled_grammar_has_a_leftmost_cycle(name):
    assert leftmost_cycle_free(compiled(name).cfg)


def test_elimination_is_idempotent():
    cfg = compiled("direct_left").cfg
    assert eliminate_left_recursion(cfg) == cfg


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            'a -> a "x" | b "y" ; b -> a "z" | "w" ;',
            'a -> b "y" ( "x" )* ;\nb -> "w" ( "y" ( "x" )* "z" )* ;\n',
        ),
        (
            'a -> a "x" | b "y" | "u" ; b -> c "v" | a "z" ; c -> b "q" | c "r" | "w" ;',
            'a -> ( b "y" | "u" ) ( "x" )* ;\n'
            'b -> ( c "v" | "u" ( "x" )* "z" ) ( "y" ( "x" )* "z" )* ;\n'
            'c -> ( "u" ( "x" )* "z" ( "y" ( "x" )* "z" )* "q" | "w" )'
            ' ( "v" ( "y" ( "x" )* "z" )* "q" | "r" )* ;\n',
        ),
    ],
)
def test_elimination_of_multi_member_cycles_is_pinned(text, expected):
    # Substituting an earlier member that carries a loop, a nested base
    # alternation, and a cycle of three; no golden digest covers these.
    assert cfg_to_text(eliminate_left_recursion(cfg_from_text(text))) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ('a -> ( a "x" | "y" ) "z" ;', "left recursion through a nested group at 'a'"),
        ('a -> a | "x" ;', "cyclic unit production at 'a'"),
        ('a -> a "x" ;', "production 'a' is only left-recursive"),
        ('a -> ( a "x" )* "y" | a "z" | "w" ;', "left recursion at 'a' survived elimination"),
    ],
)
def test_unsupported_left_recursion_is_a_compile_error(text, message):
    with pytest.raises(CompileError, match=re.escape(message)):
        eliminate_left_recursion(cfg_from_text(text))


@settings(max_examples=300, deadline=None)
@given(cfg=_cfgs)
def test_elimination_on_random_grammars_keeps_the_language(cfg):
    """Either a compile or cap error, or a leftmost-cycle-free grammar that
    is a fixed point of elimination and has the input's short strings."""
    try:
        result = eliminate_left_recursion(cfg, cap=10**3)
    except (CompileError, ResourceCapError):
        return
    assert leftmost_cycle_free(result)
    assert eliminate_left_recursion(result, cap=10**3) is result
    assert cfg_enumerate(result, 4) == cfg_enumerate(cfg, 4)


def left_cycle(k: int, m: int) -> ContextFreeGrammar:
    """A leftmost cycle a1 -> ak, ak -> a(k-1), .., a2 -> a1 of k members,
    each with m alternatives, plus one base alternative on a1. Substituting
    earlier members leaves a(i) with m^(i-1)·(m+1) alternatives."""
    productions = []
    for i in range(1, k + 1):
        head = Ref(f"a{k}" if i == 1 else f"a{i - 1}")
        options = [seq([head, Term(f"t{j}")]) for j in range(m)]
        if i == 1:
            options.append(Term("b"))
        productions.append((f"a{i}", alt(options)))
    return ContextFreeGrammar("a1", tuple(productions))


def test_elimination_cap_counts_substituted_alternatives():
    # a2 gets 2·3 alternatives and a3 2·6: 18 in all
    cfg = left_cycle(3, 2)
    assert leftmost_cycle_free(eliminate_left_recursion(cfg, cap=18))
    with pytest.raises(ResourceCapError, match="left-recursion alternatives"):
        eliminate_left_recursion(cfg, cap=17)


def test_shared_eliminated_expressions_are_checked_once():
    # Elimination shares subexpressions among this grammar's alternatives;
    # checking references in the emitted CFG as a tree took over 20 s.
    g = parse_grammar(
        """
        feature f syn {v0, v1, v2}
        start S
        rule r0: S:[f=v2] -> B:[f=Y] A:[f=Y]
        rule r1: S:[f=Y] -> A:[f=X]
        rule r2: A:[f=X] -> B:[f={v0,v1}] C
        rule r3: B -> B:[f={v2,v0}] B
        rule r4: B -> S:[f=X] B
        lex "w0 x": A
        lex "w1": B:[f=v1]
        lex "w2": C:[f=v2]
        """
    )
    started = time.perf_counter()
    result = compile_grammar(g, cap_tuples=10**4)
    assert time.perf_counter() - started < 5.0
    assert len(result.cfg.productions) == 12


def test_elimination_blowup_hits_the_cap_quickly():
    # 10^6 alternatives uncapped
    started = time.perf_counter()
    with pytest.raises(ResourceCapError, match="cap of 1000"):
        eliminate_left_recursion(left_cycle(6, 10), cap=1000)
    assert time.perf_counter() - started < 1.0


# ---- random feature grammars against the oracle ----

_FEATURES = ("f", "g", "h")
_VALUES = ("v0", "v1", "v2")


@st.composite
def _feature_grammars(draw) -> str:
    """Grammar text over 1-3 features sharing one domain. Constraints are
    atoms, subsets or the variables X and Y, so variables link mother and
    daughters, repeat on one category, and link different features. Rule
    daughters range over every symbol, so direct and indirect left
    recursion occur."""
    features = _FEATURES[: draw(st.integers(min_value=1, max_value=3))]
    domain = _VALUES[: draw(st.integers(min_value=2, max_value=3))]

    def category(symbol: str, lexical: bool) -> str:
        kinds = ("none", "none", "atom", "subset") + (() if lexical else ("var", "var"))
        parts = []
        for feature in features:
            kind = draw(st.sampled_from(kinds))
            if kind == "atom":
                parts.append(f"{feature}={draw(st.sampled_from(domain))}")
            elif kind == "subset":
                values = draw(st.lists(st.sampled_from(domain), min_size=1, max_size=2, unique=True))
                parts.append(f"{feature}={{{', '.join(values)}}}")
            elif kind == "var":
                parts.append(f"{feature}={draw(st.sampled_from(('X', 'Y')))}")
        return f"{symbol}:[{', '.join(parts)}]" if parts else symbol

    lines = [f"feature {f} syn {{{', '.join(domain)}}}" for f in features]
    lines.append("start S")
    number = 0
    for mother in ("S", "A", "B"):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            daughters = [
                category(draw(st.sampled_from(("S", "A", "B", "C"))), lexical=False)
                for _ in range(draw(st.sampled_from((1, 2, 2))))
            ]
            lines.append(f"rule r{number}: {category(mother, lexical=False)} -> {' '.join(daughters)}")
            number += 1
    for i, symbol in enumerate(("A", "B", "C") * draw(st.sampled_from((1, 2)))):
        # A word of its own per entry, so that a wrong feature value shows
        # in the strings; sometimes a two-word lexeme.
        surface = f"w{i}" + draw(st.sampled_from(("", "", " x")))
        lines.append(f'lex "{surface}": {category(symbol, lexical=True)}')
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_feature_grammars())
def test_random_feature_grammars_compile_to_the_oracle_language(text):
    """Compiling raises only CompileError or ResourceCapError, is
    byte-deterministic, and yields the oracle's language up to length 4.
    Both budgeted enumerators are checked against the naive graph walk
    wherever the model has graphs."""
    g = parse_grammar(text)
    try:
        first = compile_grammar(g, cap_tuples=10**4)
    except ResourceCapError:
        return
    except CompileError as err:
        # The only two a correct compile can raise on these grammars.
        if "no supported instantiations" in str(err):
            assert not oracle_enumerate(g, 4)
        else:
            assert "cyclic unit production" in str(err)
        return
    assert_daughter_keys_supported(first.grammar, compute_instantiations(first.grammar, cap_tuples=10**4))
    second = compile_grammar(g, cap_tuples=10**4)
    assert cfg_to_text(first.cfg) == cfg_to_text(second.cfg)
    language = oracle_enumerate(g, 4)
    assert cfg_enumerate(first.cfg, 4) == language
    try:
        graphs = build_pfsg(first.cfg)
    except CompileError as err:
        # Graphs have no empty transitions, so some repetitions that
        # left-recursion elimination writes have no graph; S -> S S | A with
        # A -> S S | "w" is one.
        assert "repetition" in str(err)
        return
    assert pfsg_enumerate(graphs, 4) == language


# ---- mask emission against the reference ----


def assert_emit_matches_the_reference(stripped, inst):
    """The merged values and the emitted CFG text equal what the reference
    merge and emission (tests/conftest.py) make from the same tuples."""
    merged = merge_all(stripped, inst)
    want_merged, want_cfg = reference_emit(stripped, inst)
    assert {rule_id: [i.values for i in instances] for rule_id, instances in merged.items()} == {
        rule_id: [i.values for i in instances] for rule_id, instances in want_merged.items()
    }
    assert cfg_to_text(emit_cfg(stripped, inst, merged)) == cfg_to_text(want_cfg)


# The compile workload's variants of the shuttle grammars, as the analysis
# module builds them.
VARIANTS = {
    **{
        f"{name}.k{k}": (lambda name=name, k=k: analysis.k_words_per_category(grammar(name), k))
        for name in SHUTTLES
        for k in (1, 2)
    },
    "shuttle_rels.unlink": lambda: analysis.unlink_features(grammar("shuttle_rels"), "rel_mod", ["agr", "sort"]),
    "shuttle_rels.wordplus": lambda: analysis.wordplus_grammar(sorted(surface_tokens(grammar("shuttle_rels")))),
}


@pytest.mark.parametrize("name", ALL_ASSETS + sorted(VARIANTS))
def test_mask_emit_matches_the_reference(name):
    g = VARIANTS[name]() if name in VARIANTS else grammar(name)
    stripped = strip_features(g)
    assert_emit_matches_the_reference(stripped, compute_instantiations(stripped))


def _leaves(expr) -> list:
    """Every Ref and Term object under ``expr``, shared nodes walked once."""
    seen: set[int] = set()
    leaves, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Ref, Term)):
            leaves.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.items if isinstance(node, Seq) else node.options if isinstance(node, Alt) else [node.body])
    return leaves


@pytest.mark.parametrize("name", ALL_ASSETS + sorted(VARIANTS))
def test_compiled_cfg_text_reads_back_equal_with_one_node_per_name_and_token(name):
    g = VARIANTS[name]() if name in VARIANTS else grammar(name)
    cfg = compile_grammar(g).cfg
    read = cfg_from_text(cfg_to_text(cfg))
    assert read == cfg
    leaves = [leaf for _, expr in read.productions for leaf in _leaves(expr)]
    for kind in (Ref, Term):
        nodes = [leaf for leaf in leaves if isinstance(leaf, kind)]
        assert len({id(node) for node in nodes}) == len(set(nodes))


@settings(max_examples=300, deadline=None)
@given(text=_feature_grammars())
def test_mask_emit_matches_the_reference_on_random_grammars(text):
    stripped = strip_features(parse_grammar(text))
    try:
        inst = compute_instantiations(stripped, cap_tuples=10**4)
    except (CompileError, ResourceCapError):
        return
    assert_emit_matches_the_reference(stripped, inst)


# ---- determinism ----


@pytest.mark.parametrize("name", ["tiny_agreement", "rel_linked", "shuttle_no_rels"])
def test_compilation_is_deterministic(name):
    path = f"src/gramlm/assets/{name}.gram"
    first = compile_grammar(parse_grammar_file(path))
    second = compile_grammar(parse_grammar_file(path))
    assert cfg_to_text(first.cfg) == cfg_to_text(second.cfg)
    assert first.stats == second.stats


# ---- instantiation by candidate number against the reference ----


def assert_instantiation_matches_the_reference(stripped, cap_tuples=CAP_TUPLES):
    """Equal tuples per rule, in rule order and in the same order within each
    rule, and equal supported vectors, to what the reference instantiation
    (tests/conftest.py) finds; or the same error."""
    try:
        want = reference_compute_instantiations(stripped, cap_tuples=cap_tuples)
    except (CompileError, ResourceCapError) as err:
        with pytest.raises(type(err)) as caught:
            compute_instantiations(stripped, cap_tuples=cap_tuples)
        assert str(caught.value) == str(err)
        return None
    got = compute_instantiations(stripped, cap_tuples=cap_tuples)
    assert list(got.per_rule) == list(want.per_rule)
    for rule_id, inst in got.per_rule.items():
        assert inst.dims == want.per_rule[rule_id].dims
        assert inst.tuples == want.per_rule[rule_id].tuples
    assert got.supported == want.supported
    return got


@pytest.mark.parametrize("name", ALL_ASSETS + sorted(VARIANTS))
def test_instantiation_matches_the_reference(name):
    g = VARIANTS[name]() if name in VARIANTS else grammar(name)
    assert assert_instantiation_matches_the_reference(strip_features(g)) is not None


@settings(max_examples=300, deadline=None)
@given(text=_feature_grammars())
def test_instantiation_matches_the_reference_on_random_grammars(text):
    assert_instantiation_matches_the_reference(strip_features(parse_grammar(text)), cap_tuples=10**4)


def test_instantiation_sorts_an_unordered_subset_into_domain_order():
    # A grammar built without the parser keeps its subsets as written.
    g = parse_grammar(
        """
        feature f syn {a, b, c}
        start S
        rule s: S -> A:[f={a, b, c}]
        lex "x": A
        """
    )
    (rule,) = g.rules
    backwards = Category("A", (("f", Subset(("c", "b", "a"))),))
    written = dataclasses.replace(g, rules=(dataclasses.replace(rule, daughters=(backwards,)),))
    assert compute_instantiations(written).per_rule["s"].tuples == (("a",), ("b",), ("c",))
    assert_instantiation_matches_the_reference(written)


# ---- the compile stages and the cyclic collector ----

_NO_START = """
feature f syn {a, b}
start S
rule s: S -> A:[f=a]
lex "x": A:[f=b]
"""


@functools.lru_cache(maxsize=None)
def _cfg_texts(name):
    """A compiled shuttle model as CFG text, made once."""
    return cfg_to_text(compiled(name).cfg)


# Each paused stage, the making of its input from a shuttle model's name
# (outside the stage, and cached), and calls of the stage that raise.
PAUSED_STAGES = [
    pytest.param(
        compile_grammar,
        grammar,
        [
            (ResourceCapError, lambda: compile_grammar(grammar("shuttle_rels"), cap_tuples=100)),
            (CompileError, lambda: compile_grammar(parse_grammar(_NO_START))),
        ],
        id="compile_grammar",
    ),
    pytest.param(
        build_pfsg,
        lambda name: compiled(name).cfg,
        [(CompileError, lambda: build_pfsg(cfg_from_text('s -> ( "b" )* "c" ;')))],
        id="build_pfsg",
    ),
    pytest.param(
        cfg_from_text,
        _cfg_texts,
        [(GramlmError, lambda: cfg_from_text("s -> t ;"))],
        id="cfg_from_text",
    ),
]


@pytest.fixture
def collector():
    """Puts the collector back as it was, whatever the test left."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("stage,prepare,failures", PAUSED_STAGES)
def test_collector_is_paused_in_the_compile_stages(stage, prepare, failures, collector):
    """An enabled collector is off inside the stage, on again afterwards,
    also after an error, and starts no collection while the stage runs."""
    assert stage.__wrapped__
    arg = prepare("shuttle_rels")
    gc.enable()
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(note)
    try:
        stage(arg)
    finally:
        gc.callbacks.remove(note)
    assert starts == []
    assert gc.isenabled()
    for error, fail in failures:
        with pytest.raises(error):
            fail()
        assert gc.isenabled()


@pytest.mark.parametrize("stage,prepare,failures", PAUSED_STAGES)
def test_collector_left_off_stays_off_in_the_compile_stages(stage, prepare, failures, collector):
    arg = prepare("shuttle_no_rels")
    gc.disable()
    stage(arg)
    assert not gc.isenabled()
    for error, fail in failures:
        with pytest.raises(error):
            fail()
        assert not gc.isenabled()


@pytest.mark.parametrize("name", SHUTTLES)
@pytest.mark.parametrize("stage,prepare,failures", PAUSED_STAGES)
def test_collector_finds_no_garbage_after_the_compile_stages(stage, prepare, failures, name, collector):
    """Collecting right after a stage finds nothing: pausing the collector
    left no reference cycles for it to free later. The collector stays off
    until then, so no young collection can free them first."""
    arg = prepare(name)
    gc.disable()
    gc.collect()
    result = stage(arg)
    assert gc.collect() == 0
    assert result is not None


# ---- slot-built records ----


def _records():
    """One instance of each slot-built record, and a copy built apart."""
    dim = DimSpec((SlotRef(0, "agr"), SlotRef(1, "agr")), mergeable=True)
    return [
        lambda: Term("x"),
        lambda: Ref("np"),
        lambda: Seq((Term("x"), Ref("np"))),
        lambda: Alt((Term("x"), Ref("np"))),
        lambda: Star(Ref("np")),
        lambda: Transition(0, 1, "np", True, 0.5),
        lambda: SlotRef(0, "agr"),
        lambda: DimSpec((SlotRef(0, "agr"),), mergeable=False),
        lambda: RuleInstance("r", (dim,), (("s3", "pl"),), (6,)),
        lambda: InstantiationSet("r", (dim,), (("s3",), ("pl",))),
    ]


@pytest.mark.parametrize("make", _records(), ids=lambda make: type(make()).__name__)
def test_record_equality_and_hash_go_by_field(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    fields = dataclasses.fields(first)
    assert type(first).__slots__ == tuple(f.name for f in fields)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, f.name, None)
    changed = dataclasses.replace(first, **{fields[0].name: "other"})
    assert changed != first and getattr(changed, fields[0].name) == "other"
    assert dataclasses.replace(first) == first
    assert repr(first).startswith(f"{type(first).__name__}(")


def test_record_masks_are_neither_compared_nor_hashed_nor_printed():
    dim = DimSpec((SlotRef(0, "agr"),), mergeable=True)
    first = RuleInstance("r", (dim,), (("s3",),), (1,))
    second = RuleInstance("r", (dim,), (("s3",),), (2,))
    assert first == second and hash(first) == hash(second)
    assert repr(first) == (
        "RuleInstance(rule_id='r', dims=(DimSpec(slots=(SlotRef(occ=0, feature='agr'),), "
        "mergeable=True),), values=(('s3',),))"
    )
    assert RuleInstance("r", (dim,), (("pl",),), (1,)) != first


def test_records_of_the_same_fields_differ_by_type():
    items = (Term("x"), Ref("np"))
    assert Seq(items) != Alt(items)
    assert Term("np") != Ref("np")
    assert len({Seq(items), Alt(items), Seq(items)}) == 2
    assert repr(Term("x")) == "Term(token='x')"
    assert repr(Transition(0, 1, "w", False, 0.25)) == "Transition(src=0, dst=1, label='w', is_ref=False, prob=0.25)"


def test_a_record_field_with_a_default_is_refused():
    # The slot-built __init__ takes every field as a required argument.
    with pytest.raises(TypeError, match="take no default: weight"):

        @record
        class Weighted:
            label: str
            weight: float = 1.0
