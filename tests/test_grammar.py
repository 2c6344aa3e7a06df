"""Grammar DSL and CFG text format: parsing, printing, validation, and introspection."""

import dataclasses
import gc
import importlib
import sys
import weakref

import pytest
from conftest import SHUTTLES, TOYS, constrained_features, grammar, reference_cfg_from_text
from hypothesis import given, settings
from hypothesis import strategies as st

from gramlm import (
    Atom,
    DslSyntaxError,
    Grammar,
    GramlmError,
    Subset,
    ValidationError,
    Var,
    cfg_from_text,
    parse_grammar,
    print_grammar,
    surface_tokens,
    validate,
)
from gramlm.cfg import ContextFreeGrammar, Ref, Star, Term, seq
from gramlm.grammar import (
    SYNTACTIC,
    Category,
    FeatureDecl,
    LexEntry,
    Rule,
    _canonicalize,
)

ALL_ASSETS = TOYS + SHUTTLES


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_round_trip_is_identity(name):
    g = grammar(name)
    assert parse_grammar(print_grammar(g)) == g


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_printed_form_is_stable(name):
    text = print_grammar(grammar(name))
    assert print_grammar(parse_grammar(text)) == text


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_assets_have_no_diagnostics(name):
    assert validate(grammar(name)) == []


def test_tiny_agreement_shape():
    g = grammar("tiny_agreement")
    assert g.start == "S"
    assert [r.id for r in g.rules] == ["s", "np"]
    assert len(g.lexicon) == 5
    (decl,) = g.features
    assert (decl.name, decl.values) == ("num", ("sg", "pl"))
    s = g.rule("s")
    assert s.mother.symbol == "S"
    assert [d.symbol for d in s.daughters] == ["NP", "VP"]
    link = s.daughters[0].constraint_for("num")
    assert isinstance(link, Var) and link.name == "N"
    assert link == s.daughters[1].constraint_for("num")


def test_constraint_kinds_parse():
    g = parse_grammar(
        """
        feature f syn {a, b, c}
        start X
        rule one: X:[f=a] -> Y:[f={a, b}] Z:[f=V]
        rule two: Z:[f=V] -> Y:[f=V]
        lex "y": Y:[f=b]
        lex "z": Y
        """
    )
    mother, (y, z) = g.rule("one").mother, g.rule("one").daughters
    assert mother.constraint_for("f") == Atom("a")
    assert y.constraint_for("f") == Subset(("a", "b"))
    assert z.constraint_for("f") == Var("V")
    assert g.rule("two").mother.constraint_for("f") == Var("V")


def test_multi_token_surface_forms():
    g = grammar("shuttle_rels")
    surfaces = {entry.surface for entry in g.lexicon}
    assert ("fifteen", "oh", "five") in surfaces
    assert ("how", "about") in surfaces
    assert "fifteen" in surface_tokens(g) and "about" in surface_tokens(g)


def test_surface_tokens_tiny():
    assert surface_tokens(grammar("tiny_agreement")) == frozenset(
        {"the", "dog", "dogs", "barks", "bark"}
    )


def test_constrained_features():
    g = grammar("tiny_agreement")
    assert constrained_features(g, "N") == ("num",)
    assert constrained_features(g, "NP") == ("num",)
    assert constrained_features(g, "DET") == ()
    s = grammar("shuttle_rels")
    assert set(constrained_features(s, "NP")) == {"agr", "sort", "conj"}


def test_accessors_raise_keyerror():
    g = grammar("tiny_agreement")
    with pytest.raises(KeyError):
        g.rule("nope")
    with pytest.raises(KeyError):
        g.feature("nope")


def test_comments_and_blank_lines_ignored():
    g = parse_grammar("# leading comment\n\nstart X\n  # indented comment\nlex \"x\": X\n")
    assert g.start == "X" and len(g.lexicon) == 1


@pytest.mark.parametrize(
    "text, code, line",
    [
        ("feature f syn {a}\nfeature f syn {b}\nstart X\nlex \"x\": X\n", "dup-feature", 2),
        ("start X\nrule r: X -> Y:[f=a]\nlex \"y\": Y\n", "unknown-feature", 2),
        ("feature f syn {a}\nstart X\nrule r: X -> Y:[f=b]\nlex \"y\": Y\n", "unknown-value", 3),
        ("feature f syn {a}\nstart X\nlex \"x\": X:[f=V]\n", "lexical-var", 3),
        (
            "start X\nrule r: X -> Y\nrule r: X -> Y\nlex \"y\": Y\n",
            "dup-rule",
            3,
        ),
        (
            "feature f syn {a, b}\nfeature g syn {c}\nstart X\n"
            "rule r: X:[f=V] -> Y:[g=V]\nlex \"y\": Y:[g=c]\n",
            "var-domain",
            4,
        ),
        ("start X\nrule r: X -> Y\n", "undefined-symbol", 2),
        ("start Z\nlex \"x\": X\n", "bad-start", 1),
        ("start X\nstart Y\nlex \"x\": X\n", "dup-start", 2),
        ("lex \"x\": X\n", "no-start", 0),
        ("feature f syn {a, a}\nstart X\nlex \"x\": X:[f=a]\n", "dup-value", 1),
    ],
)
def test_validation_codes(text, code, line):
    """Each code is reported, at the line that caused it; a missing start
    symbol has no line."""
    with pytest.raises(ValidationError) as err:
        parse_grammar(text)
    assert (line, code) in {(d.line, d.code) for d in err.value.diagnostics}


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "feature num syn {sg, pl}\nstart S\nrule s: S -> N:[num={sg, zz}]\nlex \"n\": N:[num=sg]\n",
            [(3, "zz")],
        ),
        (
            "feature num syn {sg, pl}\nstart S\nrule s: S -> N:[num={zz}]\nlex \"n\": N:[num=sg]\n",
            [(3, "zz")],
        ),
        (
            "feature num syn {sg, pl}\nstart S\nrule s: S -> N\nlex \"n\": N:[num={pl, qq}]\n",
            [(4, "qq")],
        ),
        (
            "feature num syn {sg, pl}\nstart S\nrule s: S -> N:[num={qq, sg, zz}]\nlex \"n\": N:[num=aa]\n",
            [(3, "qq"), (3, "zz"), (4, "aa")],
        ),
    ],
    ids=["subset-in-rule", "subset-of-one", "subset-in-lexicon", "several"],
)
def test_every_unknown_value_names_its_line(text, expected):
    """Inside a subset too: no unknown value is dropped before validation."""
    with pytest.raises(ValidationError) as err:
        parse_grammar(text)
    assert [(d.line, d.code, d.message) for d in err.value.diagnostics] == [
        (line, "unknown-value", f"value {value!r} is not in the domain of 'num'") for line, value in expected
    ]


def test_canonical_subset_order_puts_unknown_values_last_by_name():
    """Domain order first, then unknown values by name; duplicates go. The
    order must not depend on set order (the hash seed)."""
    decl = FeatureDecl("num", SYNTACTIC, ("sg", "du", "pl"))
    cat = Category("N", (("num", Subset(("zz", "pl", "aa", "sg", "pl", "zz"))),))
    raw = Grammar(
        (decl,), "S", (Rule("s", Category("S"), (cat,), line=3),), (LexEntry(("n",), Category("N"), line=4),)
    )
    canonical = _canonicalize(raw, [])
    assert canonical.rules[0].daughters[0].constraints == (("num", Subset(("sg", "pl", "aa", "zz"))),)
    assert [str(d) for d in validate(canonical)] == [
        "line 3: unknown-value: value 'aa' is not in the domain of 'num'",
        "line 3: unknown-value: value 'zz' is not in the domain of 'num'",
    ]


def test_an_atom_reads_as_a_one_value_subset():
    assert Atom("sg").values == Subset(("sg",)).values == ("sg",)


@pytest.mark.parametrize(
    "text",
    [
        "feature f bad {a}\nstart X\n",  # feature kind must be syn or sem
        "rule r X -> Y\nstart X\n",  # missing colon
        "start X\nrule r: X -> Y:[f=]\n",  # empty constraint value
        "start X\nlex x: X\n",  # unquoted surface form
    ],
)
def test_syntax_errors_raise(text):
    with pytest.raises(DslSyntaxError):
        parse_grammar(text)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_grammar("start X\nrule broken X -> Y\n")
    assert err.value.line == 2
    assert err.value.col >= 1


def test_line_numbers_do_not_affect_equality():
    g = grammar("tiny_agreement")
    spaced = "\n\n\n" + print_grammar(g)
    assert parse_grammar(spaced) == g


def test_grammar_is_immutable():
    g = grammar("tiny_agreement")
    assert isinstance(g, Grammar)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.start = "NP"


def test_a_dropped_import_of_gramlm_is_freed():
    """The benchmark imports gramlm afresh for each set-up, after dropping
    the old modules from sys.modules. Nothing global, such as typing's cache
    of Union aliases, may keep a dropped copy's classes alive, and with them
    its module globals, or the tables oracle_parse keeps."""
    kept = {name: sys.modules.pop(name) for name in list(sys.modules) if name.split(".")[0] == "gramlm"}
    try:
        fresh = importlib.import_module("gramlm")
        assert fresh.Term is not Term
        tiny = fresh.parse_grammar('start S\nlex "w": S\n')
        assert fresh.oracle_parse(tiny, ["w"]).accepted
        refs = [weakref.ref(fresh.cfg.Term), weakref.ref(fresh.grammar.Atom)]
        del fresh, tiny
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "gramlm"]:
            del sys.modules[name]
        sys.modules.update(kept)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# ---- both text formats on arbitrary input ----


def _soup(words):
    """Text made of format words, stray characters and line breaks."""
    piece = st.one_of(st.sampled_from(words), st.text(max_size=2))
    return st.lists(piece, max_size=30).map(" ".join)


_GRAM_WORDS = (
    "feature", "start", "rule", "lex", "syn", "sem", "S", "NP", "V", "agr", "s3", "r1",
    "{", "}", "[", "]", ":", ",", "=", "->", '"the robot"', '""', "\n", "# c\n",
)
_CFG_WORDS = ("s", "a", "a-b", "->", "|", ";", "(", ")", "*", '"x"', '""', "\n", "# c\n")


@settings(max_examples=300, deadline=None)
@given(text=_soup(_GRAM_WORDS))
def test_grammar_parser_raises_only_its_own_errors(text):
    try:
        parse_grammar(text)
    except GramlmError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=_soup(_CFG_WORDS))
def test_cfg_parser_raises_only_its_own_errors(text):
    try:
        cfg_from_text(text)
    except GramlmError:
        pass


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "( " * n + '"x"' + " )" * n,
        lambda n: '"x"' + " *" * n,
        lambda n: "( " * (n // 2) + '"x"' + " )*" * (n // 2) + " *" * (n % 2),
    ],
    ids=["groups", "repetitions", "both"],
)
def test_cfg_nesting_is_capped_at_100_levels(nest):
    # Groups and repetitions both count; past the cap the error names the
    # line instead of overflowing Python's recursion limit.
    cfg_from_text("a -> s ;\ns -> " + nest(100) + " ;")
    for n in (101, 3000):
        with pytest.raises(GramlmError, match="^line 2: groups and repetitions nested deeper than 100$"):
            cfg_from_text("a -> s ;\ns -> " + nest(n) + " ;")


@pytest.mark.parametrize(
    "text, message",
    [
        ('s -> a ;\na -> "x" "y"\nb -> "z" ;\n', "line 3: expected ';', got '->'"),
        ('s -> "x" ;\n\ns -> ( "y" ', "line 3: expected ')', got 'end of input'"),
        ('s -> "x" ;\n  -> "y" ;', "line 2: expected 'name', got '->'"),
        ('s -> "x" ;\nt -> | ;', "line 2: expected a terminal, name, or group, got '|'"),
        ('s -> "x" ;\nt -> "y" ! ;', "line 2: unexpected character '!'"),
        ('s -> a ;\na -> "x"\n  b ;', "line 3: 'a' references undefined 'b'"),
        ('s -> "x" ;\nt -> s ;\ns -> "y" ;', "line 3: duplicate production 's' (first on line 1)"),
    ],
)
def test_cfg_syntax_errors_name_the_line(text, message):
    with pytest.raises(GramlmError) as err:
        cfg_from_text(text)
    assert str(err.value) == message


def test_cfg_checks_references_in_shared_nodes():
    # A shared repetition is walked once, yet the first undefined reference
    # in production order is still the one reported.
    shared = Star(seq([Ref("a"), Ref("b"), Ref("c")]))
    with pytest.raises(GramlmError, match="^'s' references undefined 'b'$"):
        ContextFreeGrammar("s", (("s", seq([Term("x"), shared])), ("a", seq([shared, shared]))))
    with pytest.raises(GramlmError, match="^'a' references undefined 'b'$"):
        ContextFreeGrammar("s", (("s", Term("x")), ("a", seq([shared, shared]))))
    with pytest.raises(GramlmError, match="^duplicate production names$"):
        ContextFreeGrammar("s", (("s", Term("x")), ("s", Term("y"))))


# ---- the one-pass CFG reader against the line-splitting reference ----

# Every line break str.splitlines knows, and the two-character one.
_LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_READ_NAMES = ("s", "a", "b-c", "np__agr-s3+p3", "x0")
_READ_QUOTED = ('"x"', '""', '"a b"', '"#"', '"y # z"', '"-"')
# Characters that start no token, and characters that do.
_STRAY = ("!", "-", '"', "A", "\xe9", ">", "{")
_TOKEN_CHARS = ("a", "-", ">", "(", ")", "|", ";", "*", "#", " ", '"', *_LINE_BREAKS)


def _read(reader, text):
    """A reader's grammar, or its error message."""
    try:
        return reader(text)
    except GramlmError as err:
        return str(err)


@st.composite
def _cfg_tokens(draw) -> list[str]:
    """The tokens of CFG text with groups and repetitions up to three deep.
    Heads are distinct in half the draws, and one name that may have no
    production is referred to, so duplicate productions and undefined
    references occur too."""
    heads = draw(st.lists(st.sampled_from(_READ_NAMES), min_size=1, max_size=4, unique=draw(st.booleans())))
    primaries = st.sampled_from(heads + [draw(st.sampled_from(_READ_NAMES))] + list(_READ_QUOTED))

    def options(depth: int) -> list[str]:
        out: list[str] = []
        for k in range(draw(st.integers(1, 3))):
            out += ["|"] if k else []
            for _ in range(draw(st.integers(1, 3))):
                if depth < 3 and draw(st.integers(0, 3)) == 0:
                    out += ["(", *options(depth + 1), ")"]
                else:
                    out.append(draw(primaries))
                out += ["*"] * draw(st.integers(0, 2))
        return out

    tokens: list[str] = []
    for head in heads:
        tokens += [head, "->", *options(0), ";"]
    return tokens


# What goes between two tokens: nothing, blanks, each line break, blank
# lines and comments (which end at any line break).
_GAPS = st.sampled_from(
    ("", " ", "  ", "\t", "\xa0", "\x1f", "\n\n", " # note\n", '#-> ( "\r\n', "  # x\u2028", *_LINE_BREAKS)
)


@settings(max_examples=800, deadline=None)
@given(data=st.data(), tokens=_cfg_tokens())
def test_cfg_reader_matches_the_reference(data, tokens):
    """Both readers give the same grammar or the same message, line
    included, also after one token or character is inserted, deleted or
    replaced."""
    edit = data.draw(st.sampled_from((None, "insert", "delete", "replace")))
    by_token = data.draw(st.booleans())
    if edit and by_token:
        at = data.draw(st.integers(0, len(tokens)))
        pool = ("->", "(", ")", "|", ";", "*", *_READ_NAMES, *_READ_QUOTED, *_STRAY)
        new = [data.draw(st.sampled_from(pool))] if edit != "delete" else []
        tokens = tokens[:at] + new + tokens[at + (edit != "insert") :]
    text = "".join(data.draw(_GAPS) + token for token in tokens) + data.draw(_GAPS)
    if edit and not by_token:
        at = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(_STRAY + _TOKEN_CHARS)) if edit != "delete" else ""
        text = text[:at] + new + text[at + (edit != "insert") :]
    assert _read(cfg_from_text, text) == _read(reference_cfg_from_text, text)


@pytest.mark.parametrize(
    "text, want",
    [
        # A stray character anywhere wins over an earlier syntax error.
        ('s -> ;\nt -> "x" ! ;', "line 2: unexpected character '!'"),
        ('s -> ( "x" ;\n\n# "\nt -> A ;', "line 4: unexpected character 'A'"),
        ('s ( -> "x" - ;', "line 1: unexpected character '-'"),
        # An arrow needs no blanks around it, and a name may hold '-'.
        ('a->b-c ;b-c->"x";', ContextFreeGrammar("a", (("a", Ref("b-c")), ("b-c", Term("x"))))),
        ('a->b', "line 1: expected ';', got 'end of input'"),
        # '#' inside a quoted token starts no comment.
        ('s -> "a#b" "#" ; # "c"', ContextFreeGrammar("s", (("s", seq([Term("a#b"), Term("#")])),))),
        # A quoted token ends on its line; an unterminated one is stray.
        ('s -> "x ;', "line 1: unexpected character '\"'"),
        ('s -> "x" ;\nt -> "y\n" ;', "line 2: unexpected character '\"'"),
        ('s -> "x\u2028" ;', "line 1: unexpected character '\"'"),
        ('s -> "" "" ;', ContextFreeGrammar("s", (("s", seq([Term(""), Term("")])),))),
        # Lines are counted as str.splitlines counts them.
        ('s -> "x" ;\r\nt -> | ;', "line 2: expected a terminal, name, or group, got '|'"),
        ('s -> "x" ;\r\n\r\nt -> "y" ;\r\nt -> "z" ;', "line 4: duplicate production 't' (first on line 3)"),
        ('s -> "x" ;\u2028t -> | ;', "line 2: expected a terminal, name, or group, got '|'"),
        ('s -> "x" # c\u2029t ;', "line 2: 's' references undefined 't'"),
        ('s -> "x" \r\r\n\x85 u ;', "line 4: 's' references undefined 'u'"),
        ('s -> ( "x"\n\n', "line 2: expected ')', got 'end of input'"),
        ('s -> ( "x"\r\n\r\n', "line 2: expected ')', got 'end of input'"),
        ("", "empty grammar text"),
        ("# only\u2028\n  ", "empty grammar text"),
    ],
)
def test_cfg_reader_fixed_cases(text, want):
    assert _read(cfg_from_text, text) == want
    assert _read(reference_cfg_from_text, text) == want


@pytest.mark.parametrize("depth", [100, 101])
@pytest.mark.parametrize("shape", ["groups", "repetitions"])
def test_cfg_reader_nesting_cap_matches_the_reference(shape, depth):
    # Past the cap, the error names the line of the '(' past it, or of the
    # token after the '*' past it.
    if shape == "groups":
        text = "a -> s ;\u2028s -> " + "( " * depth + '"x"' + " )" * depth + " ;"
        want = "line 2: groups and repetitions nested deeper than 100"
    else:
        text = 'a -> s ;\r\ns -> "x"' + " *" * depth + "\u2029;"
        want = "line 3: groups and repetitions nested deeper than 100"
    got = _read(cfg_from_text, text)
    assert got == _read(reference_cfg_from_text, text)
    if depth == 100:
        assert isinstance(got, ContextFreeGrammar)
    else:
        assert got == want
