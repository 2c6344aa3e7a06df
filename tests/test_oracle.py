"""Reference parser/enumerator: frozen toy languages and parse results.

Every expected language here was computed from the grammar by hand-checkable
enumeration and then frozen; the compiled pipeline is tested against the
same sets elsewhere, so a drift in either side trips a test.
"""

import dataclasses
import itertools

import pytest
from conftest import SHUTTLES, TOYS, constrained_features, grammar, reference_oracle_parse
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compiler import _feature_grammars
from test_pfsg import LONG_SHUTTLE_PARSES, SHUTTLE_PARSES

from gramlm import ResourceCapError, UnknownTokenError, oracle_enumerate, oracle_parse, parse_grammar
from gramlm import oracle as oracle_module

TINY_LANGUAGE = {("the", "dog", "barks"), ("the", "dogs", "bark")}

REL_LINKED_LANGUAGE = {
    ("place",),
    ("places",),
    ("moment",),
    ("moments",),
    ("place", "that", "fits"),
    ("places", "that", "fit"),
    ("moment", "that", "passes"),
    ("moments", "that", "pass"),
}


def test_tiny_agreement_language():
    assert oracle_enumerate(grammar("tiny_agreement"), 8) == TINY_LANGUAGE


def test_direct_left_language():
    lang = oracle_enumerate(grammar("direct_left"), 8)
    assert lang == {("one",) + ("more",) * k for k in range(8)}


def test_indirect_left_language():
    lang = oracle_enumerate(grammar("indirect_left"), 8)
    assert lang == {
        ("rho", "pip") + ("quo", "pip") * k for k in range(4)
    }


def test_right_rec_language():
    lang = oracle_enumerate(grammar("right_rec"), 8)
    assert lang == {("more",) * k + ("one",) for k in range(8)}


def test_rel_linked_language():
    assert oracle_enumerate(grammar("rel_linked"), 8) == REL_LINKED_LANGUAGE


def test_rel_unlinked_language_overgenerates():
    nouns = ["place", "places", "moment", "moments"]
    verbs = ["fits", "fit", "passes", "pass"]
    expected = {(n,) for n in nouns} | {(n, "that", v) for n in nouns for v in verbs}
    assert oracle_enumerate(grammar("rel_unlinked"), 8) == expected
    # the linked language is a strict subset: linking only ever removes strings
    assert REL_LINKED_LANGUAGE < expected


def test_intj_language():
    assert oracle_enumerate(grammar("intj"), 8) == {("yes",), ("no",)}


def test_wordplus3_language_size():
    # 3^1 + 3^2 + ... + 3^8 strings over a three-word vocabulary
    assert len(oracle_enumerate(grammar("wordplus3"), 8)) == 9840


def test_accepts_and_counts_derivations():
    result = oracle_parse(grammar("tiny_agreement"), ["the", "dog", "barks"])
    assert result.accepted
    assert result.derivation_count == 1
    assert result.derivations == ["(S (NP (DET the) (N dog)) (VP barks))"]


def test_rejects_agreement_violation():
    result = oracle_parse(grammar("tiny_agreement"), ["the", "dog", "bark"])
    assert not result.accepted
    assert result.derivation_count == 0
    assert result.derivations == []


def test_single_word_tree():
    result = oracle_parse(grammar("intj"), ["yes"])
    assert result.accepted and result.derivations == ["(INTJ yes)"]


def test_ambiguity_is_counted():
    g = parse_grammar(
        """
        start X
        rule both: X -> A B
        rule wide: X -> C
        lex "hot": A
        lex "dog": B
        lex "hot dog": C
        """
    )
    result = oracle_parse(g, ["hot", "dog"])
    assert result.accepted
    assert result.derivation_count == 2
    assert sorted(result.derivations) == ["(X (A hot) (B dog))", "(X (C hot dog))"]


def test_multi_token_lexeme_spans_positions():
    g = parse_grammar(
        """
        start X
        rule x: X -> A B
        lex "big deal": A
        lex "deal": B
        """
    )
    assert oracle_parse(g, ["big", "deal", "deal"]).accepted
    assert not oracle_parse(g, ["big", "deal"]).accepted
    assert oracle_enumerate(g, 3) == {("big", "deal", "deal")}


def test_unknown_token_raises():
    with pytest.raises(UnknownTokenError) as err:
        oracle_parse(grammar("tiny_agreement"), ["the", "zebra", "barks"])
    assert err.value.token == "zebra"
    assert err.value.position == 1


def test_unknown_token_error_names_the_first_unknown_position():
    g = grammar("tiny_agreement")
    for tokens, position in ((["zebra", "the", "zebu"], 0), (["the", "dog", "zebu", "zebra"], 2)):
        with pytest.raises(UnknownTokenError) as err:
            oracle_parse(g, tokens)
        assert (err.value.token, err.value.position) == (tokens[position], position)


def test_a_token_only_inside_a_multi_token_lexeme_is_known():
    g = parse_grammar(
        """
        start X
        rule x: X -> A
        lex "big deal": A
        """
    )
    assert oracle_parse(g, ["deal"]) == oracle_module.ParseResult(False, 0, [])
    assert oracle_parse(g, ["big", "deal"]).accepted
    with pytest.raises(UnknownTokenError) as err:
        oracle_parse(g, ["deal", "bigger"])
    assert err.value.position == 1


def test_empty_input_rejected():
    assert not oracle_parse(grammar("tiny_agreement"), []).accepted


def test_parses_of_one_grammar_build_its_tables_once(monkeypatch):
    """oracle_parse keeps the tables of the grammar it parsed last, matched
    by identity: parses of one grammar object build them once and give what
    fresh tables give, and another object, even an equal one, rebuilds."""
    g = grammar("tiny_agreement")
    corpus = list(itertools.product(["the", "dog", "dogs", "barks", "bark"], repeat=3))
    fresh = [oracle_parse(dataclasses.replace(g), tokens) for tokens in corpus]
    assert sum(result.accepted for result in fresh) == len(TINY_LANGUAGE)
    built = []
    real = oracle_module._Analyzer
    monkeypatch.setattr(oracle_module, "_Analyzer", lambda g: built.append(g) or real(g))
    assert [oracle_parse(g, tokens) for tokens in corpus] == fresh
    assert [b is g for b in built] == [True]
    other = dataclasses.replace(g)
    assert [oracle_parse(other, tokens) for tokens in corpus[:5]] == fresh[:5]
    assert oracle_parse(g, corpus[0]) == fresh[0]
    assert [b is g for b in built] == [True, False, True]


def test_max_derivations_truncates_trees_not_count():
    g = grammar("wordplus3")
    result = oracle_parse(g, ["alpha", "alpha"], max_derivations=0)
    assert result.accepted and result.derivation_count == 1
    assert result.derivations == []


# A and B derive each other through unit rules, so an item's strings of a
# length are read by another item at that same length. B:[n=sg] is reached
# only through the cycle; "two" is plural and never reaches S.
UNIT_CYCLE_GRAMMAR = """
feature n syn {sg, pl}
start S
rule s: S -> A:[n=sg]
rule ab: A:[n=X] -> B:[n=X]
rule ba: B:[n=X] -> A:[n=X]
rule grow: B:[n=X] -> C A:[n=X]
lex "one": A:[n=sg]
lex "two": B:[n=pl]
lex "and": C
"""


def test_enumeration_through_a_unit_cycle():
    g = parse_grammar(UNIT_CYCLE_GRAMMAR)
    assert oracle_enumerate(g, 4) == {("and",) * k + ("one",) for k in range(4)}
    assert oracle_enumerate(g, 4, cap=21)
    with pytest.raises(ResourceCapError):
        oracle_enumerate(g, 4, cap=20)


@settings(max_examples=50, deadline=None)
@given(text=_feature_grammars())
def test_enumeration_matches_the_parser_on_random_feature_grammars(text):
    """Every string of at most 3 tokens over the lexicon is enumerated
    exactly when the parser accepts it. The grammars are not compiled, so
    unit cycles and grammars that compile rejects are included;
    ``oracle_parse`` is the reference."""
    g = parse_grammar(text)
    lang = oracle_enumerate(g, 3)
    vocab = sorted({tok for entry in g.lexicon for tok in entry.surface})
    for n in range(1, 4):
        for tokens in itertools.product(vocab, repeat=n):
            assert oracle_parse(g, tokens).accepted == (tokens in lang), tokens


@pytest.mark.parametrize("name", TOYS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_enumeration_is_monotone_in_length(name, data):
    short = data.draw(st.integers(min_value=0, max_value=5))
    longer = data.draw(st.integers(min_value=short, max_value=6))
    g = grammar(name)
    assert oracle_enumerate(g, short) <= oracle_enumerate(g, longer)


@settings(max_examples=30, deadline=None)
@given(
    vocab=st.lists(
        st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=3, unique=True
    ),
    max_len=st.integers(min_value=1, max_value=3),
)
def test_enumeration_lengths_respect_bound(vocab, max_len):
    from gramlm import wordplus_grammar

    lang = oracle_enumerate(wordplus_grammar(vocab), max_len)
    assert all(1 <= len(s) <= max_len for s in lang)


@pytest.mark.parametrize(
    "rules, derivations",
    [
        # lift reads the X that join added earlier in the same pass, so its
        # derivation comes before pair's.
        (
            "rule join: X -> A B\nrule lift: Y -> X\nrule pair: Y -> A B",
            ["(Y (X (A a) (B b)))", "(Y (A a) (B b))"],
        ),
        # lift comes before join, so it reads join's X only in a repeat pass.
        (
            "rule lift: Y -> X\nrule pair: Y -> A B\nrule join: X -> A B",
            ["(Y (A a) (B b))", "(Y (X (A a) (B b)))"],
        ),
    ],
    ids=["same-pass", "repeat-pass"],
)
def test_parse_of_unary_rules_over_items_of_their_own_span(rules, derivations):
    g = parse_grammar(f'start Y\n{rules}\nlex "a": A\nlex "b": B\n')
    result = oracle_parse(g, ["a", "b"])
    assert result == oracle_module.ParseResult(True, 2, derivations)
    assert result == reference_oracle_parse(g, ["a", "b"])


# (max_derivations, count_cap) pairs the indexed parser is held to the
# reference under; a cap of 3 saturates on ambiguous and cyclic grammars.
REFERENCE_LIMITS = [(1, 3), (10, 3), (10, 10**6)]


@settings(max_examples=30, deadline=None)
@given(text=_feature_grammars())
def test_parse_matches_the_reference_parser_on_random_feature_grammars(text):
    """The indexed chart gives the whole ParseResult of the unindexed
    parse loop, derivations in the same order, on every string of at most 3
    tokens. The grammars are not compiled, so unit cycles are included."""
    g = parse_grammar(text)
    vocab = sorted({tok for entry in g.lexicon for tok in entry.surface})
    for n in range(1, 4):
        for tokens in itertools.product(vocab, repeat=n):
            for limit, cap in REFERENCE_LIMITS:
                want = reference_oracle_parse(g, tokens, max_derivations=limit, count_cap=cap)
                assert oracle_parse(g, tokens, max_derivations=limit, count_cap=cap) == want, tokens


@pytest.mark.parametrize("name", SHUTTLES)
def test_parse_matches_the_reference_parser_on_shuttle_sentences(name):
    """Walked sentences of each shuttle model and one-token edits of them,
    short and long, accepted and rejected."""
    g = grammar(name)
    sentences = [sentence.split() for sentence, *_ in SHUTTLE_PARSES[name] + LONG_SHUTTLE_PARSES[name]]
    assert any(reference_oracle_parse(g, tokens).accepted for tokens in sentences)
    for tokens in sentences:
        for limit, cap in REFERENCE_LIMITS:
            want = reference_oracle_parse(g, tokens, max_derivations=limit, count_cap=cap)
            assert oracle_parse(g, tokens, max_derivations=limit, count_cap=cap) == want, tokens


# ---- the analyzer's tables ----


def _assert_relevant_features_match(g):
    analyzer = oracle_module._Analyzer(g)
    symbols = {c.symbol for r in g.rules for c in r.categories()} | {e.category.symbol for e in g.lexicon}
    assert analyzer.symbols == symbols
    assert analyzer.relevant == {s: constrained_features(g, s, include_lexicon=True) for s in symbols}


@pytest.mark.parametrize("name", TOYS + SHUTTLES)
def test_relevant_features_are_the_constrained_features(name):
    # Gathered in one pass, they are what the per-symbol walk finds.
    _assert_relevant_features_match(grammar(name))


@settings(max_examples=100, deadline=None)
@given(text=_feature_grammars())
def test_relevant_features_are_the_constrained_features_on_random_grammars(text):
    _assert_relevant_features_match(parse_grammar(text))
