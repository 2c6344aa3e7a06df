"""Graph models: construction, normalization, metrics, parsing, perplexity."""

import gc
import graphlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import SHUTTLES, TOYS, compiled, grammar, metrics, pfsgs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramlm import (
    CompileError,
    ContextFreeGrammar,
    ResourceCapError,
    UndefinedPerplexityError,
    build_pfsg,
    cfg_enumerate,
    cfg_from_text,
    cfg_parse,
    compile_grammar,
    metrics_from_kv,
    metrics_to_kv,
    metrics_to_table,
    oracle_enumerate,
    parse_grammar,
    perplexity,
    pfsg_enumerate,
    pfsg_to_text,
    wordplus_grammar,
)
from gramlm import pfsg as pfsg_module
from gramlm.cfg import Alt, Ref, Star, Term, alt, seq
from gramlm.cli import _build_parser
from gramlm.errors import CAP_STRINGS
from gramlm.grammar import surface_tokens
from gramlm.pfsg import _category_of, _Earley, _unit_ranks

ALL_ASSETS = TOYS + SHUTTLES


# ---- structure and normalization ----


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_every_node_spends_proper_mass(name):
    """Non-end nodes spend exactly unit mass; the end node keeps a positive
    stop residual (a trailing repetition parks its loop there, since there
    are no epsilon edges to route an explicit exit through)."""
    for graph in pfsgs(name).graphs.values():
        outgoing: dict[int, float] = {}
        for t in graph.transitions:
            outgoing[t.src] = outgoing.get(t.src, 0.0) + t.prob
        for node, total in outgoing.items():
            if node == graph.end:
                assert total < 1.0 - 1e-9, f"{name}:{graph.name} end node"
            else:
                assert abs(total - 1.0) <= 1e-9, f"{name}:{graph.name} node {node}"


def test_trailing_repetition_loops_on_the_end_node():
    # eliminating `A -> A B | C` yields `a -> c (b)*`; the star becomes a
    # half-mass loop on the end node and stopping keeps the other half
    (graph,) = [g for g in pfsgs("direct_left").graphs.values() if g.name == "a"]
    loops = [t for t in graph.transitions if t.src == graph.end]
    assert [(t.dst, t.label, t.prob) for t in loops] == [(graph.end, "b", 0.5)]


def test_star_free_graphs_have_silent_end_nodes():
    for name in ("tiny_agreement", "wordplus3", "intj", "shuttle_rels"):
        for graph in pfsgs(name).graphs.values():
            assert all(t.src != graph.end for t in graph.transitions), graph.name


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_references_point_at_existing_graphs(name):
    graph_set = pfsgs(name)
    for graph in graph_set.graphs.values():
        for t in graph.transitions:
            if t.is_ref:
                assert t.label in graph_set.graphs


def test_top_graph_is_the_start_symbol():
    graph_set = pfsgs("tiny_agreement")
    assert graph_set.top == "s"
    assert next(iter(graph_set.graphs)) == "s"


# ---- language preservation through the graphs ----


@pytest.mark.parametrize("name", TOYS)
def test_graph_language_matches_grammar(name):
    want = oracle_enumerate(grammar(name), 5)
    assert pfsg_enumerate(pfsgs(name), 5) == want


# ---- parsing ----


def test_parse_accepts_with_probability():
    result = cfg_parse(compiled("intj").cfg, ["yes"])
    assert result.accepted
    assert result.derivation_count == 1
    assert result.log2_prob == -1.0  # two equiprobable words


def test_parse_rejection_has_no_mass():
    result = cfg_parse(compiled("tiny_agreement").cfg, ["the", "dog", "bark"])
    assert not result.accepted
    assert result.derivation_count == 0
    assert result.log2_prob == -math.inf


def test_parse_unknown_token_rejects():
    result = cfg_parse(compiled("tiny_agreement").cfg, ["zebra"])
    assert not result.accepted


def test_parse_agrees_with_oracle_on_every_short_string():
    g = grammar("rel_linked")
    cfg = compiled("rel_linked").cfg
    vocab = sorted({tok for entry in g.lexicon for tok in entry.surface})
    lang = oracle_enumerate(g, 3)
    for n in range(1, 4):
        for tokens in itertools.product(vocab, repeat=n):
            assert cfg_parse(cfg, tokens).accepted == (tokens in lang), tokens


# s -> e is a unit chain into e -> t; e -> e "+" e is directly left
# recursive and ambiguous; t's star splits 0.5 stop / 0.5 continue.
PARSE_CORNERS = cfg_from_text(
    """
    s -> e | e "." e ;
    e -> e "+" e | t ;
    t -> "n" ( "!" )* ;
    """
)
# a covers "x y" both directly and through its unit daughter b, so b must
# be finished before a is passed on to s.
UNIT_AND_DIRECT = cfg_from_text('s -> a "z" ; a -> b | "x" "y" ; b -> "x" "y" ;')


@pytest.mark.parametrize(
    "cfg,sentence,count,log2_prob",
    [
        # s -> e -> t -> n: 0.5 * 0.5 * 0.5
        (PARSE_CORNERS, "n", 1, -3.0),
        # 0.5 (s -> e) * 0.5 (e -> e + e) * (0.5 * 0.25) (e -> t -> n !) * 0.25
        (PARSE_CORNERS, "n ! + n", 1, -7.0),
        # two bracketings, each 0.5 * 0.5^2 * 0.25^3
        (PARSE_CORNERS, "n + n + n", 2, -8.0),
        # two bracketings, each 0.5 * 0.5^2 * 0.125 * 0.25^2
        (PARSE_CORNERS, "n ! + n + n", 2, -9.0),
        # five bracketings (Catalan 3), each 0.5 * 0.5^3 * 0.25^4
        (PARSE_CORNERS, "n + n + n + n", 5, math.log2(5) - 12),
        # 2 * 2 derivations, each 0.5 (s -> e . e) * (0.5^2 * 0.25^3)^2
        (PARSE_CORNERS, "n + n + n . n + n + n", 4, -15.0),
        (UNIT_AND_DIRECT, "x y z", 2, 0.0),
    ],
)
def test_parse_counts_and_scores_by_hand(cfg, sentence, count, log2_prob):
    result = cfg_parse(cfg, sentence.split())
    assert result.accepted
    assert result.derivation_count == count
    assert result.log2_prob == pytest.approx(log2_prob, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("cap,count", [(1, 1), (4, 4), (24, 24), (25, 25), (26, 25)])
def test_count_cap_saturates_at_the_cap(cap, count):
    """5 * 5 derivations: the last step multiplies two capped counts."""
    result = cfg_parse(PARSE_CORNERS, "n + n + n + n . n + n + n + n".split(), count_cap=cap)
    assert result.derivation_count == count
    assert result.log2_prob == pytest.approx(math.log2(25) - 23, rel=1e-12)


@pytest.mark.parametrize("n", [300, 600, 800])
def test_sums_of_far_apart_exponents_stay_exact(n):
    """w^n has fib(n) derivations. The inside values summed into one item
    differ more in binary exponent the longer the sentence; across these
    lengths the sums add values of equal, higher and lower exponent."""
    count, prob = [1, 1], [Fraction(1), Fraction(1, 4)]
    for _ in range(2, n + 1):
        count.append(count[-1] + count[-2])
        prob.append((prob[-1] + prob[-2]) / 4)
    cfg = cfg_from_text('s -> "w" s | "w" "w" s | "w" | "w" "w" ;')
    result = cfg_parse(cfg, ["w"] * n, count_cap=10**200)
    assert result.derivation_count == count[n]
    want = math.log2(prob[n].numerator) - math.log2(prob[n].denominator)
    assert result.log2_prob == pytest.approx(want, rel=1e-12)


def test_unit_cycle_is_a_compile_error():
    """At the first call, even when the tokens reach no production. A
    repetition over a nullable body, the only source of an empty
    alternative, always comes with the unit self-loop ``name@i -> name@i``,
    so no rule's positions are ever built from an empty alternative."""
    for text, cycle in [
        ('a -> b | "x" ; b -> a ;', "a -> b -> a"),
        ('s -> a ; a -> b | "x" ; b -> c ; c -> a | "y" ;', "a -> c -> b -> a"),
        ('s -> "a" ( ( "b" )* )* ;', "s@0 -> s@0"),
    ]:
        for tokens in (["x"], ["zzz"]):
            with pytest.raises(CompileError) as caught:
                cfg_parse(cfg_from_text(text), tokens)
            assert str(caught.value) == f"unit cycle {cycle}"


@pytest.mark.parametrize(
    "text,name", [('s -> "a" | ( "b" )* ;', "s"), ('s -> "a" ; t -> ( "b" )* ;', "t")]
)
def test_parse_of_a_grammar_with_an_empty_production_raises(text, name):
    """At the first call, even for an unknown token and an unreachable
    production: positions are built lazily, errors are not."""
    with pytest.raises(CompileError, match=f"production '{name}' admits the empty string"):
        cfg_parse(cfg_from_text(text), ["zzz"])


@st.composite
def _unit_graphs(draw):
    """Unit alternatives as ``units`` maps them: production -> daughters,
    cyclic or, half the time, only downhill in the alphabet."""
    names = st.sampled_from("abcdefg")
    units = draw(st.dictionaries(names, st.lists(names, max_size=3), max_size=7))
    if draw(st.booleans()):
        units = {name: [d for d in daughters if d < name] for name, daughters in units.items()}
    return units


@settings(max_examples=300, deadline=None)
@given(units=_unit_graphs())
def test_unit_ranks_put_daughters_below_mothers(units):
    """graphlib decides whether the unit graph is acyclic. If it is, every
    unit daughter ranks below its mother; if not, the error names a real
    cycle, each name a unit daughter of the next."""
    try:
        list(graphlib.TopologicalSorter(units).static_order())
    except graphlib.CycleError:
        with pytest.raises(CompileError) as caught:
            _unit_ranks(units)
        message = str(caught.value)
        assert message.startswith("unit cycle ")
        cycle = message.removeprefix("unit cycle ").split(" -> ")
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        for daughter, mother in zip(cycle, cycle[1:]):
            assert daughter in units.get(mother, ())
        return
    rank = _unit_ranks(units)
    assert set(rank) == set(units).union(*units.values())
    for mother, daughters in units.items():
        for daughter in daughters:
            assert rank[daughter] < rank[mother]


# Ten sentences walked from each shuttle model (random.Random(13), at most 12
# words) and a one-token edit of each that the oracle rejects, with what
# cfg_parse gave them when it built every production's positions up front:
# model -> (sentence, accepted, derivation count, log2 p as hex).
SHUTTLE_PARSES = {
    "shuttle_no_rels": [
        ("launch delays and log timestamps", True, 1, "-0x1.5f45e08bcf065p+3"),
        ("yes", True, 1, "-0x1.cae00d1cfdeb4p+1"),
        ("is launch delay three decreasing", True, 1, "-0x1.b1fde3d30e812p+3"),
        ("no", True, 1, "-0x1.cae00d1cfdeb4p+1"),
        ("log timestamps and sensor values", True, 1, "-0x1.e570068e7ef5ap+2"),
        ("flight deck and log timestamps", True, 1, "-0x1.5f45e08bcf065p+3"),
        ("to flight deck three", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("how about fifteen p s i", True, 1, "-0x1.c2d75a6eb1dfbp+2"),
        ("at log timestamps three", True, 1, "-0x1.a570068e7ef5ap+2"),
        ("what are sensor values and sensor values", True, 1, "-0x1.dd053f6d26089p+3"),
        ("units delays and log timestamps", False, 0, "-inf"),
        ("units yes", False, 0, "-inf"),
        ("is launch three decreasing", False, 0, "-inf"),
        ("reached", False, 0, "-inf"),
        ("log log timestamps and sensor values", False, 0, "-inf"),
        ("flight deck log timestamps", False, 0, "-inf"),
        ("to flight deck five", False, 0, "-inf"),
        ("how about fifteen p s i the", False, 0, "-inf"),
        ("at log find three", False, 0, "-inf"),
        ("what are sensor with and sensor values", False, 0, "-inf"),
    ],
    "shuttle_rels": [
        ("no", True, 1, "-0x1.cae00d1cfdeb4p+1"),
        ("the sensor values say what is decreasing at fifteen oh five", True, 2, "-0x1.bdb63bfaaff33p+4"),
        ("at lower deck", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("yes", True, 1, "-0x1.cae00d1cfdeb4p+1"),
        ("go to the flight deck at log timestamps", True, 1, "-0x1.8570068e7ef5ap+3"),
        ("at flight deck three", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("to crew hatch", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("what is going up at the cargo bays at log timestamps three", True, 1, "-0x1.27dea15a32c1bp+4"),
        ("with the fixed sensors", True, 1, "-0x1.cae00d1cfdeb4p+2"),
        ("launch delays three that are fixed sensors and docking tests", True, 1, "-0x1.a3d6e27692882p+4"),
        ("to", False, 0, "-inf"),
        ("the sensor values say what is find decreasing at fifteen oh five", False, 0, "-inf"),
        ("lower deck", False, 0, "-inf"),
        ("deck", False, 0, "-inf"),
        ("go to the flight deck at log were timestamps", False, 0, "-inf"),
        ("at flight three", False, 0, "-inf"),
        ("to docking hatch", False, 0, "-inf"),
        ("what is going up where at the cargo bays at log timestamps three", False, 0, "-inf"),
        ("with the sensors", False, 0, "-inf"),
        ("launch delays three that are fixed out and docking tests", False, 0, "-inf"),
    ],
    "shuttle_unlinked": [
        ("launch delays and log timestamps", True, 1, "-0x1.71fde3d30e812p+3"),
        ("yes", True, 1, "-0x1.cae00d1cfdeb4p+1"),
        ("to crew hatch three", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("fifteen oh five that measures the sensor values at crew hatch three", True, 2, "-0x1.90a702c96a3c5p+4"),
        ("at the flight deck", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("at lower deck", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("scenario and sensor values", True, 1, "-0x1.71fde3d30e812p+3"),
        ("how about log timestamps and log timestamps", True, 1, "-0x1.0570068e7ef5ap+3"),
        ("say that fifteen p s i is low at log timestamps", True, 2, "-0x1.41b47b5782d27p+4"),
        ("go to lower deck", True, 1, "-0x1.4570068e7ef5ap+3"),
        ("launch delays do log timestamps", False, 0, "-inf"),
        ("they yes", False, 0, "-inf"),
        ("to crew hatch aft three", False, 0, "-inf"),
        ("fifteen oh five that measures the docking values at crew hatch three", False, 0, "-inf"),
        ("to at the flight deck", False, 0, "-inf"),
        ("lower deck", False, 0, "-inf"),
        ("scenario repair sensor values", False, 0, "-inf"),
        ("how about sensors log timestamps and log timestamps", False, 0, "-inf"),
        ("say that fifteen p s i low at log timestamps", False, 0, "-inf"),
        ("reports to lower deck", False, 0, "-inf"),
    ],
}


@pytest.mark.parametrize("name", SHUTTLES)
def test_parse_of_shuttle_sentences_is_pinned(name):
    cfg = compiled(name).cfg
    for sentence, accepted, count, log2_hex in SHUTTLE_PARSES[name]:
        result = cfg_parse(cfg, sentence.split())
        got = (result.accepted, result.derivation_count, result.log2_prob.hex())
        assert got == (accepted, count, log2_hex), sentence


@pytest.mark.parametrize("name", SHUTTLES)
def test_parse_with_one_parser_over_a_corpus_matches_fresh_parses(name):
    """perplexity keeps one parser for its corpus, which reuses the positions
    earlier sentences built; taken forwards or reversed, each sentence gets
    what a fresh cfg_parse gives it, and perplexity sums those."""
    cfg = compiled(name).cfg
    corpus = [sentence.split() for sentence, *_ in SHUTTLE_PARSES[name]]
    fresh = [cfg_parse(cfg, tokens) for tokens in corpus]
    for order in (1, -1):
        parser = _Earley(cfg)
        assert [parser.parse(tokens, 10**6) for tokens in corpus[::order]] == fresh[::order]
        total = 0.0
        for result in fresh[::order]:
            if result.accepted:
                total += result.log2_prob
        assert perplexity(cfg, corpus[::order]).total_log2 == total


def test_parse_builds_positions_only_for_predicted_productions():
    cfg = compiled("shuttle_rels").cfg
    parser = _Earley(cfg)
    parser.parse(["zzz"], 1)
    assert parser.rules == {} and parser.lhs == []
    parser.parse(["yes"], 1)
    assert len(parser.rules) == 2
    parser.parse("launch delays and log timestamps".split(), 1)
    assert 2 < len(parser.rules) < len(parser.productions) // 4


class _CountedReads(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_parse_predicts_without_scanning_the_vocabulary():
    """Prediction reads a production's rules by first symbol. Of the word
    rules of w in s -> w s | w it reads those that start with the word
    alone, so the rules read per word do not grow with the vocabulary."""
    tokens = [f"v{i % 7}" for i in range(30)]
    reads = {}
    for size in (10, 500):
        cfg = compile_grammar(wordplus_grammar(f"v{i}" for i in range(size))).cfg
        parser = _Earley(cfg)
        parser.wants = _CountedReads()
        result = parser.parse(tokens, 10**6)
        assert result.log2_prob == pytest.approx(-len(tokens) * math.log2(2 * size), rel=1e-12)
        reads[size] = parser.wants.reads
    assert reads[10] == reads[500] < 3 * len(tokens)


def _shuttle_wordplus():
    vocab = sorted(surface_tokens(grammar("shuttle_rels")))
    return vocab, compile_grammar(wordplus_grammar(vocab)).cfg


@pytest.mark.parametrize("n", [148, 149, 1000])
def test_long_sentences_do_not_underflow(n):
    """S -> W S | W splits 0.5/0.5 and W is uniform over V words, so n
    words have log2 p = -n log2(2V); plain floats reach 0 at 148 words."""
    vocab, cfg = _shuttle_wordplus()
    rng = random.Random(n)
    tokens = [rng.choice(vocab) for _ in range(n)]
    result = cfg_parse(cfg, tokens)
    assert result.accepted and result.derivation_count == 1
    assert result.log2_prob == pytest.approx(-n * math.log2(2 * len(vocab)), rel=1e-9)


# ---- right recursion: deterministic completion chains ----

RIGHT_WORDS = cfg_from_text('s -> w s | w ; w -> "a" | "b" | "c" ;')


def test_parse_completes_right_recursion_in_linear_time(monkeypatch):
    """Each word of s -> w s | w ends a span for every earlier s; followed
    one by one, they took 5249 / 20499 / 80999 value additions at 100 /
    200 / 400 words. Chains add into the topmost span alone."""
    calls = []
    real = pfsg_module._add
    monkeypatch.setattr(pfsg_module, "_add", lambda *args: calls.append(1) or real(*args))
    adds = {}
    for n in (100, 200, 400):
        calls.clear()
        result = cfg_parse(RIGHT_WORDS, list(itertools.islice(itertools.cycle("abc"), n)))
        assert result.accepted and result.derivation_count == 1
        assert result.log2_prob == pytest.approx(-n * math.log2(6), rel=1e-12)
        adds[n] = len(calls)
    assert adds[400] - adds[200] == 2 * (adds[200] - adds[100])
    assert adds[400] < 5 * 400


# Two derivations per word, so chains carry counts past the cap.
TWO_WAY_WORDS = cfg_from_text('s -> x s | x ; x -> "a" | "a" ;')


@pytest.mark.parametrize("cap", [10**6, 1])
@pytest.mark.parametrize("n", [1, 5, 19, 20, 21, 30])
def test_parse_chain_counts_saturate_at_the_cap(n, cap):
    """2**n derivations, each of probability 2**-n. At 30 words the default
    cap trips inside a chain; perplexity parses with cap 1."""
    result = cfg_parse(TWO_WAY_WORDS, ["a"] * n, count_cap=cap)
    assert result.accepted
    assert result.derivation_count == min(2**n, cap)
    assert result.log2_prob == -n


@pytest.mark.parametrize(
    "b,sentence,log2_prob",
    [
        ('"b"', "a b", -1.0),
        ('"b"', "a b y", -2.0),
        ('"b"', "a b y y", -3.0),
        ('"b" "b"', "a b b", -1.0),
        ('"b" "b"', "a b b y", -2.0),
        ('"b" "b"', "a b b y y", -3.0),
    ],
)
def test_parse_chains_stop_at_the_start_symbol(b, sentence, log2_prob):
    """Completing b completes s from 0, which t alone waits on, and t
    completes from the same item: a chain through s would skip the span
    whose value is the result. A one-word span starts no chain; a b of two
    words starts one."""
    cfg = cfg_from_text(f's -> t "y" | "a" b ; t -> s ; b -> {b} ;')
    result = cfg_parse(cfg, sentence.split())
    assert (result.accepted, result.derivation_count, result.log2_prob) == (True, 1, log2_prob)


@pytest.mark.parametrize(
    "sentence,count,log2_hex",
    [
        ("a a a", 1, "-0x1.305013ab7ce0ep+2"),
        ("a a a b", 2, "-0x1.e0a02756f9c1dp+1"),
        ("a a a b b", 1, "-0x1.305013ab7ce0ep+2"),
    ],
)
def test_parse_of_two_items_waiting_on_one_production(sentence, count, log2_hex):
    """s -> "a" . s and s -> "a" . s "b" wait in one column: no chain
    starts there. Pinned as recorded before chains were added."""
    cfg = cfg_from_text('s -> "a" s | "a" s "b" | "a" ;')
    result = cfg_parse(cfg, sentence.split())
    assert (result.accepted, result.derivation_count, result.log2_prob.hex()) == (True, count, log2_hex)


# Five sentences of 20-40 words walked from each shuttle model
# (random.Random(14)) and a one-token edit of each (substitute, insert and
# delete in turn), with what cfg_parse gave them before completion chains
# were added: model -> (sentence, accepted, derivation count, log2 p).
LONG_SHUTTLE_PARSES = {
    "shuttle_no_rels": [
        ("find out when you say pressure readings three can measure fifteen p s i with aft sensor at the cargo bays at flight deck", True, 4, -47.87783018579721),
        ("say what find out when the fixed sensors at crew hatch three say what is going up with fixed sensors at the flight deck with aft sensor three at log timestamps at fifteen oh five", True, 7, -58.36315454519221),
        ("say that log timestamps three at crew hatch three were flight deck and robot at the log timestamps with fixed sensors at lower deck at log timestamps three", True, 1, -50.516802271220904),
        ("say the fixed sensors find out when is fifteen p s i decreasing at the log timestamps with the fixed sensors", True, 3, -32.124484848442144),
        ("say you measured fixed sensors and log timestamps with the aft sensor at the crew hatch with aft sensor three at the log timestamps", True, 1, -41.124484848442144),
        ("find out when you say pressure delays three can measure fifteen p s i with aft sensor at the cargo bays at flight deck", False, 0, -math.inf),
        ("say what find out when the fixed sensors at crew hatch three say what is going up with fixed sensors at the flight deck with aft sensor three at log timestamps robot at fifteen oh five", False, 0, -math.inf),
        ("say that log timestamps three at crew hatch three were flight deck and robot at the log timestamps with fixed sensors lower deck at log timestamps three", False, 0, -math.inf),
        ("p the fixed sensors find out when is fifteen p s i decreasing at the log timestamps with the fixed sensors", False, 0, -math.inf),
        ("say you measured fixed sensors and log timestamps with the aft temperature sensor at the crew hatch with aft sensor three at the log timestamps", False, 0, -math.inf),
    ],
    "shuttle_rels": [
        ("fifteen oh five where the launch delay that can find out when robot three that is low is going up at log timestamps three are", True, 2, -38.65447307365859),
        ("the docking test where the fixed sensors that can find out when what are fixed sensors three that are the repair robots where the status reports that are sensor values three is is is low", True, 1, -67.5196685134726),
        ("what measured sensor values three that are the test scenarios that were log timestamps and sensor values at log timestamps at log timestamps with the aft sensor", True, 3, -46.74715570832624),
        ("the launch delays that were pressure readings three that are the fixed sensors where the docking test that is low at the crew hatch is", True, 1, -43.1891038988296),
        ("how about test scenarios three that were status reports three that do find out when pressure three that is decreasing is low with fixed sensors", True, 3, -40.54594861688042),
        ("fifteen oh five where the launch delay that can find out when robot three that do low is going up at log timestamps three are", False, 0, -math.inf),
        ("the docking test where the fixed sensors that can find go out when what are fixed sensors three that are the repair robots where the status reports that are sensor values three is is is low", False, 0, -math.inf),
        ("what measured sensor values three that are the test scenarios that were log timestamps and sensor values at log timestamps at log timestamps with the aft", False, 0, -math.inf),
        ("the pressure delays that were pressure readings three that are the fixed sensors where the docking test that is low at the crew hatch is", False, 0, -math.inf),
        ("how about test scenarios three that were status reports three that do find out when pressure three that is decreasing is low with fixed sensors robots", False, 0, -math.inf),
    ],
    "shuttle_unlinked": [
        ("say is the crew hatch that is the log timestamps that is low at the lower deck low at the cargo bays at fifteen oh five", True, 2, -45.131512115336115),
        ("thirty degrees celsius that find out when can metric unit three find out when what go to cargo bays three with the fixed sensors", True, 2, -37.42369286682943),
        ("can fifteen p s i that thirty degrees celsius at crew hatch measure measure log timestamps three that can find out when you say that what is fifteen oh five at the cargo bays with aft sensor three", True, 16, -69.3244338640401),
        ("the sensor values that is going up close log timestamps and test scenarios at crew hatch three at the log timestamps", True, 1, -38.17130570519514),
        ("fifteen p s i that the sensor values that thirty degrees celsius where fifteen oh five that thirty degrees celsius where crew hatch three were measured were measure measured is low at the log timestamps at cargo bays", True, 1, -65.32344095619575),
        ("say is the crew hatch that is the log timestamps that is low at what lower deck low at the cargo bays at fifteen oh five", False, 0, -math.inf),
        ("thirty degrees celsius that find how out when can metric unit three find out when what go to cargo bays three with the fixed sensors", False, 0, -math.inf),
        ("can fifteen p s i that thirty degrees celsius at crew hatch measure measure log timestamps three that can find out when you say that what is fifteen oh five at the cargo bays with aft sensor", True, 16, -69.3244338640401),
        ("the sensor values that is going up close log deck and test scenarios at crew hatch three at the log timestamps", False, 0, -math.inf),
        ("fifteen p s i that the sensor values that thirty degrees celsius where fifteen oh five that thirty degrees celsius you where crew hatch three were measured were measure measured is low at the log timestamps at cargo bays", False, 0, -math.inf),
    ],
}


@pytest.mark.parametrize("name", SHUTTLES)
def test_parse_of_long_shuttle_sentences_is_pinned(name):
    """Chains multiply the same values in another grouping, so log2 p may
    move in the last place; acceptance and counts may not move at all."""
    cfg = compiled(name).cfg
    for sentence, accepted, count, log2_prob in LONG_SHUTTLE_PARSES[name]:
        result = cfg_parse(cfg, sentence.split())
        assert (result.accepted, result.derivation_count) == (accepted, count), sentence
        assert result.log2_prob == pytest.approx(log2_prob, rel=1e-12), sentence


# ---- metrics ----


def test_category_of_strips_rectangle_suffix():
    assert _category_of("np__agr-s3__sort-meas") == "np"
    assert _category_of("np") == "np"


def test_tiny_metrics_frozen():
    m = metrics("tiny_agreement")
    assert (m.total_graphs, m.total_nodes, m.total_transitions) == (8, 20, 13)
    assert m.max_transitions_per_graph == 4
    assert m.per_category["np"].graph_count == 2
    assert m.per_category["np"].mean_transitions == 2.0


def test_rel_pair_metrics_frozen():
    linked = metrics("rel_linked")
    unlinked = metrics("rel_unlinked")
    assert (linked.total_graphs, linked.total_transitions) == (15, 30)
    assert (unlinked.total_graphs, unlinked.total_transitions) == (5, 14)
    # the linked grammar copies the relative machinery per feature pair
    assert linked.per_category["rel"].graph_count == 4
    assert unlinked.per_category["rel"].graph_count == 1


@pytest.mark.parametrize("name", ALL_ASSETS)
def test_metrics_kv_round_trip(name):
    m = metrics(name)
    assert metrics_from_kv(metrics_to_kv(m)) == m


def test_metrics_table_is_readable():
    table = metrics_to_table(metrics("rel_linked"))
    assert "category" in table
    assert "rel" in table
    assert "transitions        30" in table


def test_pfsg_text_lists_every_graph():
    text = pfsg_to_text(pfsgs("tiny_agreement"))
    for name in pfsgs("tiny_agreement").graphs:
        assert name in text


# ---- enumeration caps ----


def test_enumeration_cap_raises():
    with pytest.raises(ResourceCapError) as err:
        cfg_enumerate(compiled("wordplus3").cfg, 8, cap=100)
    assert "cap of 100" in str(err.value)


def test_enumeration_under_cap_succeeds():
    lang = cfg_enumerate(compiled("wordplus3").cfg, 2, cap=100)
    assert len(lang) == 12  # 3 + 9


# Smallest passing caps: each enumerator stores this many distinct entries,
# (production, string) for the model and (item, string) for the oracle,
# each within its symbol's budget.
CAP_THRESHOLDS = [
    ("shuttle_rels", 5, 12836, 15342),
    ("wordplus3", 8, 9843, 9843),
    ("direct_left", 8, 17, 10),
]


@pytest.mark.parametrize("name,max_len,model_cap,oracle_cap", CAP_THRESHOLDS)
def test_enumeration_cap_threshold_is_the_stored_count(name, max_len, model_cap, oracle_cap):
    cfg = compiled(name).cfg
    assert cfg_enumerate(cfg, max_len, cap=model_cap)
    with pytest.raises(ResourceCapError):
        cfg_enumerate(cfg, max_len, cap=model_cap - 1)
    assert oracle_enumerate(grammar(name), max_len, cap=oracle_cap)
    with pytest.raises(ResourceCapError):
        oracle_enumerate(grammar(name), max_len, cap=oracle_cap - 1)


# x sits only under the fixed context "a a a", so at length 6 its budget is
# 3; u is productive but unreachable from s, so it gets no budget at all.
LONG_CONTEXT_CFG = cfg_from_text(
    """
    s -> "a" "a" "a" x | "b" ;
    x -> "c" x | "c" ;
    u -> "d" u | "d" ;
    """
)
LONG_CONTEXT_GRAMMAR = """
start S
rule long: S -> A A A X
rule short: S -> B
rule more: X -> C X
rule one: X -> C
rule loop: U -> D U
rule stop: U -> D
lex "a": A
lex "b": B
lex "c": C
lex "d": D
"""


def test_enumeration_stores_only_what_fits_the_least_context():
    """The stored entries are the budgeted ones: s's 4 strings and x's 3 in
    the model; those plus the items of "a", "b" and "c" in the oracle."""
    g = parse_grammar(LONG_CONTEXT_GRAMMAR)
    lang = {("b",)} | {("a", "a", "a") + ("c",) * n for n in (1, 2, 3)}
    assert cfg_enumerate(LONG_CONTEXT_CFG, 6) == lang
    assert pfsg_enumerate(build_pfsg(LONG_CONTEXT_CFG), 6) == lang
    assert oracle_enumerate(g, 6) == lang
    assert cfg_enumerate(compile_grammar(g).cfg, 6) == lang
    assert cfg_enumerate(LONG_CONTEXT_CFG, 6, cap=7)
    with pytest.raises(ResourceCapError):
        cfg_enumerate(LONG_CONTEXT_CFG, 6, cap=6)
    assert oracle_enumerate(g, 6, cap=10)
    with pytest.raises(ResourceCapError):
        oracle_enumerate(g, 6, cap=9)


# The outer repetition's body is itself nullable, so in the plain grammar
# the outer star production has the empty alternative and unit
# alternatives through the inner one: strings of a length are read at that
# same length, and the empty string is derived at length 0.
NULLABLE_STAR_CFG = cfg_from_text('s -> "a" ( ( "b" )* )* ;')


def test_enumeration_through_a_nullable_repetition():
    """s stores a, ab and abb; the outer star production (), b and bb
    within its budget of 2; the inner one b and bb."""
    assert cfg_enumerate(NULLABLE_STAR_CFG, 3) == {("a",), ("a", "b"), ("a", "b", "b")}
    assert cfg_enumerate(NULLABLE_STAR_CFG, 3, cap=8)
    with pytest.raises(ResourceCapError):
        cfg_enumerate(NULLABLE_STAR_CFG, 3, cap=7)


def test_library_string_caps_match_the_command_line():
    check = _build_parser().parse_args(["check", "g.gram", "--max-len", "1"])
    for enumerate_strings in (cfg_enumerate, pfsg_enumerate, oracle_enumerate):
        assert inspect.signature(enumerate_strings).parameters["cap"].default == CAP_STRINGS
    assert check.cap_strings == CAP_STRINGS


# ---- enumeration and the cyclic collector ----

# Each enumerator with its input, taken from a compiled asset: the model's
# CFG, or the stripped grammar the oracle reads.
ENUMERATORS = [
    pytest.param(cfg_enumerate, lambda name: compiled(name).cfg, id="cfg_enumerate"),
    pytest.param(oracle_enumerate, lambda name: compiled(name).grammar, id="oracle_enumerate"),
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


@pytest.mark.parametrize("enumerate_strings,source", ENUMERATORS)
def test_enumeration_restores_an_enabled_collector(enumerate_strings, source, collector):
    gc.enable()
    assert len(enumerate_strings(source("wordplus3"), 2)) == 12
    assert gc.isenabled()
    with pytest.raises(ResourceCapError):
        enumerate_strings(source("wordplus3"), 8, cap=100)
    assert gc.isenabled()


@pytest.mark.parametrize("enumerate_strings,source", ENUMERATORS)
def test_enumeration_leaves_a_disabled_collector_off(enumerate_strings, source, collector):
    gc.disable()
    assert len(enumerate_strings(source("wordplus3"), 2)) == 12
    assert not gc.isenabled()
    with pytest.raises(ResourceCapError):
        enumerate_strings(source("wordplus3"), 8, cap=100)
    assert not gc.isenabled()


@pytest.mark.parametrize("enumerate_strings,source", ENUMERATORS)
def test_enumeration_starts_no_collection(enumerate_strings, source, collector):
    """At L=5 the shuttle model allocates enough tuples to start several
    young collections if the collector ran."""
    gc.enable()
    arg = source("shuttle_rels")
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        enumerate_strings(arg, 5)
    finally:
        gc.callbacks.remove(record)
    assert starts == []


@pytest.mark.parametrize("name", SHUTTLES)
@pytest.mark.parametrize("enumerate_strings,source", ENUMERATORS)
def test_enumeration_defers_no_cyclic_garbage(enumerate_strings, source, name, collector):
    """Collecting right after an enumeration finds nothing: pausing the
    collector left no reference cycles for it to free later."""
    arg = source(name)
    gc.collect()
    strings = enumerate_strings(arg, 4)
    assert gc.collect() == 0
    assert len(strings) == 872


# ---- model-side differential: cfg_enumerate against the naive graph walk ----

_NAMES = ("n0", "n1", "n2", "n3")
_item = st.one_of(st.sampled_from(("a", "b")).map(Term), st.sampled_from(_NAMES).map(Ref))


@st.composite
def _option(draw):
    items = draw(st.lists(_item, min_size=1, max_size=3))
    if len(items) > 1 and draw(st.booleans()):
        at = draw(st.integers(min_value=1, max_value=len(items) - 1))
        items.insert(at, Star(draw(_item)))
    return seq(items)


_cfgs = st.lists(
    st.lists(_option(), min_size=1, max_size=3).map(alt), min_size=4, max_size=4
).map(lambda bodies: ContextFreeGrammar("n0", tuple(zip(_NAMES, bodies))))


@settings(max_examples=300, deadline=None)
@given(cfg=_cfgs, max_len=st.integers(min_value=1, max_value=5))
def test_cfg_enumerate_matches_graph_walk_on_random_grammars(cfg, max_len):
    """References sit anywhere, so direct and indirect left recursion occur;
    ``pfsg_enumerate`` stays naive and is the reference."""
    try:
        graphs = build_pfsg(cfg)
    except CompileError:
        assume(False)
    assert cfg_enumerate(cfg, max_len) == pfsg_enumerate(graphs, max_len)


def _has_unit_cycle(cfg: ContextFreeGrammar) -> bool:
    units = {
        name: [o.name for o in (body.options if isinstance(body, Alt) else (body,)) if isinstance(o, Ref)]
        for name, body in cfg.productions
    }
    for name in units:
        seen, stack = set(), list(units[name])
        while stack:
            ref = stack.pop()
            if ref == name:
                return True
            if ref not in seen:
                seen.add(ref)
                stack.extend(units[ref])
    return False


@settings(max_examples=200, deadline=None)
@given(cfg=_cfgs)
def test_cfg_parse_matches_enumeration_on_random_grammars(cfg):
    """Every string over {a, b} up to length 4: accepted exactly when
    enumerated, and the accepted strings carry at most unit mass."""
    if _has_unit_cycle(cfg):
        with pytest.raises(CompileError):
            cfg_parse(cfg, ["a"])
        return
    lang = cfg_enumerate(cfg, 4)
    mass = 0.0
    for n in range(1, 5):
        for tokens in itertools.product("ab", repeat=n):
            result = cfg_parse(cfg, tokens)
            assert result.accepted == (tokens in lang), tokens
            assert (result.derivation_count > 0) == result.accepted
            mass += 2.0**result.log2_prob
    assert mass <= 1 + 1e-9


# ---- perplexity ----


def test_uniform_two_word_model_has_perplexity_two():
    report = perplexity(compiled("intj").cfg, [["yes"]])
    assert report.value == pytest.approx(2.0, abs=1e-12)
    assert (report.sentences, report.included, report.words) == (1, 1, 1)


def test_out_of_language_sentences_are_excluded():
    report = perplexity(compiled("intj").cfg, [["yes"], ["yes", "yes"]])
    assert report.included == 1
    assert report.excluded == [("yes", "yes")]
    assert report.value == pytest.approx(2.0, abs=1e-12)


def test_perplexity_undefined_when_nothing_parses():
    with pytest.raises(UndefinedPerplexityError):
        perplexity(compiled("intj").cfg, [["yes", "yes"]])


def test_longer_sentences_average_per_word():
    # wordplus over three words: every word carries log2(1/3) plus the
    # continue/stop choice, so perplexity is identical for every sentence
    # of the same model and stays within (3, 6]
    cfg = compiled("wordplus3").cfg
    one = perplexity(cfg, [["alpha"]])
    three = perplexity(cfg, [["alpha", "bravo", "charlie"]])
    assert one.words == 1 and three.words == 3
    assert 3.0 < three.value <= one.value <= 6.0


def test_long_sentence_counts_in_perplexity():
    vocab, cfg = _shuttle_wordplus()
    rng = random.Random(200)
    tokens = [rng.choice(vocab) for _ in range(200)]
    report = perplexity(cfg, [tokens])
    assert report.excluded == [] and report.words == 200
    assert report.value == pytest.approx(2 * len(vocab), rel=1e-9)
