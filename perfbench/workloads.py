"""The four workloads: what each sets up, what one operation runs, and the
reference each operation's output is checked against.

A workload function takes the imported package (``api``) and a seed and
returns a :class:`Workload`. Its operations are timed one by one; each
operation's ``check`` runs untimed right after it and returns
``(status, transitions)``: status ``ok``, ``failed`` (no answer: a cap hit,
an exception or an in-language sentence given no probability) or ``wrong``
(an answer that disagrees with its reference), and the PFSG transitions of
the model the operation compiled.

Every call into gramlm goes through its module at call time
(``api.compiler.compile_grammar``), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

CAP_TUPLES = 10**7  # the CLI's --cap-tuples default
CAP_STRINGS = 8 * 10**6  # the CLI's --cap-strings default; shuttle_unlinked passes 10**6 at L=7
FEATURES = "syntactic"  # the CLI's --features syn
SHUTTLES = ("shuttle_no_rels", "shuttle_rels", "shuttle_unlinked")
ARTIFACTS = ("grammar.cfg", "grammar.pfsg", "metrics.txt", "metrics.kv")
# Recorded with the gramlm CLI (`check`, `compile --out`, `diff`) at the
# commit that added this benchmark; see README.md.
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
REL_TOL = 1e-9
# Timings of each toy grammar in one block of a `check` or `compile` round;
# a round has four blocks.
LIGHT_REPEATS = 4


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, int]]


@dataclass
class Workload:
    ops: list[Op]
    model_transitions: int = 0  # models compiled during set-up


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_assets(api, names=None) -> dict:
    paths = sorted(api.assets.glob("*.gram"))
    return {p.stem: api.grammar.parse_grammar_file(p) for p in paths if names is None or p.stem in names}


def _interleave(heavy: list, light: list, rng: random.Random) -> list:
    """``light`` ``LIGHT_REPEATS`` times, reshuffled, before, between and
    after three slices of ``heavy``.

    A toy grammar takes milliseconds, so a single timing of it would catch
    one moment of machine noise; the median of many timings spread over the
    round does not.
    """
    step = -(-len(heavy) // 3)
    block = light * LIGHT_REPEATS
    order = []
    for start in range(0, len(heavy), step):
        rng.shuffle(block)
        order += [*block, *heavy[start : start + step]]
    rng.shuffle(block)
    return order + block


def check(api, seed: int) -> Workload:
    """`gramlm check` on every shipped grammar: compile, then compare the
    oracle's and the model's languages up to the recorded length."""
    rng = random.Random(seed)
    grammars = _read_assets(api)
    shuttles = list(SHUTTLES)
    rng.shuffle(shuttles)
    order = _interleave(shuttles, sorted(set(grammars) - set(SHUTTLES)), rng)
    return Workload([_check_op(api, name, grammars[name]) for name in order])


def _check_op(api, name: str, grammar) -> Op:
    reference = REFERENCE["check_counts"][name]
    max_len = reference["max_len"]

    def run():
        cfg = api.compiler.compile_grammar(grammar, features=FEATURES, cap_tuples=CAP_TUPLES).cfg
        stripped = api.compiler.strip_features(grammar, FEATURES)
        want = api.oracle.oracle_enumerate(stripped, max_len, cap=CAP_STRINGS)
        got = api.pfsg.cfg_enumerate(cfg, max_len, cap=CAP_STRINGS)
        return cfg, want == got, len(want)

    def verify(out):
        cfg, equivalent, count = out
        transitions = api.pfsg.measure(api.pfsg.build_pfsg(cfg)).total_transitions
        ok = equivalent and count == reference["strings"]
        return ("ok" if ok else "wrong"), transitions

    return Op(f"check {name} L={max_len}", run, verify)


def compile_(api, seed: int) -> Workload:
    """`gramlm compile` and `gramlm diff` on the shipped grammars and on the
    variants the analysis module builds from the shuttle grammars."""
    grammars = _read_assets(api)
    analysis = api.analysis
    targets: dict[str, Callable] = {name: (lambda g=g: g) for name, g in grammars.items()}
    for name in SHUTTLES:
        for k in (1, 2):
            targets[f"{name}.k{k}"] = lambda g=grammars[name], k=k: analysis.k_words_per_category(g, k)
    rels = grammars["shuttle_rels"]
    targets["shuttle_rels.unlink"] = lambda: analysis.unlink_features(rels, "rel_mod", ["agr", "sort"])
    targets["shuttle_rels.wordplus"] = lambda: analysis.wordplus_grammar(
        sorted(api.grammar.surface_tokens(rels))
    )
    rng = random.Random(seed)
    toys = sorted(set(grammars) - set(SHUTTLES))
    # The baseline compiles first: the other shuttle targets diff against it.
    rest = sorted(set(targets) - set(toys) - {"shuttle_no_rels"})
    rng.shuffle(rest)
    order = _interleave(["shuttle_no_rels", *rest], toys, rng)
    baseline: dict = {}
    return Workload([_compile_op(api, name, targets[name], baseline) for name in order])


def _compile_op(api, name: str, make_grammar, baseline: dict) -> Op:
    digests = REFERENCE["compile_digests"][name]
    diff_digest = REFERENCE["diff_digests"].get(name)
    pfsg = api.pfsg

    def run():
        grammar = make_grammar()
        result = api.compiler.compile_grammar(grammar, features=FEATURES, cap_tuples=CAP_TUPLES)
        graphs = pfsg.build_pfsg(result.cfg)
        report = pfsg.measure(graphs)
        texts = {
            "grammar.cfg": api.cfg.cfg_to_text(result.cfg),
            "grammar.pfsg": pfsg.pfsg_to_text(graphs),
            "metrics.txt": pfsg.metrics_to_table(report),
            "metrics.kv": pfsg.metrics_to_kv(report),
        }
        read_back = api.cfg.cfg_from_text(texts["grammar.cfg"])
        diff = None
        if diff_digest is not None:
            diff = api.analysis.diff_to_table(api.analysis.compare(baseline["report"], report))
        if name == "shuttle_no_rels":
            baseline["report"] = report
        return grammar, result.cfg, read_back, graphs, texts, diff, report.total_transitions

    def verify(out):
        grammar, cfg, read_back, graphs, texts, diff, transitions = out
        ok = all(_sha(texts[f]) == digests[f] for f in ARTIFACTS)
        ok = ok and read_back == cfg
        ok = ok and (diff_digest is None or _sha(diff) == diff_digest)
        # Small-L language equality, oracle against the graphs (not the
        # cfg_enumerate path the check workload times).
        max_len = 2 if name.endswith("wordplus") else 4
        stripped = api.compiler.strip_features(grammar, FEATURES)
        want = api.oracle.oracle_enumerate(stripped, max_len, cap=CAP_STRINGS)
        ok = ok and want == pfsg.pfsg_enumerate(graphs, max_len, cap=CAP_STRINGS)
        return ("ok" if ok else "wrong"), transitions

    return Op(f"compile {name}", run, verify)


def _compile_model(api, grammar):
    result = api.compiler.compile_grammar(grammar, features=FEATURES, cap_tuples=CAP_TUPLES)
    graphs = api.pfsg.build_pfsg(result.cfg)
    return result, graphs, api.pfsg.measure(graphs).total_transitions


def score(api, seed: int) -> Workload:
    """`cfg_parse` on short sentences against the three shuttle models: per
    model, random walks over its graphs and one-token perturbations of them
    that the oracle rejects."""
    rng = random.Random(seed)
    grammars = _read_assets(api, SHUTTLES)
    work = Workload([])
    for name in SHUTTLES:
        result, graphs, transitions = _compile_model(api, grammars[name])
        work.model_transitions += transitions
        vocab = sorted(api.grammar.surface_tokens(result.grammar))
        positives = inputs.sample_profile(graphs, rng)

        def rejects(tokens, grammar=result.grammar):
            return not api.oracle.oracle_parse(grammar, tokens, max_derivations=1).accepted

        negatives = inputs.negatives([tokens for tokens, _ in positives], vocab, rng, rejects)
        ops = [_score_op(api, name, result, tokens, walked) for tokens, walked in positives]
        ops += [_score_op(api, name, result, tokens, None) for tokens in negatives]
        rng.shuffle(ops)
        work.ops += ops
    _number(work.ops)
    return work


def _number(ops: list[Op]) -> None:
    """Make each label unique: two sentences of one length are two operations."""
    for i, op in enumerate(ops):
        op.label += f" #{i}"


def _score_op(api, name: str, result, tokens: list[str], walked_log2) -> Op:
    def run():
        return api.pfsg.cfg_parse(result.cfg, tokens)

    def verify(parsed):
        if walked_log2 is None:  # a perturbation the oracle rejected in set-up
            return ("ok" if not parsed.accepted else "wrong"), 0
        accepted = api.oracle.oracle_parse(result.grammar, tokens, max_derivations=1).accepted
        # The string's probability sums over its derivations, so it is at
        # least that of the one path the walk took.
        floor = walked_log2 - REL_TOL * abs(walked_log2)
        ok = accepted and parsed.accepted and floor <= parsed.log2_prob <= 0.0
        return ("ok" if ok else "wrong"), 0

    kind = "positive" if walked_log2 is not None else "negative"
    return Op(f"score {name} {kind} n={len(tokens)}", run, verify)


def longparse(api, seed: int) -> Workload:
    """`cfg_parse` on long sentences under the word-plus model of the shuttle
    vocabulary. `S -> W S | W` splits 0.5/0.5 and `W` is uniform over V
    words, so a sentence of n words has log2 p = -n * log2(2V) exactly."""
    rels = api.grammar.parse_grammar_file(api.assets / "shuttle_rels.gram")
    vocab = sorted(api.grammar.surface_tokens(rels))
    result, _, transitions = _compile_model(api, api.analysis.wordplus_grammar(vocab))
    sentences = inputs.long_sentences(vocab, random.Random(seed))
    ops = [_long_op(api, result.cfg, tokens, -len(tokens) * math.log2(2 * len(vocab))) for tokens in sentences]
    _number(ops)
    return Workload(ops, transitions)


def _long_op(api, cfg, tokens: list[str], expected: float) -> Op:
    def run():
        return api.pfsg.cfg_parse(cfg, tokens)

    def verify(parsed):
        if not parsed.accepted:
            return "failed", 0  # an in-language sentence given no probability
        close = abs(parsed.log2_prob - expected) <= REL_TOL * abs(expected)
        return ("ok" if close else "wrong"), 0

    return Op(f"longparse n={len(tokens)}", run, verify)


WORKLOADS = {"check": check, "compile": compile_, "score": score, "longparse": longparse}
