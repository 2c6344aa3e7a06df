"""Acceptance gate: one test per shipping criterion, reported as one line each.

Run `pytest tests/test_acceptance.py -v` for the full gate; the summary block
at the end of the run repeats every criterion verdict.  Each test asserts, so
a red criterion fails the suite, and each records a PASS/FAIL line with the
measured numbers so the margin is visible even when everything is green.
"""

import subprocess
import sys
import time

import pytest
from conftest import (
    SHUTTLES,
    TOYS,
    asset,
    compiled,
    compiled_stages,
    data_lines,
    grammar,
    leftmost_cycle_free,
    metrics,
    pair_lines,
    record_criterion,
)

from gramlm import cfg_enumerate, cfg_parse, compare, oracle_enumerate, oracle_parse, perplexity


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gramlm.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_1_every_model_matches_its_grammar_in_time():
    """All shipped grammars compile to models equivalent up to length 8."""
    started = time.perf_counter()
    failures = []
    for name in TOYS + SHUTTLES:
        result = run_cli("check", asset(f"{name}.gram"), "--max-len", "8")
        if result.returncode != 0 or "EQUIVALENT" not in result.stdout:
            failures.append(f"{name} (exit {result.returncode})")
    elapsed = time.perf_counter() - started
    passed = not failures and len(TOYS) >= 6 and elapsed < 300.0
    record_criterion(
        1,
        passed,
        f"check --max-len 8 on {len(TOYS)} toy + {len(SHUTTLES)} shuttle grammars "
        f"in {elapsed:.1f}s (budget 300s)"
        + (f"; failing: {', '.join(failures)}" if failures else ""),
    )
    assert passed


def test_criterion_2_left_recursion_is_eliminated_and_language_kept():
    """Direct and indirect leftmost cycles disappear; the language does not."""
    details = []
    passed = True
    for name in ("direct_left", "indirect_left"):
        result = compiled(name)
        had = not leftmost_cycle_free(compiled_stages(name)[2])
        clean = leftmost_cycle_free(result.cfg)
        kept = cfg_enumerate(result.cfg, 6) == oracle_enumerate(grammar(name), 6)
        passed = passed and had and clean and kept
        details.append(
            f"{name}: cycle before={'yes' if had else 'NO'},"
            f" after={'none' if clean else 'STILL PRESENT'},"
            f" language@6 {'kept' if kept else 'CHANGED'}"
        )
    record_criterion(2, passed, "; ".join(details))
    assert passed


def test_criterion_3_linking_blowup_is_measurable_and_repairable():
    """The linked grammar blows up, the diff blames noun phrases, and
    unlinking repairs the size without losing the baseline's economy."""
    base = metrics("shuttle_no_rels")
    rels = metrics("shuttle_rels")
    unlinked = metrics("shuttle_unlinked")

    blowup = rels.total_transitions / base.total_transitions
    repaired = unlinked.total_transitions / base.total_transitions
    ranked = compare(base, rels).ranked
    top = ranked[0]
    np_rels = rels.per_category["np"].mean_transitions
    np_unlinked = unlinked.per_category["np"].mean_transitions
    np_growth = np_rels / np_unlinked

    passed = (
        blowup >= 2.0
        and top.category == "np"
        and np_growth > 3.0
        and repaired <= 1.10
    )
    record_criterion(
        3,
        passed,
        f"transitions {base.total_transitions}->{rels.total_transitions}"
        f" (x{blowup:.3f}, need >=2.0); top category {top.category!r}"
        f" x{top.ratio:.2f}; np mean {np_unlinked:.2f}->{np_rels:.2f}"
        f" (x{np_growth:.2f}, need >3); unlinked x{repaired:.3f} (need <=1.10)",
    )
    assert passed


def test_criterion_4_coverage_and_judgements_hold():
    """Every corpus sentence parses; every minimal-pair judgement matches;
    stacked same-sort modifiers are rejected while mixed sorts pass."""
    result = compiled("shuttle_rels")

    corpus = data_lines("shuttle_corpus.txt")
    corpus_bad = [
        line
        for line in corpus
        if not (
            oracle_parse(result.grammar, line.split()).accepted
            and cfg_parse(result.cfg, line.split()).accepted
        )
    ]

    pairs = pair_lines("shuttle_pairs.txt")
    pair_bad = [
        " ".join(tokens)
        for must, tokens in pairs
        if not (
            oracle_parse(result.grammar, tokens).accepted == must
            and cfg_parse(result.cfg, tokens).accepted == must
        )
    ]

    mixed = "close it at flight deck at fifteen oh five".split()
    doubled = "close it at flight deck at cargo bays".split()
    pp_ok = (
        cfg_parse(result.cfg, mixed).accepted
        and not cfg_parse(result.cfg, doubled).accepted
    )

    passed = not corpus_bad and not pair_bad and pp_ok
    record_criterion(
        4,
        passed,
        f"{len(corpus) - len(corpus_bad)}/{len(corpus)} corpus sentences,"
        f" {len(pairs) - len(pair_bad)}/{len(pairs)} pair judgements,"
        f" place+place modifier {'rejected' if pp_ok else 'NOT rejected'},"
        " place+time accepted"
        + (f"; failing: {corpus_bad + pair_bad}" if corpus_bad or pair_bad else ""),
    )
    assert passed


def test_criterion_5_merging_pays_for_itself():
    """Merged emission beats naive instantiation by three orders of magnitude."""
    stats = compiled("shuttle_rels").stats
    factor = stats.reduction_factor
    passed = factor >= 1000
    record_criterion(
        5,
        passed,
        f"naive {stats.naive_count} vs emitted {stats.emitted_rules}"
        f" = x{stats.reduction_text(6)} reduction (need >=1000)",
    )
    assert passed


def test_criterion_6_compilation_is_reproducible(tmp_path):
    """Two independent compiles of the same grammar write identical bytes."""
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        result = run_cli("compile", asset("shuttle_no_rels.gram"), "--out", out)
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    artifacts = ["grammar.cfg", "grammar.pfsg", "metrics.txt", "metrics.kv"]
    differing = [
        name
        for name in artifacts
        if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes()
    ]
    passed = not differing
    record_criterion(
        6,
        passed,
        f"{len(artifacts)} artifacts byte-identical across independent compiles"
        + (f"; differing: {', '.join(differing)}" if differing else ""),
    )
    assert passed


def test_criterion_7_models_are_proper_distributions():
    """Every node spends proper probability mass across all shipped models;
    the two-word uniform model scores a one-word corpus at perplexity two."""
    from conftest import pfsgs

    worst = 0.0
    stop_deficit = 0.0
    for name in TOYS + SHUTTLES:
        for graph in pfsgs(name).graphs.values():
            sums: dict[int, float] = {}
            for t in graph.transitions:
                sums[t.src] = sums.get(t.src, 0.0) + t.prob
            for node, total in sums.items():
                if node == graph.end:
                    # the residual is the stop probability; it must stay positive
                    stop_deficit = max(stop_deficit, total - (1.0 - 1e-9))
                else:
                    worst = max(worst, abs(total - 1.0))

    report = perplexity(compiled("intj").cfg, [["yes"]])
    perp_err = abs(report.value - 2.0)

    passed = worst <= 1e-9 and stop_deficit <= 0.0 and perp_err <= 1e-9
    record_criterion(
        7,
        passed,
        f"max |sum(out probs) - 1| = {worst:.2e} over non-end nodes (need <=1e-9);"
        f" end nodes keep positive stop mass;"
        f" uniform-pair perplexity {report.value!r} (need 2.0)",
    )
    assert passed
