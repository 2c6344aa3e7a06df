"""Command-line interface, exercised end-to-end through subprocesses."""

import subprocess
import sys

import pytest
from conftest import asset, compiled, grammar

from gramlm import UndefinedPerplexityError, parse_grammar, perplexity, print_grammar, unlink_features

ARTIFACTS = ["grammar.cfg", "grammar.pfsg", "metrics.txt", "metrics.kv"]


def run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "gramlm.cli", *map(str, args)],
        capture_output=True,
        text=True,
        **kw,
    )


# ---- check ----


def test_check_passes_on_a_toy():
    r = run("check", asset("tiny_agreement.gram"), "--max-len", "8")
    assert r.returncode == 0
    assert "EQUIVALENT up to length 8 (2 strings)" in r.stdout


def test_check_against_a_stale_model_fails(tmp_path):
    r = run("compile", asset("tiny_agreement.gram"), "--out", tmp_path)
    assert r.returncode == 0
    r = run(
        "check",
        asset("rel_linked.gram"),
        "--max-len",
        "4",
        "--against",
        tmp_path / "grammar.cfg",
    )
    assert r.returncode == 2
    assert r.stdout.splitlines()[0] == "first difference at length 1"
    assert "missing from compiled model" in r.stdout


def test_check_respects_string_cap():
    r = run("check", asset("wordplus3.gram"), "--max-len", "8", "--cap-strings", "100")
    assert r.returncode == 3
    assert "cap of 100" in r.stderr


# ---- compile ----


def test_compile_writes_all_artifacts(tmp_path):
    r = run("compile", asset("rel_linked.gram"), "--out", tmp_path / "out")
    assert r.returncode == 0
    assert "rule instances: naive=12 emitted=6 reduction=2x" in r.stdout
    assert "graphs=15" in r.stdout
    for name in ARTIFACTS:
        path = tmp_path / "out" / name
        assert path.is_file() and path.stat().st_size > 0


def test_compile_is_reproducible(tmp_path):
    for d in ("a", "b"):
        assert run("compile", asset("rel_linked.gram"), "--out", tmp_path / d).returncode == 0
    for name in ARTIFACTS:
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, f"{name} differs between identical compiles"


# ---- stats and diff ----


def test_stats_on_grammar_and_compiled_model(tmp_path):
    r = run("stats", asset("rel_linked.gram"))
    assert r.returncode == 0
    assert "rule instances: naive=12 emitted=6" in r.stdout
    run("compile", asset("rel_linked.gram"), "--out", tmp_path)
    r2 = run("stats", tmp_path / "grammar.cfg")
    assert r2.returncode == 0
    assert "transitions        30" in r2.stdout


def test_diff_ranks_categories(tmp_path):
    run("compile", asset("rel_unlinked.gram"), "--out", tmp_path / "left")
    run("compile", asset("rel_linked.gram"), "--out", tmp_path / "right")
    r = run("diff", tmp_path / "left" / "metrics.kv", tmp_path / "right" / "metrics.kv")
    assert r.returncode == 0
    assert "transition ratio (right/left): 2.143" in r.stdout
    first_category_row = [
        line for line in r.stdout.splitlines() if line.startswith("np")
    ]
    assert first_category_row, r.stdout


# ---- parse ----


def test_parse_accepted_sentence():
    r = run("parse", asset("tiny_agreement.gram"), "the dog barks")
    assert r.returncode == 0
    assert "grammar: ACCEPT derivations=1" in r.stdout
    assert "(S (NP (DET the) (N dog)) (VP barks))" in r.stdout
    assert "model: ACCEPT derivations=1" in r.stdout


def test_parse_rejected_sentence():
    r = run("parse", asset("tiny_agreement.gram"), "the dog bark")
    assert r.returncode == 2
    assert "grammar: REJECT" in r.stdout
    assert "model: REJECT" in r.stdout


# ---- enumerate ----


def test_enumerate_lists_strings_in_order():
    r = run("enumerate", asset("tiny_agreement.gram"), "--max-len", "8")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["the dog barks", "the dogs bark"]
    assert "# 2 strings up to length 8" in r.stderr


def test_enumerate_oracle_agrees_with_model():
    model = run("enumerate", asset("rel_linked.gram"), "--max-len", "4")
    oracle = run("enumerate", asset("rel_linked.gram"), "--max-len", "4", "--oracle")
    assert model.returncode == oracle.returncode == 0
    assert model.stdout == oracle.stdout


# ---- perplexity ----


def test_perplexity_of_uniform_interjections(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# a comment\nyes\n\nno\n", encoding="utf-8")
    r = run("perplexity", asset("intj.gram"), corpus)
    assert r.returncode == 0
    assert "sentences=2 included=2 words=2" in r.stdout
    assert "perplexity=2.000000" in r.stdout


def test_perplexity_of_an_empty_corpus_is_an_input_error(tmp_path):
    """The library says the corpus has no sentences; the command exits 1
    and names the file."""
    with pytest.raises(UndefinedPerplexityError, match="the corpus has no sentences"):
        perplexity(compiled("intj").cfg, [])
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# only a comment\n\n", encoding="utf-8")
    r = run("perplexity", asset("intj.gram"), corpus)
    assert r.returncode == 1
    assert f"error: {corpus}: the corpus has no sentences" in r.stderr


def test_perplexity_with_no_sentence_in_the_language_is_a_mismatch(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("yes yes\n", encoding="utf-8")
    r = run("perplexity", asset("intj.gram"), corpus)
    assert r.returncode == 2
    assert "all 1 sentence(s) fell outside the language" in r.stderr


# ---- variant ----


def test_variant_unlink_matches_library():
    r = run("variant", asset("rel_linked.gram"), "--unlink", "np_rel:num,kind", "--features", "all")
    assert r.returncode == 0
    expected = print_grammar(unlink_features(grammar("rel_linked"), "np_rel", ["num", "kind"]))
    assert r.stdout == expected
    assert parse_grammar(r.stdout) == grammar("rel_unlinked")


def test_variant_wordplus_flattens_the_grammar():
    r = run("variant", asset("tiny_agreement.gram"), "--wordplus")
    assert r.returncode == 0
    flat = parse_grammar(r.stdout)
    assert [rule.id for rule in flat.rules] == ["wp_more", "wp_one"]
    assert {entry.surface[0] for entry in flat.lexicon} == {"the", "dog", "dogs", "bark", "barks"}


# ---- failure modes ----


def test_missing_file_is_a_usage_error():
    r = run("check", "no_such_file.gram", "--max-len", "3")
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_bad_grammar_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.gram"
    bad.write_text("start X\nrule broken X -> Y\n", encoding="utf-8")
    r = run("check", bad, "--max-len", "3")
    assert r.returncode == 1
    assert "error:" in r.stderr


@pytest.mark.parametrize(
    "text",
    [
        's -> a ;\na -> "x" "y"\nb -> "z" ;\n',
        's -> "x" ;\na -> "y" ;\nb -> ' + "( " * 400 + '"x"' + " )" * 400 + " ;\n",
        's -> a ;\na -> "x"\n  b ;\n',
        's -> "x" ;\nt -> s ;\ns -> "y" ;\n',
    ],
)
def test_bad_cfg_names_its_line(tmp_path, text):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    r = run("stats", bad)
    assert r.returncode == 1
    assert r.stderr.startswith("error: line 3: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "constraint, line",
    [
        ("rule s: S -> N:[num={sg, zz}]\nlex \"n\": N:[num=sg]", 3),
        ("rule s: S -> N:[num={zz}]\nlex \"n\": N:[num=sg]", 3),
        ("rule s: S -> N\nlex \"n\": N:[num={pl, qq}]", 4),
    ],
    ids=["subset-in-rule", "subset-of-one", "subset-in-lexicon"],
)
@pytest.mark.parametrize("command", ["compile", "variant"])
def test_unknown_subset_value_names_its_line(tmp_path, command, constraint, line):
    bad = tmp_path / "bad.gram"
    bad.write_text(f"feature num syn {{sg, pl}}\nstart S\n{constraint}\n", encoding="utf-8")
    args = ("--out", tmp_path / "out") if command == "compile" else ()
    r = run(command, bad, *args)
    assert r.returncode == 1
    assert f"line {line}: unknown-value: " in r.stderr
    assert r.stdout == ""


def test_unsupported_start_symbol_is_a_usage_error(tmp_path):
    bad = tmp_path / "unsupported.gram"
    bad.write_text(
        "feature f syn {a, b}\nstart S\nrule s: S -> A:[f=a]\nlex \"x\": A:[f=b]\n",
        encoding="utf-8",
    )
    r = run("compile", bad, "--out", tmp_path / "out")
    assert r.returncode == 1
    assert (
        "line 2: start symbol 'S' has no supported instantiations:"
        " none of its rules (s on line 3) derives a string"
    ) in r.stderr


# B -> B D writes the repetition ( d )* on b, and substituting b into
# A -> B leaves A -> A ( d )*, whose tail derives the empty string.
EMPTY_TAIL_GRAMMAR = """start S
rule r0: S -> B
rule r1: B -> A
rule r2: B -> B D
rule r3: A -> B
rule r4: A -> X
lex "x": X
lex "d": D
"""


def test_left_recursion_through_an_empty_tail_is_refused(tmp_path):
    """Elimination would write a -> x ( ( d )* )*, a repetition whose body
    admits the empty string, which has no graph."""
    path = tmp_path / "empty_tail.gram"
    path.write_text(EMPTY_TAIL_GRAMMAR, encoding="utf-8")
    for args in (
        ("compile", path, "--out", tmp_path / "out"),
        ("check", path, "--max-len", "4"),
        ("parse", path, "x d"),
    ):
        r = run(*args)
        assert r.returncode == 1, args
        assert "cyclic unit production at 'a'" in r.stderr, args


@pytest.mark.parametrize(
    "line",
    [
        "per_graph.np.bogus=3",
        "per_graph.np=3",
        "category.np=2",
        "category.np.median_nodes=2",
        "total_graphs=abc",
        "per_graph.np.nodes=2.5",
        "category.np.mean_nodes=many",
    ],
)
def test_diff_names_the_bad_line_of_a_metrics_file(tmp_path, line):
    good = tmp_path / "good.kv"
    good.write_text("total_graphs=1\nper_graph.np.nodes=2\nper_graph.np.transitions=3\n", encoding="utf-8")
    bad = tmp_path / "bad.kv"
    bad.write_text(good.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    r = run("diff", good, bad)
    assert r.returncode == 1
    assert "error: line 4: " in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--max-len", "-1"),
        ("enumerate", "--max-len", "-3"),
        ("check", "--max-len", "2", "--cap-strings", "-1"),
        ("stats", "--cap-tuples", "-1"),
        ("parse", "yes", "--derivations", "-1"),
    ],
)
def test_negative_numeric_option_is_a_usage_error(args):
    command, *rest = args
    r = run(command, asset("intj.gram"), *rest)
    assert r.returncode == 1
    assert f"argument {rest[-2]}: expected a non-negative integer, got '{rest[-1]}'" in r.stderr
    assert r.stdout == ""


def test_no_subcommand_is_a_usage_error():
    r = run()
    assert r.returncode == 1


def test_compile_caps_left_recursion_blowup(tmp_path):
    # A leftmost cycle A1 -> A6 -> A5 .. -> A1 with ten alternatives per
    # member: eliminating it substitutes about 10^6 alternatives.
    lines = ["start A1", "rule base: A1 -> B", 'lex "b": B']
    for j in range(10):
        lines.append(f'lex "t{j}": T{j}')
        for i in range(1, 7):
            lines.append(f"rule a{i}_{j}: A{i} -> A{6 if i == 1 else i - 1} T{j}")
    path = tmp_path / "cycle.gram"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    r = run("compile", path, "--out", tmp_path / "out", "--cap-tuples", "1000", timeout=60)
    assert r.returncode == 3
    assert "left-recursion alternatives exceeded the configured cap of 1000" in r.stderr
