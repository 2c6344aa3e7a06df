"""Command-line driver.

Exit codes are uniform across subcommands:

* 0 — success (parse accepted, enumerations equivalent, ...)
* 1 — usage or input problems: bad flags, unreadable files, grammar
  errors, unknown tokens, a corpus file with no sentences
* 2 — a semantic mismatch: a rejected sentence, differing languages in
  ``check``, or a corpus with no in-language sentence
* 3 — a configured resource cap was exceeded
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence, Union

from .analysis import compare, diff_to_table, k_words_per_category, unlink_features, wordplus_grammar
from .cfg import cfg_from_text, cfg_to_text
from .compiler import CompileResult, compile_grammar, strip_features
from .errors import CAP_STRINGS, CAP_TUPLES, GramlmError, ResourceCapError, UndefinedPerplexityError
from .grammar import Grammar, parse_grammar_file, print_grammar, surface_tokens
from .oracle import oracle_enumerate, oracle_parse
from .pfsg import (
    build_pfsg,
    cfg_enumerate,
    cfg_parse,
    measure,
    metrics_from_kv,
    metrics_to_kv,
    metrics_to_table,
    perplexity,
    pfsg_to_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

ARTIFACTS = ("grammar.cfg", "grammar.pfsg", "metrics.txt", "metrics.kv")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for
    semantic mismatches, so remap usage errors to 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_variant_options(p: argparse.ArgumentParser, features_default: str = "syn") -> None:
    p.add_argument(
        "--features",
        default=features_default,
        metavar="WHICH",
        help="'syn' (syntactic only), 'all', or a comma-separated list of "
        f"feature names to keep (default: {features_default})",
    )
    p.add_argument(
        "--unlink",
        action="append",
        default=[],
        metavar="RULE:F1,F2",
        help="drop the named features from one rule's constraints (repeatable)",
    )
    exclusive = p.add_mutually_exclusive_group()
    exclusive.add_argument(
        "--kwords",
        type=int,
        metavar="K",
        help="keep only the first K lexicon entries per distinct category",
    )
    exclusive.add_argument(
        "--wordplus",
        action="store_true",
        help="replace the grammar with a one-or-more-words model over its vocabulary",
    )


def _count(text: str) -> int:
    """The type of the numeric options: an integer, not negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_caps(p: argparse.ArgumentParser, strings: bool = False) -> None:
    p.add_argument(
        "--cap-tuples",
        type=_count,
        default=CAP_TUPLES,
        metavar="N",
        help="abort instantiation beyond N lexicon vectors, candidate tuples and "
        "derived vectors, counted together, and left-recursion elimination beyond "
        "N substituted alternatives, counted apart (default: %(default)s)",
    )
    if strings:
        p.add_argument(
            "--cap-strings",
            type=_count,
            default=CAP_STRINGS,
            metavar="N",
            help="abort enumeration beyond N stored strings (default: %(default)s)",
        )


def _keep_features(value: str) -> Union[str, tuple[str, ...]]:
    if value == "syn":
        return "syntactic"
    if value == "all":
        return "all"
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    if not names:
        raise GramlmError(f"bad --features value {value!r}")
    return names


def _compile(args: argparse.Namespace, grammar: Grammar) -> CompileResult:
    """Compile with the --features and --cap-tuples options."""
    return compile_grammar(grammar, features=_keep_features(args.features), cap_tuples=args.cap_tuples)


def _variant_requested(args: argparse.Namespace) -> bool:
    return bool(args.unlink) or args.kwords is not None or args.wordplus


def _load_variant(args: argparse.Namespace) -> Grammar:
    """Parse the grammar file and apply the requested transformations."""
    grammar = parse_grammar_file(args.grammar)
    for spec in args.unlink:
        rule_id, _, feats = spec.partition(":")
        names = [f.strip() for f in feats.split(",") if f.strip()]
        if not rule_id or not names:
            raise GramlmError(f"bad --unlink value {spec!r}; expected RULE:F1,F2")
        grammar = unlink_features(grammar, rule_id, names)
    if args.kwords is not None:
        grammar = k_words_per_category(grammar, args.kwords)
    if args.wordplus:
        grammar = wordplus_grammar(sorted(surface_tokens(grammar)))
    return grammar


def _stats_line(stats) -> str:
    reduction = f"{stats.reduction_text()}x" if stats.emitted_rules else "n/a"
    return (
        f"rule instances: naive={stats.naive_count}"
        f" emitted={stats.emitted_rules} reduction={reduction}"
    )


def _read_corpus(path: Path) -> list[list[str]]:
    sentences = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            sentences.append(line.split())
    return sentences


def _cmd_compile(args: argparse.Namespace) -> int:
    result = _compile(args, _load_variant(args))
    pfsgs = build_pfsg(result.cfg)
    report = measure(pfsgs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    contents = {
        "grammar.cfg": cfg_to_text(result.cfg),
        "grammar.pfsg": pfsg_to_text(pfsgs),
        "metrics.txt": metrics_to_table(report),
        "metrics.kv": metrics_to_kv(report),
    }
    for name in ARTIFACTS:
        (out / name).write_text(contents[name], encoding="utf-8")
    print(_stats_line(result.stats))
    print(
        f"graphs={report.total_graphs} nodes={report.total_nodes}"
        f" transitions={report.total_transitions}"
        f" max_transitions={report.max_transitions_per_graph}"
    )
    for name in ARTIFACTS:
        print(f"wrote {out / name}")
    return EXIT_OK


def _by_length(string: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """Sort key: shortest first, then lexicographic."""
    return (len(string), string)


def _cmd_check(args: argparse.Namespace) -> int:
    grammar = _load_variant(args)
    if args.against:
        grammar = strip_features(grammar, _keep_features(args.features))
        cfg = cfg_from_text(Path(args.against).read_text(encoding="utf-8"))
    else:
        result = _compile(args, grammar)
        grammar, cfg = result.grammar, result.cfg
    want = oracle_enumerate(grammar, args.max_len, cap=args.cap_strings)
    got = cfg_enumerate(cfg, args.max_len, cap=args.cap_strings)
    if want == got:
        print(f"EQUIVALENT up to length {args.max_len} ({len(want)} strings)")
        return EXIT_OK
    print(f"first difference at length {min(len(s) for s in want ^ got)}")
    for label, strings in (
        ("missing from compiled model", sorted(want - got, key=_by_length)),
        ("extra in compiled model", sorted(got - want, key=_by_length)),
    ):
        if strings:
            print(f"{label} ({len(strings)}):")
            for s in strings[:10]:
                print("  " + " ".join(s))
            if len(strings) > 10:
                print(f"  ... and {len(strings) - 10} more")
    return EXIT_MISMATCH


def _cmd_stats(args: argparse.Namespace) -> int:
    path = Path(args.grammar)
    if path.suffix == ".cfg":
        if _variant_requested(args):
            raise GramlmError("variant options apply to grammar files, not compiled .cfg files")
        cfg = cfg_from_text(path.read_text(encoding="utf-8"))
        sys.stdout.write(metrics_to_table(measure(build_pfsg(cfg))))
        return EXIT_OK
    result = _compile(args, _load_variant(args))
    print(_stats_line(result.stats))
    print()
    sys.stdout.write(metrics_to_table(measure(build_pfsg(result.cfg))))
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    left = metrics_from_kv(Path(args.left).read_text(encoding="utf-8"))
    right = metrics_from_kv(Path(args.right).read_text(encoding="utf-8"))
    sys.stdout.write(diff_to_table(compare(left, right)))
    return EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    result = _compile(args, _load_variant(args))
    tokens = args.sentence.split()
    if not tokens:
        raise GramlmError("empty sentence")
    oracle = oracle_parse(result.grammar, tokens, max_derivations=args.derivations)
    model = cfg_parse(result.cfg, tokens)
    if oracle.accepted:
        print(f"grammar: ACCEPT derivations={oracle.derivation_count}")
        for tree in oracle.derivations:
            print("  " + tree)
    else:
        print("grammar: REJECT")
    if model.accepted:
        print(
            f"model: ACCEPT derivations={model.derivation_count}"
            f" log2_prob={model.log2_prob:.6f}"
        )
    else:
        print("model: REJECT")
    return EXIT_OK if oracle.accepted and model.accepted else EXIT_MISMATCH


def _cmd_enumerate(args: argparse.Namespace) -> int:
    grammar = _load_variant(args)
    keep = _keep_features(args.features)
    if args.oracle:
        strings = oracle_enumerate(strip_features(grammar, keep), args.max_len, cap=args.cap_strings)
    else:
        cfg = _compile(args, grammar).cfg
        strings = cfg_enumerate(cfg, args.max_len, cap=args.cap_strings)
    for s in sorted(strings, key=_by_length):
        print(" ".join(s))
    print(f"# {len(strings)} strings up to length {args.max_len}", file=sys.stderr)
    return EXIT_OK


def _cmd_perplexity(args: argparse.Namespace) -> int:
    corpus = _read_corpus(Path(args.corpus))
    if not corpus:
        raise GramlmError(f"{args.corpus}: the corpus has no sentences")
    result = _compile(args, _load_variant(args))
    try:
        report = perplexity(result.cfg, corpus)
    except UndefinedPerplexityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"sentences={report.sentences} included={report.included} words={report.words}")
    for s in report.excluded:
        print("excluded: " + " ".join(s))
    print(f"perplexity={report.value:.6f}")
    return EXIT_OK


def _cmd_variant(args: argparse.Namespace) -> int:
    grammar = strip_features(_load_variant(args), _keep_features(args.features))
    sys.stdout.write(print_grammar(grammar))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="gramlm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a grammar and write model artifacts")
    p.add_argument("grammar", help="grammar file")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    _add_variant_options(p)
    _add_caps(p)
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("check", help="compare the compiled model's language against the grammar's")
    p.add_argument("grammar", help="grammar file")
    p.add_argument("--max-len", type=_count, required=True, metavar="L", help="compare strings up to this length")
    p.add_argument("--against", metavar="CFGFILE", help="check this compiled model instead of recompiling")
    _add_variant_options(p)
    _add_caps(p, strings=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("stats", help="print size statistics for a grammar or a compiled .cfg")
    p.add_argument("grammar", help="grammar file, or a compiled .cfg file")
    _add_variant_options(p)
    _add_caps(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("diff", help="compare two metrics.kv files")
    p.add_argument("left", help="baseline metrics.kv")
    p.add_argument("right", help="comparison metrics.kv")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("parse", help="parse one sentence with both the grammar and the model")
    p.add_argument("grammar", help="grammar file")
    p.add_argument("sentence", help="space-separated tokens, quoted as one argument")
    p.add_argument("--derivations", type=_count, default=5, metavar="N", help="show at most N parse trees")
    _add_variant_options(p)
    _add_caps(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("enumerate", help="list every string the model accepts up to a length")
    p.add_argument("grammar", help="grammar file")
    p.add_argument("--max-len", type=_count, required=True, metavar="L")
    p.add_argument("--oracle", action="store_true", help="enumerate from the grammar instead of the compiled model")
    _add_variant_options(p)
    _add_caps(p, strings=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("perplexity", help="per-word perplexity of the model over a corpus file")
    p.add_argument("grammar", help="grammar file")
    p.add_argument("corpus", help="one sentence per line; blank lines and # comments ignored")
    _add_variant_options(p)
    _add_caps(p)
    p.set_defaults(handler=_cmd_perplexity)

    p = sub.add_parser("variant", help="apply grammar transformations and print the result")
    p.add_argument("grammar", help="grammar file")
    _add_variant_options(p, features_default="all")
    p.set_defaults(handler=_cmd_variant)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ResourceCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except (GramlmError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
