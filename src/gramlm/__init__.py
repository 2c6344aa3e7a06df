"""Feature grammars compiled into context-free, finite-state language models.

The pipeline: parse a feature grammar (:mod:`gramlm.grammar`), instantiate
and merge its feature combinations (:mod:`gramlm.compiler`), emit a plain
context-free grammar (:mod:`gramlm.cfg`), and build probabilistic
finite-state graphs from it (:mod:`gramlm.pfsg`). :mod:`gramlm.oracle`
parses and enumerates directly from the feature grammar so every stage can
be checked against it, and :mod:`gramlm.analysis` builds grammar variants
and compares model sizes.
"""

from .analysis import (
    DiffReport,
    compare,
    diff_to_table,
    k_words_per_category,
    linked_features,
    unlink_features,
    wordplus_grammar,
)
from .cfg import Alt, ContextFreeGrammar, Ref, Seq, Star, Term, cfg_from_text, cfg_to_text
from .compiler import (
    CompileResult,
    ExpansionStats,
    compile_grammar,
    compute_instantiations,
    eliminate_left_recursion,
    emit_cfg,
    expansion_stats,
    merge_all,
    strip_features,
)
from .errors import (
    CompileError,
    DslSyntaxError,
    GramlmError,
    ResourceCapError,
    UndefinedPerplexityError,
    UnknownTokenError,
    ValidationError,
)
from .grammar import (
    Atom,
    Category,
    FeatureDecl,
    Grammar,
    LexEntry,
    Rule,
    Subset,
    Var,
    parse_grammar,
    parse_grammar_file,
    print_grammar,
    surface_tokens,
    validate,
)
from .oracle import ParseResult, oracle_enumerate, oracle_parse
from .pfsg import (
    CfgParseResult,
    MetricsReport,
    PerplexityReport,
    Pfsg,
    PfsgSet,
    build_pfsg,
    cfg_enumerate,
    cfg_parse,
    measure,
    metrics_from_kv,
    metrics_to_kv,
    metrics_to_table,
    perplexity,
    pfsg_enumerate,
    pfsg_to_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
