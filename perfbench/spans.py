"""In-memory spans around the calls into gramlm's public functions.

:meth:`Tracer.install` replaces each traced function on its defining module
with a wrapper, so calls the package makes to it internally (for example
``compile_grammar`` calling ``compute_instantiations``) are recorded too.
The benchmark calls every function through its module at call time, so it
picks the wrappers up; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import collections
import json
import time
from pathlib import Path

ORACLE_LENGTHS = range(1, 8)


def _oracle_counts(args, kwargs, strings, add) -> None:
    add("oracle.enumerate_strings", len(strings))
    per_length = collections.Counter(len(s) for s in strings)
    for length in ORACLE_LENGTHS:
        add(f"oracle.strings_len_{length}", per_length[length])


def _instantiate_counts(args, kwargs, inst, add) -> None:
    add("compiler.supported_vectors", sum(len(v) for v in inst.supported.values()))
    add("compiler.retained_tuples", sum(len(s.tuples) for s in inst.per_rule.values()))


def _parse_counts(args, kwargs, result, add) -> None:
    add("pfsg.cfg_parse_words", len(args[1]))
    add("pfsg.cfg_parse_calls", 1)
    add("pfsg.cfg_parse_accepted", int(result.accepted))


def _measure_counts(args, kwargs, report, add) -> None:
    add("pfsg.graphs", report.total_graphs)
    add("pfsg.nodes", report.total_nodes)
    add("pfsg.transitions", report.total_transitions)


# (module, function, time metric, count hook or None). Functions a module
# does not define are skipped, so the table can outlive a renamed stage.
TRACED = (
    ("grammar", "parse_grammar_file", "grammar.parse_s", None),
    ("grammar", "parse_grammar", "grammar.parse_s", None),
    ("compiler", "compile_grammar", "compiler.compile_self_s", None),
    ("compiler", "strip_features", "compiler.strip_s", None),
    ("compiler", "compute_instantiations", "compiler.instantiate_s", _instantiate_counts),
    ("compiler", "merge_all", "compiler.merge_s",
     lambda a, k, merged, add: add("compiler.merged_instances", sum(len(v) for v in merged.values()))),
    ("compiler", "merge_ranges", "compiler.merge_s", None),
    ("compiler", "emit_cfg", "compiler.emit_s",
     lambda a, k, cfg, add: add("compiler.nonterminals_raw", len(cfg.productions))),
    ("compiler", "eliminate_left_recursion", "compiler.eliminate_s",
     lambda a, k, cfg, add: add("compiler.nonterminals", len(cfg.productions))),
    ("compiler", "expansion_stats", "compiler.stats_s",
     lambda a, k, stats, add: add("compiler.naive_instances", stats.naive_count)),
    ("cfg", "cfg_to_text", "cfg.to_text_s",
     lambda a, k, text, add: add("cfg.bytes", len(text.encode("utf-8")))),
    ("cfg", "cfg_from_text", "cfg.from_text_s", None),
    ("pfsg", "build_pfsg", "pfsg.build_s", None),
    ("pfsg", "measure", "pfsg.measure_s", _measure_counts),
    ("pfsg", "pfsg_to_text", "pfsg.to_text_s", None),
    ("pfsg", "cfg_enumerate", "pfsg.cfg_enumerate_s",
     lambda a, k, strings, add: add("pfsg.cfg_enumerate_strings", len(strings))),
    ("pfsg", "cfg_parse", "pfsg.cfg_parse_s", _parse_counts),
    ("oracle", "oracle_enumerate", "oracle.enumerate_s", _oracle_counts),
    ("oracle", "oracle_parse", "oracle.parse_s", None),
    ("analysis", "unlink_features", "analysis.variant_s", None),
    ("analysis", "k_words_per_category", "analysis.variant_s", None),
    ("analysis", "wordplus_grammar", "analysis.variant_s", None),
    ("analysis", "compare", "analysis.compare_s", None),
    ("analysis", "diff_to_table", "analysis.compare_s", None),
)


class Tracer:
    """Records one span per traced call: name, start, end, parent, and the
    benchmark phase (setup, op or verify) and operation that caused it; plus
    counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.phase = "setup"
        self.op = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, func, metric: str, hook):
        def traced(*args, **kwargs):
            span = {
                "name": f"{func.__module__}.{func.__name__}",
                "metric": metric,
                "phase": self.phase,
                "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(args, kwargs, result, self.add)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, func_name, metric, hook in TRACED:
            module = modules[module_name]
            func = getattr(module, func_name, None)
            if func is None:
                continue
            self._saved.append((module, func_name, func))
            setattr(module, func_name, self._wrap(func, metric, hook))

    def uninstall(self) -> None:
        for module, func_name, func in reversed(self._saved):
            setattr(module, func_name, func)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Per metric: span durations minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            own = span["end"] - span["start"] - children
            totals[span["metric"]] = totals.get(span["metric"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
