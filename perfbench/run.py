"""gramlm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload check --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run sets the workload up several times (each from a fresh import of
gramlm) and keeps the last set-up, then times rounds of the workload's
operations until ``--seconds`` of operation time have passed, at least one
round. Each operation's output is checked, untimed, against its reference.
The end-to-end times are rescaled to a reference speed of the host, sampled
while the run goes on (see ``speed.py``); the times as measured are printed
too.

With ``--trace 1`` the run times one untraced round, then installs spans
around gramlm's public functions, sets up and runs one round again, and
reports per-layer self times and counts instead of end-to-end metrics.
Spans are written to ``perfbench/out/``.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
operations with no answer or a wrong one; ``correct`` is false when some
operation returned a wrong answer. ``--workload all`` runs every workload
in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
MODULES = ("grammar", "compiler", "cfg", "pfsg", "oracle", "analysis")
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_api() -> SimpleNamespace:
    """Import gramlm from this checkout's ``src/``, afresh each call."""
    for name in [m for m in sys.modules if m == "gramlm" or m.startswith("gramlm.")]:
        del sys.modules[name]
    package = importlib.import_module("gramlm")
    if Path(package.__file__).resolve().parent != SOURCE / "gramlm":
        raise ImportError(f"gramlm imported from {package.__file__}, not {SOURCE}")
    modules = {name: importlib.import_module(f"gramlm.{name}") for name in MODULES}
    return SimpleNamespace(assets=SOURCE / "gramlm" / "assets", modules=modules, **modules)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_round(work, sampler=None, tracer=None):
    """Time each operation, then check it untimed. Returns one
    ``(label, start, seconds, status, transitions)`` per op, where
    ``seconds`` leaves out the time ``sampler``'s handler took inside it."""
    records = []
    for op in work.ops:
        # Each op starts with empty collector generations, so a collection
        # the previous op's garbage triggers does not land in this one.
        gc.collect()
        if tracer is not None:
            tracer.phase, tracer.op = "op", op.label
        spent = sampler.spent if sampler is not None else 0.0
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception:  # a cap hit or crash is this operation's failure, not the run's
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if sampler is not None:
            seconds -= sampler.spent - spent
        if tracer is not None:
            tracer.phase = "verify"
        if error is not None:
            print(f"FAILED {op.label}:\n{error}", file=sys.stderr)
            status, transitions = "failed", 0
        else:
            try:
                status, transitions = op.check(out)
            except Exception:  # output the reference cannot read is a wrong answer
                print(traceback.format_exc(limit=3), file=sys.stderr)
                status, transitions = "wrong", 0
            del out
            if status != "ok":
                print(f"{status.upper()} {op.label}", file=sys.stderr)
        records.append((op.label, start, seconds, status, transitions))
    return records


def tally(records) -> dict:
    failed = sum(1 for r in records if r[3] != "ok")
    return {
        "correct": not any(r[3] == "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
    }


def summary(records, ops_per_round: int, setups, sampler=None) -> dict:
    """Time metrics of a run, rescaled to the reference speed when
    ``sampler`` is given. Each distinct operation's latency is the median of
    its timings in the run."""
    def rescaled(start, seconds):
        return seconds * sampler.scale(start, start + seconds) if sampler is not None else seconds

    times = [rescaled(r[1], r[2]) for r in records]
    per_round = [sum(times[i : i + ops_per_round]) for i in range(0, len(times), ops_per_round)]
    by_label: dict[str, list[float]] = {}
    for record, seconds in zip(records, times):
        by_label.setdefault(record[0], []).append(seconds * 1000)
    op_ms = [statistics.median(timings) for timings in by_label.values()]
    return {
        "setup_s": statistics.median(rescaled(start, seconds) for start, seconds in setups),
        "wall_s": statistics.median(per_round),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
    }


def measure_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    make = workloads.WORKLOADS[name]
    setups, records = [], []
    rounds = 0
    with speed.Sampler() as sampler:
        # A quick set-up is repeated until it has taken a second, so its
        # median does not rest on three samples of a few tens of milliseconds.
        while len(setups) < SETUP_REPEATS or (sum(s[1] for s in setups) < 1.0 and len(setups) < 15):
            gc.collect()  # the previous set-up and its copy of gramlm
            spent = sampler.spent
            start = time.perf_counter()
            work = make(load_api(), seed)
            setups.append((start, time.perf_counter() - start - (sampler.spent - spent)))
        while not rounds or sum(r[2] for r in records) < seconds:
            records += run_round(work, sampler)
            rounds += 1
    result = tally(records)
    values = {
        **summary(records, len(work.ops), setups, sampler),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - result["failed"] / result["attempted"],
        # Each distinct model once: a toy grammar is compiled many times a round.
        "model_transitions": work.model_transitions + sum({r[0]: r[4] for r in records}.values()),
    }
    measured = summary(records, len(work.ops), setups)
    print(f"setup runs: {len(setups)}; rounds: {rounds} of {len(work.ops)} ops; {len(records)} ops timed; "
          f"{len(sampler.loops)} speed samples, median {statistics.median(sampler.loops) * 1000:.3f} ms")
    print("  as measured: " + " ".join(f"{key} {value:.6f}" for key, value in measured.items()))
    return result, {m["name"]: (values[m["name"]], m["unit"]) for m in BENCHMARK["end_to_end"]}


def measure_traced(name: str, seed: int) -> tuple[dict, dict]:
    make = workloads.WORKLOADS[name]
    api = load_api()
    plain_records = run_round(make(api, seed))
    tracer = spans.Tracer()
    tracer.install(api.modules)
    try:
        work = make(api, seed)
        traced_records = run_round(work, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"trace-{name}-seed{seed}.jsonl")
    values = {**tracer.self_times(), **tracer.counts}
    calls = values.pop("pfsg.cfg_parse_calls", 0)
    accepted = values.pop("pfsg.cfg_parse_accepted", 0)
    values["pfsg.cfg_parse_accept_share"] = accepted / calls if calls else 0.0
    plain_wall, traced_wall = (sum(r[2] for r in rs) for rs in (plain_records, traced_records))
    values["trace_overhead_s"] = traced_wall - plain_wall
    per_layer = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in BENCHMARK["per_layer"]}
    print(f"untraced round {plain_wall:.3f} s, traced round {traced_wall:.3f} s, "
          f"{len(tracer.spans)} spans")
    return tally(plain_records + traced_records), per_layer


def run_one(args) -> int:
    if not (SOURCE / "gramlm" / "__init__.py").is_file():
        print(f"error: no gramlm package under {SOURCE}; run from a gramlm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} commit={git_commit()}")
    if args.trace:
        result, metrics = measure_traced(args.workload, args.seed)
    else:
        result, metrics = measure_end_to_end(args.workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>16.6f} {unit}")
    print(f"  attempted={result['attempted']} failed={result['failed']}"
          f" fail_share={result['failed'] / result['attempted']:.6f} correct={result['correct']}")
    result["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
