"""Seeded inputs for the benchmark workloads.

Everything here reads only the public data of a compiled model
(``PfsgSet.top``/``graphs``, ``Pfsg.start``/``end``/``transitions`` and the
``Transition`` fields), so the program under test receives nothing but the
generated token lists.
"""

from __future__ import annotations

import math
import random

# Sentence lengths drawn per model on `score`. Random walks over the shuttle
# models give a median of 4-5 words and a tail to 20 whose parse cost is 100x
# that of a short sentence; a fixed length profile keeps the total cost of a
# round nearly equal across seeds while the sentences themselves change.
SCORE_LENGTHS = (1, 1, 3, 3, 4, 4, 4, 5, 5, 6, 7, 8, 9, 11, 14, 18) * 2

# `longparse` sentences: (shortest length, how many) per band, each length
# drawn from [low, low + LONG_JITTER). Parse cost grows with about the cube
# of the length, so the bands are narrow, and three sentences in each short
# band keep the median from resting on one timing. The last band lies where
# the word-plus model's float product underflows.
LONG_BANDS = ((40, 3), (70, 3), (100, 1), (148, 1))
LONG_JITTER = 2


def _outgoing(pfsgs) -> dict:
    table: dict[str, dict[int, list]] = {}
    for name, graph in pfsgs.graphs.items():
        by_node = table.setdefault(name, {})
        for t in graph.transitions:
            by_node.setdefault(t.src, []).append(t)
    return table


def random_walk(pfsgs, outgoing: dict, rng: random.Random, max_words: int):
    """One string sampled from the model's own distribution.

    ``outgoing`` maps graph name and node to the node's transitions.
    Returns ``(tokens, log2 of the walked path's probability)``, or ``None``
    when the walk grows past ``max_words``. At an end node the mass its
    outgoing loops leave unspent is the probability of stopping.
    """
    words: list[str] = []
    log2p = 0.0
    stack = [[pfsgs.top, pfsgs.graphs[pfsgs.top].start]]
    while stack:
        frame = stack[-1]
        graph = pfsgs.graphs[frame[0]]
        choices = outgoing[frame[0]].get(frame[1], [])
        r = rng.random()
        if frame[1] == graph.end:
            stop = 1.0 - sum(t.prob for t in choices)
            if r < stop:
                log2p += math.log2(stop)
                stack.pop()
                continue
            r -= stop
        chosen = choices[-1]
        for t in choices:
            if r < t.prob:
                chosen = t
                break
            r -= t.prob
        log2p += math.log2(chosen.prob)
        frame[1] = chosen.dst
        if chosen.is_ref:
            stack.append([chosen.label, pfsgs.graphs[chosen.label].start])
        else:
            words.append(chosen.label)
        # Every graph consumes at least one word, so a deep stack means a long string.
        if len(words) > max_words or len(stack) > 2 * max_words + 2:
            return None
    return words, log2p


def sample_profile(pfsgs, rng: random.Random, lengths=SCORE_LENGTHS, max_walks: int = 200_000):
    """Random walks kept until one sentence of each length in ``lengths`` is held."""
    outgoing = _outgoing(pfsgs)
    wanted: dict[int, int] = {}
    for n in lengths:
        wanted[n] = wanted.get(n, 0) + 1
    kept: list[tuple[list[str], float]] = []
    for _ in range(max_walks):
        if not wanted:
            break
        got = random_walk(pfsgs, outgoing, rng, max(lengths))
        if got is None or not wanted.get(len(got[0])):
            continue
        wanted[len(got[0])] -= 1
        if not wanted[len(got[0])]:
            del wanted[len(got[0])]
        kept.append(got)
    if wanted:
        raise RuntimeError(f"no walk of length(s) {sorted(wanted)} in {max_walks} tries")
    kept.sort(key=lambda item: len(item[0]))
    return kept


def perturb(tokens: list[str], kind: str, vocab: list[str], rng: random.Random) -> list[str]:
    """One-token edit: ``substitute``, ``insert`` or ``delete``."""
    out = list(tokens)
    if kind == "delete" and len(out) > 1:
        del out[rng.randrange(len(out))]
    elif kind == "insert":
        out.insert(rng.randrange(len(out) + 1), rng.choice(vocab))
    else:
        pos = rng.randrange(len(out))
        out[pos] = rng.choice([w for w in vocab if w != out[pos]])
    return out


def negatives(positives, vocab: list[str], rng: random.Random, rejects, tries: int = 200):
    """A one-token perturbation of each positive that ``rejects`` confirms is
    out of the language; the edit kind cycles substitute, insert, delete."""
    kinds = ("substitute", "insert", "delete")
    out = []
    for i, tokens in enumerate(positives):
        for attempt in range(tries):
            candidate = perturb(tokens, kinds[(i + attempt) % 3], vocab, rng)
            if rejects(candidate):
                out.append(candidate)
                break
        else:
            raise RuntimeError(f"no rejected perturbation of {' '.join(tokens)!r}")
    return out


def long_sentences(vocab: list[str], rng: random.Random):
    """The sentences LONG_BANDS asks for, words uniform over ``vocab``,
    taken from the bands in turn so that a band's sentences are spread
    over the round."""
    out = []
    for turn in range(max(count for _, count in LONG_BANDS)):
        for low, count in LONG_BANDS:
            if turn < count:
                out.append([rng.choice(vocab) for _ in range(low + rng.randrange(LONG_JITTER))])
    return out
