"""In-memory spans around calls into the package, recorded from outside it.

During a traced pass the tracer replaces module attributes with timing
wrappers and puts the originals back afterwards; no package code changes.
``select`` looks up ``candidates.generate_candidates`` at call time and
calls ``cover`` through ``mdl.cover``, and the DFS calls
``candidates.find_no_occurrences``, so wrapping those attributes also times
the inside of ``select``.  ``find_no_occurrences`` runs once per lattice
node, so it is counted rather than spanned to keep the overhead small.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# (module, attribute) pairs wrapped in a span named "<defining module>.<name>".
SPANNED = (
    ("events", "load_events"),
    ("events", "dump_events"),
    ("candidates", "generate_candidates"),
    ("mdl", "cover"),
    ("mdl", "select"),
    ("mdl", "encode"),
    ("mdl", "save_table"),
    ("mdl", "load_table"),
    ("mdl", "decode"),
    ("textpipe", "corpus_to_events"),
    ("textpipe", "build_dictionary_I"),
    ("textpipe", "build_dictionary_II"),
    ("textpipe", "compute_idf"),
    ("textpipe", "tfidf"),
    ("textpipe", "train_nb"),
    ("textpipe", "predict"),
    ("textpipe", "evaluate"),
    ("hmm", "simulate"),
    ("hmm", "joint_log_likelihood"),
    ("hmm", "viterbi"),
    ("hmm", "trajectory_stats"),
)
COUNTED = (("candidates", "find_no_occurrences", "candidates.node_evals"),)

# Span names whose summed duration per pass is a per-layer metric "<name>_s".
TIMED_LAYERS = (
    "events.load_events",
    "events.dump_events",
    "candidates.generate_candidates",
    "occurrences.cover",
    "mdl.select",
    "mdl.encode",
    "mdl.save_table",
    "mdl.load_table",
    "mdl.decode",
    "textpipe.corpus_to_events",
    "textpipe.tfidf",
    "textpipe.train_nb",
    "textpipe.predict",
    "hmm.viterbi",
    "hmm.joint_log_likelihood",
    "hmm.trajectory_stats",
)


def _on_candidates(counts: Counter, result: Any) -> None:
    counts["candidates.emitted"] += len(result)
    counts["mdl.positive_candidates"] += sum(1 for cand in result if cand.score > 0)


def _on_select(counts: Counter, result: Any) -> None:
    counts["mdl.rounds"] += result.n_rounds
    counts["mdl.picks"] += len(result.selected)


# Counters read off a wrapped call's result.
_RESULT_HOOKS = {
    "candidates.generate_candidates": _on_candidates,
    "mdl.select": _on_select,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent) and event counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0.0, 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _spanned(self, fn: Callable) -> Callable:
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Swap the wrapped attributes in; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr in SPANNED:
                module = importlib.import_module(f"episodeseq.{module_name}")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._spanned(getattr(module, attr)))
            for module_name, attr, counter in COUNTED:
                module = importlib.import_module(f"episodeseq.{module_name}")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counted(getattr(module, attr), counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def records(self, origin: float) -> list[dict]:
        """Spans as JSON-ready records, times in seconds from ``origin``."""
        return [
            {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "self": own,
            }
            for span, own in zip(self.spans, self.self_times())
        ]


def pass_layers(tracer: Tracer, root: int, counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``root`` is the index of the pass's root span and ``counts`` the
    counters the pass added.  Spans of the pass follow the root in order.
    """
    spans = tracer.spans[root:]
    own = tracer.self_times()[root:]
    totals: Counter = Counter()
    select_self = 0.0
    top_level = 0.0
    for span, span_own in zip(spans, own):
        totals[span.name] += span.duration
        totals[span.name + ".calls"] += 1
        if span.name == "mdl.select":
            select_self += span_own
        if span.parent == root:
            top_level += span.duration
    layers = {f"{name}_s": float(totals[name]) for name in TIMED_LAYERS}
    node_evals = counts["candidates.node_evals"]
    emitted = counts["candidates.emitted"]
    positive = counts["mdl.positive_candidates"]
    layers.update(
        {
            "candidates.calls": totals["candidates.generate_candidates.calls"],
            "candidates.emitted": emitted,
            "candidates.node_evals": node_evals,
            "candidates.emitted_per_node_eval": emitted / node_evals if node_evals else 0.0,
            "occurrences.cover_calls": totals["occurrences.cover.calls"],
            "mdl.select_self_s": select_self,
            "mdl.rounds": counts["mdl.rounds"],
            "mdl.picks": counts["mdl.picks"],
            "mdl.positive_candidates": positive,
            "mdl.pick_yield": counts["mdl.picks"] / positive if positive else 0.0,
            "trace.top_level_share": top_level / spans[0].duration,
        }
    )
    return layers
