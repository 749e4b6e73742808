"""Level-wise search of the fixed-interval episode lattice.

Every symbol present in the data roots one tree.  A node is extended by
appending a symbol not already in the episode, with any gap in [1, T_g];
each child's distinct-start list is the subset of the parent's starts whose
end offset hits an event of the new symbol.  Along every root-to-leaf path
the highest-scoring episode is emitted, so the candidate set holds one
"best" episode per path, deduplicated.

Extensions are cut once the mode frequency drops below 2.  Frequency only
shrinks along extensions, so the cut branches consist of episodes that
occur at most once; no user frequency threshold is involved.  (Episodes
with f <= 2 score at most -3 and are never selected, so keeping the f = 2
branches only widens the reported candidate set, never the selection.)

The trees are searched one depth at a time, as Mannila, Toivonen & Verkamo
count episodes level-wise (DMKD 1997), by numpy joins over whole depths.
The joins use distinct starts on one time axis (see ``_Axis``).  In
non-overlapped mode a node's frequency is the length of the greedy chain
of non-overlapped starts (Laxman, Sastry & Unnikrishnan, TKDE 2005).
Candidates are built only for emitted episodes, and their occurrence lists
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .events import EventDataset, FixedIntervalEpisode
from .mdl import row_gain
# find_no_occurrences stays bound here for bench/tracer.py (ROADMAP item 7).
from .occurrences import FrequencyMode, OccurrenceList, find_no_occurrences  # noqa: F401

_PRUNE_FREQUENCY = 1
_BLOCK = 1 << 13  # pairs joined at once, in blocks of whole nodes


@dataclass(frozen=True)
class Candidate:
    """An emitted episode with its frequency and score under the search's
    mode.  Its occurrence pairs are built when read: ``pair_at`` maps each
    of ``starts``, in order, to a ``(sequence, start time)`` pair."""

    episode: FixedIntervalEpisode
    frequency: int
    score: int
    starts: np.ndarray = field(repr=False, compare=False)
    pair_at: Mapping[int, tuple[int, int]] = field(repr=False, compare=False)

    @property
    def occurrences(self) -> OccurrenceList:
        """The counted occurrences, under the search's mode."""
        pairs = map(self.pair_at.__getitem__, self.starts.tolist())
        return OccurrenceList(self.episode, tuple(pairs))

    @property
    def key(self) -> str:
        return str(self.episode)


class _Axis:
    """All sequences on one time axis, with one slot per distinct event.

    The sequences are laid end to end.  A step between consecutive distinct
    times keeps its length, but a step longer than ``max_gap``, and the step
    into the next sequence, become ``max_gap + 1``.  A join looks at most
    ``max_gap`` past an occurrence's end, and the non-overlap test compares
    a start with an earlier occurrence's end, an event time; so neither
    crosses such a step, and one sorted array holds an episode's starts in
    every sequence.  The rule also holds for any subset of the events, so
    one axis serves every residual round of a selection.  The axis stays
    small however large the raw times are.

    A slot is one distinct (sequence, time, type), keyed for ``searchsorted``
    in (axis time, type id) order.  It records its first event's sequence
    and position, and its multiplicity: that event and the copies after it.
    """

    def __init__(self, data: EventDataset, max_gap: int):
        # No gap outgrows the longest sequence; a shorter max_gap keeps the axis short.
        longest = max((seq[-1].time - seq[0].time for seq in data.sequences if seq), default=0)
        self.max_gap = max_gap = min(max_gap, max(longest, 1))
        self.alphabet = data.alphabet
        # axis time -> (sequence index, time in that sequence)
        self.pair_at: dict[int, tuple[int, int]] = {}
        times: list[int] = []  # per slot, in time order
        types: list[int] = []
        first: list[int] = []  # the slot's first event, indexed among all events
        ends = np.cumsum([len(seq) for seq in data.sequences], dtype=np.int64)
        g = -max_gap - 1
        for seq_idx, seq in enumerate(data.sequences):
            prev = None
            for k, ev in enumerate(seq, int(ends[seq_idx]) - len(seq)):
                if ev.time != prev:
                    g += max_gap + 1 if prev is None else min(ev.time - prev, max_gap + 1)
                    prev = ev.time
                    self.pair_at[g] = (seq_idx, prev)
                elif ev.event_type == types[-1]:
                    continue  # events sharing (time, type) are adjacent
                times.append(g)
                types.append(ev.event_type)
                first.append(k)
        # Small int types keep a depth's arrays small.
        self.time_type = np.int32 if g + 2 * max_gap < 2**31 else np.int64
        self.sym_type = np.min_scalar_type(data.alphabet.size)
        self.gap_type = np.min_scalar_type(max_gap)
        self.n_types = data.alphabet.size
        self.length = g + max_gap + 2  # the time lookup runs to max_gap past the last time
        key = np.array(times, np.int64) * self.n_types + types
        order = np.argsort(key, kind="stable")  # the identity when type ids follow name order
        first = np.array(first, np.int64)
        seq = np.searchsorted(ends, first, side="right")
        self.key, self.seq = key[order], seq[order]
        self.pos = (first - np.append(0, ends)[seq])[order]
        self.mult = np.diff(first, append=ends[-1:])[order]  # up to the next slot's first event
        self.times = (self.key // self.n_types).astype(self.time_type)
        self.types = (self.key % self.n_types).astype(self.sym_type)

    def cover(self, cand: Candidate) -> np.ndarray:
        """Slot indices of the events that ``cand``'s occurrences code.  Distinct
        starts of an injective episode share no event, so no slot repeats."""
        at = cand.starts.astype(np.int64)[:, None] + cand.episode.offsets()
        ids = list(map(self.alphabet.index, cand.episode.event_types))
        return np.searchsorted(self.key, (at * self.n_types + ids).ravel())


@dataclass
class _Depth:
    """The nodes of one depth as parallel arrays, with their starts."""

    ids: np.ndarray  # (n, depth) symbol ids
    gaps: np.ndarray  # (n, depth - 1)
    span: np.ndarray
    f: np.ndarray  # mode frequency
    best_score: np.ndarray  # score of the path's best node
    best_ref: np.ndarray  # that node's index among the kept ones; -1: this node
    ptr: np.ndarray | None  # node k's distinct starts are start[ptr[k] : ptr[k + 1]]
    start: np.ndarray | None


def generate_candidates(
    data: EventDataset,
    max_gap: int,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> tuple[Candidate, ...]:
    """Search the episode lattice and return the per-path best episodes.

    Along a path the best episode has the highest score, and ties go to the
    longer episode.  Candidates are deduplicated and come in canonical
    (episode string) order.
    """
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    axis = _Axis(data, max_gap)
    return tuple(_search(axis, slice(None), mode is FrequencyMode.NON_OVERLAPPED, False))


def _search(axis: _Axis, left, no_mode: bool, positive: bool) -> list[Candidate]:
    """The per-path best episodes over the slots ``left`` selects, in
    canonical order; only those with a positive score when ``positive``."""
    times, types = axis.times[left], axis.types[left]
    # CSR: the events at axis time t are [indptr[t], indptr[t + 1]).
    indptr = np.zeros(axis.length + 1, axis.time_type)
    np.cumsum(np.bincount(times, minlength=axis.length), out=indptr[1:])
    counts = np.bincount(types, minlength=axis.n_types)
    roots = np.flatnonzero(counts)
    f = counts[roots]
    depth: _Depth | None = _Depth(
        roots[:, None].astype(axis.sym_type),
        np.empty((len(roots), 0), axis.gap_type),
        np.zeros(len(roots), axis.time_type),
        f,
        row_gain(1, f),
        np.full(len(roots), -1, np.int32),
        np.append(0, np.cumsum(f)),
        times[np.argsort(types, kind="stable")],
    )
    # Per depth, the nodes that are their own path best: (ids, gaps, f, and
    # the sizes and list of their starts).  Path-best refs number them across depths.
    kept: list[tuple[np.ndarray, ...]] = []
    n_kept = 0
    leaf_refs = []
    while depth is not None:
        own = depth.best_ref < 0
        depth.best_ref[own] = np.arange(n_kept, n_kept + own.sum())
        n_kept += own.sum()
        size = np.diff(depth.ptr)
        starts = depth.start[np.repeat(own, size)]
        kept.append((depth.ids[own], depth.gaps[own], depth.f[own], size[own], starts))
        del own, size, starts
        depth, refs = _extend(depth, axis, (times, types, indptr), no_mode)
        leaf_refs.append(refs)
    emitted = np.zeros(n_kept, bool)
    emitted[np.concatenate(leaf_refs)] = True

    name = axis.alphabet.name
    candidates = []
    base = 0
    for ids, gaps, f, size, starts in kept:
        score = row_gain(ids.shape[1], f.astype(np.int64))
        out = emitted[base : base + len(ids)] & (score > 0 if positive else True)
        base += len(ids)
        starts = starts[np.repeat(out, size)]
        if no_mode:
            spans = gaps[out].sum(axis=1, dtype=np.int64)
            starts = starts[_chain_members(starts, size[out], spans)]
        f, score = f[out].tolist(), score[out].tolist()
        parts = np.split(starts, np.cumsum(f)[:-1])
        for row, gap_row, *rest in zip(ids[out].tolist(), gaps[out].tolist(), f, score, parts):
            episode = FixedIntervalEpisode(tuple(map(name, row)), tuple(gap_row))
            candidates.append(Candidate(episode, *rest, axis.pair_at))
    candidates.sort(key=lambda cand: cand.key)
    return candidates


def _extend(depth: _Depth, axis: _Axis, events: tuple, no_mode: bool):
    """The next depth (None past the last one), and the path-best refs of
    the nodes that have no child.  Drops ``depth``'s starts once joined."""
    n = len(depth.f)
    live = np.flatnonzero(depth.f > _PRUNE_FREQUENCY)
    if not len(live):
        return None, depth.best_ref
    # Blocks of whole nodes, each starting at a live node every _BLOCK starts.
    cuts = live[np.flatnonzero(np.diff(depth.ptr[live] // _BLOCK, prepend=-1))]
    cuts = np.append(cuts, n).tolist()
    parts = [_join(depth, axis, events, no_mode, a, z) for a, z in zip(cuts, cuts[1:])]
    depth.ptr = depth.start = None
    parent, sym, delta, f, size, start = map(np.concatenate, zip(*parts))
    del parts, live
    has_child = np.zeros(n, bool)
    has_child[parent] = True
    child_score = row_gain(depth.ids.shape[1] + 1, f.astype(np.int64))
    take = child_score >= depth.best_score[parent]
    child = _Depth(
        np.hstack((depth.ids[parent], sym[:, None])),
        np.hstack((depth.gaps[parent], delta[:, None])),
        depth.span[parent] + delta,
        f,
        np.where(take, child_score, depth.best_score[parent]),
        np.where(take, -1, depth.best_ref[parent]),
        np.append(0, np.cumsum(size)),
        start,
    )
    return child, depth.best_ref[~has_child]


def _join(depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, a: int, z: int):
    """The children of nodes a..z-1: their parents, symbols, last gaps,
    frequencies, and the number and the list of their distinct starts."""
    times, types, indptr = events
    max_gap = axis.max_gap
    node = np.repeat(np.arange(a, z, dtype=np.int32), np.diff(depth.ptr[a : z + 1]))
    start = depth.start[depth.ptr[a] : depth.ptr[z]]
    live = depth.f[node] > _PRUNE_FREQUENCY
    node, start = node[live], start[live]
    end = start + depth.span[node]
    lo = indptr[end + 1]
    count = indptr[end + max_gap + 1] - lo
    # One row per start and event at most max_gap past the occurrence's end,
    # grouped by (node, gap, symbol) with the starts in order.
    m = axis.n_types
    total = int(count.sum())
    pos = np.repeat(np.arange(len(node), dtype=np.int32), count)
    ev = np.arange(total) + np.repeat(lo - (np.cumsum(count) - count), count)
    delta = times[ev] - end[pos]
    key = ((node[pos] - node[:1]).astype(np.int64) * max_gap + (delta - 1)) * m + types[ev]
    del ev, delta, lo, end
    order = np.argsort(key, kind="stable")
    key, pos = key[order], pos[order]
    del order
    head = np.empty(total, bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    size = np.diff(heads, append=total)
    g_node = node[pos[heads]]
    g_sym = (key[heads] % m).astype(axis.sym_type)
    g_delta = (key[heads] // m % max_gap + 1).astype(axis.gap_type)
    del key
    # Keep the groups of 2+ starts whose symbol is new to the node, then,
    # in non-overlapped mode, those with a chain of 2+.
    ok = (size > _PRUNE_FREQUENCY) & ~(depth.ids[g_node] == g_sym[:, None]).any(axis=1)
    group = np.cumsum(head, dtype=np.int32) - 1
    keep = ok[group]
    starts = start[pos[keep]]
    g_node, g_sym, g_delta, size = g_node[ok], g_sym[ok], g_delta[ok], size[ok]
    f = size
    if no_mode:
        group = (np.cumsum(ok, dtype=np.int32) - 1)[group[keep]]
        member = _chain_members(starts, size, depth.span[g_node] + g_delta)
        f = np.add.reduceat(member, np.cumsum(size) - size, dtype=np.int32)
        ok = f > _PRUNE_FREQUENCY
        g_node, g_sym, g_delta, f, size = g_node[ok], g_sym[ok], g_delta[ok], f[ok], size[ok]
        starts = starts[ok[group]]
    return g_node, g_sym, g_delta, f.astype(np.int32), size, starts


def _chain_members(starts, size, spans):
    """Mask of the starts on each group's greedy non-overlapped chain.

    The groups hold ``size`` sorted starts each.  A start's successor is
    the first start of its group past its occurrence's end.  By pointer
    doubling (Wyllie 1979), the starts marked so far, those fewer than 2**k
    steps past a group's head, add their successors 2**k steps on.
    """
    n = len(starts)
    group = np.repeat(np.arange(len(size)), size)
    width = int(starts.max(initial=0)) + int(spans.max(initial=0)) + 1
    v = group * width + starts
    nxt = np.searchsorted(v, v + spans[group], side="right")
    nxt = np.append(np.where(np.append(group, -1)[nxt] == group, nxt, n), n)
    marked = new = np.cumsum(size) - size
    while len(new):
        new = nxt[marked]
        new = new[new < n]
        marked = np.concatenate((marked, new))
        nxt = nxt[nxt]
    member = np.zeros(n, bool)
    member[marked] = True
    return member
