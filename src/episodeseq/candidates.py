"""Level-wise search of the fixed-interval episode lattice.

Every symbol present in the data roots one tree.  A node is extended by
appending a symbol not already in the episode, with any gap in [1, T_g];
each child's distinct-start list is the subset of the parent's starts whose
end offset hits an event of the new symbol.  Along every root-to-leaf path
the highest-scoring episode is emitted, so the candidate set holds one
"best" episode per path, deduplicated.

Extensions are cut once the mode frequency drops below 2.  Frequency only
shrinks along extensions, so the cut branches hold episodes that occur at
most once; no user frequency threshold is involved.  A positive score needs
f >= 3 and an f = 2 episode scores -3, so ``select``'s search extends only
nodes with f >= 3, but makes f = 2 children as leaves, since a leaf emits
its path best; ``generate_candidates`` extends f = 2 nodes too.

The trees are searched one depth at a time, as Mannila, Toivonen & Verkamo
count episodes level-wise (DMKD 1997), by numpy joins over whole depths.
The joins use distinct starts on the time axis of the occurrences module
(``occurrences._Axis``), which ``select`` also covers on.  In
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
# find_no_occurrences stays bound here for bench/tracer.py (ROADMAP item 7).
from .occurrences import (  # noqa: F401
    FrequencyMode,
    OccurrenceList,
    _Axis,
    _chain_members,
    find_no_occurrences,
)

_PRUNE_FREQUENCY = 1
_BLOCK = 1 << 13  # pairs joined at once, in blocks of whole nodes


def row_gain(n: int, f: int) -> int:
    """Coding benefit, f*n - (2n + 1 + f) units, of an n-node episode with frequency f."""
    return f * n - (2 * n + 1 + f)


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
    prune = _PRUNE_FREQUENCY + positive  # descendants of an f = 2 node score -3
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
        depth, refs = _extend(depth, axis, (times, types, indptr), no_mode, prune)
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


def _extend(depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, prune: int):
    """The next depth (None past the last one), grown from the nodes with
    f > ``prune``, and the path-best refs of the nodes that have no child."""
    n = len(depth.f)
    live = np.flatnonzero(depth.f > prune)
    if not len(live):
        return None, depth.best_ref
    # Blocks of whole nodes, each starting at a live node every _BLOCK starts.
    cuts = live[np.flatnonzero(np.diff(depth.ptr[live] // _BLOCK, prepend=-1))]
    cuts = np.append(cuts, n).tolist()
    parts = [_join(depth, axis, events, no_mode, prune, a, z) for a, z in zip(cuts, cuts[1:])]
    depth.ptr = depth.start = None  # joined: the children hold the starts now
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


def _join(depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, prune: int, a: int, z: int):
    """The children of nodes a..z-1: their parents, symbols, last gaps,
    frequencies, and the number and the list of their distinct starts."""
    times, types, indptr = events
    max_gap = axis.max_gap
    node = np.repeat(np.arange(a, z, dtype=np.int32), np.diff(depth.ptr[a : z + 1]))
    start = depth.start[depth.ptr[a] : depth.ptr[z]]
    live = depth.f[node] > prune
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
    ok = (size > _PRUNE_FREQUENCY) & np.all([c[g_node] != g_sym for c in depth.ids.T], axis=0)
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
