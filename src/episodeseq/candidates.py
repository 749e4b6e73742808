"""Level-wise search of the fixed-interval episode lattice.

Every symbol present in the data roots one tree.  A node is extended by
appending a symbol not already in the episode, with any gap in [1, T_g];
each child's distinct-start list is the subset of the parent's starts whose
end offset hits an event of the new symbol.  Along every root-to-leaf path
the highest-scoring episode is emitted, so the candidate set holds one
"best" episode per path, deduplicated.

Children are made only with a mode frequency of 2 or more, and a branch
that cannot beat its path's best is cut, a branch-and-bound as Morishita &
Sese bound a statistic over a lattice (PODS 2000).  A descendant of a node
has f' <= f and at most ``n_max`` nodes, one per symbol type searched, so
it scores at most ``row_gain(n_max, f)``; a node grows only when that
reaches its path's best score (and 1, in ``select``'s positive search).
A cut node emits its path best, which no descendant could beat or tie, so
the emitted set is that of the uncut search.  An f = 2 node's bound is -3,
so a positive search extends only nodes with f >= 3.

The trees are searched one depth at a time, as Mannila, Toivonen & Verkamo
count episodes level-wise (DMKD 1997), by numpy joins over whole depths.
The joins run on the slots of the occurrences module's time axis
(``occurrences._Axis``), which ``select`` also covers on.  A node keeps,
per distinct start, the slot row of the occurrence's last event, and a
child joins a row in the binary-searched window at most ``max_gap`` past
it, so memory follows the event count, not the time span.  In
non-overlapped mode a node's frequency is the length of the greedy chain
of non-overlapped starts (Laxman, Sastry & Unnikrishnan, TKDE 2005).
Candidates are built only for emitted episodes, and their occurrence lists
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import EventDataset, FixedIntervalEpisode
# find_no_occurrences stays bound here for bench/tracer.py (ROADMAP item 7).
from .occurrences import (  # noqa: F401
    FrequencyMode,
    OccurrenceList,
    _Axis,
    _chain_members,
    cover,
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
    mode.  Its occurrence pairs are built when read: each of ``starts``, an
    axis time, leads through ``axis`` to a ``(sequence, start time)`` pair."""

    episode: FixedIntervalEpisode
    frequency: int
    score: int
    starts: np.ndarray = field(repr=False, compare=False)
    axis: _Axis = field(repr=False, compare=False)

    @property
    def occurrences(self) -> OccurrenceList:
        """The counted occurrences, under the search's mode."""
        starts, _ = self.axis.pairs(self.episode, cover(self.axis, self.episode, self.starts), 0)
        return OccurrenceList(self.episode, starts)

    @property
    def key(self) -> str:
        return str(self.episode)


@dataclass
class _Depth:
    """The nodes of one depth as parallel arrays, with their occurrences."""

    ids: np.ndarray  # (n, depth) symbol ids
    gaps: np.ndarray  # (n, depth - 1)
    span: np.ndarray
    f: np.ndarray  # mode frequency
    best_score: np.ndarray  # score of the path's best node
    best_ref: np.ndarray  # that node's index among the kept ones; -1: this node
    ptr: np.ndarray | None  # node k's occurrences are row[ptr[k] : ptr[k + 1]]
    row: np.ndarray | None  # per distinct start, in order, the slot row of its last event


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
    axis = _Axis(data, max_gap)
    return tuple(_search(axis, slice(None), mode is FrequencyMode.NON_OVERLAPPED, False))


def _search(axis: _Axis, left, no_mode: bool, positive: bool) -> list[Candidate]:
    """The per-path best episodes over the slots ``left`` selects, in
    canonical order; only those with a positive score when ``positive``."""
    times, types = axis.times[left], axis.types[left]
    # Row r's window, rows lo[r] to hi[r] - 1: those after its time and at most max_gap past it.
    row_type = np.int32 if len(times) < 2**31 else np.int64
    lo = np.searchsorted(times, times, "right").astype(row_type)
    hi = np.searchsorted(times, times + axis.max_gap, "right").astype(row_type)
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
        np.argsort(types, kind="stable").astype(row_type),
    )
    # Per depth, the nodes that are their own path best: (ids, gaps, f, and
    # the sizes and list of their rows).  Path-best refs number them across depths.
    kept: list[tuple[np.ndarray, ...]] = []
    n_kept = 0
    leaf_refs = []
    while depth is not None:
        own = depth.best_ref < 0
        depth.best_ref[own] = np.arange(n_kept, n_kept + own.sum())
        n_kept += own.sum()
        size = np.diff(depth.ptr)
        rows = depth.row[np.repeat(own, size)]
        kept.append((depth.ids[own], depth.gaps[own], depth.f[own], size[own], rows))
        del own, size, rows
        depth, refs = _extend(depth, axis, (times, types, lo, hi), no_mode, positive, len(roots))
        leaf_refs.append(refs)
    emitted = np.zeros(n_kept, bool)
    emitted[np.concatenate(leaf_refs)] = True

    name = axis.data.alphabet.name
    candidates = []
    base = 0
    for ids, gaps, f, size, rows in kept:
        score = row_gain(ids.shape[1], f.astype(np.int64))
        out = emitted[base : base + len(ids)] & (score > 0 if positive else True)
        base += len(ids)
        spans = gaps[out].sum(axis=1, dtype=axis.time_type)
        starts = times[rows[np.repeat(out, size)]] - np.repeat(spans, size[out])
        if no_mode:
            starts = starts[_chain_members(starts, size[out], spans)]
        f, score = f[out].tolist(), score[out].tolist()
        parts = np.split(starts, np.cumsum(f)[:-1])
        for row, gap_row, *rest in zip(ids[out].tolist(), gaps[out].tolist(), f, score, parts):
            episode = FixedIntervalEpisode(tuple(map(name, row)), tuple(gap_row))
            candidates.append(Candidate(episode, *rest, axis))
    candidates.sort(key=lambda cand: cand.key)
    return candidates


def _extend(
    depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, positive: bool, n_max: int
):
    """The next depth (None past the last one), grown from the nodes whose
    bound ``row_gain(n_max, f)`` reaches their path's best score (and 1
    when ``positive``), and the path-best refs of the nodes without a child."""
    n = len(depth.f)
    best = np.maximum(depth.best_score, 1) if positive else depth.best_score
    grow = row_gain(n_max, depth.f.astype(np.int64)) >= best
    live = np.flatnonzero(grow)
    if not len(live):
        return None, depth.best_ref
    # Blocks of whole nodes, each starting at a live node every _BLOCK starts
    # and every `step` nodes, so that _join's keys stay below 2**63.
    step = (2**63 - 1) // (axis.max_gap * axis.n_types)
    cuts = np.diff(depth.ptr[live] // _BLOCK, prepend=-1) | np.diff(live // step, prepend=-1)
    cuts = live[np.flatnonzero(cuts)]
    cuts = np.append(cuts, n).tolist()
    parts = [_join(depth, axis, events, no_mode, grow, a, z) for a, z in zip(cuts, cuts[1:])]
    depth.ptr = depth.row = None  # joined: the children hold the occurrences now
    parent, sym, delta, f, size, row = map(np.concatenate, zip(*parts))
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
        row,
    )
    return child, depth.best_ref[~has_child]


def _join(
    depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, grow: np.ndarray, a: int, z: int
):
    """The children of the ``grow`` nodes among a..z-1: their parents,
    symbols, last gaps, frequencies, and the number and the list of their
    occurrences' rows."""
    times, types, lo_at, hi_at = events
    max_gap = axis.max_gap
    node = np.repeat(np.arange(a, z, dtype=np.int32), np.diff(depth.ptr[a : z + 1]))
    row = depth.row[depth.ptr[a] : depth.ptr[z]]
    live = grow[node]
    node, row = node[live], row[live]
    lo = lo_at[row]
    count = hi_at[row] - lo
    # One entry per occurrence and row ev in its end's window, grouped by
    # (node, gap, symbol) with the starts in order: the key is
    # ((node - a) * max_gap + gap - 1) * m + symbol, gap = times[ev] - times[row].
    m = axis.n_types
    total = int(count.sum())
    ev = (np.arange(total) + np.repeat(lo - (np.cumsum(count) - count), count)).astype(row.dtype)
    base = (node - a).astype(np.int64) * max_gap - times[row] - 1
    key = (np.repeat(base, count) + times[ev]) * m + types[ev]
    del lo, base
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.empty(total, bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    size = np.diff(heads, append=total)
    g_node = (a + key[heads] // (max_gap * m)).astype(np.int32)
    g_sym = (key[heads] % m).astype(axis.sym_type)
    g_delta = (key[heads] // m % max_gap + 1).astype(axis.gap_type)
    del key
    # Keep the groups of 2+ starts whose symbol is new to the node, then,
    # in non-overlapped mode, those with a chain of 2+.  A node's span is
    # constant, so the chain on end times is the chain on start times.
    ok = (size > _PRUNE_FREQUENCY) & np.all([c[g_node] != g_sym for c in depth.ids.T], axis=0)
    group = np.cumsum(head, dtype=np.int32) - 1
    keep = ok[group]
    rows = ev[order[keep]]  # a child's row is the row it joined
    del order, ev
    g_node, g_sym, g_delta, size = g_node[ok], g_sym[ok], g_delta[ok], size[ok]
    f = size
    if no_mode:
        group = (np.cumsum(ok, dtype=np.int32) - 1)[group[keep]]
        member = _chain_members(times[rows], size, depth.span[g_node] + g_delta)
        f = np.add.reduceat(member, np.cumsum(size) - size, dtype=np.int32)
        ok = f > _PRUNE_FREQUENCY
        g_node, g_sym, g_delta, f, size = g_node[ok], g_sym[ok], g_delta[ok], f[ok], size[ok]
        rows = rows[ok[group]]
    return g_node, g_sym, g_delta, f.astype(np.int32), size, rows
