"""Level-wise search of the fixed-interval episode lattice.

Every symbol present in the data roots one tree.  A node is extended by
appending a symbol not already in the episode, with any gap in [1, T_g];
each child's distinct-start list is the subset of the parent's starts whose
end offset hits an event of the new symbol.  Along every root-to-leaf path
the highest-scoring episode is emitted, so the candidate set holds one
"best" episode per path, deduplicated.

A branch that cannot beat its path's best is cut, a branch-and-bound as
Morishita & Sese bound a statistic over a lattice (PODS 2000).  A
descendant of a node has f' <= f and at most ``n_max`` nodes, one per
symbol type searched, so it scores at most ``row_gain(n_max, f)``.  A
child is made, and a node grows, only when that bound reaches its path's
best score (and 1, in ``select``'s positive search); at f = 2 it is -3.
A child that is its own path best passes, as ``row_gain(n, f) <=
row_gain(n_max, f)`` for f >= 2, unless it scores below 1 in a positive
search.  Any other child of f >= 2 would be a leaf, so its parent emits
their path best instead, as a cut node does; no descendant could beat or
tie it, so the emitted set is that of the uncut search.

The trees are searched one depth at a time, as Mannila, Toivonen & Verkamo
count episodes level-wise (DMKD 1997), by numpy joins over whole depths.
The joins run on the slots of the occurrences module's time axis
(``occurrences._Axis``), which ``select`` also covers on.  A node keeps,
per distinct start, the slot row of the occurrence's last event, and a
child joins a row in the binary-searched window at most ``max_gap`` past
it, so memory follows the event count, not the time span.  A join groups
its rows by radix sort, 16 bits a pass.  In non-overlapped mode a node's
frequency is the length of the greedy chain of non-overlapped starts
(Laxman, Sastry & Unnikrishnan, TKDE 2005).  Candidates are built only for
emitted episodes; each carries its cover, which one lookup per depth
finds, and its occurrence list is read from the cover only when asked for.
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
    find_no_occurrences,
)

_BLOCK = 1 << 13  # pairs joined at once, in blocks of whole nodes


def row_gain(n: int, f: int) -> int:
    """Coding benefit, f*n - (2n + 1 + f) units, of an n-node episode with frequency f."""
    return f * n - (2 * n + 1 + f)


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative int64 keys, in
    linear time: stable sorts of their 16-bit digits, least significant
    first, which numpy makes by radix sort."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, int(key.max(initial=0)).bit_length(), 16):
        order = order[np.argsort((key >> shift).astype(np.uint16)[order], kind="stable")]
    return order


@dataclass(frozen=True)
class Candidate:
    """An emitted episode with its frequency and score under the search's
    mode, and its ``cover``: the ``axis`` slots of its counted occurrences'
    events, one occurrence after another in start order.  Its occurrences
    are read from the cover, as a start list, when asked for."""

    episode: FixedIntervalEpisode
    frequency: int
    score: int
    cover: np.ndarray = field(repr=False, compare=False)
    axis: _Axis = field(repr=False, compare=False)

    @property
    def occurrences(self) -> OccurrenceList:
        """The counted occurrences, under the search's mode."""
        return OccurrenceList(self.episode, self.axis.pairs(self.episode, self.cover, 0)[0])

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
    emits = []
    while depth is not None:
        own = depth.best_ref < 0
        depth.best_ref[own] = np.arange(n_kept, n_kept + own.sum())
        n_kept += own.sum()
        size = np.diff(depth.ptr)
        rows = depth.row[np.repeat(own, size)]
        kept.append((depth.ids[own], depth.gaps[own], depth.f[own], size[own], rows))
        del own, size, rows
        depth, refs = _extend(depth, axis, (times, types, lo, hi), no_mode, positive, len(roots))
        emits.append(refs)
    emitted = np.zeros(n_kept, bool)
    emitted[np.concatenate(emits)] = True

    name = axis.data.alphabet.name
    candidates = []
    base = 0
    for k, (ids, gaps, f, size, rows) in enumerate(kept):
        kept[k] = None  # this depth's rows are released once read
        score = row_gain(ids.shape[1], f.astype(np.int64))
        out = emitted[base : base + len(ids)] & (score > 0 if positive else True)
        base += len(ids)
        if not out.any():
            continue
        ids, gaps, f, score = ids[out], gaps[out], f[out], score[out]
        offsets = np.zeros(ids.shape, np.int64)
        np.cumsum(gaps, axis=1, out=offsets[:, 1:])
        starts = times[rows[np.repeat(out, size)]] - np.repeat(offsets[:, -1], size[out])
        del rows
        if no_mode:
            starts = starts[_chain_members(starts, size[out], offsets[:, -1])]
        # The depth's covers: each start's slots, node by node, in one lookup.
        at = np.repeat(offsets, f, axis=0)
        at += starts[:, None]
        at *= axis.n_types
        at += np.repeat(ids, f, axis=0)
        covers = np.split(np.searchsorted(axis.key, at.ravel()), np.cumsum(f * ids.shape[1])[:-1])
        del at, starts
        fields = zip(ids.tolist(), gaps.tolist(), f.tolist(), score.tolist(), covers)
        for row, gap_row, *rest in fields:
            episode = FixedIntervalEpisode(tuple(map(name, row)), tuple(gap_row))
            candidates.append(Candidate(episode, *rest, axis))
    candidates.sort(key=lambda cand: cand.key)
    return candidates


def _extend(
    depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, positive: bool, n_max: int
):
    """The next depth, grown from the nodes whose bound reaches their
    path's best score (and 1 when ``positive``), into the children whose
    bound does; None past the last depth.  Also the path-best refs that
    this depth emits: those of the nodes without a child, and of the
    parents of children not made."""
    if n_max < 2:  # one symbol type makes no child
        return None, depth.best_ref
    n = len(depth.f)
    best = np.maximum(depth.best_score, 1) if positive else depth.best_score
    need = -(-(best + 2 * n_max + 1) // (n_max - 1))  # the least f with row_gain(n_max, f) >= best
    live = np.flatnonzero(depth.f >= need)
    if not len(live):
        return None, depth.best_ref
    # Blocks of whole nodes, each starting at a live node every _BLOCK starts
    # and every `step` nodes, so that _join's keys stay below 2**63.
    step = (2**63 - 1) // (axis.max_gap * axis.n_types)
    cuts = np.diff(depth.ptr[live] // _BLOCK, prepend=-1) | np.diff(live // step, prepend=-1)
    cuts = live[np.flatnonzero(cuts)]
    cuts = np.append(cuts, n).tolist()
    parts = [_join(depth, axis, events, no_mode, need, a, z) for a, z in zip(cuts, cuts[1:])]
    depth.ptr = depth.row = None  # joined: the children hold the occurrences now
    parent, sym, delta, f, size, row, unmade = map(np.concatenate, zip(*parts))
    del parts, live
    emit = np.ones(n, bool)
    emit[parent] = False
    emit[unmade] = True
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
    return child, depth.best_ref[emit]


def _join(depth: _Depth, axis: _Axis, events: tuple, no_mode: bool, need, a: int, z: int):
    """The children of the nodes among a..z-1 with ``f >= need`` whose own
    frequency reaches their parent's ``need``: their parents, symbols, last
    gaps, frequencies, and the number and the list of their occurrences'
    rows.  Last, the parent of each child of f >= 2 left out, once per child."""
    times, types, lo_at, hi_at = events
    max_gap = axis.max_gap
    node = np.repeat(np.arange(a, z, dtype=np.int32), np.diff(depth.ptr[a : z + 1]))
    row = depth.row[depth.ptr[a] : depth.ptr[z]]
    live = depth.f[node] >= need[node]
    node, row = node[live], row[live]
    lo = lo_at[row]
    count = hi_at[row] - lo
    # One entry per occurrence and row ev in its end's window, grouped by
    # (node, gap, symbol) with the starts in order: the key is
    # ((node - a) * max_gap + gap - 1) * m + symbol, gap = times[ev] - times[row].
    m = axis.n_types
    total = int(count.sum())
    ev = (np.arange(total) + np.repeat(lo - (np.cumsum(count) - count), count)).astype(row.dtype)
    key = np.repeat((node - a).astype(np.int64) * max_gap - times[row] - 1, count)
    key += times[ev]
    key *= m
    key += types[ev]
    del lo
    order = _stable_order(key)
    key, ev = key[order], ev[order]
    head = np.empty(total, bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    size = np.diff(heads, append=total)
    g_node = (a + key[heads] // (max_gap * m)).astype(np.int32)
    g_sym = (key[heads] % m).astype(axis.sym_type)
    g_delta = (key[heads] // m % max_gap + 1).astype(axis.gap_type)
    del key
    # A group of 2+ starts whose symbol is new to the node is a child with
    # f >= 2; in non-overlapped mode, if its chain holds 2+ starts too, as
    # when its last end is more than a span past its first.  A node's span
    # is constant, so the chain on end times is the chain on start times.
    child = (size > 1) & np.all([c[g_node] != g_sym for c in depth.ids.T], axis=0)
    if no_mode:
        g_span = depth.span[g_node] + g_delta
        child &= times[ev[heads + size - 1]] - times[ev[heads]] > g_span
    make = child & (size >= need[g_node])  # f <= size
    rows = ev[np.repeat(make, size)]  # a child's row is the row it joined
    unmade = g_node[child & ~make]
    g_node, g_sym, g_delta, size = (x[make] for x in (g_node, g_sym, g_delta, size))
    f = size
    if no_mode:
        member = _chain_members(times[rows], size, g_span[make])
        f = np.add.reduceat(member, np.cumsum(size) - size, dtype=np.int32)
        made = f >= need[g_node]
        unmade = np.append(unmade, g_node[~made])
        rows = rows[np.repeat(made, size)]
        g_node, g_sym, g_delta, f, size = (x[made] for x in (g_node, g_sym, g_delta, f, size))
    return g_node, g_sym, g_delta, f.astype(np.int32), size, rows, unmade
