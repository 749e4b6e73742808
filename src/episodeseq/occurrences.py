"""The occurrences of fixed-interval episodes, on one time axis.

For an injective fixed-interval episode, occurrences starting at different
times are distinct, so the sorted ``(sequence index, start time)`` pairs
describe the occurrence set completely.  Occurrence lists, selected
episodes and encoding-table rows all hold them as a :class:`StartList`,
one array of sequence indices and one of start times.  Two occurrences are
non-overlapped when the later one starts strictly after the earlier one
ends (start' > start + span); a maximal non-overlapped subset is obtained
greedily from each sequence's sorted distinct starts, keeping each start
that clears the previously kept occurrence.

Covers are found on an :class:`_Axis`, the one occurrence representation
that the candidate search, ``select`` and ``forced_selection`` share.  A
cover is an array of the axis's slots, one per distinct (sequence, time,
type), each pointing at its lowest-index event in the data, which keeps
overlap counts deterministic and gives the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import EventDataset, FixedIntervalEpisode, SerialEpisode, _exact_ints, span


class FrequencyMode(str, Enum):
    """How occurrences are counted toward episode frequency."""

    DISTINCT = "distinct"
    NON_OVERLAPPED = "non-overlapped"


class StartList:
    """Sorted ``(sequence index, start time)`` pairs held as two read-only
    arrays, ``seqs`` (int64) and ``times``, kept exact by ``_exact_ints``.
    Start lists with equal arrays are equal and hash alike; a slice is a
    start list viewing the same arrays, and no other index is taken."""

    __slots__ = ("_arrays",)

    def __init__(self, seqs, times):
        seqs, times = np.asarray(_exact_ints(seqs, "sequence index"), np.int64), _exact_ints(times)
        if len(seqs) != len(times):
            raise ValueError("a start needs one sequence index and one time")
        seqs.flags.writeable = times.flags.writeable = False
        self._arrays = seqs, times

    seqs = property(lambda self: self._arrays[0])
    times = property(lambda self: self._arrays[1])

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __getitem__(self, i: slice) -> StartList:
        if not isinstance(i, slice):  # nor may tuple() fall back to indexing
            raise TypeError(f"a start list takes slices, not {type(i).__name__}")
        out = StartList.__new__(StartList)  # a view of arrays already checked
        out._arrays = self._arrays[0][i], self._arrays[1][i]
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StartList):
            return all(map(np.array_equal, self._arrays, other._arrays))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(self.seqs.tolist()), tuple(self.times.tolist())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.seqs.tolist()!r}, {self.times.tolist()!r})"

    def __reduce__(self):
        return StartList, self._arrays


@dataclass(frozen=True)
class OccurrenceList:
    """An episode's occurrences: sorted, distinct ``(sequence, start time)``
    pairs, as a :class:`StartList`."""

    episode: FixedIntervalEpisode
    starts: StartList

    def __post_init__(self) -> None:
        s, t = self.starts.seqs, self.starts.times
        if not ((s[1:] > s[:-1]) | (s[1:] == s[:-1]) & (t[1:] > t[:-1])).all():
            raise ValueError("starts must be strictly increasing")

    @property
    def total(self) -> int:
        """Occurrence count across all sequences (the episode frequency)."""
        return len(self.starts)


def find_no_occurrences(occ: OccurrenceList) -> OccurrenceList:
    """Maximal non-overlapped subset of a distinct-occurrence list: the greedy
    chain of each sequence's starts.  On one axis where a step past the span,
    and the step into the next sequence, become span + 1, the chains of all
    sequences are that of one :func:`_chain_members` group."""
    ep_span = span(occ.episode)
    seq, times = occ.starts.seqs, occ.starts.times
    step = np.minimum(np.diff(times.astype(object), prepend=times[:1]), ep_span + 1)
    step[1:][seq[1:] != seq[:-1]] = ep_span + 1
    axis = np.cumsum(step)
    if len(axis) and axis[-1] + ep_span >= 2**63 - 1:  # _chain_members keys axis + span
        raise ValueError(f"starts too far apart for a 64-bit axis at span {ep_span}")
    axis = axis.astype(np.int64)
    member = _chain_members(axis, np.array([len(axis)]), np.array([ep_span]))
    return OccurrenceList(occ.episode, StartList(seq[member], times[member]))


def occurrences_for_mode(
    data: EventDataset, episode: FixedIntervalEpisode, mode: FrequencyMode
) -> OccurrenceList:
    """Occurrence list under the requested frequency mode.  Raises
    ``KeyError`` when a symbol of the episode is not in the data's alphabet."""
    axis = _Axis(data, max(episode.gaps, default=1))
    cov = cover(axis, episode, mode is FrequencyMode.NON_OVERLAPPED)
    return OccurrenceList(episode, axis.pairs(episode, cov, 0)[0])


def find_distinct_starts(data: EventDataset, episode: FixedIntervalEpisode) -> OccurrenceList:
    """All ``(sequence, t)`` pairs such that node i's event is at t + sum(gaps[:i])."""
    return occurrences_for_mode(data, episode, FrequencyMode.DISTINCT)


def count_no_general(data: EventDataset, episode: SerialEpisode) -> int:
    """Maximum number of non-overlapped occurrences of a gap-free episode.

    Single left-to-right scan: events are matched against the episode in
    order, requiring strictly increasing times within an occurrence; after
    an occurrence completes, the automaton restarts and the next occurrence
    must begin strictly after the completed one ended.
    """
    try:
        type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    except KeyError:
        return 0
    count = 0
    types, times, ends = data.types.tolist(), data.times.tolist(), data.offsets.tolist()
    for a, z in zip(ends, ends[1:]):
        state, last_time = 0, None  # time of the previous matched event, or occurrence end
        for x, t in zip(types[a:z], times[a:z]):
            if x == type_ids[state] and (last_time is None or t > last_time):
                state, last_time = state + 1, t
                if state == len(type_ids):
                    count, state = count + 1, 0
    return count


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
    in (axis time, type id) order.  It records the flat index of its first
    event in the dataset's arrays, and its multiplicity: that event and the
    copies after it.
    """

    def __init__(self, data: EventDataset, max_gap: int):
        if max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        ends, types, times = data.offsets, data.types, data.times
        n = len(times)
        opens = np.zeros(n + 1, bool)
        opens[ends] = True  # opens[i]: event i is the first of its sequence
        filled = np.diff(ends) > 0
        # No gap outgrows the longest sequence; a shorter max_gap keeps the axis short.
        longest = int((times[ends[1:][filled] - 1] - times[ends[:-1][filled]]).max(initial=0))
        self.max_gap = max_gap = min(max_gap, max(longest, 1))
        self.data = data
        # Each distinct (sequence, time) gets an axis time g, one step past the
        # previous one; a step into a new sequence is max_gap + 1.
        new_time = opens[:n].copy()
        new_time[1:] |= times[1:] != times[:-1]
        at = np.flatnonzero(new_time)
        step = np.minimum(np.diff(times[at]), max_gap + 1)
        step[opens[at[1:]]] = max_gap + 1
        if int(step.max(initial=0)) * len(step) >= 2**62:
            step = step.astype(object)  # a sum that int64 might not hold
        g = np.zeros(len(at), step.dtype)
        np.cumsum(step, out=g[1:])
        last = int(g[-1]) if len(g) else -max_gap - 1
        if (last + max_gap + 1) * data.alphabet.size >= 2**63:
            raise ValueError(f"times too far apart for a 64-bit axis at max_gap {max_gap}")
        # A slot is the first of its (sequence, time, type); such events are adjacent.
        new_slot = new_time.copy()
        new_slot[1:] |= types[1:] != types[:-1]
        first = np.flatnonzero(new_slot)
        # Small int types keep a depth's arrays small.
        self.time_type = np.int32 if last + 2 * max_gap < 2**31 else np.int64
        self.sym_type = np.min_scalar_type(data.alphabet.size)
        self.gap_type = np.min_scalar_type(-max_gap)  # signed, so spans stay integers
        self.n_types = data.alphabet.size
        slot_time = g.astype(np.int64)[np.cumsum(new_time)[first] - 1]
        key = slot_time * self.n_types + types[first]
        order = np.argsort(key, kind="stable")  # the identity when type ids follow name order
        self.key, self.event = key[order], first[order]
        self.mult = np.diff(first, append=n)[order]  # up to the next slot's first event
        self.times = (self.key // self.n_types).astype(self.time_type)
        self.types = (self.key % self.n_types).astype(self.sym_type)

    def pairs(self, episode: FixedIntervalEpisode, cov: np.ndarray, skipped):
        """The :class:`StartList` of the occurrences with slot cover ``cov``,
        read at each occurrence's first slot, and the flat indices of the
        events ``skipped`` copies past each slot's first."""
        events = self.event[cov] + skipped
        heads = events[:: episode.length]
        seq = np.searchsorted(self.data.offsets, heads, "right") - 1
        return StartList(seq, self.data.times[heads]), events


def cover(axis: _Axis, episode: FixedIntervalEpisode, no_mode: bool) -> np.ndarray:
    """Slot indices of the events that the episode's distinct occurrences, or
    their greedy non-overlapped chain when ``no_mode``, code, in start order.
    One walk finds them, looking each node's slot up at the previous node's
    matched time plus its gap; a gap past ``max_gap`` has no occurrence.
    Distinct starts of an injective episode share no event, so no slot repeats."""
    first, *ids = map(axis.data.alphabet.index, episode.event_types)
    if max(episode.gaps, default=0) > axis.max_gap:
        return np.empty(0, np.intp)
    slots = [np.flatnonzero(axis.types == first)]  # per node, the matched slots
    for tid, gap in zip(ids, episode.gaps):
        want = (axis.times[slots[-1]].astype(np.int64) + gap) * axis.n_types + tid
        at = np.searchsorted(axis.key, want)
        hit = axis.key.take(at, mode="clip") == want
        slots = [s[hit] for s in slots] + [at[hit]]
    if no_mode:
        start = axis.times[slots[0]].astype(np.int64)
        chain = _chain_members(start, np.array([len(start)]), np.array([span(episode)]))
        slots = [s[chain] for s in slots]
    return np.stack(slots, axis=1).ravel()


def _chain_members(starts, size, spans):
    """Mask of the starts on each group's greedy non-overlapped chain.

    The groups hold ``size`` sorted starts each.  A start more than its
    span past the previous start of its group heads a run, and is on the
    chain, which restarts there.  So only runs of two or more starts are
    searched.  There, a start's successor is the first start of its run
    past its occurrence's end; by pointer doubling (Wyllie 1979), the
    starts marked so far, those fewer than 2**k steps past a run's head,
    add their successors 2**k steps on.
    """
    if not len(starts):
        return np.zeros(0, bool)
    span = np.repeat(spans, size)
    head = np.ones(len(starts), bool)
    np.greater(np.diff(starts), span[1:], out=head[1:])
    head[(np.cumsum(size) - size)[size > 0]] = True  # each group's first start
    runs = np.flatnonzero(head)
    size = np.diff(runs, append=len(starts))
    many = size > 1
    if not many.any():
        return head
    inner = np.repeat(many, size)
    member = ~inner
    starts, size, spans = starts[inner], size[many], span[runs[many]]
    width = int(starts.max(initial=0)) + int(spans.max(initial=0)) + 1
    step = (2**63 - 1) // width  # runs keyed at once, so that no key reaches 2**63
    if len(size) > step:
        first = range(0, len(size), step)
        at = np.append(0, np.cumsum(size))[[*first, len(size)]].tolist()
        member[inner] = np.concatenate([
            _chain_members(starts[a:b], size[k : k + step], spans[k : k + step])
            for k, a, b in zip(first, at, at[1:])
        ])
        return member
    n = len(starts)
    run = np.repeat(np.arange(len(size)), size)
    v = run * width + starts
    nxt = np.searchsorted(v, v + spans[run], side="right")
    nxt = np.append(np.where(np.append(run, -1)[nxt] == run, nxt, n), n)
    marked = new = np.cumsum(size) - size
    while len(new):
        new = nxt[marked]
        new = new[new < n]
        marked = np.concatenate((marked, new))
        nxt = nxt[nxt]
    member[np.flatnonzero(inner)[marked]] = True
    return member
