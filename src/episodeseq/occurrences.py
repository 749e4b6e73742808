"""Occurrence detection, non-overlapped filtering, and cover overlap counts.

For an injective fixed-interval episode, occurrences starting at different
times are distinct, so a per-sequence list of start times describes the
occurrence set completely.  Two occurrences are non-overlapped when the later
one starts strictly after the earlier one ends (start' > start + span); a
maximal non-overlapped subset is obtained greedily from the sorted distinct
starts, keeping each start that clears the previously kept occurrence.

Covers bind every node of every counted occurrence to a concrete event
position, so overlap between two episodes' coded events is a plain set
intersection.  When several events share (time, type), the lowest-index one
is bound, which keeps overlap counts deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import lt
from typing import Iterable

from .events import Event, EventDataset, FixedIntervalEpisode, SerialEpisode, span


class CoverIntegrityError(ValueError):
    """Raised when a claimed occurrence start has no matching data events."""


class FrequencyMode(str, Enum):
    """How occurrences are counted toward episode frequency."""

    DISTINCT = "distinct"
    NON_OVERLAPPED = "non-overlapped"


@dataclass(frozen=True)
class OccurrenceList:
    """Per-sequence sorted start times of an episode's occurrences."""

    episode: FixedIntervalEpisode
    starts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for seq_starts in self.starts:
            if seq_starts and not all(map(lt, seq_starts, seq_starts[1:])):
                raise ValueError("starts must be strictly increasing per sequence")

    @property
    def total(self) -> int:
        """Occurrence count across all sequences (the episode frequency)."""
        return sum(map(len, self.starts))


@dataclass(frozen=True)
class CoverSet:
    """Set of (sequence index, event position) pairs coded by an episode."""

    positions: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.positions)


def _type_times(data: EventDataset, type_id: int, seq_idx: int) -> set[int]:
    return {ev.time for ev in data.sequences[seq_idx] if ev.event_type == type_id}


def find_distinct_starts(
    data: EventDataset, episode: FixedIntervalEpisode
) -> OccurrenceList:
    """All start times t such that every node's event exists at its offset.

    Node i must match an event of its type at time t + sum(gaps[:i]) in the
    same sequence.  Returns an empty list when any symbol is absent.
    """
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    offsets = episode.offsets()
    per_seq: list[tuple[int, ...]] = []
    for seq_idx in range(data.n_sequences):
        times = [_type_times(data, tid, seq_idx) for tid in type_ids]
        starts = sorted(
            t
            for t in times[0]
            if all(t + off in times[i] for i, off in enumerate(offsets))
        )
        per_seq.append(tuple(starts))
    return OccurrenceList(episode, tuple(per_seq))


def non_overlapped(starts: Iterable[int], ep_span: int) -> list[int]:
    """Greedy maximal non-overlapped subset of sorted distinct starts.

    Keeps the earliest start, then repeatedly the next start strictly
    greater than the last-kept start plus the episode span.
    """
    kept: list[int] = []
    for t in starts:
        if not kept or t > kept[-1] + ep_span:
            kept.append(t)
    return kept


def find_no_occurrences(occ: OccurrenceList) -> OccurrenceList:
    """Maximal non-overlapped subset of a distinct-occurrence list.

    Applies :func:`non_overlapped` to each sequence's starts.
    """
    ep_span = span(occ.episode)
    filtered = (tuple(non_overlapped(s, ep_span)) if s else s for s in occ.starts)
    return OccurrenceList(occ.episode, tuple(filtered))


def occurrences_for_mode(
    data: EventDataset, episode: FixedIntervalEpisode, mode: FrequencyMode
) -> OccurrenceList:
    """Occurrence list under the requested frequency mode."""
    occ = find_distinct_starts(data, episode)
    if mode is FrequencyMode.NON_OVERLAPPED:
        occ = find_no_occurrences(occ)
    return occ


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
    n = len(type_ids)
    count = 0
    for seq in data.sequences:
        state = 0
        last_time = None  # time of the previous matched event, or occurrence end
        for ev in seq:
            if ev.event_type != type_ids[state]:
                continue
            if last_time is not None and ev.time <= last_time:
                continue
            state += 1
            last_time = ev.time
            if state == n:
                count += 1
                state = 0
    return count


def lowest_positions(
    events: Iterable[tuple[int, Event]],
) -> dict[tuple[int, int], int]:
    """(type, time) -> lowest position among ``(position, event)`` pairs.

    The pairs come in increasing position order.
    """
    lowest: dict[tuple[int, int], int] = {}
    for pos, ev in events:
        lowest.setdefault((ev.event_type, ev.time), pos)
    return lowest


def cover(
    data: EventDataset,
    episode: FixedIntervalEpisode,
    starts: tuple[tuple[int, ...], ...],
    lowest: list[dict[tuple[int, int], int]] | None = None,
) -> CoverSet:
    """Event positions coded by the given occurrence starts.

    Each node binds to the lowest-index event with the required
    (type, time) in its sequence.  ``lowest`` holds
    :func:`lowest_positions` of every sequence, and the returned positions
    are the ones it holds; callers that cover many episodes on the same
    data pass it to build it only once.
    """
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    offsets = episode.offsets()
    positions: set[tuple[int, int]] = set()
    for seq_idx, seq_starts in enumerate(starts):
        if not seq_starts:
            continue
        at = (
            lowest[seq_idx]
            if lowest
            else lowest_positions(enumerate(data.sequences[seq_idx]))
        )
        for t in seq_starts:
            for tid, off in zip(type_ids, offsets):
                pos = at.get((tid, t + off))
                if pos is None:
                    raise CoverIntegrityError(
                        f"no event of type {data.alphabet.name(tid)} at time "
                        f"{t + off} in sequence {seq_idx} for start {t}"
                    )
                positions.add((seq_idx, pos))
    return CoverSet(frozenset(positions))


def overlap_count(c1: CoverSet, c2: CoverSet) -> int:
    """Number of data events coded by both covers (the OM statistic)."""
    return len(c1.positions & c2.positions)


def dump_occurrences(occ: OccurrenceList) -> str:
    """Debug dump: one ``<episode>\\t<seq>\\t<start>`` line per occurrence."""
    ep = str(occ.episode)
    lines = [
        f"{ep}\t{seq_idx}\t{t}"
        for seq_idx, seq_starts in enumerate(occ.starts)
        for t in seq_starts
    ]
    return "\n".join(lines)
