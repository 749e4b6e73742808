"""Occurrence detection, non-overlapped filtering, and covers.

For an injective fixed-interval episode, occurrences starting at different
times are distinct, so a sorted tuple of ``(sequence index, start time)``
pairs describes the occurrence set completely; encoding-table rows store
the same pairs.  Two occurrences are non-overlapped when the later one
starts strictly after the earlier one ends (start' > start + span); a
maximal non-overlapped subset is obtained greedily from each sequence's
sorted distinct starts, keeping each start that clears the previously kept
occurrence.

Covers bind every node of every counted occurrence to a concrete event
position, so overlap between two episodes' coded events is a plain set
intersection.  When several events share (time, type), the lowest-index one
is bound, which keeps overlap counts deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter, lt
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
    """Sorted ``(sequence index, start time)`` pairs of an episode's occurrences."""

    episode: FixedIntervalEpisode
    starts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        s = self.starts
        if not all(map(lt, s, s[1:])):
            raise ValueError("starts must be strictly increasing")

    @property
    def total(self) -> int:
        """Occurrence count across all sequences (the episode frequency)."""
        return len(self.starts)


def find_distinct_starts(
    data: EventDataset, episode: FixedIntervalEpisode
) -> OccurrenceList:
    """All ``(sequence, t)`` pairs such that every node's event exists at its offset.

    Node i must match an event of its type at time t + sum(gaps[:i]) in the
    same sequence.  Raises ``KeyError`` when a symbol of the episode is not
    in the data's alphabet.
    """
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    nodes = list(zip(type_ids, episode.offsets()))
    present = {
        (seq_idx, ev.time, ev.event_type)
        for seq_idx, seq in enumerate(data.sequences)
        for ev in seq
    }
    starts = sorted(
        (seq_idx, t)
        for seq_idx, t, tid in present
        if tid == type_ids[0]
        and all((seq_idx, t + off, k) in present for k, off in nodes)
    )
    return OccurrenceList(episode, tuple(starts))


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

    Applies :func:`non_overlapped` to each sequence's run of starts.
    """
    ep_span = span(occ.episode)
    kept: list[tuple[int, int]] = []
    for _, run in groupby(occ.starts, key=itemgetter(0)):
        pairs = tuple(run)
        # time -> its pair, in start order, so the kept starts reuse the pairs
        at_time = dict(zip(map(itemgetter(1), pairs), pairs))
        kept.extend(map(at_time.__getitem__, non_overlapped(at_time, ep_span)))
    return OccurrenceList(occ.episode, tuple(kept))


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
    starts: Iterable[tuple[int, int]],
    lowest: list[dict[tuple[int, int], int]] | None = None,
) -> frozenset[tuple[int, int]]:
    """``(sequence, position)`` pairs of the events coded by the given starts.

    ``starts`` are ``(sequence, start time)`` pairs.  Each node binds to the
    lowest-index event with the required (type, time) in its sequence.
    ``lowest`` holds :func:`lowest_positions` of every sequence, and the
    returned positions are the ones it holds; callers that cover many
    episodes on the same data pass it to build it only once.  Raises
    ``KeyError`` when a symbol of the episode is not in the data's alphabet.
    """
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    offsets = episode.offsets()
    positions: set[tuple[int, int]] = set()
    for seq_idx, run in groupby(starts, key=itemgetter(0)):
        at = (
            lowest[seq_idx]
            if lowest
            else lowest_positions(enumerate(data.sequences[seq_idx]))
        )
        for _, t in run:
            for tid, off in zip(type_ids, offsets):
                pos = at.get((tid, t + off))
                if pos is None:
                    raise CoverIntegrityError(
                        f"no event of type {data.alphabet.name(tid)} at time "
                        f"{t + off} in sequence {seq_idx} for start {t}"
                    )
                positions.add((seq_idx, pos))
    return frozenset(positions)
