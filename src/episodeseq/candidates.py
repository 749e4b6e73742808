"""Depth-first enumeration of the fixed-interval episode lattice.

Every symbol present in the data roots one DFS tree.  A node is extended by
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

Extension joins always use distinct starts.  A node carries one sorted list
of start times on a global time axis (see ``_DataIndex``); in
non-overlapped mode its frequency is the greedily filtered count of that
list.  Occurrence lists and candidates are built only for emitted episodes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .events import EventDataset, FixedIntervalEpisode
from .mdl import row_gain, score
from .occurrences import (
    FrequencyMode,
    OccurrenceList,
    find_no_occurrences,
    non_overlapped,
)

_PRUNE_FREQUENCY = 1


@dataclass(frozen=True)
class Candidate:
    episode: FixedIntervalEpisode
    occurrences: OccurrenceList  # under the active frequency mode
    frequency: int
    score: int

    @property
    def key(self) -> str:
        return str(self.episode)


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated candidates in canonical (episode string) order."""

    episodes: tuple[Candidate, ...]
    max_gap: int
    mode: FrequencyMode

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self):
        return iter(self.episodes)


class _DataIndex:
    """All sequences on one global time axis, with the lookups of the joins.

    Sequence k is shifted so that its first event falls more than
    ``max_gap`` after the last event of sequence k-1.  A join looks at most
    ``max_gap`` past an occurrence's end, and the non-overlap test keeps a
    start later than the previous occurrence's end, so neither ever crosses
    a sequence boundary: one sorted list of global times holds an episode's
    starts in every sequence.
    """

    def __init__(self, data: EventDataset, max_gap: int):
        # symbol id -> sorted distinct global times of its events
        self.times_by_type: dict[int, list[int]] = {}
        # global time -> symbol ids present at that time
        self.types_at_time: dict[int, set[int]] = {}
        # global time -> (sequence index, time in that sequence)
        self.pair_at: dict[int, tuple[int, int]] = {}
        end = None
        for seq_idx, seq in enumerate(data.sequences):
            if not seq:
                continue
            base = 0 if end is None else end + max_gap + 1 - seq[0].time
            for ev in seq:
                # unshifted times keep the events' own int objects
                g = ev.time + base if base else ev.time
                self.pair_at[g] = (seq_idx, ev.time)
                self.types_at_time.setdefault(g, set()).add(ev.event_type)
                times = self.times_by_type.setdefault(ev.event_type, [])
                if not times or times[-1] != g:
                    times.append(g)
            end = seq[-1].time + base


def generate_candidates(
    data: EventDataset,
    max_gap: int,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> CandidateSet:
    """DFS the episode lattice and return the per-path best episodes.

    Along a path the best episode has the highest score, and ties go to the
    longer episode.  Lengths grow strictly along a path, so a node replaces
    the path's best whenever its score is at least as high.
    """
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    index = _DataIndex(data, max_gap)
    at_time = index.types_at_time
    no_mode = mode is FrequencyMode.NON_OVERLAPPED
    deltas = range(1, max_gap + 1)
    # (type ids, gaps) of each emitted episode -> its candidate
    emitted: dict[tuple[tuple[int, ...], tuple[int, ...]], Candidate] = {}
    # Nodes to visit: (type ids, gaps, span, distinct starts, frequency,
    # the path's best so far as (score, type ids, gaps, starts) or None).
    stack: list[tuple] = [
        ((root_type,), (), 0, starts, len(starts), None)
        for root_type, starts in index.times_by_type.items()
    ]
    while stack:
        type_ids, gaps, ep_span, starts, f, best = stack.pop()
        node_score = row_gain(len(type_ids), f)
        if best is None or node_score >= best[0]:
            best = (node_score, type_ids, gaps, starts)

        children: dict[tuple[int, int], list[int]] = defaultdict(list)
        if f > _PRUNE_FREQUENCY:
            # Gather extensions from events actually present at reachable
            # offsets instead of probing the whole alphabet blindly.
            for t in starts:
                end = t + ep_span
                for delta in deltas:
                    for sym in at_time.get(end + delta, ()):
                        if sym not in type_ids:
                            children[sym, delta].append(t)

        explored = False
        for (sym, delta), child in children.items():
            child_span = ep_span + delta
            child_f = len(non_overlapped(child, child_span) if no_mode else child)
            if child_f <= _PRUNE_FREQUENCY:
                continue
            explored = True
            stack.append(
                (type_ids + (sym,), gaps + (delta,), child_span, child, child_f, best)
            )
        if not explored and (best[1], best[2]) not in emitted:
            # Leaf of the explored tree: emit this path's best episode.
            _, best_ids, best_gaps, best_starts = best
            episode = FixedIntervalEpisode(
                tuple(data.alphabet.name(i) for i in best_ids), best_gaps
            )
            pairs = tuple(map(index.pair_at.__getitem__, best_starts))
            occ = OccurrenceList(episode, pairs)
            if no_mode:
                occ = find_no_occurrences(occ)
            emitted[best_ids, best_gaps] = Candidate(
                episode, occ, occ.total, score(episode, occ.total)
            )
    candidates = sorted(emitted.values(), key=lambda cand: cand.key)
    return CandidateSet(tuple(candidates), max_gap, mode)
