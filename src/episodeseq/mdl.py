"""MDL scoring, greedy episode selection, and the lossless encoding table.

A dataset is encoded as a table of rows (episode size, episode, frequency,
occurrence start times).  An N-node episode row with frequency f costs
2N + 1 + f integer units: one for the size, N for the event types, N - 1 for
the gaps, one for the frequency, and f for the starts.  Events not covered
by any selected episode are emitted as 1-node residual rows, which makes the
encoding lossless: the original sequences are reconstructible exactly.

An episode earns its place by coding benefit.  Its raw score is
f*N - (2N + 1 + f); its overlap-score subtracts, for every episode already
picked this round, the number of data events their occurrences share.
Selection greedily adds the best positive-overlap-score candidate, deletes
the covered events, regenerates candidates on the residual data, and stops
when no candidate helps or the cap on selected episodes is reached.  The
rounds share the search's time axis, and picks come off a lazy-greedy heap.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import le, lt
from typing import IO, Iterable, Sequence

import numpy as np

from .events import (
    Alphabet,
    Event,
    EventDataset,
    FixedIntervalEpisode,
    format_episode,
    parse_episode,
)
from .occurrences import FrequencyMode, cover, occurrences_for_mode


class TableFormatError(ValueError):
    """Raised when an encoding table is internally inconsistent."""


def score(episode: FixedIntervalEpisode, frequency: int) -> int:
    """Coding benefit of one episode: f*N - (2N + 1 + f) units.

    Positive means the episode row is cheaper than coding its covered
    events with 1-node episodes.
    """
    return row_gain(episode.length, frequency)


def row_gain(n: int, f: int) -> int:
    """:func:`score` of an n-node episode with frequency f."""
    return f * n - (2 * n + 1 + f)


def overlap_score(
    episode: FixedIntervalEpisode,
    data: EventDataset,
    selected: Iterable[FixedIntervalEpisode],
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> int:
    """Score minus the events already coded by each selected episode.

    Frequencies and covers come from :func:`forced_selection` of the
    candidate and ``selected`` on ``data`` under ``mode``.
    """
    own, *others = forced_selection(data, [episode, *selected], mode).selected
    penalty = sum(len(own.covered & other.covered) for other in others)
    return score(episode, own.frequency) - penalty


@dataclass(frozen=True)
class SelectedEpisode:
    """One selection decision, with the evidence it was based on.

    ``starts`` are the ``(sequence, start time)`` pairs of the occurrences
    found in the round's residual data; ``covered`` holds the
    ``(sequence, position)`` pairs, in the input data, of the events those
    occurrences code for.
    """

    episode: FixedIntervalEpisode
    starts: tuple[tuple[int, int], ...]
    round_index: int
    covered: frozenset[tuple[int, int]]

    @property
    def frequency(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class SelectionState:
    """Outcome of the greedy selection over one dataset."""

    selected: tuple[SelectedEpisode, ...]
    n_rounds: int

    @property
    def covered_positions(self) -> frozenset[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for sel in self.selected:
            out |= sel.covered
        return frozenset(out)

    def episodes(self) -> tuple[FixedIntervalEpisode, ...]:
        return tuple(sel.episode for sel in self.selected)


def select(
    data: EventDataset,
    max_gap: int,
    max_episodes: int | None = None,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> SelectionState:
    """Greedy selection of the episode set that best compresses the data.

    Each round regenerates candidates on the residual data, repeatedly
    adds the candidate with the highest positive overlap-score (ties:
    higher frequency, then longer episode, then smaller canonical string),
    then deletes the events covered by this round's picks.  Rounds repeat
    while compression is still achievable, i.e. while the previous round
    selected at least one episode and the cap is not reached.

    A round counts, per slot of the search's axis, the copies removed so
    far; a cover binds each slot's lowest copy still left.  Penalties only
    grow within a round, so stale heap keys are bounds and only the top
    entry is rescored (Minoux's lazy greedy, 1978).
    """
    from .candidates import _Axis, _search

    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    if max_episodes is not None and max_episodes < 1:
        raise ValueError("max_episodes must be >= 1 when given")

    axis = _Axis(data, max_gap)
    removed = np.zeros(len(axis.mult), np.int64)  # events coded so far, per slot
    selected: list[SelectedEpisode] = []
    round_index = 0
    while max_episodes is None or len(selected) < max_episodes:
        left = removed < axis.mult
        if not left.any():
            break
        # Non-positive scores can never yield a positive overlap-score.
        candidates = _search(axis, left, mode is FrequencyMode.NON_OVERLAPPED, True)
        covers = [axis.cover(cand) for cand in candidates]
        picks_at = np.zeros(len(removed), np.int64)  # this round's picks covering each slot
        heap = [(-c.score, -c.frequency, -c.episode.length, i) for i, c in enumerate(candidates)]
        heapq.heapify(heap)
        round_picks: list[int] = []
        while heap and (max_episodes is None or len(selected) + len(round_picks) < max_episodes):
            _, f, length, i = heapq.heappop(heap)
            key = (int(picks_at[covers[i]].sum()) - candidates[i].score, f, length, i)
            if heap and key > heap[0]:
                heapq.heappush(heap, key)
            elif key[0] >= 0:
                break
            else:
                round_picks.append(i)
                picks_at[covers[i]] += 1
        if not round_picks:
            break
        for i in round_picks:
            cand, cov = candidates[i], covers[i]
            covered = zip(axis.seq[cov].tolist(), (axis.pos[cov] + removed[cov]).tolist())
            starts = cand.occurrences.starts
            selected.append(SelectedEpisode(cand.episode, starts, round_index, frozenset(covered)))
        removed += picks_at > 0
        round_index += 1
    return SelectionState(tuple(selected), round_index)


def forced_selection(
    data: EventDataset,
    episodes: Sequence[FixedIntervalEpisode],
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> SelectionState:
    """Selection state for a user-specified episode set, bypassing search.

    All episodes are treated as one round over the full data, so their
    covers may overlap, exactly as when scoring an arbitrary set.
    """
    selected = []
    for episode in episodes:
        occ = occurrences_for_mode(data, episode, mode)
        cov = cover(data, episode, occ.starts)
        selected.append(SelectedEpisode(episode, occ.starts, 0, cov))
    return SelectionState(tuple(selected), 1 if selected else 0)


@dataclass(frozen=True)
class TableRow:
    """One encoding-table row: size, episode, frequency, start times."""

    episode: FixedIntervalEpisode
    starts: tuple[tuple[int, int], ...]  # (sequence index, start time) pairs
    residual: bool

    @property
    def size(self) -> int:
        return self.episode.length

    @property
    def frequency(self) -> int:
        return len(self.starts)

    @property
    def cost(self) -> int:
        return 2 * self.size + 1 + self.frequency


@dataclass(frozen=True)
class EncodingTable:
    """Lossless code of a dataset: selected-episode rows plus residual rows.

    ``multiplicities`` records, for events that appear more than once with
    identical (sequence, time, type), how many copies the original data
    holds; it is empty whenever the data has no such duplicates.
    ``n_sequences`` counts the coded sequences, trailing empty ones included.
    """

    rows: tuple[TableRow, ...]
    multiplicities: dict[tuple[int, int, str], int]
    n_sequences: int


def encode(data: EventDataset, selection: SelectionState) -> EncodingTable:
    """Build the encoding table for a dataset under a selection.

    One row per selected episode, in selection order, followed by one
    1-node row per event type still uncovered, in symbol order.
    """
    covered = selection.covered_positions
    rows = [
        TableRow(sel.episode, sel.starts, residual=False)
        for sel in selection.selected
    ]
    leftovers: dict[str, list[tuple[int, int]]] = {}
    counts: dict[tuple[int, int, str], int] = {}
    for seq_idx, seq in enumerate(data.sequences):
        for pos, ev in enumerate(seq):
            name = data.alphabet.name(ev.event_type)
            counts[(seq_idx, ev.time, name)] = (
                counts.get((seq_idx, ev.time, name), 0) + 1
            )
            if (seq_idx, pos) not in covered:
                leftovers.setdefault(name, []).append((seq_idx, ev.time))
    for name in sorted(leftovers):
        starts = tuple(sorted(leftovers[name]))
        rows.append(
            TableRow(FixedIntervalEpisode((name,), ()), starts, residual=True)
        )
    multiplicities = {key: m for key, m in counts.items() if m > 1}
    return EncodingTable(tuple(rows), multiplicities, data.n_sequences)


def total_length(table: EncodingTable) -> int:
    """Total encoded length in integer units: sum of 2N + 1 + f per row."""
    return sum(row.cost for row in table.rows)


def decode(table: EncodingTable) -> EventDataset:
    """Expand an encoding table back into the event dataset it codes.

    Every row's starts are expanded through the episode's gaps; events
    coded by several rows collapse to the multiplicity the original data
    had (1 unless listed in the table's multiplicity map).  A multiplicity
    for an event no row codes raises :class:`TableFormatError`.
    """
    triples: set[tuple[int, int, str]] = set()
    max_seq = -1
    for row in table.rows:
        offsets = row.episode.offsets()
        for seq_idx, t in row.starts:
            if seq_idx < 0:
                raise TableFormatError(f"negative sequence index {seq_idx}")
            max_seq = max(max_seq, seq_idx)
            for sym, off in zip(row.episode.event_types, offsets):
                triples.add((seq_idx, t + off, sym))
    if max_seq >= table.n_sequences:
        raise TableFormatError("start refers to a sequence beyond the declared count")
    unknown = sorted(key for key in table.multiplicities if key not in triples)
    if unknown:
        seq_idx, t, sym = unknown[0]
        raise TableFormatError(f"#mult names {seq_idx}:{t}:{sym}, which no row codes")
    names = sorted({sym for _, _, sym in triples})
    alphabet = Alphabet(tuple(names))
    sequences: list[list[Event]] = [[] for _ in range(table.n_sequences)]
    for seq_idx, t, sym in triples:
        copies = table.multiplicities.get((seq_idx, t, sym), 1)
        sequences[seq_idx].extend([Event(alphabet.index(sym), t)] * copies)
    return EventDataset(tuple(tuple(seq) for seq in sequences), alphabet)


TABLE_HEADER = ["size", "episode", "freq", "starts"]


def save_table(table: EncodingTable, handle: IO[str]) -> None:
    """Write a table as CSV with header ``size,episode,freq,starts``.

    Start lists are ``;``-separated ``seq:time`` pairs.  When the coded
    data held duplicate events, their multiplicities follow the header as
    one ``#mult`` comment line.  A ``#sequences N`` comment line follows
    when the data has sequences after the last one any row refers to.

    Raises :class:`TableFormatError`, before writing anything, when a row
    symbol holds whitespace or a ``#mult`` symbol holds ``;``: the table
    could not be read back.
    """
    for row in table.rows:
        for sym in row.episode.event_types:
            if any(map(str.isspace, sym)):
                raise TableFormatError(f"symbol {sym!r} holds whitespace")
    for _, _, sym in table.multiplicities:
        if ";" in sym:
            raise TableFormatError(f"duplicated symbol {sym!r} holds ';'")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    if table.multiplicities:
        parts = [
            f"{seq}:{t}:{sym}={m}"
            for (seq, t, sym), m in sorted(table.multiplicities.items())
        ]
        handle.write("#mult " + ";".join(parts) + "\n")
    used = max((seq for row in table.rows for seq, _ in row.starts), default=-1) + 1
    if table.n_sequences != used:
        handle.write(f"#sequences {table.n_sequences}\n")
    for row in table.rows:
        starts = ";".join(f"{seq}:{t}" for seq, t in row.starts)
        writer.writerow(
            [row.size, format_episode(row.episode), row.frequency, starts]
        )


def load_table(handle: IO[str]) -> EncodingTable:
    """Read a table written by :func:`save_table`.

    Rows of size >= 2 are marked selected and 1-node rows residual; the
    CSV format does not store that mark separately.
    """
    lines = handle.read().splitlines()
    if not lines or lines[0].split(",") != TABLE_HEADER:
        raise TableFormatError("missing table header line")
    multiplicities: dict[tuple[int, int, str], int] = {}
    declared: int | None = None
    body_start = 1
    if len(lines) > body_start and lines[body_start].startswith("#mult "):
        for part in lines[body_start][len("#mult ") :].split(";"):
            loc, _, m = part.rpartition("=")
            seq, t, sym = loc.split(":", 2)
            if int(m) < 2:
                raise TableFormatError(f"#mult gives {loc} multiplicity {m}, below 2")
            multiplicities[(int(seq), int(t), sym)] = int(m)
        body_start += 1
    if len(lines) > body_start and lines[body_start].startswith("#sequences "):
        declared = int(lines[body_start][len("#sequences ") :])
        body_start += 1
    rows: list[TableRow] = []
    max_seq = -1
    for record in csv.reader(lines[body_start:]):
        if not record:
            continue
        if len(record) != 4:
            raise TableFormatError(f"expected 4 fields, got {record!r}")
        size_text, episode_text, freq_text, starts_text = record
        episode = parse_episode(episode_text)
        if int(size_text) != episode.length:
            raise TableFormatError(
                f"size field {size_text} does not match episode {episode_text!r}"
            )
        starts: list[tuple[int, int]] = []
        if starts_text:
            for pair in starts_text.split(";"):
                seq, _, t = pair.partition(":")
                starts.append((int(seq), int(t)))
        if int(freq_text) != len(starts):
            raise TableFormatError(
                f"frequency field {freq_text} does not match "
                f"{len(starts)} start entries"
            )
        # Starts increase strictly, but a 1-node row repeats a start once
        # for each copy of its event that #mult records.
        sym = episode.event_types[0] if episode.length == 1 else None
        if not all(map(lt, starts, starts[1:])) and (
            not all(map(le, starts, starts[1:]))
            or any(len(list(r)) > multiplicities.get((*s, sym), 1) for s, r in groupby(starts))
        ):
            raise TableFormatError(f"starts of row {episode_text!r} repeat or are out of order")
        for seq_idx, _ in starts:
            max_seq = max(max_seq, seq_idx)
        rows.append(
            TableRow(episode, tuple(starts), residual=episode.length == 1)
        )
    if declared is not None and declared <= max_seq:
        raise TableFormatError(
            f"#sequences {declared} but a start refers to sequence {max_seq}"
        )
    n_sequences = max_seq + 1 if declared is None else declared
    return EncodingTable(tuple(rows), multiplicities, n_sequences)
