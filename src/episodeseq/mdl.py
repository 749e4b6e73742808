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
import io
from dataclasses import dataclass
from itertools import groupby, zip_longest
from operator import le, lt
from typing import IO, Iterable, Sequence

import numpy as np

from .events import (
    Alphabet,
    EventDataset,
    FixedIntervalEpisode,
    _exact_ints,
    _name_rank,
    format_episode,
    parse_episode,
)
from .candidates import _search, row_gain
from .occurrences import FrequencyMode, StartList, _Axis, cover


class TableFormatError(ValueError):
    """Raised when an encoding table is internally inconsistent."""


def score(episode: FixedIntervalEpisode, frequency: int) -> int:
    """Coding benefit of one episode: f*N - (2N + 1 + f) units.

    Positive means the episode row is cheaper than coding its covered
    events with 1-node episodes.
    """
    return row_gain(episode.length, frequency)


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
    events = [np.empty(0, np.int64), *(other.events for other in others)]
    coded = np.bincount(np.concatenate(events), minlength=data.n_events)  # coders per event
    return score(episode, own.frequency) - int(coded[own.events].sum())


@dataclass(frozen=True)
class SelectedEpisode:
    """One selection decision, with the evidence it was based on.

    ``starts`` are the ``(sequence, start time)`` pairs of the occurrences
    found in the round's residual data.  ``events``, read-only int64, holds
    the flat indices into the input data's arrays of the events they code
    for, which never repeat; as a set, they decide equality together with
    the episode, starts and round.
    """

    episode: FixedIntervalEpisode
    starts: StartList
    round_index: int
    events: np.ndarray

    def __post_init__(self) -> None:
        events = np.array(self.events, np.int64)  # a copy, so freezing spares the caller's array
        events.flags.writeable = False
        object.__setattr__(self, "events", events)

    @property
    def frequency(self) -> int:
        return len(self.starts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SelectedEpisode)
            and (self.episode, self.starts, self.round_index)
            == (other.episode, other.starts, other.round_index)
            and np.array_equal(np.sort(self.events), np.sort(other.events))
        )

    def __hash__(self) -> int:
        return hash((self.episode, self.starts, self.round_index))

    def __reduce__(self):  # through the constructor, so copies are read-only too
        return SelectedEpisode, (self.episode, self.starts, self.round_index, self.events)


@dataclass(frozen=True)
class SelectionState:
    """Outcome of the greedy selection over one dataset."""

    selected: tuple[SelectedEpisode, ...]
    n_rounds: int

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
    far; a cover binds each slot's lowest copy still left, whose flat index
    a pick keeps.  Penalties only grow within a round, so stale heap keys
    are bounds and only the top entry is rescored (Minoux's lazy greedy, 1978).
    """
    axis = _Axis(data, max_gap)
    if max_episodes is not None and max_episodes < 1:
        raise ValueError("max_episodes must be >= 1 when given")

    removed = np.zeros(len(axis.mult), np.int64)  # events coded so far, per slot
    selected: list[SelectedEpisode] = []
    round_index = 0
    while max_episodes is None or len(selected) < max_episodes:
        left = removed < axis.mult
        if not left.any():
            break
        # Non-positive scores can never yield a positive overlap-score.
        candidates = _search(axis, left, mode is FrequencyMode.NON_OVERLAPPED, True)
        covers = [cand.cover for cand in candidates]
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
            episode, cov = candidates[i].episode, covers[i]
            starts, events = axis.pairs(episode, cov, removed[cov])
            selected.append(SelectedEpisode(episode, starts, round_index, events))
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
    covers may overlap, exactly as when scoring an arbitrary set.  They
    share one axis, whose ``max_gap`` is the list's largest gap.
    """
    axis = _Axis(data, max((g for episode in episodes for g in episode.gaps), default=1))
    selected = []
    for episode in episodes:
        cov = cover(axis, episode, mode is FrequencyMode.NON_OVERLAPPED)
        starts, events = axis.pairs(episode, cov, 0)
        selected.append(SelectedEpisode(episode, starts, 0, events))
    return SelectionState(tuple(selected), 1 if selected else 0)


@dataclass(frozen=True)
class TableRow:
    """One encoding-table row: size, episode, frequency, start times.

    ``starts`` holds the ``(sequence index, start time)`` pairs.
    """

    episode: FixedIntervalEpisode
    starts: StartList
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

    One row per selected episode, in selection order, sharing the pick's
    start list, followed by one 1-node row per event type still uncovered,
    in symbol order, whose starts view one array of the leftovers.  Raises
    :class:`TableFormatError`, as :func:`decode` would on the table, when a
    selected 1-node episode covers an event another selected one covers.
    """
    rows = [TableRow(sel.episode, sel.starts, residual=False) for sel in selection.selected]
    # The events in canonical order: by sequence, time, then name.
    types, times = data.types, data.times
    seqs = np.repeat(np.arange(data.n_sequences), np.diff(data.offsets))
    events = [np.empty(0, np.int64), *(sel.events for sel in selection.selected)]
    coded = np.bincount(np.concatenate(events), minlength=len(types))
    for sel in selection.selected:  # decode refuses a 1-node row's event coded twice
        if sel.episode.length == 1 and (coded[sel.events] > 1).any():
            raise TableFormatError(f"episode {sel.episode} codes events another episode codes")
    names = data.alphabet.symbols
    # Leftovers grouped by name, each group in (sequence, time) order.
    left = np.flatnonzero(coded == 0)
    left = left[np.argsort(_name_rank(data.alphabet)[types[left]], kind="stable")]
    starts = StartList(seqs[left], times[left])
    cuts = np.flatnonzero(np.diff(types[left], prepend=-1))
    for a, z, x in zip(cuts.tolist(), [*cuts[1:].tolist(), len(left)], types[left[cuts]].tolist()):
        rows.append(TableRow(FixedIntervalEpisode((names[x],), ()), starts[a:z], residual=True))
    # Copies of one (sequence, time, type) are adjacent.
    same = (times[1:] == times[:-1]) & (np.diff(types) == 0) & (np.diff(seqs) == 0)
    heads = np.flatnonzero(np.append(True, ~same))
    copies = np.diff(heads, append=len(times))
    dup = copies > 1
    keys = zip(seqs[heads[dup]].tolist(), times[heads[dup]].tolist(), types[heads[dup]].tolist())
    multiplicities = {(s, t, names[x]): m for (s, t, x), m in zip(keys, copies[dup].tolist())}
    return EncodingTable(tuple(rows), multiplicities, data.n_sequences)


def total_length(table: EncodingTable) -> int:
    """Total encoded length in integer units: sum of 2N + 1 + f per row."""
    return sum(row.cost for row in table.rows)


def decode(table: EncodingTable) -> EventDataset:
    """Expand an encoding table back into the event dataset it codes.

    Every row's starts are expanded through the episode's gaps; events
    coded by several rows collapse to the multiplicity the original data
    had (1 unless listed in the table's multiplicity map).  Raises
    :class:`TableFormatError` for a ``#mult`` key no row codes, and when 1-node
    rows code an event more often than its copies, less one if a longer row does.
    """
    alphabet = Alphabet.from_names(
        [sym for row in table.rows if row.starts for sym in row.episode.event_types]
        + [sym for _, _, sym in table.multiplicities]
    )
    # Entries of (sequence, time, symbol id, episode size, copies): one per
    # row node and start, then one per #mult key, with size 0.
    seqs, times, blocks = [], [], []  # blocks: (entries, symbol id, episode size, copies)
    for row in table.rows:
        if not row.starts:
            continue
        s, t, offsets = row.starts.seqs, row.starts.times, row.episode.offsets()
        if t.dtype == object or offsets[-1] >= 2**61:
            t = t.astype(object)  # node times that int64 might not hold
        for sym, off in zip(row.episode.event_types, offsets):
            seqs.append(s)
            times.append(t + off)
            blocks.append((len(t), alphabet.index(sym), row.size, 1))
    seq = np.concatenate([np.empty(0, np.int64), *seqs])
    low, high, n = seq.min(initial=0), seq.max(initial=-1), table.n_sequences
    if low < 0 or high >= n:
        raise TableFormatError(f"start in sequence {low if low < 0 else high}, outside 0..{n - 1}")
    for (s, t, sym), m in table.multiplicities.items():
        if not 0 <= s <= high:
            raise TableFormatError(f"rows and #mult disagree on the copies of {s}:{t}:{sym}")
        blocks.append((1, alphabet.index(sym), 0, m))
    seq = np.append(seq, np.array([s for s, _, _ in table.multiplicities], np.int64))
    times.append(_exact_ints([t for _, t, _ in table.multiplicities]))
    count, sym, size, m = np.array(blocks, np.int64).reshape(-1, 4).T
    sym, size, m = (np.repeat(x, count) for x in (sym, size, m))
    t = _exact_ints(np.concatenate(times))
    order = np.lexsort((sym, t, seq))
    seq, t, sym, size, m = seq[order], t[order], sym[order], size[order], m[order]
    head = np.ones(len(order), bool)
    head[1:] = (np.diff(seq) != 0) | (t[1:] != t[:-1]) | (np.diff(sym) != 0)
    heads = np.flatnonzero(head)
    copies = np.maximum.reduceat(m, heads)
    one_node = np.add.reduceat(size == 1, heads, dtype=np.int64)
    size = np.maximum.reduceat(size, heads)  # 0: only #mult names the event
    # Multi-node rows may code one copy of an event, 1-node rows the others.
    bad = np.flatnonzero((size == 0) | (one_node > copies - (size > 1)))
    if len(bad):
        i = heads[bad[0]]
        where = f"{seq[i]}:{t[i]}:{alphabet.name(sym[i])}"
        raise TableFormatError(f"rows and #mult disagree on the copies of {where}")
    at = np.repeat(heads, copies)  # one entry per decoded event
    del order, head, copies, one_node, size, m, bad
    ends = np.append(0, np.cumsum(np.bincount(seq[at], minlength=n)))
    return EventDataset(ends, sym[at], t[at], alphabet)


TABLE_HEADER = ["size", "episode", "freq", "starts"]


def _table_text(table: EncodingTable) -> str:
    """The one text :func:`save_table` writes and :func:`load_table` accepts for ``table``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    if table.multiplicities:
        parts = [
            f"{seq}:{t}:{sym}={m}"
            for (seq, t, sym), m in sorted(table.multiplicities.items())
        ]
        out.write("#mult " + ";".join(parts) + "\n")
    seqs = np.concatenate([np.empty(0, np.int64), *(row.starts.seqs for row in table.rows)])
    used = int(seqs.max(initial=-1)) + 1
    if table.n_sequences != used:
        out.write(f"#sequences {table.n_sequences}\n")
    for row in table.rows:
        cells = zip(row.starts.seqs.tolist(), row.starts.times.tolist())
        starts = ";".join([f"{seq}:{t}" for seq, t in cells])
        writer.writerow(
            [row.size, format_episode(row.episode), row.frequency, starts]
        )
    return out.getvalue()


def save_table(table: EncodingTable, handle: IO[str]) -> None:
    """Write a table as CSV with header ``size,episode,freq,starts``.

    Start lists are ``;``-separated ``seq:time`` pairs.  When the coded
    data held duplicate events, their multiplicities follow the header as
    one ``#mult`` comment line, its keys sorted.  A ``#sequences N`` comment
    line follows when the data has sequences after the last one any row
    refers to.  Every line ends in ``\\n`` and every integer is plain decimal.

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
    handle.write(_table_text(table))


def load_table(handle: IO[str]) -> EncodingTable:
    """Read a table, whose text must be exactly what :func:`save_table` writes.

    The rows' integers are parsed into one :class:`StartList`, which each
    row views a slice of.
    Rows of size >= 2 are marked selected and 1-node rows residual; the
    CSV format does not store that mark separately.  Raises
    :class:`TableFormatError` for a multiplicity below 2, for starts that
    repeat or fall out of order, for ``#sequences`` at or below a sequence
    that a start refers to, and for any other text that :func:`save_table`
    would not write back byte for byte, naming the first line that differs;
    a line that does not parse, or whose sequence index, sequence count or
    multiplicity int64 cannot hold, is named too.
    """
    text = handle.read()
    lines = text.splitlines()
    multiplicities: dict[tuple[int, int, str], int] = {}
    declared = None
    episodes, ends, flat = [], [], []  # per row: its episode and where its starts end; every integer
    n = 1  # lines[0], the header, is compared with the rest, last
    try:
        if n < len(lines) and lines[n].startswith("#mult "):
            for part in lines[n][len("#mult ") :].split(";"):
                loc, _, m = part.rpartition("=")
                key = loc.split(":", 2)
                if len(key) != 3:
                    raise TableFormatError(f"#mult entry {part!r} is not seq:time:symbol=count")
                if int(m) < 2:
                    raise TableFormatError(f"#mult gives {loc} multiplicity {m}, below 2")
                if int(m) >= 2**63:
                    raise TableFormatError(f"#mult gives {loc} multiplicity {m}, past int64")
                multiplicities[(int(key[0]), int(key[1]), key[2])] = int(m)
            n += 1
        if n < len(lines) and lines[n].startswith("#sequences "):
            declared = int(lines[n][len("#sequences ") :])
            if declared >= 2**63:
                raise TableFormatError(f"#sequences {declared} is past int64")
            n += 1
        for n in range(n, len(lines)):
            line = lines[n]
            if not line:
                continue
            head, *tail = line.rsplit(",", 2)  # long starts outgrow csv's field size limit
            record = [*next(csv.reader([head]), []), *tail]
            if len(record) != 4:
                raise TableFormatError(f"expected 4 fields, got {record!r}")
            episode = parse_episode(record[1])
            row = list(map(int, record[3].replace(":", ";").split(";"))) if record[3] else []
            if len(row) % 2:
                raise TableFormatError("a start needs one sequence index and one time")
            starts = list(zip(row[0::2], row[1::2]))
            # Starts increase strictly, but a 1-node row repeats a start once
            # for each copy of its event that #mult records.
            sym = episode.event_types[0] if episode.length == 1 else None
            if not all(map(lt, starts, starts[1:])) and (
                not all(map(le, starts, starts[1:]))
                or any(len(list(r)) > multiplicities.get((*s, sym), 1) for s, r in groupby(starts))
            ):
                raise TableFormatError(f"starts of row {record[1]!r} repeat or are out of order")
            # The sequence count, one past the largest index, must fit int64 too.
            if row and not -(2**63) <= min(row[0::2]) <= max(row[0::2]) < 2**63 - 1:
                raise TableFormatError(f"a sequence index of row {record[1]!r} is past int64")
            episodes.append(episode)
            flat += row
            ends.append(len(flat) // 2)
    except ValueError as err:
        raise TableFormatError(f"line {n + 1}: {err}") from err
    # All rows' starts are parsed into one start list, which the rows view.
    flat = _exact_ints(flat).reshape(-1, 2)
    starts = StartList(flat[:, 0], flat[:, 1])
    rows = [
        TableRow(episode, starts[a:z], residual=episode.length == 1)
        for episode, a, z in zip(episodes, [0, *ends], ends)
    ]
    max_seq = int(starts.seqs.max(initial=-1))
    if declared is not None and declared <= max_seq:
        raise TableFormatError(
            f"#sequences {declared} but a start refers to sequence {max_seq}"
        )
    n_sequences = max_seq + 1 if declared is None else declared
    table = EncodingTable(tuple(rows), multiplicities, n_sequences)
    lines, canonical = text.splitlines(True), _table_text(table).splitlines(True)
    if lines != canonical:
        pairs = zip_longest(lines, canonical, fillvalue="")
        n, got, want = next((n, *p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
        raise TableFormatError(
            f"line {n} is not as save_table writes it (LF line ends, integers in plain "
            f"decimal): expected {want!r}, got {got!r}"
        )
    return table
