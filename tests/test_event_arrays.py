"""The event loader, the time axis and the decoder against frozen per-event
implementations (``tests/oracles.py``), on seeded datasets that hold empty
sequences, duplicate events, tied times whose names sort against their ids,
unsorted input, times near ±10**30 and near the int64 limits, times
spelled as ``int`` reads them leniently, and CRLF or CR line ends."""

import io
import random
import tracemalloc

import numpy as np
import pytest

from episodeseq import (
    Alphabet,
    DataValidationError,
    EventDataset,
    FixedIntervalEpisode,
    FrequencyMode,
    TableFormatError,
    decode,
    dump_events,
    encode,
    forced_selection,
    hmm,
    load_events,
    parse_serial_episode,
    select,
)
from episodeseq.mdl import EncodingTable, TableRow
from episodeseq.occurrences import _Axis
from oracles import (
    event_tuples,
    pairs,
    reference_axis,
    reference_decode,
    reference_load_events,
    start_list,
)

N_CASES = 3000
_BASES = (10**30, -(10**30), 2**62 - 20, -(2**62) - 5, 2**63 - 30, -(2**63) + 5)
_NAMES = ("A", "B", "C", "D", "a b", "Z9")


def _raw(rng: random.Random, allow_empty: bool) -> list[list[tuple[int, str]]]:
    """Sequences of (time, name) pairs: unsorted, with repeated events and tied
    times, and, when ``allow_empty``, empty sequences anywhere."""
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    sequences = []
    for _ in range(rng.randint(0 if allow_empty else 1, 4)):
        if allow_empty and rng.random() < 0.25:
            sequences.append([])
            continue
        base = rng.choice(_BASES) if rng.random() < 0.5 else 0
        seq = [(base + rng.randint(-3, 12), rng.choice(names)) for _ in range(rng.randint(1, 25))]
        if rng.random() < 0.15:  # a sequence spanning more than int64 or a 64-bit axis holds
            seq.append((rng.choice((base + 2**40, base + 10**25, -base)), rng.choice(names)))
        seq += [rng.choice(seq) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            seq.sort()
        sequences.append(seq)
    return sequences


def _spelled(rng: random.Random, t: int) -> str:
    """``t`` as ``int`` reads it: plain, signed, padded or with underscores."""
    text = str(t)
    form = rng.randrange(5)
    if form == 1 and t >= 0:
        return "+" + text
    if form == 2:
        return " " + text + " "
    if form == 3 and len(text.lstrip("-")) > 1:
        return text[:-1] + "_" + text[-1]
    return text


def _event_text(rng: random.Random, sequences) -> str:
    """An event file of the sequences, with runs of blank or whitespace-only
    lines between them, CRLF or CR line ends, and, in one case of ten, one
    bad line."""
    lines = [rng.choice(["", "  ", "\t"]) for _ in range(rng.randint(0, 2))]
    ends = ["", "", " ", "\r"]
    for seq in sequences:
        lines += [f"{_spelled(rng, t)}\t{name}" + rng.choice(ends) for t, name in seq]
        lines += [rng.choice(["", " ", "\t "]) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.1:
        bad = rng.choice(["x\tA", "5 A", "5\tA\tB", "1__0\tA", "\tA", "5\t", "0x1\tB"])
        lines.insert(rng.randint(0, len(lines)), bad)
    text = "\n".join(lines) + rng.choice(["", "\n"])
    return text.replace("\n", "\r", rng.randint(1, 3)) if rng.random() < 0.2 else text


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DataValidationError, TableFormatError, ValueError) as err:
        return type(err), str(err)


def test_load_events_equals_the_per_line_reader():
    rng = random.Random(1801)
    refused = huge = 0
    for _ in range(N_CASES):
        text = _event_text(rng, _raw(rng, False))
        newline = rng.choice(("\n", ""))  # "": a lone CR ends a line too
        got = _outcome(load_events, io.StringIO(text, newline=newline))
        want = _outcome(reference_load_events, io.StringIO(text, newline=newline))
        if isinstance(want, tuple):
            assert got == want, text
            refused += 1
            continue
        assert (event_tuples(got), got.alphabet) == (event_tuples(want), want.alphabet), text
        assert got == want
        huge += any(abs(t) >= 2**62 for t in want.times.tolist())
    assert refused > 150 and huge > 1000


def _dataset(rng: random.Random) -> EventDataset:
    """A dataset over an alphabet whose ids follow or go against name order."""
    raw = _raw(rng, True)
    names = sorted({name for seq in raw for _, name in seq} | {"A"})
    if rng.random() < 0.5:
        names.reverse()
    return EventDataset.from_tuples(raw, Alphabet(tuple(names)))


_AXIS_FIELDS = ("max_gap", "time_type", "sym_type", "gap_type", "n_types")
_AXIS_ARRAYS = ("key", "mult", "times", "types")


def _assert_axis_points_at_the_walks_events(got: _Axis, want, data: EventDataset) -> None:
    """``got``'s slots point at the events of the walk's (sequence,
    position) pairs, and every axis time of the walk reads back as the
    walk's ``(sequence, time)`` pair."""
    assert got.event.dtype == np.int64
    assert np.array_equal(got.event, data.offsets[want.seq] + want.pos)
    at = np.array(list(want.pair_at), np.int64)
    slots = np.searchsorted(got.key, at * got.n_types)  # each axis time's first slot
    one_node = FixedIntervalEpisode((data.alphabet.symbols[0],), ())
    assert list(pairs(got.pairs(one_node, slots, 0)[0])) == list(want.pair_at.values())


def test_axis_equals_the_per_event_walk():
    rng = random.Random(1802)
    far = wide = 0
    for _ in range(N_CASES):
        data = _dataset(rng)
        max_gap = rng.choice((0, 1, 2, 3, 5, 2**31, 10**20))
        want = _outcome(reference_axis, data, max_gap)
        got = _outcome(_Axis, data, max_gap)
        if isinstance(want, tuple):
            assert got == want
            far += "too far apart" in want[1]
            continue
        wide += want.time_type is np.int64
        for name in _AXIS_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        for name in _AXIS_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            # The walk's key is float64 when the data holds no event.
            assert (a.dtype == b.dtype or not len(b)) and np.array_equal(a, b), name
        _assert_axis_points_at_the_walks_events(got, want, data)
    assert far > 20 and wide > 80


def _selection(rng: random.Random, data: EventDataset):
    """``select``'s picks, or 1-3 forced episodes of 2-3 nodes."""
    mode = rng.choice(list(FrequencyMode))
    symbols = data.alphabet.symbols
    if rng.random() < 0.5 or len(symbols) < 2:
        return select(data, rng.randint(1, 3), None, mode)
    episodes = []
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample(symbols, rng.randint(2, min(3, len(symbols))))
        gaps = tuple(rng.randint(1, 2) for _ in picked[1:])
        episodes.append(FixedIntervalEpisode(tuple(picked), gaps))
    return forced_selection(data, episodes, mode)


def _tampered(rng: random.Random, table: EncodingTable) -> EncodingTable:
    """The table, or, in five cases of nine, one with a row start repeated or
    moved, a ``#mult`` key added or changed, or another sequence count."""
    rows, mult, n = list(table.rows), dict(table.multiplicities), table.n_sequences
    kind = rng.randrange(9)
    if kind == 0 and rows:
        k = rng.randrange(len(rows))
        if rows[k].starts:
            starts = pairs(rows[k].starts)
            starts = start_list(sorted((*starts, rng.choice(starts))))
            rows[k] = TableRow(rows[k].episode, starts, True)
    elif kind == 1 and rows:
        k = rng.randrange(len(rows))
        if rows[k].starts:
            starts = pairs(rows[k].starts)
            s, t = rng.choice(starts)
            moved = (s + rng.choice((-1, 1, 3)), t + rng.randint(-2, 2))
            rows[k] = TableRow(rows[k].episode, start_list(sorted({*starts, moved})), False)
    elif kind == 2:
        s = rng.randint(-1, n)
        mult[(s, rng.randint(-3, 30), rng.choice(_NAMES))] = rng.randint(2, 3)
    elif kind == 3 and mult:
        key = rng.choice(sorted(mult))
        mult[key] += rng.choice((-1, 1))
    elif kind == 4:
        n = rng.randint(0, n + 1)
    return EncodingTable(tuple(rows), mult, n)


def test_decode_equals_the_per_entry_expansion():
    rng = random.Random(1803)
    refused = decoded = lossless = 0
    for _ in range(N_CASES):
        data = _dataset(rng)
        try:
            table = encode(data, _selection(rng, data))
        except TableFormatError:
            continue
        tampered = _tampered(rng, table)
        got, want = _outcome(decode, tampered), _outcome(reference_decode, tampered)
        if isinstance(want, tuple):
            assert got == want
            refused += 1
            continue
        assert (event_tuples(got), got.alphabet) == (event_tuples(want), want.alphabet)
        assert got == want
        decoded += 1
        if tampered == table:  # the selection's pairs code the data itself
            assert got == data, data
            lossless += 1
    assert refused > 300 and decoded > 1500 and lossless > 1000


@pytest.mark.parametrize("max_gap", [1, 3])
def test_axis_on_an_empty_dataset(max_gap):
    for offsets in ([0], [0, 0, 0]):
        data = EventDataset(offsets, [], [], Alphabet(("A",)))
        got, want = _Axis(data, max_gap), reference_axis(data, max_gap)
        assert got.max_gap == want.max_gap
        for name in _AXIS_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        _assert_axis_points_at_the_walks_events(got, want, data)


def _kept_mib(fn) -> float:
    """MiB that ``fn``'s result still holds under tracemalloc once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return kept / 2**20


def _trajectory_text() -> str:
    """The event file of a 10k-step pair-HMM trajectory."""
    alpha, beta = parse_serial_episode("A -> B -> C"), parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    handle = io.StringIO()
    dump_events(hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0)), handle)
    return handle.getvalue()


def test_loaded_and_decoded_datasets_hold_arrays_only():
    # On this 10k-step trajectory, the per-event Event tuples that load_events
    # and decode used to build kept 1.06 and 0.99 MiB (peaks of 2.43 and
    # 2.38 MiB); the CSR arrays keep about 0.15 MiB each.
    text = _trajectory_text()
    data = load_events(io.StringIO(text))
    table = encode(data, select(data, 3))
    assert _kept_mib(lambda: load_events(io.StringIO(text))) <= 0.3
    assert _kept_mib(lambda: decode(table)) <= 0.3


def test_axis_keeps_one_event_index_per_slot():
    # On this trajectory, an axis that also kept a dict from each axis time
    # to its (sequence, time) pair and per-slot sequence and position arrays
    # held 1.76 MiB; one flat event index per slot keeps about 0.28 MiB.
    data = load_events(io.StringIO(_trajectory_text()))
    assert _kept_mib(lambda: _Axis(data, 3)) <= 0.5


@pytest.mark.parametrize("bad", [2, -1, 2**70, -(2**70)])
def test_an_id_outside_the_alphabet_is_named(bad):
    with pytest.raises(DataValidationError, match=f"type id {bad} outside alphabet of size 2"):
        EventDataset([0, 1, 3], [0, 1, bad], [1, 1, 2], Alphabet(("A", "B")))
