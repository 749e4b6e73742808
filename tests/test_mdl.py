import contextlib
import copy
import csv
import dataclasses
import io
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episodeseq import (
    Alphabet,
    EventDataset,
    FixedIntervalEpisode,
    FrequencyMode,
    OccurrenceList,
    TableFormatError,
    corpus_to_events,
    decode,
    dump_events,
    encode,
    find_distinct_starts,
    find_no_occurrences,
    forced_selection,
    hmm,
    load_events,
    load_table,
    occurrences_for_mode,
    overlap_score,
    parse_episode,
    parse_serial_episode,
    save_table,
    score,
    select,
    total_length,
)
from episodeseq.candidates import generate_candidates
from episodeseq.datasets import make_two_class_corpus
from episodeseq.mdl import TableRow
from episodeseq.occurrences import StartList
from oracles import (
    Event,
    all_fixed_interval_episodes,
    covered,
    event_dataset,
    event_tuples,
    pairs,
    per_sequence_starts,
    random_dataset,
    random_planted_dataset,
    raw_events,
    raw_sequences,
    reference_canonical,
    reference_distinct_starts,
    reference_encode,
    reference_forced_selection,
    reference_overlap_score,
    reference_select,
    start_list,
    triples_decode,
)


@pytest.mark.parametrize(
    "text,f,expected",
    [
        ("A -1-> B -1-> C", 2, -3),
        ("A -1-> B -1-> C", 5, 3),
        ("A", 0, -3),
        ("A", 7, -3),
    ],
)
def test_score_formula(text, f, expected):
    assert score(parse_episode(text), f) == expected


def test_overlap_score_on_sample(sample_data):
    ep1 = parse_episode("A -2-> B -1-> C")
    ep2 = parse_episode("D -2-> E -2-> C")
    got = overlap_score(ep2, sample_data, [ep1], FrequencyMode.DISTINCT)
    assert got == -3 - 1 == -4
    assert overlap_score(ep2, sample_data, [], FrequencyMode.DISTINCT) == -3


def test_overlap_score_full_cover_penalty():
    # candidate's cover sits entirely inside the selected episode's cover
    seq = [(t, s) for k in range(6) for t, s in ((4 * k + 1, "A"), (4 * k + 2, "B"), (4 * k + 3, "C"))]
    data = EventDataset.from_tuples([seq])
    small = parse_episode("A -1-> B")
    big = parse_episode("A -1-> B -1-> C")
    f = 6
    assert (
        overlap_score(small, data, [big], FrequencyMode.NON_OVERLAPPED)
        == score(small, f) - small.length * f
    )


def test_select_empty_data():
    data = EventDataset.from_tuples([[(1, "A")]])
    empty = EventDataset([0, 0], [], [], data.alphabet)
    state = select(empty, 2)
    assert state.selected == ()


def test_select_clean_repetitions_matches_subset_brute_force():
    seq = [(t, s) for k in range(5) for t, s in ((3 * k + 1, "A"), (3 * k + 2, "B"), (3 * k + 3, "C"))]
    data = EventDataset.from_tuples([seq])
    state = select(data, 2, max_episodes=10)
    chosen = {str(sel.episode) for sel in state.selected}
    assert chosen == {"A -1-> B -1-> C"}

    # brute force: over all subsets (size <= 2) of episodes with nonzero
    # frequency, the chosen set must minimize the total encoded length
    universe = [
        ep
        for ep in all_fixed_interval_episodes(data.alphabet.symbols, 3, 2)
        if ep.length >= 2
    ]
    universe = [
        ep
        for ep in universe
        if forced_selection(data, [ep]).selected[0].frequency > 0
    ]
    best_length = None
    best_sets = []
    for size in (0, 1, 2):
        for subset in combinations(universe, size):
            table = encode(data, forced_selection(data, list(subset)))
            length = total_length(table)
            if best_length is None or length < best_length:
                best_length = length
                best_sets = [{str(ep) for ep in subset}]
            elif length == best_length:
                best_sets.append({str(ep) for ep in subset})
    mine_table = encode(data, state)
    assert total_length(mine_table) == best_length
    assert chosen in best_sets


def test_select_k_limits_selection():
    rng = random.Random(2)
    data, _ = random_planted_dataset(rng, n_repetitions=8)
    state = select(data, 2, max_episodes=1)
    assert len(state.selected) <= 1


def test_encode_reproduces_reference_rows(sample_data, sample_episodes):
    state = forced_selection(sample_data, sample_episodes, FrequencyMode.DISTINCT)
    table = encode(sample_data, state)
    rows = [
        (row.size, str(row.episode), row.frequency, pairs(row.starts), row.residual)
        for row in table.rows
    ]
    assert rows == [
        (3, "A -2-> B -1-> C", 2, ((0, 2), (0, 4)), False),
        (3, "D -2-> E -2-> C", 2, ((0, 1), (0, 5)), False),
        (2, "A -1-> B", 1, ((0, 7),), False),
        (1, "C", 2, ((0, 3), (0, 8)), True),
    ]
    assert total_length(table) == 29
    assert decode(table) == sample_data


def test_encode_no_mode_filters_row_starts(sample_data, sample_episodes):
    state = forced_selection(sample_data, sample_episodes, FrequencyMode.NON_OVERLAPPED)
    table = encode(sample_data, state)
    assert pairs(table.rows[0].starts) == ((0, 2),)


def test_encode_without_selection_is_one_row_per_type(sample_data):
    table = encode(sample_data, forced_selection(sample_data, []))
    assert all(row.size == 1 and row.residual for row in table.rows)
    assert [str(row.episode) for row in table.rows] == ["A", "B", "C", "D", "E"]
    assert decode(table) == sample_data


def test_total_length_units():
    data = EventDataset.from_tuples([[(3, "X")]])
    table = encode(data, forced_selection(data, []))
    assert total_length(table) == 4  # 2*1 + 1 + 1
    empty = EventDataset([0, 0], [], [], data.alphabet)
    assert total_length(encode(empty, forced_selection(empty, []))) == 0


def test_decode_single_row():
    text = "size,episode,freq,starts\n1,C,2,0:3;0:8\n"
    table = load_table(io.StringIO(text))
    data = decode(table)
    assert data.n_events == 2
    assert raw_events(data) == [
        (3, "C"),
        (8, "C"),
    ]


def test_roundtrip_on_random_datasets():
    rng = random.Random(21)
    for k in range(100):
        if k % 2 == 0:
            data = random_dataset(rng, allow_duplicates=True)
            state = select(data, 2, mode=FrequencyMode.NON_OVERLAPPED)
        else:
            data, episode = random_planted_dataset(rng)
            mode = FrequencyMode.DISTINCT if k % 4 == 1 else FrequencyMode.NON_OVERLAPPED
            state = forced_selection(data, [episode], mode)
        table = encode(data, state)
        assert decode(table) == data


def test_compression_monotonicity_lemma():
    # adding any positive-overlap-score episode strictly shrinks the code
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        data, planted = random_planted_dataset(
            rng, n_repetitions=rng.randint(4, 8), noise_events=rng.randint(2, 10)
        )
        mode = FrequencyMode.NON_OVERLAPPED if rng.random() < 0.5 else FrequencyMode.DISTINCT
        universe = [
            ep
            for ep in all_fixed_interval_episodes(data.alphabet.symbols, 2, 2)
            if ep.length == 2
        ]
        rng.shuffle(universe)
        base = [planted] if rng.random() < 0.7 else []
        base += universe[: rng.randint(0, 2)]
        alpha = None
        for ep in universe[3:] + [planted]:
            if any(str(ep) == str(b) for b in base):
                continue
            if overlap_score(ep, data, base, mode) > 0:
                alpha = ep
                break
        if alpha is None:
            continue
        before = total_length(encode(data, forced_selection(data, base, mode)))
        after = total_length(
            encode(data, forced_selection(data, base + [alpha], mode))
        )
        assert after < before
        checked += 1


def test_selected_nonsingletons_have_f_at_least_three():
    rng = random.Random(23)
    for _ in range(20):
        data, _ = random_planted_dataset(rng)
        state = select(data, 2)
        for sel in state.selected:
            assert sel.episode.length >= 2
            assert sel.frequency >= 3


def test_select_deterministic():
    rng = random.Random(29)
    data, _ = random_planted_dataset(rng, n_repetitions=7)
    first = select(data, 2)
    second = select(data, 2)
    assert [
        (str(s.episode), s.starts, s.frequency, s.round_index)
        for s in first.selected
    ] == [
        (str(s.episode), s.starts, s.frequency, s.round_index)
        for s in second.selected
    ]


def _rounds_dataset(rng: random.Random) -> EventDataset:
    """1-4 sequences over A/B/C, times -4..12, some empty, with duplicates."""
    sequences = []
    for _ in range(rng.randint(1, 4)):
        size = 0 if rng.random() < 0.2 else rng.randint(8, 40)
        seq = [(rng.randint(-4, 12), rng.choice("ABC")) for _ in range(size)]
        if seq:
            seq += [rng.choice(seq) for _ in range(rng.randint(0, 4))]
        sequences.append(seq)
    return EventDataset.from_tuples(sequences, Alphabet(("A", "B", "C")))


def test_select_covers_bind_lowest_events_left_by_earlier_rounds():
    rng = random.Random(31)
    for k in range(300):
        data = _rounds_dataset(rng)
        mode = FrequencyMode.DISTINCT if k % 2 else FrequencyMode.NON_OVERLAPPED
        state = select(data, 2, mode=mode)
        by_round: dict[int, set] = {}
        for sel in state.selected:
            by_round.setdefault(sel.round_index, set()).update(covered(sel, data))
        # covers from different rounds are disjoint
        assert sum(map(len, by_round.values())) == len(set().union(*by_round.values()))
        for sel in state.selected:
            earlier = set().union(
                *(cov for r, cov in by_round.items() if r < sel.round_index)
            )
            offsets = sel.episode.offsets()
            type_ids = [data.alphabet.index(sym) for sym in sel.episode.event_types]
            expected = set()
            starts = per_sequence_starts(sel.starts, data.n_sequences)
            for seq_idx, seq_starts in enumerate(starts):
                seq = event_tuples(data)[seq_idx]
                for t in seq_starts:
                    for tid, off in zip(type_ids, offsets):
                        # positions holding the event this node needs that no
                        # earlier round covered; the node binds the lowest
                        free = [
                            p
                            for p, ev in enumerate(seq)
                            if ev == Event(tid, t + off) and (seq_idx, p) not in earlier
                        ]
                        assert free, (str(sel.episode), seq_idx, t)
                        expected.add((seq_idx, free[0]))
            assert covered(sel, data) == expected


def _reference_dataset(rng: random.Random) -> EventDataset:
    """1-4 sequences, some empty, over A-C at times -5..15 with duplicates.

    Every other alphabet numbers its symbols out of name order.
    """
    names = rng.choice((("A", "B", "C"), ("C", "A", "B")))
    sequences = []
    for _ in range(rng.randint(1, 4)):
        size = 0 if rng.random() < 0.2 else rng.randint(8, 40)
        seq = [(rng.randint(-5, 15), rng.choice(names)) for _ in range(size)]
        copies = rng.randint(0, 4) if seq else 0
        sequences.append(seq + [rng.choice(seq) for _ in range(copies)])
    return EventDataset.from_tuples(sequences, Alphabet(names))


def test_select_equals_reference_select():
    rng = random.Random(1978)
    picks = 0
    for k in range(3000):
        data = _reference_dataset(rng)
        max_gap = rng.randint(1, 4)
        top_k = (None, 1, 2, 3, 7)[k % 5]
        for mode in FrequencyMode:
            got, want = (
                (
                    state.n_rounds,
                    [
                        (str(s.episode), s.starts, s.round_index, covered(s, data))
                        for s in state.selected
                    ],
                )
                for state in (
                    select(data, max_gap, top_k, mode),
                    reference_select(data, max_gap, top_k, mode),
                )
            )
            assert got == want, (data, max_gap, top_k, mode)
            picks += len(got[1])
    assert picks > 4000  # the selections are not mostly empty


def test_selections_are_values():
    rng = random.Random(2024)
    for _ in range(30):
        data = _reference_dataset(rng)
        twin = EventDataset.from_tuples(raw_sequences(data), data.alphabet)
        state = select(data, 2)
        copies = copy.deepcopy(state), pickle.loads(pickle.dumps(state))
        for other in (select(twin, 2), *copies):
            assert other == state and hash(other) == hash(state)
    # Two picks that differ only in which copy of A they cover differ.
    data = EventDataset.from_tuples([[(1, "A"), (1, "A"), (2, "B")]])
    (sel,) = forced_selection(data, [parse_episode("A -1-> B")]).selected
    other = dataclasses.replace(sel, events=np.array([1, 2]))
    assert (covered(sel, data), covered(other, data)) == ({(0, 0), (0, 2)}, {(0, 1), (0, 2)})
    assert sel != other and sel == dataclasses.replace(sel, events=np.array([2, 0]))


def test_picks_compare_by_their_set_of_events():
    data, _ = random_planted_dataset(random.Random(29), n_repetitions=7)
    state = select(data, 2)
    assert state.selected
    for sel in state.selected:
        flipped = dataclasses.replace(sel, events=sel.events[::-1])
        assert flipped == sel and hash(flipped) == hash(sel)
        changed = sel.events.copy()
        changed[0] = sel.events.max() + 1  # an event the pick does not code
        assert dataclasses.replace(sel, events=changed) != sel


def test_picks_stay_read_only_through_pickle_and_deepcopy():
    data, _ = random_planted_dataset(random.Random(29), n_repetitions=7)
    state = select(data, 2)
    assert state.selected
    for sel in state.selected:
        assert sel.events.dtype == np.int64 and not sel.events.flags.writeable
        for other in (pickle.loads(pickle.dumps(sel)), copy.deepcopy(sel)):
            assert other == sel and hash(other) == hash(sel)
            assert other.events.dtype == np.int64 and not other.events.flags.writeable
            assert not (other.starts.seqs.flags.writeable or other.starts.times.flags.writeable)
    # Freezing a pick's events leaves the caller's own array writeable.
    events = np.array([2, 0])
    sel = dataclasses.replace(state.selected[0], events=events)
    assert events.flags.writeable and not sel.events.flags.writeable


def _forced_case(rng):
    """1-4 sequences, some empty, of A-D events with repeats at times -5..12,
    each shifted, in a third of the cases, by 0 or +-10**30, and half of
    those split into bursts 10**25 apart; E is in the alphabet but never
    occurs.  Then 0-4 episodes of 1-3 nodes, now and then with the unknown
    symbol Z, and gaps of 1-4, 10**12, or beyond the longest sequence, up
    to 10**30.

    Gaps beyond a burst sequence are left out: a 64-bit time axis cannot
    hold such a gap, and ``forced_selection`` refuses it (see
    ``test_forced_selection_refuses_a_gap_too_long_for_the_axis``).
    """
    huge = rng.random() < 1 / 3
    sequences = []
    for _ in range(rng.randint(1, 4)):
        base = rng.choice((0, 10**30, -(10**30))) if huge else 0
        jump = rng.choice((0, 10**25)) if huge else 0
        size = 0 if rng.random() < 0.2 else rng.randint(1, 30)
        seq = [
            (base + rng.randrange(2) * jump + rng.randint(-5, 12), rng.choice("ABCD"))
            for _ in range(size)
        ]
        sequences.append(seq + [rng.choice(seq) for _ in range(rng.randint(0, 3) if seq else 0)])
    data = EventDataset.from_tuples(sequences, Alphabet(tuple("ABCDE")))
    longest = max((seq[-1].time - seq[0].time for seq in event_tuples(data) if seq), default=0)
    beyond = (longest + 1, longest + 3, 10**30) if longest < 10**12 else (1,)
    episodes = []
    for _ in range(rng.randint(0, 4)):
        symbols = rng.sample("ABCDE" + "Z" * (rng.random() < 0.05), rng.randint(1, 3))
        gaps = [rng.choice((1, 2, 3, 4, 1, 2, 10**12, *beyond)) for _ in symbols[1:]]
        episodes.append(FixedIntervalEpisode(tuple(symbols), tuple(gaps)))
    return data, episodes


def test_forced_selection_equals_reference():
    # forced_selection, overlap_score and the occurrence helpers against the
    # set-and-dict engine, and so the tables of mine --force-episodes.
    rng = random.Random(2019)
    found = unknown = 0
    for _ in range(3000):
        data, episodes = _forced_case(rng)
        for mode in FrequencyMode:
            try:
                want = reference_forced_selection(data, episodes, mode)
            except KeyError:
                unknown += 1
                with pytest.raises(KeyError):
                    forced_selection(data, episodes, mode)
                continue
            assert forced_selection(data, episodes, mode) == want, (data, episodes)
            for episode, sel in zip(episodes, want.selected):
                got = occurrences_for_mode(data, episode, mode)
                assert got == OccurrenceList(episode, sel.starts)
                found += bool(sel.starts)
            if episodes:
                got = overlap_score(episodes[0], data, episodes[1:], mode)
                assert got == reference_overlap_score(episodes[0], data, episodes[1:], mode)
        for episode in episodes:
            try:
                want = reference_distinct_starts(data, episode)
            except KeyError:
                with pytest.raises(KeyError):
                    find_distinct_starts(data, episode)
                continue
            assert find_distinct_starts(data, episode) == want
    assert found > 3000 and unknown > 50


def test_forced_selection_refuses_a_gap_too_long_for_the_axis():
    # Sequences spanning 10**25: a 2 * 10**18 gap would take the shared time
    # axis past 2**63, so the list is refused whether the episode occurs or not.
    from test_golden import _huge_times_text

    data = load_events(io.StringIO(_huge_times_text()))
    for gap in (2 * 10**18, 10**30):
        with pytest.raises(ValueError, match="64-bit axis"):
            forced_selection(data, [parse_episode("A -1-> B"), parse_episode(f"C -{gap}-> D")])
    with pytest.raises(ValueError, match="64-bit axis"):
        select(data, 10**20)
    (sel,) = forced_selection(data, [parse_episode(f"C -{10**12}-> D")]).selected
    assert pairs(sel.starts) == ()


def _io_dataset(rng):
    """0-4 sequences, some empty, of unsorted events with repeats, over an
    alphabet that numbers every other symbol out of name order, at times in
    -5..12 around 0 or +-10**30."""
    names = rng.choice((("A", "B", "C", "D"), ("C", "A", "D", "B")))
    sequences = []
    for _ in range(rng.randint(0, 4)):
        base = rng.choice((0, 0, 10**30, -(10**30)))
        size = 0 if rng.random() < 0.25 else rng.randint(1, 30)
        seq = [Event(rng.randrange(4), base + rng.randint(-5, 12)) for _ in range(size)]
        if seq:
            seq += [rng.choice(seq) for _ in range(rng.randint(0, 4))]
        sequences.append(tuple(seq))
    return tuple(sequences), Alphabet(names)


def _io_selection(rng, data, k):
    """``select``'s picks, or, every third case, 2-4 forced episodes that may
    share events, of 2-3 nodes or, every sixth case, of 1-3 nodes."""
    if k % 3:
        mode = rng.choice(list(FrequencyMode))
        return select(data, rng.randint(1, 4), rng.choice((None, 2)), mode)
    episodes = []
    for _ in range(rng.randint(2, 4)):
        symbols = rng.sample(data.alphabet.symbols, rng.randint(1 + k % 2, 3))
        gaps = " ".join(f"-{rng.randint(1, 2)}-> {sym}" for sym in symbols[1:])
        episodes.append(parse_episode(f"{symbols[0]} {gaps}"))
    return forced_selection(data, episodes, rng.choice(list(FrequencyMode)))


def test_io_path_equals_reference():
    rng = random.Random(2005)
    overlapping = refused = 0
    for k in range(3000):
        raw, alphabet = _io_dataset(rng)
        data = event_dataset(raw, alphabet)
        assert event_tuples(data) == reference_canonical(raw, alphabet), raw
        selection = _io_selection(rng, data, k)
        want = reference_encode(data, selection)
        shared = [
            (a, b)
            for a, b in combinations(selection.selected, 2)
            if covered(a, data) & covered(b, data)
        ]
        # A 1-node episode's row codes the events it shares a second time.
        if any(1 in (a.episode.length, b.episode.length) for a, b in shared):
            refused += 1
            with pytest.raises(TableFormatError, match="codes events another episode codes"):
                encode(data, selection)
            with pytest.raises(TableFormatError, match="disagree on the copies"):
                decode(want)
            continue
        overlapping += bool(shared)
        table = encode(data, selection)
        assert [(r.episode, r.starts, r.residual) for r in table.rows] == [
            (r.episode, r.starts, r.residual) for r in want.rows
        ]
        assert table.multiplicities == want.multiplicities
        assert table.n_sequences == want.n_sequences
        got, want = decode(table), triples_decode(table)
        assert (event_tuples(got), got.alphabet) == (event_tuples(want), want.alphabet)
    assert overlapping > 120 and refused > 100


def _long_trajectory() -> EventDataset:
    """A 10k-step trajectory of a pair HMM over 9 symbols."""
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    return hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))


def test_select_memory_on_long_trajectory():
    data = _long_trajectory()
    tracemalloc.start()
    try:
        selection = select(data, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.25x the 7.92 MiB that select peaked at while it rebuilt every round
    assert peak <= 9.9 * 2**20
    # A frozenset of (sequence, position) pairs per pick kept 1.93 MiB; one
    # array of flat event indices per pick, with its starts as a tuple of
    # pairs, 0.59 MiB; with its starts as a StartList, 0.26 MiB.
    assert kept <= 0.35 * 2**20
    save_table(encode(data, selection), io.StringIO())


def test_encode_and_decode_memory_on_long_trajectory():
    data = _long_trajectory()
    selection = select(data, 3)
    peaks = []
    for step in (lambda: encode(data, selection), lambda: decode(table)):
        tracemalloc.start()
        try:
            table = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 1.25x the peak of the per-event encode (1.42 MiB).  decode peaked at
    # 2.78 MiB while it gathered a set of (sequence, time, symbol) triples,
    # at 1.46 MiB while it extended Python lists of rows' starts, and at
    # 1.04 MiB now that it concatenates their arrays.
    assert peaks[0] <= 1.25 * 1.42 * 2**20
    assert peaks[1] <= 1.3 * 2**20


def test_load_table_memory_on_long_trajectory():
    data = _long_trajectory()
    handle = io.StringIO()
    save_table(encode(data, select(data, 3)), handle)
    text = handle.getvalue()
    tracemalloc.start()
    try:
        table = load_table(io.StringIO(text))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Rows holding tuples of (sequence, time) pairs kept 0.55 MiB and peaked
    # at 1.06 MiB; rows holding StartLists keep 0.12-0.17 MiB and peak at
    # 0.69-0.73 (the first call leaves the row check's pairs on a free list).
    assert kept <= 0.3 * 2**20
    assert peak <= 0.85 * 2**20
    assert decode(table) == data


def test_select_to_decode_builds_no_tuple_of_pairs():
    """Starts stay arrays from select to decode: a start list cannot be
    read back as pairs."""
    data = _long_trajectory()
    selection = select(data, 3)
    handle = io.StringIO()
    save_table(encode(data, selection), handle)
    table = load_table(io.StringIO(handle.getvalue()))
    assert decode(table) == data
    with pytest.raises(TypeError, match="takes slices"):
        tuple(table.rows[0].starts)


def test_forced_selection_of_the_picks_costs_less_than_selecting_them():
    """Covering given episodes is one walk per episode over the axis's slot
    keys, so it takes a fraction of the search that found them; one sort of
    every key per node made it twice as slow as ``select``."""
    data = corpus_to_events(make_two_class_corpus(n_train=2000, seed=7)[0])

    def fastest(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - start)
        return min(times), out

    select_s, selection = fastest(lambda: select(data, 5))
    picks = [sel.episode for sel in selection.selected]
    forced_s, forced = fastest(lambda: forced_selection(data, picks))
    assert [sel.episode for sel in forced.selected] == picks
    assert forced_s <= 0.5 * select_s, (forced_s, select_s)


def test_single_episode_paths_build_no_tuple_of_pairs():
    """The occurrences of given episodes stay start lists too: forced
    selection, overlap scores, occurrence lists, candidates' occurrences and
    the non-overlapped subset of a start list hold start lists."""
    data = _long_trajectory()
    picks = [sel.episode for sel in select(data, 3).selected[:6]]
    candidates = generate_candidates(data, 3)[:20]

    def run():
        return (
            [forced_selection(data, picks, mode) for mode in FrequencyMode],
            [overlap_score(ep, data, picks) for ep in picks],
            [occurrences_for_mode(data, ep, mode) for ep in picks for mode in FrequencyMode],
            [cand.occurrences for cand in candidates],
            [find_no_occurrences(find_distinct_starts(data, ep)) for ep in picks],
        )

    got = run()
    assert got == run()
    assert all(isinstance(occ.starts, StartList) for occ in (*got[2], *got[3], *got[4]))


def test_load_events_memory_on_long_trajectory():
    handle = io.StringIO()
    dump_events(_long_trajectory(), handle)
    text = handle.getvalue()
    tracemalloc.start()
    try:
        load_events(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.65 MiB while the kept lines lived beside their split fields; 2.04 without
    assert peak <= 2.3 * 2**20


def test_table_csv_roundtrip(sample_data, sample_episodes):
    state = forced_selection(sample_data, sample_episodes, FrequencyMode.DISTINCT)
    table = encode(sample_data, state)
    first = io.StringIO()
    save_table(table, first)
    loaded = load_table(io.StringIO(first.getvalue()))
    second = io.StringIO()
    save_table(loaded, second)
    assert second.getvalue() == first.getvalue()
    assert decode(loaded) == sample_data


def test_table_csv_with_duplicates():
    data = EventDataset.from_tuples([[(1, "A"), (1, "A"), (2, "B"), (3, "A")]])
    table = encode(data, forced_selection(data, []))
    out = io.StringIO()
    save_table(table, out)
    text = out.getvalue()
    assert "#mult 0:1:A=2" in text
    loaded = load_table(io.StringIO(text))
    assert decode(loaded) == data
    again = io.StringIO()
    save_table(loaded, again)
    assert again.getvalue() == text


def test_table_csv_keeps_trailing_empty_sequences():
    data = EventDataset.from_tuples([[(1, "A"), (2, "B")], []])
    table = encode(data, forced_selection(data, []))
    out = io.StringIO()
    save_table(table, out)
    text = out.getvalue()
    assert "#sequences 2\n" in text
    loaded = load_table(io.StringIO(text))
    assert loaded.n_sequences == 2
    assert decode(loaded) == data
    again = io.StringIO()
    save_table(loaded, again)
    assert again.getvalue() == text
    # only-empty data keeps its sequence count as well
    empty = EventDataset([0, 0, 0], [], [], data.alphabet)
    out = io.StringIO()
    save_table(encode(empty, forced_selection(empty, [])), out)
    assert decode(load_table(io.StringIO(out.getvalue()))) == empty


def test_table_csv_writes_sequence_count_only_when_needed():
    # interior empty sequences are implied by the rows: no comment line
    data = EventDataset.from_tuples([[(1, "A")], [], [(2, "B")]])
    out = io.StringIO()
    save_table(encode(data, forced_selection(data, [])), out)
    assert "#sequences" not in out.getvalue()
    assert decode(load_table(io.StringIO(out.getvalue()))) == data
    with pytest.raises(TableFormatError):
        load_table(io.StringIO("size,episode,freq,starts\n#sequences 1\n1,A,1,1:4\n"))


def test_table_csv_multiplicity_of_symbol_with_equals_sign():
    data = EventDataset.from_tuples([[(1, "a=b"), (1, "a=b"), (2, "c")]])
    table = encode(data, forced_selection(data, []))
    out = io.StringIO()
    save_table(table, out)
    text = out.getvalue()
    assert "#mult 0:1:a=b=2" in text
    loaded = load_table(io.StringIO(text))
    assert loaded.multiplicities == {(0, 1, "a=b"): 2}
    assert decode(loaded) == data
    again = io.StringIO()
    save_table(loaded, again)
    assert again.getvalue() == text


@pytest.mark.parametrize(
    "events",
    [
        [(1, "a;b"), (1, "a;b"), (2, "c")],
        [(1, "a b"), (2, "c")],
        [(1, "a\x1cb"), (2, "c")],
        [(1, "x y"), (1, "x y")],
    ],
)
def test_save_table_refuses_symbols_the_format_cannot_carry(events):
    data = EventDataset.from_tuples([events])
    out = io.StringIO()
    with pytest.raises(TableFormatError):
        save_table(encode(data, forced_selection(data, [])), out)
    assert out.getvalue() == ""


_SYMBOL = st.one_of(
    st.text(st.sampled_from(" ,;:=#\"-\t\n\x1c\x85ab1>"), min_size=1, max_size=4),
    st.text(min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    symbols=st.lists(_SYMBOL, min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_table_round_trips_or_save_refuses(symbols, data):
    event = st.tuples(st.integers(-3, 8), st.sampled_from(symbols))
    dataset = EventDataset.from_tuples(
        data.draw(st.lists(st.lists(event, max_size=12), min_size=1, max_size=3))
    )
    table = encode(dataset, select(dataset, 2))
    out = io.StringIO()
    try:
        save_table(table, out)
    except TableFormatError:
        assert out.getvalue() == ""
        return
    assert decode(load_table(io.StringIO(out.getvalue()))) == dataset


def test_table_with_a_starts_field_longer_than_the_csv_limit_round_trips():
    data = EventDataset.from_tuples([[(t, "A") for t in range(0, 40000, 2)]])
    out = io.StringIO()
    save_table(encode(data, forced_selection(data, [])), out)
    assert len(out.getvalue()) > csv.field_size_limit()  # one 20,000-start row
    loaded = load_table(io.StringIO(out.getvalue()))
    assert decode(loaded) == data


def test_table_rows_hold_start_lists():
    row = TableRow(parse_episode("A -1-> B"), start_list(((0, 1), (2, 10**30))), residual=False)
    assert type(row.starts) is StartList and pairs(row.starts) == ((0, 1), (2, 10**30))
    short = dataclasses.replace(row, starts=row.starts[1:])
    assert pairs(short.starts) == ((2, 10**30),) and (short.frequency, short.cost) == (1, 6)
    twin = TableRow(row.episode, start_list(((2, 10**30),)), residual=False)
    assert short == twin and hash(short) == hash(twin) and short != row
    assert dataclasses.replace(row) == row and copy.deepcopy(row) == row
    assert pickle.loads(pickle.dumps(row)) == row


def test_load_table_returns_the_saved_table():
    rng = random.Random(2025)
    loaded = with_mult = 0
    for k in range(900):
        raw, alphabet = _io_dataset(rng)
        data = event_dataset(raw, alphabet)
        try:
            table = encode(data, _io_selection(rng, data, k))
        except TableFormatError:
            continue
        handle = io.StringIO()
        save_table(table, handle)
        got = load_table(io.StringIO(handle.getvalue()))
        # The file marks 1-node rows residual, as forced 1-node picks are not.
        rows = tuple(dataclasses.replace(r, residual=r.size == 1) for r in table.rows)
        assert got == dataclasses.replace(table, rows=rows)
        assert all(type(r.starts) is StartList for r in got.rows)
        loaded += 1
        with_mult += bool(table.multiplicities)
    assert loaded > 600 and with_mult > 200


def test_load_table_takes_a_last_row_that_never_occurs():
    data = load_events(io.StringIO("0\tA\n1\tB\n"))
    episodes = [parse_episode("A -1-> B"), parse_episode("B -1-> A")]
    table = encode(data, forced_selection(data, episodes))
    assert [r.frequency for r in table.rows] == [1, 0]
    handle = io.StringIO()
    save_table(table, handle)
    assert handle.getvalue().endswith("\n2,B -1-> A,0,\n")
    loaded = load_table(io.StringIO(handle.getvalue()))
    assert pairs(loaded.rows[-1].starts) == () and decode(loaded) == data


@pytest.mark.parametrize(
    "body",
    [
        "1,A,1,99999999999999999999:0\n",
        "1,A,1,-99999999999999999999:0\n",
        "1,A,1,9223372036854775807:0\n",
        "2,A -1-> B,2,0:0;99999999999999999999:0\n",
        "#sequences 99999999999999999999\n1,A,1,0:0\n",
        "#sequences 9223372036854775808\n1,A,1,0:0\n",
        "#mult 0:0:A=99999999999999999999\n1,A,2,0:0;0:0\n",
    ],
)
def test_load_table_refuses_integers_past_int64_by_line(body):
    with pytest.raises(TableFormatError, match=r"^line [23]: .*past int64"):
        load_table(io.StringIO("size,episode,freq,starts\n" + body))


_NEAR_INT64 = (2**61 - 1, 2**61, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 10**20)


def test_decode_never_overflows_on_a_loaded_table():
    """Integers near and past int64 in every field of a table: load_table
    refuses the table, or decode decodes or refuses it, or numpy refuses an
    array too big to allocate; none of them overflows."""
    rng = random.Random(1961)
    accepted = 0

    def big(low=0):
        return rng.choice((low, low + 1, *_NEAR_INT64, *(-x for x in _NEAR_INT64)))

    for _ in range(3000):
        lines = ["size,episode,freq,starts"]
        if rng.random() < 0.3:
            lines.append(f"#mult {big()}:{big()}:A={big(2)}")
        if rng.random() < 0.3:
            lines.append(f"#sequences {big(1)}")
        if rng.random() < 0.8:
            lines.append(f"1,A,1,{big()}:{big()}")
        if rng.random() < 0.5:
            lines.append(f"2,A -{abs(big(1))}-> B,1,{big()}:{big()}")
        try:
            table = load_table(io.StringIO("\n".join(lines) + "\n"))
        except TableFormatError:
            continue
        accepted += 1
        with contextlib.suppress(ValueError):  # TableFormatError, or "array is too big"
            decode(table)
    assert accepted > 1000


def test_load_table_rejects_malformed():
    with pytest.raises(TableFormatError):
        load_table(io.StringIO("bogus\n"))
    with pytest.raises(TableFormatError):
        load_table(io.StringIO("size,episode,freq,starts\n2,A -1-> B,2,0:1\n"))
    with pytest.raises(TableFormatError):
        load_table(io.StringIO("size,episode,freq,starts\n3,A -1-> B,1,0:1\n"))


@pytest.mark.parametrize("m", [1, 0, -2])
def test_load_table_refuses_a_multiplicity_below_two(m):
    text = f"size,episode,freq,starts\n#mult 0:1:A={m}\n1,A,2,0:1;0:2\n"
    with pytest.raises(TableFormatError, match="multiplicity"):
        load_table(io.StringIO(text))


@pytest.mark.parametrize(
    "body",
    [
        "1,A,2,0:1;0:1\n",
        "1,A,2,0:2;0:1\n",
        "#mult 0:1:A=2\n1,A,3,0:1;0:1;0:1\n",
        "#mult 0:1:A=2\n2,A -1-> B,2,0:1;0:1\n",
    ],
)
def test_load_table_refuses_repeated_or_unordered_starts(body):
    with pytest.raises(TableFormatError, match="starts of row"):
        load_table(io.StringIO("size,episode,freq,starts\n" + body))


def test_load_table_names_the_first_bad_line():
    text = "size,episode,freq,starts\n1,A,2,0:2;0:1\n1,B,1,0:x\n"
    with pytest.raises(TableFormatError, match="^line 2: starts of row 'A'"):
        load_table(io.StringIO(text))


def test_load_table_takes_a_start_once_per_recorded_copy():
    text = "size,episode,freq,starts\n#mult 0:1:A=2\n1,A,3,0:1;0:1;0:3\n"
    table = load_table(io.StringIO(text))
    assert decode(table) == EventDataset.from_tuples([[(1, "A"), (1, "A"), (3, "A")]])
    again = io.StringIO()
    save_table(table, again)
    assert again.getvalue() == text


def test_decode_refuses_a_multiplicity_no_row_codes():
    text = "size,episode,freq,starts\n#mult 0:9:A=3\n1,A,2,0:1;0:2\n"
    with pytest.raises(TableFormatError, match="0:9:A"):
        decode(load_table(io.StringIO(text)))
