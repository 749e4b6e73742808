import copy
import pickle
import random

import numpy as np
import pytest

from episodeseq import (
    FrequencyMode,
    OccurrenceList,
    count_no_general,
    find_distinct_starts,
    find_no_occurrences,
    parse_episode,
    parse_serial_episode,
    span,
    EventDataset,
    forced_selection,
)
from episodeseq.events import DataValidationError
from episodeseq.occurrences import StartList, _chain_members
from oracles import (
    CoverIntegrityError,
    covered,
    fixed_interval_starts,
    max_nonoverlap_from_starts,
    max_nonoverlap_intervals,
    non_overlapped,
    pairs,
    per_sequence_starts,
    random_dataset,
    raw_events,
    reference_no_occurrences,
    reference_cover,
    reference_distinct_starts,
    serial_occurrence_intervals,
    start_list,
)


def starts_of(data, text):
    occ = find_distinct_starts(data, parse_episode(text))
    return per_sequence_starts(occ.starts, data.n_sequences)[0]


def test_distinct_starts_on_sample(sample_data):
    assert starts_of(sample_data, "A -2-> B -1-> C") == (2, 4)
    assert starts_of(sample_data, "D -2-> E -2-> C") == (1, 5)
    assert starts_of(sample_data, "A -1-> B") == (7,)
    assert starts_of(sample_data, "C") == (3, 5, 7, 8, 9)


def test_distinct_starts_match_raw_scan(sample_data):
    for text in ("A -2-> B -1-> C", "D -2-> E -2-> C", "B -1-> C", "E"):
        ep = parse_episode(text)
        expected = fixed_interval_starts(
            raw_events(sample_data), ep.event_types, ep.gaps
        )
        assert list(starts_of(sample_data, text)) == expected


def test_find_no_occurrences_sample(sample_data):
    occ = find_distinct_starts(sample_data, parse_episode("A -2-> B -1-> C"))
    assert per_sequence_starts(find_no_occurrences(occ).starts, 1) == ((2,),)


def test_find_no_occurrences_empty():
    ep = parse_episode("A -1-> B")
    occ = OccurrenceList(ep, StartList([], []))
    assert per_sequence_starts(find_no_occurrences(occ).starts, 1) == ((),)


def test_occurrence_list_rejects_unsorted_or_repeated_starts():
    ep = parse_episode("A -1-> B")
    big = 10**30  # times past int64 are held exactly, as Python ints
    refused = (((0, 5), (0, 1)), ((1, 1), (0, 5)), ((0, 1), (0, 1)))
    refused += (((0, big), (0, big)), ((0, big + 1), (0, big)), ((0, -big), (0, -big - 1)))
    for starts in refused:
        with pytest.raises(AttributeError):
            OccurrenceList(ep, starts)  # only a start list is taken
        with pytest.raises(ValueError):
            OccurrenceList(ep, start_list(starts))
    accepted = ((0, -big - 1), (0, -big), (0, big), (0, big + 1), (1, -big))
    occ = OccurrenceList(ep, start_list(accepted))
    assert occ.starts.times.dtype == object and pairs(occ.starts) == accepted
    assert isinstance(occ.starts, StartList)
    assert isinstance(find_no_occurrences(occ).starts, StartList)
    assert pairs(find_no_occurrences(occ).starts) == ((0, -big - 1), (0, big), (1, -big))


def test_find_no_occurrences_refuses_starts_past_a_64_bit_axis():
    ep = parse_episode(f"A -{10**30}-> B")
    for starts in (((0, 0), (0, 10**30 + 1)), ((0, 0), (0, 5))):
        with pytest.raises(ValueError, match="64-bit axis"):
            find_no_occurrences(OccurrenceList(ep, start_list(starts)))
    # Far-apart starts keep working when the span is small.
    near = start_list(((0, -(10**30)), (0, 1 - 10**30), (1, 10**30)))
    kept = find_no_occurrences(OccurrenceList(parse_episode("A -1-> B"), near))
    assert pairs(kept.starts) == ((0, -(10**30)), (1, 10**30))


def test_start_list_is_its_arrays():
    starts = StartList([0, 0, 2], [3, 7, -1])
    twin = StartList(np.array([0, 0, 2]), np.array([3, 7, -1], object))
    assert starts == twin and hash(starts) == hash(twin)
    assert starts != starts[:2] and starts != StartList([0, 1, 2], [3, 7, -1])
    assert starts != StartList([0, 0, 2], [3, 7, 0])
    as_pairs = ((0, 3), (0, 7), (2, -1))
    assert pairs(starts) == as_pairs and start_list(as_pairs) == starts
    assert (starts == as_pairs) is False and (as_pairs == starts) is False
    assert starts != as_pairs and starts != list(as_pairs)
    assert len(starts) == 3 and starts
    for index in (0, -1, np.int64(1), (0, 1), [0]):
        with pytest.raises(TypeError, match="takes slices"):
            starts[index]
    for read_back in (tuple, list, set):
        with pytest.raises(TypeError):
            read_back(starts)
    with pytest.raises(TypeError):
        (0, 3) in starts
    with pytest.raises(AttributeError):
        starts.seqs = np.zeros(3, np.int64)
    with pytest.raises(ValueError):
        starts.times[0] = 1  # the arrays are read-only
    huge = StartList([1, 4], [-(10**30), 2**61])
    assert huge.times.dtype == object
    for s in (starts, huge, starts[1:], StartList([], [])):
        assert eval(repr(s), {"StartList": StartList}) == s
    assert repr(starts) == "StartList([0, 0, 2], [3, 7, -1])"


@pytest.mark.parametrize(
    "seqs,times,error,match",
    [
        ([0, 1], [5], ValueError, "one sequence index and one time"),
        ([0.5, 1.7], [1, 2], DataValidationError, "sequence index"),
        (np.array([0.0, 1.0]), [1, 2], DataValidationError, "sequence index"),
        ([0, 1], [1.0, 2.5], DataValidationError, "event time"),
    ],
)
def test_start_list_refuses_arrays_that_are_not_starts(seqs, times, error, match):
    with pytest.raises(error, match=match):
        StartList(seqs, times)


def test_start_list_slices_are_views():
    starts = start_list(((0, 1), (0, 2), (1, 0), (1, 5)))
    part = starts[1:3]
    assert type(part) is StartList and pairs(part) == ((0, 2), (1, 0))
    assert np.shares_memory(part.seqs, starts.seqs)
    assert np.shares_memory(part.times, starts.times)
    assert pairs(starts[::2]) == ((0, 1), (1, 0)) and pairs(starts[::-1])[0] == (1, 5)
    for empty in (starts[4:], starts[2:2], StartList([], [])):
        assert not empty and len(empty) == 0 and pairs(empty) == ()
        assert empty == StartList([], []) and hash(empty) == hash(StartList([], []))
        assert empty.seqs.dtype == np.int64 and pairs(empty[:]) == ()


def test_start_list_round_trips_pickle_and_deepcopy_near_huge_times():
    for items in (
        ((0, -(10**30)), (0, 5), (3, 10**30)),
        ((1, 2**61 - 1), (1, 2**61)),
        ((0, 1 - 2**61), (4, 2**61 - 1)),
        (),
    ):
        starts = start_list(items)
        huge = any(abs(t) >= 2**61 for _, t in items)
        assert starts.seqs.dtype == np.int64
        assert starts.times.dtype == (object if huge else np.int64)
        for other in (pickle.loads(pickle.dumps(starts)), copy.deepcopy(starts)):
            assert type(other) is StartList and other == starts and pairs(other) == items
            assert not (other.seqs.flags.writeable or other.times.flags.writeable)
        assert pairs(starts) == items and starts.times.tolist() == [t for _, t in items]


def test_find_no_occurrences_span_four():
    ep = parse_episode("A -4-> B")
    for starts, expected in [
        (((0, 1), (0, 5), (0, 10)), ((1, 10),)),
        # the greedy filter restarts in each sequence
        (((0, 1), (1, 2)), ((1,), (2,))),
        (((0, 1), (0, 2)), ((1,),)),
    ]:
        occ = OccurrenceList(ep, start_list(starts))
        kept = find_no_occurrences(occ).starts
        assert per_sequence_starts(kept, len(expected)) == expected


def test_find_no_occurrences_equals_the_per_sequence_greedy():
    # Runs of overlapping starts, steps past the span and sequence changes,
    # some near +-10**30, where the starts are Python ints beyond int64.
    rng = random.Random(2007)
    for case in range(300):
        gap = rng.randint(1, 4)
        ep = parse_episode(f"A -{gap}-> B")
        base = rng.choice((0, 0, 10**30, -(10**30)))
        starts, seq, t = [], 0, base
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.1:
                seq, t = seq + 1, base + rng.randint(-5, 5)
            t += rng.choice((1, 1, gap, gap + 1, rng.randint(1, 10**6)))
            starts.append((seq, t))
        occ = OccurrenceList(ep, start_list(starts))
        assert find_no_occurrences(occ) == reference_no_occurrences(occ), f"case {case}"


def test_no_maximality_oracle():
    rng = random.Random(42)
    for _ in range(80):
        data = random_dataset(rng)
        symbols = data.alphabet.symbols
        n = rng.randint(1, 3)
        ep_symbols = tuple(rng.sample(symbols, min(n, len(symbols))))
        gaps = tuple(rng.randint(1, 3) for _ in range(len(ep_symbols) - 1))
        episode = parse_episode(
            " ".join(
                p
                for i, s in enumerate(ep_symbols)
                for p in ((s,) if i == 0 else (f"-{gaps[i-1]}->", s))
            )
        )
        occ = find_distinct_starts(data, episode)
        kept = find_no_occurrences(occ)
        n = data.n_sequences
        for seq_starts, seq_kept in zip(
            per_sequence_starts(occ.starts, n), per_sequence_starts(kept.starts, n)
        ):
            assert len(seq_kept) == max_nonoverlap_from_starts(
                list(seq_starts), span(episode)
            )


def test_no_prefix_property():
    # first kept start is the minimum; every kept start is the minimum
    # distinct start exceeding the previous kept start plus the span
    rng = random.Random(7)
    for _ in range(60):
        data = random_dataset(rng)
        ep_symbols = tuple(rng.sample(data.alphabet.symbols, 2))
        episode = parse_episode(f"{ep_symbols[0]} -{rng.randint(1,3)}-> {ep_symbols[1]}")
        occ = find_distinct_starts(data, episode)
        kept = find_no_occurrences(occ)
        n = data.n_sequences
        for seq_starts, seq_kept in zip(
            per_sequence_starts(occ.starts, n), per_sequence_starts(kept.starts, n)
        ):
            if not seq_starts:
                assert not seq_kept
                continue
            assert seq_kept[0] == seq_starts[0]
            for prev, cur in zip(seq_kept, seq_kept[1:]):
                later = [t for t in seq_starts if t > prev + span(episode)]
                assert cur == min(later)


def test_count_no_general_sample(sample_data):
    assert count_no_general(sample_data, parse_serial_episode("A -> B -> C")) == 2


def test_count_no_general_empty():
    data = EventDataset.from_tuples([[(1, "A")]])
    empty = EventDataset([0, 0], [], [], data.alphabet)
    assert count_no_general(empty, parse_serial_episode("A")) == 0


def test_count_no_general_abab():
    data = EventDataset.from_tuples([[(1, "A"), (2, "B"), (3, "A"), (4, "B")]])
    assert count_no_general(data, parse_serial_episode("A -> B")) == 2


def test_count_no_general_matches_brute_force():
    rng = random.Random(11)
    symbols = ("A", "B", "C", "D")
    for _ in range(60):
        length = rng.randint(0, 12)
        seq = [(t + 1, symbols[rng.randrange(4)]) for t in range(length)]
        data = EventDataset.from_tuples([seq]) if seq else None
        n = rng.randint(1, 4)
        episode = parse_serial_episode(" -> ".join(rng.sample(symbols, n)))
        if data is None:
            continue
        expected = max_nonoverlap_intervals(
            serial_occurrence_intervals(seq, episode.event_types)
        )
        assert count_no_general(data, episode) == expected


def test_cover_sample_rows(sample_data):
    ep = parse_episode("A -2-> B -1-> C")
    c = reference_cover(sample_data, ep, ((0, 2), (0, 4)))
    assert len(c) == 6
    c1 = reference_cover(sample_data, parse_episode("C"), ((0, 3), (0, 8)))
    assert len(c1) == 2
    assert len(reference_cover(sample_data, ep, ())) == 0


def test_cover_integrity_error(sample_data):
    with pytest.raises(CoverIntegrityError):
        reference_cover(sample_data, parse_episode("A -2-> B -1-> C"), ((0, 3),))


def test_overlap_counts(sample_data):
    ep1 = parse_episode("A -2-> B -1-> C")
    ep2 = parse_episode("D -2-> E -2-> C")
    c1, c2 = (
        reference_cover(sample_data, ep, pairs(reference_distinct_starts(sample_data, ep).starts))
        for ep in (ep1, ep2)
    )
    assert len(c1 & c2) == 1  # the event (C,5) is coded by both
    assert len(c1 & c1) == 6
    c3 = reference_cover(sample_data, parse_episode("B"), ((0, 6),))
    assert len(c2 & c3) == 0
    state = forced_selection(sample_data, [ep1, ep2], FrequencyMode.DISTINCT)
    assert [covered(sel, sample_data) for sel in state.selected] == [c1, c2]


def test_no_covers_are_disjoint_and_full():
    rng = random.Random(3)
    for _ in range(40):
        data = random_dataset(rng)
        ep_symbols = tuple(rng.sample(data.alphabet.symbols, 2))
        episode = parse_episode(f"{ep_symbols[0]} -{rng.randint(1,2)}-> {ep_symbols[1]}")
        (sel,) = forced_selection(data, [episode], FrequencyMode.NON_OVERLAPPED).selected
        assert covered(sel, data) == reference_cover(data, episode, pairs(sel.starts))
        # non-overlapped occurrences never share events
        assert len(covered(sel, data)) == episode.length * sel.frequency


def test_duplicate_events_bind_lowest_index():
    data = EventDataset.from_tuples([[(1, "A"), (1, "A"), (2, "B")]])
    c = reference_cover(data, parse_episode("A -1-> B"), ((0, 1),))
    assert (0, 0) in c and (0, 1) not in c
    (sel,) = forced_selection(data, [parse_episode("A -1-> B")]).selected
    assert covered(sel, data) == c


def test_symbol_outside_the_alphabet_raises_key_error(sample_data):
    episode = parse_episode("A -1-> Z")
    with pytest.raises(KeyError):
        find_distinct_starts(sample_data, episode)
    with pytest.raises(KeyError):
        forced_selection(sample_data, [episode])
    with pytest.raises(KeyError):
        reference_cover(sample_data, episode, ((0, 7),))


def _chain_case(rng: random.Random):
    """Groups of sorted distinct starts with spans 0-5: single starts, short
    groups and long runs of overlapping neighbours, some starting near 2**60
    so that the groups are keyed in several blocks."""
    base = rng.choice((0, 0, 0, 2**60))
    starts, sizes, spans = [], [], []
    for _ in range(rng.randint(1, 12)):
        span = rng.randint(0, 5)
        size = rng.choice((1, 1, 2, rng.randint(1, 40), rng.randint(100, 300)))
        step = rng.choice((1, 2, span + 1, 3 * span + 3))
        t = base + rng.randint(0, 20)
        for _ in range(size):
            starts.append(t)
            t += rng.randint(1, step)
        sizes.append(size)
        spans.append(span)
    dtype = np.int64 if base or rng.random() < 0.5 else np.int32
    return np.array(starts, dtype), np.array(sizes), np.array(spans, dtype)


def test_chain_members_is_the_greedy_chain_of_each_group():
    rng = random.Random(1804)
    for _ in range(600):
        starts, sizes, spans = _chain_case(rng)
        member = _chain_members(starts, sizes, spans)
        assert member.dtype == bool and len(member) == len(starts)
        bounds = np.append(0, np.cumsum(sizes)).tolist()
        for a, z, span in zip(bounds, bounds[1:], spans.tolist()):
            group = starts[a:z].tolist()
            kept = [t for t, m in zip(group, member[a:z]) if m]
            assert kept == non_overlapped(group, span)


def test_chain_members_of_no_starts():
    for sizes in ([], [0], [0, 0, 0]):
        spans = np.ones(len(sizes), int)
        member = _chain_members(np.zeros(0, np.int64), np.array(sizes, int), spans)
        assert member.dtype == bool and member.shape == (0,)
