import io
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episodeseq import (
    Alphabet,
    Event,
    EventDataset,
    FrequencyMode,
    TableFormatError,
    decode,
    encode,
    forced_selection,
    hmm,
    load_table,
    overlap_score,
    parse_episode,
    parse_serial_episode,
    save_table,
    score,
    select,
    total_length,
)
from oracles import (
    all_fixed_interval_episodes,
    per_sequence_starts,
    random_dataset,
    random_planted_dataset,
    reference_select,
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
    empty = EventDataset(((),), data.alphabet)
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
        (row.size, str(row.episode), row.frequency, row.starts, row.residual)
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
    assert table.rows[0].starts == ((0, 2),)


def test_encode_without_selection_is_one_row_per_type(sample_data):
    table = encode(sample_data, forced_selection(sample_data, []))
    assert all(row.size == 1 and row.residual for row in table.rows)
    assert [str(row.episode) for row in table.rows] == ["A", "B", "C", "D", "E"]
    assert decode(table) == sample_data


def test_total_length_units():
    data = EventDataset.from_tuples([[(3, "X")]])
    table = encode(data, forced_selection(data, []))
    assert total_length(table) == 4  # 2*1 + 1 + 1
    empty = EventDataset(((),), data.alphabet)
    assert total_length(encode(empty, forced_selection(empty, []))) == 0


def test_decode_single_row():
    text = "size,episode,freq,starts\n1,C,2,0:3;0:8\n"
    table = load_table(io.StringIO(text))
    data = decode(table)
    assert data.n_events == 2
    assert [(ev.time, data.event_name(ev)) for ev in data.sequences[0]] == [
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
            by_round.setdefault(sel.round_index, set()).update(sel.covered)
        # covers from different rounds are disjoint
        assert sum(map(len, by_round.values())) == len(state.covered_positions)
        for sel in state.selected:
            earlier = set().union(
                *(cov for r, cov in by_round.items() if r < sel.round_index)
            )
            offsets = sel.episode.offsets()
            type_ids = [data.alphabet.index(sym) for sym in sel.episode.event_types]
            expected = set()
            starts = per_sequence_starts(sel.starts, data.n_sequences)
            for seq_idx, seq_starts in enumerate(starts):
                seq = data.sequences[seq_idx]
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
            assert sel.covered == expected


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
                    [(str(s.episode), s.starts, s.round_index, s.covered) for s in state.selected],
                )
                for state in (
                    select(data, max_gap, top_k, mode),
                    reference_select(data, max_gap, top_k, mode),
                )
            )
            assert got == want, (data.named_sequences(), max_gap, top_k, mode)
            picks += len(got[1])
    assert picks > 4000  # the selections are not mostly empty


def test_select_memory_on_long_trajectory():
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    data = hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))
    tracemalloc.start()
    try:
        select(data, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.25x the 7.92 MiB that select peaked at while it rebuilt every round
    assert peak <= 9.9 * 2**20


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
    empty = EventDataset(((), ()), data.alphabet)
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
