import copy
import io
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import episodeseq
from episodeseq import (
    Alphabet,
    DataValidationError,
    EpisodeSyntaxError,
    EventDataset,
    FixedIntervalEpisode,
    SerialEpisode,
    dump_events,
    format_episode,
    load_events,
    parse_episode,
    parse_serial_episode,
    span,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("A -2-> B -1-> C", 3),
        ("C", 0),
        ("D -2-> E -2-> C", 4),
    ],
)
def test_span(text, expected):
    assert span(parse_episode(text)) == expected


def test_parse_episode_basic():
    ep = parse_episode("A -2-> B -1-> C")
    assert ep.event_types == ("A", "B", "C")
    assert ep.gaps == (2, 1)
    assert parse_episode("C").event_types == ("C",)
    assert parse_episode("C").gaps == ()


def test_parse_episode_rejects_zero_gap():
    with pytest.raises(EpisodeSyntaxError):
        parse_episode("A -0-> B")


def test_parse_episode_rejects_duplicates():
    with pytest.raises(DataValidationError):
        parse_episode("A -2-> A")


def test_parse_episode_rejects_garbage():
    for bad in ("", "A -x-> B", "A ->", "-1-> A"):
        with pytest.raises((EpisodeSyntaxError, DataValidationError)):
            parse_episode(bad)


def test_parse_episode_checks_alphabet():
    alphabet = Alphabet(("A", "B"))
    parse_episode("A -1-> B", alphabet)
    with pytest.raises(KeyError):
        parse_episode("A -1-> Z", alphabet)


def test_parse_serial_episode():
    ep = parse_serial_episode("A -> B -> C")
    assert ep.event_types == ("A", "B", "C")
    # Symbols and arrows alternate, so no arrow leads, trails or doubles.
    for bad in ("A -> -> B", "-> A B", "A B ->", "A -> ->", "A B", "A -1-> B", ""):
        with pytest.raises(EpisodeSyntaxError):
            parse_serial_episode(bad)


@pytest.mark.parametrize("gap", ["01", "+1", "1_0", "\u0661", "00"])
def test_parse_episode_refuses_a_gap_not_in_plain_decimal(gap):
    with pytest.raises(EpisodeSyntaxError):
        parse_episode(f"A -{gap}-> B")


_symbol = st.text(alphabet="abcdefgXYZ09", min_size=1, max_size=4)


@st.composite
def episodes(draw):
    n = draw(st.integers(1, 5))
    symbols = draw(
        st.lists(_symbol, min_size=n, max_size=n, unique=True)
    )
    gaps = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    return FixedIntervalEpisode(tuple(symbols), tuple(gaps))


@given(episodes())
def test_parse_format_roundtrip(episode):
    assert parse_episode(format_episode(episode)) == episode


@given(episodes())
def test_format_parse_identity_on_canonical(episode):
    text = format_episode(episode)
    assert format_episode(parse_episode(text)) == text


def test_fixed_interval_invariants():
    with pytest.raises(DataValidationError):
        FixedIntervalEpisode(("A", "B"), ())
    with pytest.raises(DataValidationError):
        FixedIntervalEpisode(("A", "B"), (0,))
    with pytest.raises(DataValidationError):
        FixedIntervalEpisode((), ())
    with pytest.raises(DataValidationError):
        FixedIntervalEpisode(("A", "B", "A"), (1, 1))
    with pytest.raises(DataValidationError):
        SerialEpisode(("A", "A"))
    with pytest.raises(DataValidationError):
        SerialEpisode(())


def test_alphabet_invariants():
    with pytest.raises(DataValidationError):
        Alphabet(("A", "A"))
    with pytest.raises(DataValidationError):
        Alphabet(("A", ""))
    alphabet = Alphabet(("B", "A"))
    assert alphabet.size == 2
    assert alphabet.index("B") == 0
    assert alphabet.name(1) == "A"


def test_dataset_sorts_and_validates():
    alphabet = Alphabet(("A", "B"))
    data = EventDataset([0, 3], [1, 0, 1], [9, 2, 2], alphabet)
    assert data.times.tolist() == [2, 2, 9]
    # ties ordered by symbol name
    assert list(map(alphabet.name, data.types.tolist())) == ["A", "B", "B"]
    with pytest.raises(DataValidationError):
        EventDataset([0, 1], [7], [1], alphabet)


def test_dataset_from_tuples_builds_sorted_alphabet():
    data = EventDataset.from_tuples([[(1, "z"), (2, "a")], [(5, "m")]])
    assert data.alphabet.symbols == ("a", "m", "z")
    assert data.n_sequences == 2
    assert data.n_events == 3


def test_event_file_roundtrip(sample_data):
    buffer = io.StringIO()
    dump_events(sample_data, buffer)
    again = load_events(io.StringIO(buffer.getvalue()))
    assert again == sample_data
    second = io.StringIO()
    dump_events(again, second)
    assert second.getvalue() == buffer.getvalue()


def test_event_file_multi_sequence():
    text = "1\tA\n2\tB\n\n3\tA\n"
    data = load_events(io.StringIO(text))
    assert data.n_sequences == 2
    assert data.offsets.tolist() == [0, 2, 3]
    out = io.StringIO()
    dump_events(data, out)
    assert out.getvalue() == text


def test_event_file_blank_line_runs():
    # leading, repeated and trailing blank lines never make empty sequences
    text = "\n\n1\tA\n2\tB\n\n\n\n-3\tA\n-3\tA\n\n5\tC\n\n\n"
    data = load_events(io.StringIO(text))
    assert data == EventDataset.from_tuples(
        [[(1, "A"), (2, "B")], [(-3, "A"), (-3, "A")], [(5, "C")]]
    )
    out = io.StringIO()
    dump_events(data, out)
    assert out.getvalue() == "1\tA\n2\tB\n\n-3\tA\n-3\tA\n\n5\tC\n"


def test_event_file_rejects_bad_lines():
    with pytest.raises(DataValidationError):
        load_events(io.StringIO("1 A\n"))
    with pytest.raises(DataValidationError):
        load_events(io.StringIO("x\tA\n"))


_SYMBOL = st.one_of(
    st.text(st.sampled_from(" \t\r\n\x1c\u2028ab1"), min_size=1, max_size=4),
    st.sampled_from(" \t\r\n\x1c\u2028").map(lambda c: f"a{c}b"),
    st.text(min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    symbols=st.lists(_SYMBOL, min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_event_file_round_trips_or_dump_refuses(symbols, data):
    # Drawn datasets hold empty sequences, duplicate events and negative
    # times; the file is opened with default newline handling.
    event = st.tuples(st.integers(-3, 8), st.sampled_from(symbols))
    dataset = EventDataset.from_tuples(
        data.draw(st.lists(st.lists(event, max_size=6), max_size=3))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            try:
                dump_events(dataset, handle)
            except DataValidationError:
                refused = True
            else:
                refused = False
        if refused:
            assert path.read_bytes() == b""
            return
        with open(path, encoding="utf-8") as handle:
            again = load_events(handle)
    assert again == dataset


@pytest.mark.parametrize(
    "sequences",
    [
        [[(1, "A")], []],
        [[], [(1, "A")]],
        [[(1, "a ")]],
        [[(1, " a")]],
        [[(1, "a\tb")]],
        [[(1, "a\rb")]],
        [[(1, "a\nb")]],
        [[(1, "a\x1c")]],
    ],
)
def test_dump_events_refuses_what_the_file_cannot_carry(sequences):
    out = io.StringIO()
    with pytest.raises(DataValidationError):
        dump_events(EventDataset.from_tuples(sequences), out)
    assert out.getvalue() == ""


def test_dump_events_ignores_alphabet_symbols_no_event_uses():
    data = EventDataset([0, 1], [0], [1], Alphabet(("a", "b ")))
    out = io.StringIO()
    dump_events(data, out)
    again = load_events(io.StringIO(out.getvalue()))
    assert again == data and again.alphabet.symbols == ("a",)


_AB = Alphabet(("A", "B"))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: EventDataset([0, 2], [0, 1], [1], _AB), id="a-time-short"),
        pytest.param(lambda: EventDataset([0, 1], [0], [1, 2], _AB), id="an-id-short"),
        pytest.param(lambda: EventDataset([0, 2, 1], [0, 1], [1, 2], _AB), id="offsets-fall-short"),
        pytest.param(lambda: EventDataset([0, 2, 1, 2], [0, 1], [1, 2], _AB), id="offsets-fall"),
        pytest.param(lambda: EventDataset([1, 2], [0, 1], [1, 2], _AB), id="offsets-start-at-1"),
        pytest.param(lambda: EventDataset([0, 3], [0, 1], [1, 2], _AB), id="offsets-run-past"),
        pytest.param(lambda: EventDataset([0, 1], [0, 1], [1, 2], _AB), id="offsets-end-early"),
        pytest.param(lambda: EventDataset([], [], [], _AB), id="no-offset"),
        pytest.param(lambda: EventDataset([0, 2], [0, 1], [0.5, 1.9], _AB), id="float-times"),
        pytest.param(
            lambda: EventDataset([0, 2], [0, 1], np.array([0.5, 1.5]), _AB), id="float-time-array"
        ),
        pytest.param(lambda: EventDataset([0, 2], [0.0, 1.0], [1, 2], _AB), id="float-ids"),
        pytest.param(lambda: EventDataset([0.0, 2.0], [0, 1], [1, 2], _AB), id="float-offsets"),
        pytest.param(lambda: EventDataset([0, 2], [0, 1], [1, 2.0**64], _AB), id="float-past-2^63"),
        pytest.param(lambda: EventDataset([0, 2], [0, 1], [1, "2"], _AB), id="text-time"),
        pytest.param(
            lambda: EventDataset.from_tuples([[(1, "A"), (1.9, "B")]]), id="from-tuples-float"
        ),
    ],
)
def test_constructor_refuses_what_it_cannot_hold(build):
    with pytest.raises(DataValidationError):
        build()


@pytest.mark.parametrize("times", [[3, 1, 2], [3, 1, 10**30]])
def test_datasets_stay_read_only_through_pickle_and_deepcopy(times):
    arrays = np.array([0, 2, 3]), np.array([0, 1, 0])
    data = EventDataset(*arrays, times, _AB)
    assert all(a.flags.writeable for a in arrays)  # the caller's arrays are not frozen
    for copied in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert copied == data and copied.times.dtype == data.times.dtype
        assert not any(a.flags.writeable for a in (copied.offsets, copied.types, copied.times))


def test_equal_datasets_hash_equal_whatever_their_alphabets():
    pairs = [[(2, "B"), (1, "A"), (2, "A")], [], [(-(10**30), "C")]]
    one = EventDataset.from_tuples(pairs, Alphabet(("A", "B", "C")))
    two = EventDataset.from_tuples(pairs, Alphabet(("C", "B", "A")))
    assert not np.array_equal(one.types, two.types)
    assert one == two and hash(one) == hash(two) and len({one, two}) == 1
    renamed = EventDataset(one.offsets, one.types, one.times, Alphabet(("A", "B", "D")))
    assert renamed != one and len({one, renamed}) == 2


def test_repr_rebuilds_the_dataset():
    data = EventDataset.from_tuples([[(3, "b"), (1, "a")], [(2**70, "a")]])
    assert eval(repr(data), {"EventDataset": EventDataset, "Alphabet": Alphabet}) == data


def test_public_names_are_pinned():
    assert episodeseq.__all__ == [
        "Alphabet", "Candidate", "Corpus", "DataValidationError", "EncodingTable",
        "EpisodePairModel", "EpisodeSyntaxError", "EventDataset", "FeatureMatrix",
        "FixedIntervalEpisode", "FrequencyMode", "NBModel", "OccurrenceList",
        "PairComparison", "PairStats", "PreprocessOptions", "SelectedEpisode",
        "SelectionState", "SerialEpisode", "StateId", "StateKind", "TableFormatError",
        "TableRow", "Trajectory", "build_dictionary_I", "build_dictionary_II",
        "build_model", "candidates", "closed_form_case1", "closed_form_case2",
        "closed_form_decomposed", "compare_pairs", "compute_idf", "corpus_to_events",
        "count_no_general", "decode", "default_pair_alphabet", "dump_events", "encode",
        "eta_upper_bound", "evaluate", "events", "find_distinct_starts",
        "find_no_occurrences", "forced_selection", "format_episode",
        "generate_candidates", "hmm", "joint_log_likelihood", "load_corpus",
        "load_corpus_dir", "load_dictionary", "load_events", "load_table", "mdl",
        "metrics_csv", "mine_dictionary", "model_summary", "occurrences",
        "occurrences_for_mode", "overlap_score", "overlap_score_1", "overlap_score_2",
        "parse_episode", "parse_serial_episode", "predict", "preprocess", "save_corpus",
        "save_dictionary", "save_table", "score", "select", "simulate", "span",
        "textpipe", "tfidf", "total_length", "train_nb", "trajectory_counts",
        "trajectory_dataset", "trajectory_stats", "viterbi",
    ]
