import itertools
import random
import tracemalloc

import numpy as np
import pytest

from episodeseq import (
    Alphabet,
    hmm,
    EventDataset,
    FrequencyMode,
    decode,
    encode,
    find_distinct_starts,
    find_no_occurrences,
    generate_candidates,
    parse_episode,
    parse_serial_episode,
    score,
    select,
)
from episodeseq import candidates
from episodeseq.candidates import _search
from episodeseq.occurrences import _Axis
from oracles import (
    dfs_candidates,
    fixed_interval_starts,
    pairs,
    per_sequence_starts,
    random_planted_dataset,
    raw_events,
    raw_sequences,
    reference_distinct_starts,
)


def test_candidates_contain_frequent_episode(sample_data):
    # brute-force enumeration over sequence (the sorted raw scan) shows
    # A -2-> B -1-> C has two distinct starts; the search must surface it
    ep = parse_episode("A -2-> B -1-> C")
    assert len(fixed_interval_starts(raw_events(sample_data), ep.event_types, ep.gaps)) == 2
    cands = generate_candidates(sample_data, 2, FrequencyMode.DISTINCT)
    by_key = {c.key: c for c in cands}
    assert "A -2-> B -1-> C" in by_key
    assert by_key["A -2-> B -1-> C"].frequency == 2


def test_candidates_empty_dataset():
    data = EventDataset.from_tuples([[(1, "A")]])
    empty = EventDataset([0, 0], [], [], data.alphabet)
    assert len(generate_candidates(empty, 3)) == 0


def test_candidates_single_type_no_multinode():
    data = EventDataset.from_tuples([[(t, "A") for t in range(1, 9)]])
    cands = generate_candidates(data, 3)
    assert all(c.episode.length == 1 for c in cands)


def test_frequency_antimonotone_along_extensions():
    rng = random.Random(5)
    for _ in range(30):
        data, _ = random_planted_dataset(rng)
        symbols = data.alphabet.symbols
        a, b = rng.sample(symbols, 2)
        gap = rng.randint(1, 3)
        parent = find_distinct_starts(data, parse_episode(a))
        child = find_distinct_starts(data, parse_episode(f"{a} -{gap}-> {b}"))
        assert child.total <= parent.total
        # and the non-overlapped frequency shrinks as well
        assert (
            find_no_occurrences(child).total <= find_no_occurrences(parent).total
        )


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("f", [0, 1, 2])
def test_prune_rule_is_score_barren(n, f):
    # frequency <= 2 gives score N(f-2) - (f+1) <= -3 for every length
    ep = parse_episode(" -1-> ".join(chr(ord("A") + k) for k in range(n)))
    assert score(ep, f) <= -3


def _multi_sequence_dataset(rng):
    """Planted sequences around empty ones, on negative and shared times.

    Empty sequences sit at the start, in the middle and at the end; the
    first and last planted sequences cover the same times; the middle one
    is shifted to negative times; each carries duplicate (time, type)
    events.
    """
    planted = []
    for shift in (0, -25, 0):
        data, _ = random_planted_dataset(rng)
        seq = [(t + shift, name) for t, name in raw_events(data)]
        planted.append(seq + rng.sample(seq, 2))
    return EventDataset.from_tuples(
        [[], planted[0], [], planted[1], planted[2], []], Alphabet(tuple("ABCDE"))
    )


def test_candidate_occurrences_verify_against_recomputation():
    rng = random.Random(9)
    for mode in FrequencyMode:
        for k in range(20):
            data = (
                random_planted_dataset(rng)[0]
                if k % 2
                else _multi_sequence_dataset(rng)
            )
            for cand in generate_candidates(data, 2, mode):
                occ = reference_distinct_starts(data, cand.episode)
                if mode is FrequencyMode.NON_OVERLAPPED:
                    occ = find_no_occurrences(occ)
                assert cand.occurrences.starts == occ.starts
                assert cand.frequency == occ.total
                assert cand.score == score(cand.episode, occ.total)


@pytest.mark.parametrize("mode", list(FrequencyMode))
def test_no_occurrence_across_sequence_boundary(mode):
    # sequence 0 ends with A at 5, sequence 1 starts with B at 6; read as
    # one sequence, A -1-> B would occur twice
    data = EventDataset.from_tuples([[(5, "A")], [(6, "B"), (20, "A")], [(21, "B")]])
    by_key = {c.key: c for c in generate_candidates(data, 1, mode)}
    assert "A -1-> B" not in by_key
    assert per_sequence_starts(by_key["A"].occurrences.starts, 3) == ((5,), (20,), ())
    assert per_sequence_starts(by_key["B"].occurrences.starts, 3) == ((), (6,), (21,))


def test_candidates_deterministic():
    rng = random.Random(13)
    data, _ = random_planted_dataset(rng, n_repetitions=8)
    first = generate_candidates(data, 2)
    second = generate_candidates(data, 2)
    assert [c.key for c in first] == [c.key for c in second]


def test_best_per_path_suppresses_dominated_prefixes():
    # five clean repetitions: the full episode dominates its own search path,
    # so the 2-node prefix (same path) is not emitted
    seq = [(t, s) for k in range(5) for t, s in ((3 * k + 1, "A"), (3 * k + 2, "B"), (3 * k + 3, "C"))]
    data = EventDataset.from_tuples([seq])
    keys = {c.key for c in generate_candidates(data, 2)}
    assert "A -1-> B -1-> C" in keys
    assert "A -1-> B" not in keys


def test_candidates_sorted_canonically(sample_data):
    cands = generate_candidates(sample_data, 2)
    keys = [c.key for c in cands]
    assert keys == sorted(keys)


def test_max_gap_validation(sample_data):
    with pytest.raises(ValueError):
        generate_candidates(sample_data, 0)


def _oracle_dataset(rng):
    """1-4 sequences, some empty, of 4 symbols at times -5..12 with duplicates."""
    sizes = [rng.choice((0, rng.randint(1, 30))) for _ in range(rng.randint(1, 4))]
    return EventDataset.from_tuples(
        [[(rng.randint(-5, 12), rng.choice("ABCD")) for _ in range(n)] for n in sizes],
        Alphabet(tuple("ABCD")),
    )


def test_candidates_equal_dfs_oracle():
    rng = random.Random(2024)
    for _ in range(3000):
        data = _oracle_dataset(rng)
        max_gap = rng.randint(1, 4)
        for mode in FrequencyMode:
            got, want = (
                [
                    (c.key, c.frequency, c.score, c.occurrences.starts)
                    for c in search(data, max_gap, mode)
                ]
                for search in (generate_candidates, dfs_candidates)
            )
            assert got == want, (data, max_gap, mode)


def test_positive_search_equals_positive_dfs_candidates():
    # select's search grows a node only while a descendant could reach its
    # path's best and a positive score, but must emit the same
    # positive-score candidates as the full search.
    rng = random.Random(1997)
    positive = 0
    for _ in range(3000):
        data = _oracle_dataset(rng)
        max_gap = rng.randint(1, 4)
        axis = _Axis(data, max_gap)
        for mode in FrequencyMode:
            no_mode = mode is FrequencyMode.NON_OVERLAPPED
            got = [
                (c.key, c.frequency, c.score, c.occurrences.starts)
                for c in _search(axis, slice(None), no_mode, True)
            ]
            want = [
                (c.key, c.frequency, c.score, c.occurrences.starts)
                for c in dfs_candidates(data, max_gap, mode)
                if c.score > 0
            ]
            assert got == want, (data, max_gap, mode)
            positive += len(got)
    assert positive > 1000


def test_candidate_search_memory_on_long_trajectory():
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    data = hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))
    tracemalloc.start()
    try:
        generate_candidates(data, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_candidate_search_memory_does_not_grow_with_time_scale():
    # Times and max_gap 1000 times larger give the same candidates, gaps
    # scaled, in about the same memory: the search looks up a window over
    # the events, not a table with an entry per time step.
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    data = hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))
    scaled = EventDataset(data.offsets, data.types, 1000 * data.times, data.alphabet)
    want = [
        (c.episode.event_types, tuple(1000 * g for g in c.episode.gaps), c.frequency, c.score)
        for c in generate_candidates(data, 3)
    ]
    tracemalloc.start()
    try:
        cands = generate_candidates(scaled, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(c.episode.event_types, c.episode.gaps, c.frequency, c.score) for c in cands] == want
    assert len(want) > 200
    assert peak <= 8 * 2**20


def test_candidates_with_a_gap_beyond_every_sequence():
    # Gaps past the longest sequence change nothing, and the search's time
    # axis must not grow with them.
    rng = random.Random(77)
    for _ in range(50):
        data = _oracle_dataset(rng)
        for mode in FrequencyMode:
            got, want = (
                [(c.key, c.occurrences.starts) for c in cands]
                for cands in (generate_candidates(data, 10**12, mode), dfs_candidates(data, 18, mode))
            )
            assert got == want


def test_candidates_on_gaps_near_the_int64_limit():
    # Five runs of A B C D, 2.5 * 10**17 apart, mined at max_gap 10**18:
    # a join key or chain key that packed all nodes or groups at once would
    # pass 2**63.  The candidates must be those of runs 100 apart at
    # max_gap 400, with each k * apart + d read as k * 100 + d.
    def runs(apart):
        ev = [(k * apart + i, sym) for k in range(5) for i, sym in enumerate("ABCD")]
        return EventDataset.from_tuples([ev], Alphabet(tuple("ABCD")))

    def near(t, apart):
        k = (t + 10) // apart
        return k * 100 + t - k * apart

    apart = 25 * 10**16
    for mode in FrequencyMode:
        want = sorted(
            (c.episode.event_types, c.episode.gaps, c.frequency, c.score)
            + (pairs(c.occurrences.starts),)
            for c in generate_candidates(runs(100), 400, mode)
        )
        got = sorted(
            (
                c.episode.event_types,
                tuple(near(g, apart) for g in c.episode.gaps),
                c.frequency,
                c.score,
                tuple((s, near(t, apart)) for s, t in pairs(c.occurrences.starts)),
            )
            for c in generate_candidates(runs(apart), 4 * apart, mode)
        )
        assert got == want
        assert any(gap > 90 for c in want for gap in c[1])  # some gap spans runs
        data = runs(apart)
        assert decode(encode(data, select(data, 4 * apart, mode=mode))) == data


def test_candidates_equal_dfs_oracle_on_wide_gaps():
    # Times 100 apart and max_gap 100-400: gaps beyond one byte, and axis
    # steps that shrink to max_gap + 1.
    rng = random.Random(4096)
    for _ in range(100):
        data = _oracle_dataset(rng)
        wide = EventDataset.from_tuples(
            [[(100 * t, name) for t, name in seq] for seq in raw_sequences(data)],
            data.alphabet,
        )
        max_gap = 100 * rng.randint(1, 4)
        for mode in FrequencyMode:
            got, want = (
                [(c.key, c.occurrences.starts) for c in search(wide, max_gap, mode)]
                for search in (generate_candidates, dfs_candidates)
            )
            assert got == want


def _deep_planted_dataset(rng):
    """One sequence over 6-9 symbols: one or two 4-6-node episodes with
    gaps of 1-3, each planted 3-8 times with an event sometimes missing,
    among noise events."""
    symbols = "ABCDEFGHI"[: rng.randint(6, 9)]
    events = []
    for _ in range(rng.randint(1, 2)):
        nodes = rng.sample(symbols, rng.randint(4, 6))
        offsets = [0, *itertools.accumulate(rng.randint(1, 3) for _ in nodes[1:])]
        t = rng.randint(0, 10)
        for _ in range(rng.randint(3, 8)):
            events += [(t + o, x) for o, x in zip(offsets, nodes) if rng.random() > 0.1]
            t += offsets[-1] + rng.randint(1, 6)
    end = max(t for t, _ in events)
    events += [(rng.randint(0, end), rng.choice(symbols)) for _ in range(rng.randint(0, 40))]
    return EventDataset.from_tuples([events], Alphabet(tuple(symbols)))


def test_searches_equal_dfs_oracle_on_deep_paths():
    # Up to 9 symbols and 6-node planted episodes: the bound that cuts a
    # node, row_gain(n_max, f), reaches past the 4 symbols of the other
    # oracle datasets, and long paths hold nodes on both sides of it.
    rng = random.Random(31)
    deep = 0
    for _ in range(300):
        data = _deep_planted_dataset(rng)
        max_gap = rng.randint(2, 4)
        axis = _Axis(data, max_gap)
        for mode in FrequencyMode:
            want = [
                (c.key, c.frequency, c.score, c.occurrences.starts)
                for c in dfs_candidates(data, max_gap, mode)
            ]
            got = [
                (c.key, c.frequency, c.score, c.occurrences.starts)
                for c in generate_candidates(data, max_gap, mode)
            ]
            assert got == want, (data, max_gap, mode)
            positive = [
                (c.key, c.frequency, c.score, c.occurrences.starts)
                for c in _search(axis, slice(None), mode is FrequencyMode.NON_OVERLAPPED, True)
            ]
            assert positive == [c for c in want if c[2] > 0], (data, max_gap)
            deep += sum(c[0].count("->") >= 3 for c in positive)
    assert deep > 1000


def test_select_search_cuts_branches_that_cannot_beat_their_path_best(monkeypatch):
    # A node grows only while row_gain(n_max, f) reaches its path's best
    # (at least 1 in select); with the f >= 3 rule alone select's joins
    # made 43,014 children here.
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    data = hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))
    join = candidates._join
    children = 0

    def counting_join(*args):
        nonlocal children
        out = join(*args)
        children += len(out[0])
        return out

    monkeypatch.setattr(candidates, "_join", counting_join)
    assert select(data, 3).selected
    assert 0 < children <= 20_000


def test_select_search_makes_only_children_that_may_grow(monkeypatch):
    # A child is made only when its own bound reaches its path's best (and
    # 1); any other would be a leaf emitting its parent's path best.  Making
    # every child of f >= 2 built 16,524 children here.
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25)
    data = hmm.trajectory_dataset(model, hmm.simulate(model, 10_000, 0))
    join = candidates._join
    children = 0

    def counting_join(*args):
        nonlocal children
        out = join(*args)
        children += len(out[0])
        return out

    monkeypatch.setattr(candidates, "_join", counting_join)
    assert select(data, 3).selected
    assert 0 < children <= 3_000


@pytest.mark.parametrize("top", [0, 2**16 - 1, 2**16, 2**32, 2**62 - 3])
def test_stable_order_equals_stable_argsort(top):
    # Keys up to `top` need 1 to 4 passes of 16-bit digits.  Half the
    # values share their lowest digit, and each value repeats many times.
    rng = np.random.default_rng(top % 997)
    pool = rng.integers(0, top, 40, endpoint=True)
    pool = np.append(pool, pool - (pool & 0xFFFF) + (pool[0] & 0xFFFF))
    for n in (0, 1, 2, 5000):
        key = rng.choice(pool, n)
        key[rng.integers(n, size=min(n, 1))] = top
        assert np.array_equal(candidates._stable_order(key), np.argsort(key, kind="stable"))
