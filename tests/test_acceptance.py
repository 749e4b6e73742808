"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured result (run with ``pytest -s`` or ``-rA`` to
see the lines).
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import episodeseq
from episodeseq import (
    FrequencyMode,
    PairStats,
    build_dictionary_I,
    build_model,
    closed_form_decomposed,
    compare_pairs,
    compute_idf,
    corpus_to_events,
    count_no_general,
    decode,
    default_pair_alphabet,
    encode,
    evaluate,
    find_distinct_starts,
    find_no_occurrences,
    forced_selection,
    joint_log_likelihood,
    mine_dictionary,
    overlap_score,
    parse_episode,
    parse_serial_episode,
    predict,
    select,
    simulate,
    span,
    tfidf,
    total_length,
    train_nb,
    trajectory_counts,
    trajectory_dataset,
)
from episodeseq.datasets import (
    make_planted_corpus,
    make_two_class_corpus,
    planted_episodes,
    sample_dataset,
    sample_selection,
)
from oracles import (
    all_fixed_interval_episodes,
    dense_transitions,
    max_nonoverlap_from_starts,
    max_nonoverlap_intervals,
    per_sequence_starts,
    random_dataset,
    random_planted_dataset,
    serial_occurrence_intervals,
)


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_01_reference_table_reproduction():
    started = time.monotonic()
    data = sample_dataset()
    state = forced_selection(data, sample_selection(), FrequencyMode.DISTINCT)
    table = encode(data, state)
    rows = [(r.size, str(r.episode), r.frequency, r.starts) for r in table.rows]
    assert rows == [
        (3, "A -2-> B -1-> C", 2, ((0, 2), (0, 4))),
        (3, "D -2-> E -2-> C", 2, ((0, 1), (0, 5))),
        (2, "A -1-> B", 1, ((0, 7),)),
        (1, "C", 2, ((0, 3), (0, 8))),
    ]
    assert total_length(table) == 29
    assert decode(table) == data
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(f"1. reference encoding table reproduced exactly, 29 units ({elapsed:.3f}s)")


def test_criterion_02_greedy_filter_maximality_oracle():
    started = time.monotonic()
    rng = random.Random(2024)
    instances = 0
    while instances < 200:
        data = random_dataset(rng, max_events=30, max_symbols=5)
        n = rng.randint(1, 3)
        ep_symbols = rng.sample(data.alphabet.symbols, min(n, len(data.alphabet.symbols)))
        gaps = [rng.randint(1, 3) for _ in range(len(ep_symbols) - 1)]
        text = ep_symbols[0] + "".join(
            f" -{g}-> {s}" for g, s in zip(gaps, ep_symbols[1:])
        )
        episode = parse_episode(text)
        occ = find_distinct_starts(data, episode)
        kept = find_no_occurrences(occ)
        n = data.n_sequences
        for starts, filtered in zip(
            per_sequence_starts(occ.starts, n), per_sequence_starts(kept.starts, n)
        ):
            assert len(filtered) == max_nonoverlap_from_starts(
                list(starts), span(episode)
            )
        instances += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(
        f"2. greedy non-overlap filter maximal on {instances} random instances "
        f"({elapsed:.2f}s)"
    )


def test_criterion_03_compression_monotonicity():
    rng = random.Random(31)
    checked = 0
    while checked < 100:
        data, planted = random_planted_dataset(
            rng, n_repetitions=rng.randint(4, 8), noise_events=rng.randint(2, 10)
        )
        mode = (
            FrequencyMode.NON_OVERLAPPED
            if rng.random() < 0.5
            else FrequencyMode.DISTINCT
        )
        universe = [
            ep
            for ep in all_fixed_interval_episodes(data.alphabet.symbols, 2, 2)
            if ep.length == 2
        ]
        rng.shuffle(universe)
        base = [planted] if rng.random() < 0.7 else []
        base += universe[: rng.randint(0, 2)]
        alpha = next(
            (
                ep
                for ep in universe[3:] + [planted]
                if all(str(ep) != str(b) for b in base)
                and overlap_score(ep, data, base, mode) > 0
            ),
            None,
        )
        if alpha is None:
            continue
        before = total_length(encode(data, forced_selection(data, base, mode)))
        after = total_length(
            encode(data, forced_selection(data, base + [alpha], mode))
        )
        assert after < before
        checked += 1
    report(f"3. positive overlap-score strictly shrank the code on {checked} triples")


def test_criterion_04_general_count_oracle():
    rng = random.Random(47)
    symbols = ("A", "B", "C", "D")
    episodes_checked = 0
    comparisons = 0
    while episodes_checked < 50:
        n = rng.randint(1, 4)
        episode = parse_serial_episode(" -> ".join(rng.sample(symbols, n)))
        for _ in range(40):
            length = rng.randint(1, 12)
            seq = [(t + 1, symbols[rng.randrange(4)]) for t in range(length)]
            from episodeseq import EventDataset

            data = EventDataset.from_tuples([seq])
            expected = max_nonoverlap_intervals(
                serial_occurrence_intervals(seq, episode.event_types)
            )
            assert count_no_general(data, episode) == expected
            comparisons += 1
        episodes_checked += 1
    report(
        f"4. general non-overlapped count matched brute force for "
        f"{episodes_checked} episodes ({comparisons} sequences)"
    )


def test_criterion_05_model_structure():
    for n in (2, 3, 4):
        syms = [chr(ord("A") + k) for k in range(2 * n)]
        alpha = parse_serial_episode(" -> ".join(syms[:n]))
        beta = parse_serial_episode(" -> ".join(syms[n:]))
        model = build_model(
            alpha, beta, default_pair_alphabet(alpha, beta, 2 * n + 4), 0.2
        )
        assert model.n_states == 4 * n * n + 1
        assert np.allclose(dense_transitions(model).sum(axis=1), 1.0, atol=1e-12)
        assert abs(model.initial.sum() - 1.0) <= 1e-12
        assert np.allclose(model.emissions.sum(axis=1), 1.0, atol=1e-12)
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = build_model(alpha, beta, default_pair_alphabet(alpha, beta, 7), 0.2)
    edges = {
        (model.state(a).label(), model.state(b).label())
        for a, b in model.shared_entry_edges
    }
    assert edges == {("S1(1,2)", "S1(2,3)"), ("S2(2,1)", "S2(3,2)")}
    report("5. state counts 4N^2+1, stochastic rows, shared transitions as predicted")


def test_criterion_06_closed_form_likelihoods():
    rng = random.Random(66)
    pairs = [
        ("A -> B -> C", "D -> E -> F"),  # no shared symbols
        ("A -> B -> C", "D -> B -> E"),  # shared middle symbol
    ]
    checked = 0
    worst = 0.0
    while checked < 500:
        for eta in (0.1, 0.3, 0.44):
            for alpha_text, beta_text in pairs:
                alpha = parse_serial_episode(alpha_text)
                beta = parse_serial_episode(beta_text)
                model = build_model(
                    alpha, beta, default_pair_alphabet(alpha, beta, 10), eta
                )
                traj = simulate(
                    model, rng.randint(1, 200), seed=rng.randrange(10**7)
                )
                got = joint_log_likelihood(model, traj.outputs, traj.states)
                want = closed_form_decomposed(model, *trajectory_counts(model, traj))
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-9
                checked += 1
    report(
        f"6. joint log-likelihood matched count closed forms on {checked} "
        f"trajectories (worst gap {worst:.2e})"
    )


def test_criterion_07_frequency_realization():
    started = time.monotonic()
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> E -> F")
    model = build_model(alpha, beta, default_pair_alphabet(alpha, beta, 20), 0.2)
    t_len = 20000
    expected = t_len * (1 - 0.2) / (2 * 3)
    low, high = 0.6 * expected, 1.4 * expected
    observed = []
    for seed in range(10):
        traj = simulate(model, t_len, seed=seed)
        data = trajectory_dataset(model, traj)
        for episode in (alpha, beta):
            f = count_no_general(data, episode)
            observed.append(f)
            assert low <= f <= high
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(
        f"7. realized frequencies in [{low:.0f}, {high:.0f}] for 10 seeds "
        f"(range {min(observed)}..{max(observed)}, {elapsed:.1f}s)"
    )


def test_criterion_08_ordering_soundness_grid():
    n, m = 3, 10
    points = 0
    for eta in (0.1, 0.3, 0.44):
        log2eta = np.log((1 - eta) * m / (2 * eta))
        log4eta = np.log((1 - eta) * m / (4 * eta))
        for f_beta in range(1, 21):
            for f_gamma in range(1, 21):
                cap = n * min(f_beta, f_gamma)
                o_beta, o_gamma = np.meshgrid(
                    np.arange(cap + 1), np.arange(cap + 1), indexing="ij"
                )
                s1 = (n * f_beta - o_beta) - (n * f_gamma - o_gamma)
                s2 = (2 * n * f_beta - o_beta) - (2 * n * f_gamma - o_gamma)
                log_ratio = n * (f_beta - f_gamma) * log2eta + (
                    o_gamma - o_beta
                ) * log4eta
                beta_mask = (s1 > 0) & (s2 > 0)
                gamma_mask = (s1 < 0) & (s2 < 0)
                assert (log_ratio[beta_mask] > 0).all()
                assert (log_ratio[gamma_mask] < 0).all()
                points += int(beta_mask.sum() + gamma_mask.sum())
    # spot-check that the vectorized ratio matches the library on a sample
    sample = compare_pairs(PairStats(3, 0, 12, 2), PairStats(3, 0, 9, 8), 0.3, 10)
    assert sample.preferred == "beta"
    report(f"8. likelihood ordering agreed with both metrics on {points} grid points")


def test_criterion_09_planted_episode_recovery():
    started = time.monotonic()
    corpus = make_planted_corpus()
    data = corpus_to_events(corpus)
    state = select(data, max_gap=3)
    got = sorted(str(sel.episode) for sel in state.selected)
    want = sorted(str(ep) for ep in planted_episodes())
    assert got == want
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(f"9. planted episode set recovered exactly ({elapsed:.1f}s)")


def test_criterion_10_dictionary_reduction():
    started = time.monotonic()
    train, test = make_two_class_corpus()
    assert train.n_documents >= 200
    dict_one = build_dictionary_I(train)
    dict_two, _ = mine_dictionary(train)
    assert len(dict_two) <= 0.5 * len(dict_one)
    accuracies = {}
    for name, dictionary in (("I", dict_one), ("II", dict_two)):
        idf = compute_idf(train, dictionary)
        model = train_nb(tfidf(train, dictionary, idf), train.labels)
        metrics = evaluate(
            predict(model, tfidf(test, dictionary, idf)), test.labels
        )
        accuracies[name] = metrics["accuracy"]
    assert abs(accuracies["I"] - accuracies["II"]) <= 0.03
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        f"10. dictionary {len(dict_one)} -> {len(dict_two)} words; NB accuracy "
        f"I={accuracies['I']:.3f} vs II={accuracies['II']:.3f} ({elapsed:.1f}s)"
    )


def _run_python(args: list[str], tmp_path) -> bytes:
    # Hand the subprocess the package this process imported: a relative
    # PYTHONPATH (such as ``src``) does not resolve under cwd=tmp_path.
    package_root = str(Path(episodeseq.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    argv = [sys.executable, *args]
    result = subprocess.run(
        argv,
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, (
        f"{argv} exited {result.returncode} with PYTHONPATH={pythonpath!r}:\n"
        f"{result.stderr.decode()}"
    )
    return result.stdout


def _run_cli(args: list[str], tmp_path) -> bytes:
    return _run_python(["-m", "episodeseq.cli", *args], tmp_path)


def test_cli_import_loads_no_scipy(tmp_path):
    out = _run_python(
        [
            "-c",
            "import episodeseq.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        tmp_path,
    )
    assert out.decode().strip() == "[]"


def test_criterion_11_byte_identical_reruns(tmp_path):
    from episodeseq.datasets import sample_sequence_text
    from episodeseq.textpipe import save_corpus

    seq = tmp_path / "seq.tsv"
    seq.write_text(sample_sequence_text(), "utf-8")
    train, test = make_two_class_corpus(n_train=40, n_test=12)
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    with open(train_path, "w") as handle:
        save_corpus(train, handle)
    with open(test_path, "w") as handle:
        save_corpus(test, handle)

    commands = {
        "mine": ["mine", str(seq), "--max-gap", "2"],
        "hmm-sim": [
            "hmm-sim",
            "--alpha", "A -> B -> C",
            "--beta", "D -> B -> E",
            "--alphabet-size", "9",
            "--eta", "0.25",
            "--length", "64",
            "--seed", "17",
        ],
        "classify": [
            "classify", "--train", str(train_path), "--test", str(test_path),
        ],
    }
    for name, argv in commands.items():
        first = _run_cli(argv, tmp_path)
        second = _run_cli(argv, tmp_path)
        assert first == second, f"{name} output differs between runs"
        assert first
    report("11. mine, hmm-sim, and classify are byte-identical across reruns")


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_prints_its_golden_output(demo, tmp_path):
    # The golden files were written with
    #   PYTHONPATH=src python demos/<demo>.py > tests/golden/demos/<demo>.out
    expected = (Path(__file__).parent / "golden" / "demos" / f"{demo}.out").read_bytes()
    assert _run_python([str(DEMOS / f"{demo}.py")], tmp_path) == expected, (
        f"demos/{demo}.py printed something other than its golden output"
    )
