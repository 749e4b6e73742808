import collections
import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from episodeseq import (
    PairStats,
    StateId,
    StateKind,
    Trajectory,
    build_model,
    closed_form_case1,
    closed_form_case2,
    closed_form_decomposed,
    compare_pairs,
    count_no_general,
    default_pair_alphabet,
    eta_upper_bound,
    joint_log_likelihood,
    model_summary,
    overlap_score_1,
    overlap_score_2,
    parse_serial_episode,
    simulate,
    trajectory_counts,
    trajectory_dataset,
    trajectory_stats,
    viterbi,
)
from oracles import (
    dense_emission_oracle,
    dense_emissions,
    dense_transition_oracle,
    dense_transitions,
    dense_viterbi,
    reference_pair_alphabet,
)


def pair_model(alpha="A -> B -> C", beta="D -> B -> E", m=7, eta=0.2):
    a = parse_serial_episode(alpha)
    b = parse_serial_episode(beta)
    return build_model(a, b, default_pair_alphabet(a, b, m), eta)


def emission_oracle(model):
    return dense_emission_oracle(model.alpha, model.beta, model.alphabet)


def case1_model(m=10, eta=0.2):
    return pair_model("A -> B -> C", "D -> E -> F", m=m, eta=eta)


def states(model, *labels):
    return [model.state_index(StateId.from_label(lbl)) for lbl in labels]


def symbols(model, text):
    return [model.alphabet.index(s) for s in text.split()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_state_count(n):
    syms = [chr(ord("A") + k) for k in range(2 * n)]
    alpha = parse_serial_episode(" -> ".join(syms[:n]))
    beta = parse_serial_episode(" -> ".join(syms[n:]))
    model = build_model(alpha, beta, default_pair_alphabet(alpha, beta, 2 * n + 3), 0.2)
    assert model.n_states == 4 * n * n + 1
    assert dense_transitions(model).shape == (model.n_states, model.n_states)


def test_worked_example_has_37_states():
    assert pair_model().n_states == 37


def test_stochasticity():
    for model in (pair_model(), case1_model(), pair_model(eta=0.4)):
        assert np.allclose(dense_transitions(model).sum(axis=1), 1.0, atol=1e-12)
        assert abs(model.initial.sum() - 1.0) <= 1e-12
        assert np.allclose(emission_oracle(model).sum(axis=1), 1.0, atol=1e-12)


def test_emission_structure():
    model = pair_model()
    emissions = emission_oracle(model)
    for idx in range(model.n_states):
        state = model.state(idx)
        row = emissions[idx]
        if state.kind is StateKind.EP1:
            expected = model.alphabet.index(model.alpha.event_types[state.i - 1])
            assert row[expected] == 1.0 and row.sum() == 1.0
        elif state.kind is StateKind.EP2:
            expected = model.alphabet.index(model.beta.event_types[state.j - 1])
            assert row[expected] == 1.0
        else:
            assert np.allclose(row, 1.0 / model.alphabet_size)


def test_shared_transitions_at_predicted_states():
    model = pair_model()  # second symbols coincide
    edges = {
        (model.state(src).label(), model.state(dst).label())
        for src, dst in model.shared_entry_edges
    }
    assert edges == {("S1(1,2)", "S1(2,3)"), ("S2(2,1)", "S2(3,2)")}
    # overridden rows keep only the shared exit and the noise exit
    src = model.state_index(StateId.from_label("S1(1,2)"))
    row = dense_transitions(model)[src]
    assert row[model.state_index(StateId.from_label("S1(2,3)"))] == pytest.approx(0.8)
    assert row[model.state_index(StateId.from_label("N1(1,2)"))] == pytest.approx(0.2)
    assert np.count_nonzero(row) == 2


def test_transitions_match_the_dense_construction():
    # For N = 1..5, one pair per position pair (p, q) whose p-th and q-th
    # symbols coincide, (1, 1) being a shared first symbol, plus seeded
    # pairs from a small pool that share several symbols.
    rng = random.Random(8)
    pairs = []
    for n in range(1, 6):
        for p in range(n):
            for q in range(n):
                alpha = [f"a{k}" for k in range(n)]
                beta = [f"b{k}" for k in range(n)]
                beta[q] = alpha[p]
                pairs.append((alpha, beta))
        for _ in range(20):
            pool = "ABCDEFG"[: rng.randint(n, min(7, 2 * n))]
            pairs.append((rng.sample(pool, n), rng.sample(pool, n)))
    for alpha, beta in pairs:
        a = parse_serial_episode(" -> ".join(alpha))
        b = parse_serial_episode(" -> ".join(beta))
        size = len(set(alpha) | set(beta)) + rng.randint(0, 3)
        alphabet = default_pair_alphabet(a, b, size)
        eta = rng.uniform(0.001, 0.999) * eta_upper_bound(size)
        model = build_model(a, b, alphabet, eta)
        assert np.array_equal(
            dense_transitions(model), dense_transition_oracle(a, b, alphabet, eta)
        ), f"{a} / {b}, M={size}, eta={eta}"
        assert np.array_equal(
            dense_emissions(model), dense_emission_oracle(a, b, alphabet)
        ), f"{a} / {b}, M={size}"


def test_model_memory_is_linear_in_states():
    # At N = 20 (S = 1601) a dense S x S float matrix alone takes 19.6 MiB.
    syms = [f"e{k}" for k in range(40)]
    alpha = parse_serial_episode(" -> ".join(syms[:20]))
    beta = parse_serial_episode(" -> ".join(syms[20:]))
    alphabet = default_pair_alphabet(alpha, beta, 45)
    tracemalloc.start()
    try:
        model = build_model(alpha, beta, alphabet, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_states == 1601
    assert peak <= 5 * 2**20


def test_model_memory_does_not_grow_with_the_alphabet():
    # A dense (S, M) emission matrix at S = 401, M = 20,000 takes 61 MiB.
    syms = [f"e{k}" for k in range(20)]
    alpha = parse_serial_episode(" -> ".join(syms[:10]))
    beta = parse_serial_episode(" -> ".join(syms[10:]))
    alphabet = default_pair_alphabet(alpha, beta, 20_000)
    tracemalloc.start()
    try:
        model = build_model(alpha, beta, alphabet, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_states == 401
    assert peak <= 2**20


def test_no_shared_transitions_in_disjoint_pair():
    assert case1_model().shared_entry_edges == frozenset()


def test_initial_state_rules():
    model = pair_model()
    n0 = model.state_index(StateId(StateKind.NOISE0))
    assert model.initial[n0] == pytest.approx(0.2)
    s111 = model.state_index(StateId.from_label("S1(1,1)"))
    s211 = model.state_index(StateId.from_label("S2(1,1)"))
    assert model.initial[s111] == model.initial[s211] == pytest.approx(0.4)
    assert model.shared_initial_state is None

    same_first = pair_model("A -> B -> C", "A -> D -> E")
    s12 = same_first.state_index(StateId.from_label("S1(1,2)"))
    assert same_first.initial[s12] == pytest.approx(0.8)
    assert same_first.shared_initial_state == s12


def test_eta_bound_enforced():
    alpha = parse_serial_episode("A -> B")
    beta = parse_serial_episode("C -> D")
    alphabet = default_pair_alphabet(alpha, beta, 6)
    limit = eta_upper_bound(6)
    with pytest.raises(ValueError):
        build_model(alpha, beta, alphabet, limit)
    with pytest.raises(ValueError):
        build_model(alpha, beta, alphabet, 0.0)
    model = build_model(alpha, beta, alphabet, limit - 1e-6)
    eta, m = model.eta, model.alphabet_size
    assert (1 - eta) * m / (4 * eta) > 1.0
    assert (1 - eta) * m / (8 * eta) > 1.0


def test_build_rejects_bad_inputs():
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> E")
    with pytest.raises(ValueError):
        build_model(alpha, beta, default_pair_alphabet(alpha, alpha, 7), 0.2)
    small = default_pair_alphabet(beta, beta, 2)
    with pytest.raises(KeyError):
        build_model(
            parse_serial_episode("X -> Y"), parse_serial_episode("D -> E"), small, 0.1
        )


def test_documented_interleaving_path_is_reachable():
    # an interleaved two-episode walk straight off the transition diagrams
    model = pair_model()
    q = states(
        model,
        "N0", "S1(1,1)", "S2(2,1)", "N2(2,1)", "S1(2,2)",
        "N1(2,2)", "S2(3,2)", "S2(3,3)", "N2(3,3)", "S1(3,1)",
    )
    o = symbols(model, "B A D F B G B E C C")
    assert joint_log_likelihood(model, o, q) > -math.inf


def test_shared_event_path_is_reachable_and_tagged():
    model = pair_model()
    q = states(
        model,
        "N0", "S1(1,1)", "N1(1,1)", "S2(2,1)", "S2(3,2)",
        "N2(3,2)", "S1(3,3)", "N1(3,3)", "S2(1,3)", "N2(1,3)",
    )
    o = symbols(model, "F A C D B B C G E F")
    assert joint_log_likelihood(model, o, q) > -math.inf
    stats = trajectory_stats(model, q)
    assert stats.shared_events == 1  # the S2(2,1) -> S2(3,2) move shares a B
    assert stats.f_first == 1 and stats.f_second == 1


def test_simulate_deterministic_and_delta_emissions():
    model = pair_model()
    t1 = simulate(model, 50, seed=9)
    t2 = simulate(model, 50, seed=9)
    assert t1 == t2
    assert simulate(model, 50, seed=10) != t1
    ep_symbol = np.argmax(emission_oracle(model), axis=1)
    for state, out in zip(t1.states, t1.outputs):
        if model.state(state).kind in (StateKind.EP1, StateKind.EP2):
            assert out == ep_symbol[state]


def test_simulate_never_takes_a_zero_probability_state(monkeypatch):
    # With eta = 0.175 the initial law and N0's row sum to just below 1, so
    # a draw of the largest float below 1 falls past them.  Seed 1 draws
    # 0.0 first, which starts the walk in N0, so its row is clamped too.
    class TopDraws:
        def __init__(self, seed):
            top = itertools.repeat(np.nextafter(1.0, 0.0))
            self.draws = itertools.chain([0.0] * seed, top)

        def random(self):
            return next(self.draws)

        def integers(self, low, high):
            return low

    model = pair_model("A -> B -> C", "D -> E -> F", m=9, eta=0.175)
    monkeypatch.setattr(np.random, "default_rng", TopDraws)
    trans = dense_transitions(model)
    for seed in (0, 1):
        states = simulate(model, 200, seed=seed).states
        assert model.initial[states[0]] > 0
        for prev, s in zip(states, states[1:]):
            assert s == np.flatnonzero(trans[prev])[-1]
    assert states[0] == model.state_index(StateId(StateKind.NOISE0))


def test_simulate_noise_fraction_tracks_eta():
    model = case1_model(m=10, eta=0.01)
    traj = simulate(model, 10000, seed=4)
    n_noise, _, _ = trajectory_counts(model, traj)
    assert abs(n_noise / 10000 - 0.01) <= 0.02


def test_joint_log_likelihood_reference_value():
    # four noise and six episode emissions at eta=0.4, M=7
    model = case1_model(m=7, eta=0.4)
    q = states(
        model,
        "N0", "S1(1,1)", "S1(2,1)", "S1(3,1)", "N1(3,1)",
        "N1(3,1)", "N1(3,1)", "S2(1,1)", "S2(1,2)", "S2(1,3)",
    )
    o = symbols(model, "G A B C G G G D E F")
    value = joint_log_likelihood(model, o, q)
    assert value == pytest.approx(-18.6726403497, abs=1e-9)
    assert value == pytest.approx(closed_form_case1(model, 4, 6), abs=1e-9)


def test_joint_log_likelihood_zero_probability():
    model = case1_model()
    q = states(model, "S1(1,1)", "S1(3,1)")  # skips a node: impossible move
    o = symbols(model, "A C")
    assert joint_log_likelihood(model, o, q) == -math.inf
    with pytest.raises(ValueError):
        joint_log_likelihood(model, o, q[:1])


def test_joint_log_likelihood_single_noise_step():
    model = case1_model(m=10, eta=0.2)
    q = states(model, "N0")
    o = symbols(model, "J")
    assert joint_log_likelihood(model, o, q) == pytest.approx(
        math.log(0.2 / 10), abs=1e-12
    )


def test_closed_form_case1_extremes():
    model = case1_model(m=10, eta=0.2)
    t = 17
    assert closed_form_case1(model, t, 0) == pytest.approx(t * math.log(0.02))
    assert closed_form_case1(model, 0, t) == pytest.approx(t * math.log(0.4))


def test_closed_form_case2_reduces_to_case1_without_sharing():
    model = pair_model(m=10, eta=0.2)
    n = model.n_nodes
    f_a, f_b, t = 3, 2, 40
    got = closed_form_case2(model, f_a, f_b, 0, t)
    want = closed_form_case1(model, t - n * (f_a + f_b), n * (f_a + f_b))
    assert got == pytest.approx(want, abs=1e-9)


def test_closed_form_case2_decreases_with_sharing():
    model = pair_model(m=10, eta=0.2)
    values = [closed_form_case2(model, 3, 3, o, 50) for o in range(0, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_closed_form_case2_matches_constructed_trajectory():
    model = pair_model(m=10, eta=0.2)
    labels = (
        ["N0", "S1(1,1)", "S1(2,1)", "S1(3,1)", "N1(3,1)",
         "S2(1,1)", "S2(1,2)", "S2(1,3)"]
        + ["N2(1,3)"] * 17
        + ["S1(1,1)", "S2(2,1)", "S2(3,2)", "S2(3,3)", "S1(3,1)"]
    )
    q = states(model, *labels)
    o = symbols(model, "J A B C J D B E " + "J " * 17 + "A D B E C")
    assert len(q) == len(o) == 30
    joint = joint_log_likelihood(model, o, q)
    assert joint > -math.inf
    stats = trajectory_stats(model, q)
    assert (stats.f_first, stats.f_second, stats.shared_events) == (2, 2, 1)
    assert joint == pytest.approx(
        closed_form_case2(model, 2, 2, 1, 30), abs=1e-9
    )


def test_closed_form_case2_rejects_inconsistent_counts():
    model = pair_model(m=10, eta=0.2)
    with pytest.raises(ValueError):
        closed_form_case2(model, 1, 1, 4, 30)  # more shared than episode events
    with pytest.raises(ValueError):
        closed_form_case2(model, 5, 5, 0, 10)  # events exceed length


def test_closed_forms_agree_with_simulation():
    rng = random.Random(1)
    for eta in (0.1, 0.3, 0.44):
        for case2 in (False, True):
            model = pair_model(m=10, eta=eta) if case2 else case1_model(m=10, eta=eta)
            for _ in range(20):
                traj = simulate(model, rng.randint(1, 200), seed=rng.randrange(10**6))
                counts = trajectory_counts(model, traj)
                want = closed_form_decomposed(model, *counts)
                got = joint_log_likelihood(model, traj.outputs, traj.states)
                assert got == pytest.approx(want, abs=1e-9)
                if not case2:
                    assert counts[2] == 0
                    assert got == pytest.approx(
                        closed_form_case1(model, counts[0], counts[1] + counts[2]),
                        abs=1e-9,
                    )


def test_closed_form_counts_a_shared_initial_state():
    # Equal first symbols: the path may start in S1(1,2) with probability
    # 1 - eta, and that first emission is a shared event.
    model = pair_model("A -> B -> C", "A -> D -> E", m=10, eta=0.3)
    starts = 0
    for seed in range(40):
        traj = simulate(model, 30, seed=seed)
        starts += traj.states[0] == model.shared_initial_state
        want = closed_form_decomposed(model, *trajectory_counts(model, traj))
        got = joint_log_likelihood(model, traj.outputs, traj.states)
        assert got == pytest.approx(want, abs=1e-9)
    assert starts > 0


def test_viterbi_dominates_sampled_paths():
    model = pair_model(m=10, eta=0.3)
    for seed in range(5):
        traj = simulate(model, 60, seed=seed)
        best = viterbi(model, traj.outputs)
        assert joint_log_likelihood(model, traj.outputs, best) >= joint_log_likelihood(
            model, traj.outputs, traj.states
        )


def tie_heavy_model(rng, case):
    """A random pair model with N = 1..5 over a small symbol pool, so that
    episodes share symbols, sometimes their first one (a shared initial
    state)."""
    n = rng.randint(1, 5)
    pool = "ABCDEFGHIJ"[: rng.randint(n, min(10, 2 * n + 1))]
    alpha = rng.sample(pool, n)
    beta = rng.sample(pool, n)
    if case % 4 == 0:
        beta = [alpha[0]] + [sym for sym in beta if sym != alpha[0]][: n - 1]
    a = parse_serial_episode(" -> ".join(alpha))
    b = parse_serial_episode(" -> ".join(beta))
    size = len(set(alpha) | set(beta)) + rng.randint(0, 4)
    eta = rng.uniform(0.001, 0.999) * eta_upper_bound(size)
    return build_model(a, b, default_pair_alphabet(a, b, size), eta)


def tie_heavy_outputs(rng, case, model, length):
    """``length`` outputs: a simulated trajectory's for odd ``case``,
    uniformly random symbols for even."""
    if case % 2:
        return simulate(model, length, seed=rng.randrange(10**6)).outputs
    return [rng.randrange(model.alphabet_size) for _ in range(length)]


def test_viterbi_equals_dense_max_product():
    # Equal edge weights and uniform noise emissions make exactly tied
    # predecessors common (most cases have some), so the lowest-index
    # tie-break is exercised.
    rng = random.Random(905)
    for case in range(400):
        model = tie_heavy_model(rng, case)
        outputs = tie_heavy_outputs(rng, case, model, rng.randint(1, 60))
        assert viterbi(model, outputs) == dense_viterbi(model, outputs), (
            f"case {case}: {model.alpha} / {model.beta}, M={model.alphabet_size}, "
            f"eta={model.eta}, outputs={outputs}"
        )


@pytest.mark.parametrize(
    "length", [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 257, 317, 403]
)
def test_viterbi_equals_dense_max_product_across_chunk_edges(length):
    # viterbi folds its back-pointers in chunks of 64 steps, and packs 8, 4
    # or 2 steps to a byte for states of in-degree 2, 3-4 or 5-8, so these
    # lengths end a path at, just before and just after a chunk edge and a
    # byte edge of every width.
    rng = random.Random(length)
    for case in range(12):
        model = tie_heavy_model(rng, case)
        outputs = tie_heavy_outputs(rng, case, model, length)
        assert viterbi(model, outputs) == dense_viterbi(model, outputs), (
            f"case {case}: {model.alpha} / {model.beta}, M={model.alphabet_size}, "
            f"eta={model.eta}"
        )


def benchmark_model():
    """The 257-state pair model of two 8-node episodes sharing D, M = 20."""
    alpha = parse_serial_episode("A -> B -> C -> D -> E -> F -> G -> H")
    beta = parse_serial_episode("I -> J -> K -> D -> L -> M -> N -> O")
    return build_model(alpha, beta, default_pair_alphabet(alpha, beta, 20), 0.25)


def test_viterbi_equals_dense_max_product_on_the_benchmark_model():
    # Its states have in-degree 1, 2, 4 and 5, so their back-pointers are
    # stored at all four widths: 0, 1, 2 and 4 bits.
    model = benchmark_model()
    in_degree = collections.Counter(dst for row in model.successors for dst in row)
    assert collections.Counter(in_degree.values()) == {1: 1, 2: 130, 4: 122, 5: 4}
    for seed in range(3):
        outputs = simulate(model, 100 + seed, seed=seed).outputs
        assert viterbi(model, outputs) == dense_viterbi(model, outputs), f"seed {seed}"


def test_in_degree_is_at_most_six():
    # viterbi folds a state's equality masks into one uint8 code, which needs
    # an in-degree K of at most 8; its back-pointer widths cover K <= 16.
    rng = random.Random(21)
    for n in range(1, 9):
        for case in range(30):
            pool = "ABCDEFGHIJKLMNOPQ"[: rng.randint(n, 2 * n + 1)]
            alpha = rng.sample(pool, n)
            beta = {0: alpha, 1: alpha[1:] + alpha[:1]}.get(case, rng.sample(pool, n))
            a = parse_serial_episode(" -> ".join(alpha))
            b = parse_serial_episode(" -> ".join(beta))
            model = build_model(a, b, default_pair_alphabet(a, b, len(pool) + 1), 0.1)
            in_degree = collections.Counter(dst for row in model.successors for dst in row)
            assert max(in_degree.values()) <= 6, f"{a} / {b}"


def viterbi_peak_mib(model, length):
    """tracemalloc peak of ``viterbi`` on ``length`` simulated outputs."""
    outputs = simulate(model, length, seed=0).outputs
    tracemalloc.start()
    try:
        path = viterbi(model, outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) == length
    return peak / 2**20


def test_viterbi_memory_on_the_benchmark_model():
    # One byte per step and state would take 2.45 MiB here.  viterbi keeps
    # 48.75 bytes a step (130 states at 1 bit, 122 at 2, 4 at 4, one at 0).
    model = benchmark_model()
    assert model.n_states == 257
    assert viterbi_peak_mib(model, 10_000) <= 1.2


def test_viterbi_memory_per_step_on_the_benchmark_model():
    # Back-pointers and the returned path grow with T; 4 bits for every
    # state would take 12.3 MiB of back-pointers alone at this length.
    assert viterbi_peak_mib(benchmark_model(), 100_000) <= 8.0


def test_viterbi_single_symbol():
    model = case1_model(m=10, eta=0.2)
    path = viterbi(model, symbols(model, "A"))
    assert model.state(path[0]).label() == "S1(1,1)"


def test_viterbi_pure_noise_symbols():
    model = case1_model(m=10, eta=0.2)
    path = viterbi(model, symbols(model, "G H I J G"))
    assert all(model.state(idx).kind not in (StateKind.EP1, StateKind.EP2) for idx in path)


BIG = 10**400


@pytest.mark.parametrize(
    "outputs, states",
    [
        ([-1], [0]),
        ([9], [0]),
        ([0], [-1]),
        ([0], [37]),
        ([0, 1], [0, 99]),
        ([BIG], [0]),
        ([-BIG], [0]),
        ([0, 1], [0, BIG]),
        ([0, 1], [-BIG, 0]),
    ],
)
def test_joint_log_likelihood_refuses_ids_out_of_range(outputs, states):
    # A negative id would wrap to the last symbol or state.
    model = case1_model(m=9)
    with pytest.raises(ValueError, match="outside"):
        joint_log_likelihood(model, outputs, states)


@pytest.mark.parametrize("states", [[-1, 5], [99], [0, 37], [BIG], [0, -BIG]])
def test_state_walks_refuse_ids_out_of_range(states):
    model = case1_model(m=9)
    with pytest.raises(ValueError, match="outside"):
        trajectory_stats(model, states)
    with pytest.raises(ValueError, match="outside"):
        trajectory_counts(model, Trajectory(tuple(states), (0,) * len(states)))


def test_viterbi_rejects_bad_inputs():
    model = case1_model()
    with pytest.raises(ValueError):
        viterbi(model, [])
    with pytest.raises(ValueError):
        viterbi(model, [model.alphabet_size])


def test_overlap_score_metrics():
    assert overlap_score_1(3, 10, 4) == 26
    assert overlap_score_2(3, 10, 4) == Fraction(28)
    assert overlap_score_1(3, 5, 0) == 15
    assert overlap_score_2(3, 5, 0) == Fraction(15)
    # difference identity used for ranking episodes against a fixed one
    n, fb, fg, ob, og = 3, 9, 7, 2, 5
    assert overlap_score_1(n, fb, ob) - overlap_score_1(n, fg, og) == n * (
        fb - fg
    ) - (ob - og)


def test_trajectory_shared_events_bounded_by_occurrences():
    for model in (pair_model(m=10, eta=0.25), case1_model(m=10, eta=0.25)):
        for seed in range(8):
            traj = simulate(model, 120, seed=seed)
            stats = trajectory_stats(model, traj.states)
            n = model.n_nodes
            assert stats.shared_events <= n * (
                min(stats.f_first, stats.f_second) + 1
            )


def test_compare_pairs_case_a():
    result = compare_pairs(
        PairStats(3, 0, 10, 1), PairStats(3, 0, 8, 4), eta=0.2, alphabet_size=10
    )
    assert result.log_ratio > 0 and result.preferred == "beta"


def test_compare_pairs_equal_frequency_prefers_less_sharing():
    result = compare_pairs(
        PairStats(3, 0, 6, 1), PairStats(3, 0, 6, 5), eta=0.3, alphabet_size=10
    )
    assert result.preferred == "beta"
    flipped = compare_pairs(
        PairStats(3, 0, 6, 5), PairStats(3, 0, 6, 1), eta=0.3, alphabet_size=10
    )
    assert flipped.preferred == "gamma"
    assert flipped.log_ratio == pytest.approx(-result.log_ratio)


def test_compare_pairs_case_b2_closed_form():
    # frequencies favor beta by x = N*df, sharing exceeds it by 2x + xi
    n, eta, m = 3, 0.3, 10
    x, xi = 3, 1
    f_gamma, o_gamma = 5, 2
    f_beta = f_gamma + x // n
    o_beta = o_gamma + 2 * x + xi
    result = compare_pairs(
        PairStats(n, 0, f_beta, o_beta),
        PairStats(n, 0, f_gamma, o_gamma),
        eta=eta,
        alphabet_size=m,
    )
    want = -(
        x * math.log((1 - eta) * m / (8 * eta))
        + xi * math.log((1 - eta) * m / (4 * eta))
    )
    assert result.log_ratio == pytest.approx(want, abs=1e-9)
    assert result.preferred == "gamma"


def test_compare_pairs_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        compare_pairs(PairStats(2, 0, 5, 0), PairStats(3, 0, 5, 0), 0.2, 10)


def test_compare_pairs_rejects_zero_node_episodes():
    with pytest.raises(ValueError, match="at least 1 node, got 0"):
        compare_pairs(PairStats(0, 0, 3, 0), PairStats(0, 0, 2, 0), 0.2, 10)


@pytest.mark.parametrize(
    "alpha, beta",
    [
        ("A -> B -> C", "D -> B -> E"),
        ("x1 -> Q -> x0", "x3 -> A -> Z"),
        ("Z -> x2", "Y -> x0"),
    ],
)
def test_default_pair_alphabet_keeps_the_list_built_order(alpha, beta):
    # Episode symbols that are also filler names (a capital, x<k>) appear once.
    a, b = parse_serial_episode(alpha), parse_serial_episode(beta)
    distinct = len(set(a.event_types + b.event_types))
    for size in range(distinct, distinct + 40):
        assert default_pair_alphabet(a, b, size).symbols == reference_pair_alphabet(a, b, size)


def test_default_pair_alphabet_is_linear_in_its_size():
    # A membership test on the list made this quadratic: 3.5 s at 20,000.
    a, b = parse_serial_episode("x1 -> Q -> C"), parse_serial_episode("D -> x5 -> E")
    start = time.perf_counter()
    alphabet = default_pair_alphabet(a, b, 200_000)
    assert time.perf_counter() - start < 2.0
    assert alphabet.size == 200_000
    # 6 episode symbols and 22 capitals, then x0 to x199973 without x1 and x5
    assert alphabet.symbols[-1] == "x199973"


def test_ordering_grid_agreement_medium():
    n, m = 3, 10
    for eta in (0.1, 0.3, 0.44):
        for f_beta in range(1, 9):
            for f_gamma in range(1, 9):
                cap = n * min(f_beta, f_gamma)
                for o_beta in range(0, cap + 1):
                    for o_gamma in range(0, cap + 1):
                        s1b = overlap_score_1(n, f_beta, o_beta)
                        s1g = overlap_score_1(n, f_gamma, o_gamma)
                        s2b = overlap_score_2(n, f_beta, o_beta)
                        s2g = overlap_score_2(n, f_gamma, o_gamma)
                        if s1b > s1g and s2b > s2g:
                            expected = "beta"
                        elif s1b < s1g and s2b < s2g:
                            expected = "gamma"
                        else:
                            continue
                        result = compare_pairs(
                            PairStats(n, 0, f_beta, o_beta),
                            PairStats(n, 0, f_gamma, o_gamma),
                            eta,
                            m,
                        )
                        assert result.preferred == expected


def test_count_realization_smoke():
    model = case1_model(m=20, eta=0.2)
    traj = simulate(model, 5000, seed=0)
    data = trajectory_dataset(model, traj)
    expected = 5000 * 0.8 / 6
    for episode in (model.alpha, model.beta):
        f = count_no_general(data, episode)
        assert 0.5 * expected <= f <= 1.5 * expected


def test_model_summary_is_json_compatible():
    model = pair_model()
    text = json.dumps(model_summary(model))
    parsed = json.loads(text)
    assert parsed["n_nodes"] == 3
    assert len(parsed["states"]) == 37
    assert parsed["emissions"]["S1(1,1)"] == "A"


def test_state_label_roundtrip():
    for n in (2, 3):
        for idx in range(4 * n * n + 1):
            state = StateId.from_index(idx, n)
            assert StateId.from_label(state.label()) == state
            assert state.index(n) == idx
