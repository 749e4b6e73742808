"""Generative hidden Markov model for a pair of serial episodes.

The model interleaves occurrences of two N-node episodes with uniform noise.
Its 4N^2 + 1 states split into episode states, which emit one fixed episode
symbol each, and noise states, which emit uniformly over the alphabet.  A
single noise parameter eta fixes every probability: from any state the
transition into a noise state has probability eta, and the remainder is
split equally among the reachable episode states.  Each state has at most
three successors, so the model keeps one successor map per state rather
than an S x S matrix, and one emitted symbol id per state (-1 for noise)
rather than an S x M matrix: its memory is O(S + M).

State S1(i,j) emits the first episode's i-th symbol while the second
episode is waiting at position j; S2(i,j) emits the second episode's j-th
symbol while the first waits at position i.  Advancing an index wraps
modulo N, so each revisit of an episode state marks one full cycle of that
episode's symbols, i.e. one occurrence.

When the episodes share event types, designated states carry a special
transition taken with probability 1 - eta whose emission advances both
episodes at once: that one symbol is part of an occurrence of each episode
(a shared event).  Index bookkeeping here follows the transition diagrams
literally; the intended semantics (one emission, both counters move) is
what the destination indices express.

All likelihoods are computed and returned in log space, so sequences with
thousands of steps do not underflow.  The analysis behind the pairwise
comparison requires eta < M / (M + 8); model construction and the pair
comparison both enforce it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .events import Alphabet, EventDataset, SerialEpisode


class StateKind(str, Enum):
    EP1 = "S1"
    EP2 = "S2"
    NOISE1 = "N1"
    NOISE2 = "N2"
    NOISE0 = "N0"


# The dense state index runs N0, then one N x N block per kind in this order.
_BLOCKS = (StateKind.EP1, StateKind.EP2, StateKind.NOISE1, StateKind.NOISE2)


@dataclass(frozen=True)
class StateId:
    """Typed state name; i and j are 1-based episode positions."""

    kind: StateKind
    i: int = 1
    j: int = 1

    def index(self, n_nodes: int) -> int:
        """Canonical dense index: N0, then S1, S2, N1, N2 blocks."""
        if self.kind is StateKind.NOISE0:
            return 0
        if not (1 <= self.i <= n_nodes and 1 <= self.j <= n_nodes):
            raise ValueError(f"state {self.label()} out of range for N={n_nodes}")
        block = _BLOCKS.index(self.kind)
        return 1 + block * n_nodes * n_nodes + (self.i - 1) * n_nodes + (self.j - 1)

    @classmethod
    def from_index(cls, index: int, n_nodes: int) -> "StateId":
        if index == 0:
            return cls(StateKind.NOISE0)
        block, rest = divmod(index - 1, n_nodes * n_nodes)
        i, j = divmod(rest, n_nodes)
        return cls(_BLOCKS[block], i + 1, j + 1)

    def label(self) -> str:
        if self.kind is StateKind.NOISE0:
            return "N0"
        return f"{self.kind.value}({self.i},{self.j})"

    @classmethod
    def from_label(cls, text: str) -> "StateId":
        if text == "N0":
            return cls(StateKind.NOISE0)
        m = re.fullmatch(r"(S1|S2|N1|N2)\((\d+),(\d+)\)", text)
        if m is None:
            raise ValueError(f"bad state label {text!r}")
        return cls(StateKind(m.group(1)), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True)
class EpisodePairModel:
    """The pair model: successor maps, initial law, and emitted symbols.

    ``successors[s]`` maps each state reachable from ``s`` to its transition
    probability, every one positive, in ascending state index order.
    ``symbols[s]`` is the id of the one symbol episode state ``s`` emits, or
    -1 for a noise state, which emits each of the M symbols with
    probability 1/M.
    """

    alpha: SerialEpisode
    beta: SerialEpisode
    alphabet: Alphabet
    eta: float
    successors: tuple[dict[int, float], ...]  # (n_states,)
    initial: np.ndarray  # (n_states,)
    symbols: tuple[int, ...]  # (n_states,)
    shared_entry_edges: frozenset[tuple[int, int]]
    shared_initial_state: int | None

    @property
    def n_nodes(self) -> int:
        return self.alpha.length

    @property
    def n_states(self) -> int:
        return 4 * self.n_nodes * self.n_nodes + 1

    @property
    def alphabet_size(self) -> int:
        return self.alphabet.size

    def state(self, index: int) -> StateId:
        return StateId.from_index(index, self.n_nodes)

    def state_index(self, state: StateId) -> int:
        return state.index(self.n_nodes)


def eta_upper_bound(alphabet_size: int) -> float:
    """The analysis holds for eta strictly below M / (M + 8)."""
    return alphabet_size / (alphabet_size + 8)


def _check_eta(eta: float, m: int) -> None:
    if m < 1:  # below -8, M / (M + 8) is positive again
        raise ValueError(f"alphabet size must be at least 1, got {m}")
    if not 0.0 < eta < eta_upper_bound(m):
        raise ValueError(
            f"eta must lie in (0, {eta_upper_bound(m):.6g}) for alphabet size {m}"
        )


def _check_ids(ids: Sequence[int], bound: int, what: str) -> None:
    """Refuse an id outside 0..bound - 1; a lookup would wrap a negative one."""
    if len(ids) and not (0 <= min(ids) and max(ids) < bound):
        raise ValueError(f"{what} id outside 0..{bound - 1}")


def build_model(
    alpha: SerialEpisode,
    beta: SerialEpisode,
    alphabet: Alphabet,
    eta: float,
) -> EpisodePairModel:
    """Construct the pair model for two equal-length serial episodes.

    Raises on unequal lengths, symbols outside the alphabet, or eta
    outside (0, M / (M + 8)).
    """
    n = alpha.length
    if beta.length != n:
        raise ValueError(
            f"episodes must have equal length, got {alpha.length} and {beta.length}"
        )
    _check_eta(eta, alphabet.size)

    n_states = 4 * n * n + 1
    succ: list[dict[int, float]] = [{} for _ in range(n_states)]
    init = np.zeros(n_states)
    symbols = [-1] * n_states

    def nxt(k: int) -> int:
        return k % n + 1

    # s1(i, j) is the index of S1(i, j), and so on for each block.
    s1, s2, n1, n2 = (lambda i, j, kind=kind: StateId(kind, i, j).index(n) for kind in _BLOCKS)
    n0 = StateId(StateKind.NOISE0).index(n)
    half = (1.0 - eta) / 2.0

    # N0 precedes the blocks in _BLOCKS order, so each literal lists ascending indices.
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            advance_a = {s1(nxt(i), j): half, s2(nxt(i), j): half}
            advance_b = {s1(i, nxt(j)): half, s2(i, nxt(j)): half}
            succ[s1(i, j)] = {**advance_a, n1(i, j): eta}
            succ[s2(i, j)] = {**advance_b, n2(i, j): eta}
            succ[n1(i, j)] = {**advance_a, n1(i, j): eta}
            succ[n2(i, j)] = {**advance_b, n2(i, j): eta}
            symbols[s1(i, j)] = alphabet.index(alpha.event_types[i - 1])
            symbols[s2(i, j)] = alphabet.index(beta.event_types[j - 1])
    succ[n0] = {n0: eta, s1(1, 1): half, s2(1, 1): half}

    # Shared-event transitions: where the next symbols of both episodes
    # coincide, the designated states move with probability 1 - eta along
    # an edge whose emission advances both episode indices.
    shared_edges: set[tuple[int, int]] = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if alpha.event_types[nxt(i) - 1] != beta.event_types[nxt(j) - 1]:
                continue
            src_a = s1(i, nxt(j))
            dst_a = s1(nxt(i), nxt(nxt(j)))
            succ[src_a] = {dst_a: 1.0 - eta, n1(i, nxt(j)): eta}
            shared_edges.add((src_a, dst_a))

            src_b = s2(nxt(i), j)
            dst_b = s2(nxt(nxt(i)), nxt(j))
            succ[src_b] = {dst_b: 1.0 - eta, n2(nxt(i), j): eta}
            shared_edges.add((src_b, dst_b))

    shared_initial: int | None = None
    init[n0] = eta
    if alpha.event_types[0] != beta.event_types[0]:
        init[s1(1, 1)] = half
        init[s2(1, 1)] = half
    else:
        shared_initial = s1(1, nxt(1))
        init[shared_initial] = 1.0 - eta

    return EpisodePairModel(
        alpha,
        beta,
        alphabet,
        eta,
        tuple(succ),
        init,
        tuple(symbols),
        frozenset(shared_edges),
        shared_initial,
    )


# Largest alphabet a pair model is built over: its names take about 135 MiB.
MAX_PAIR_ALPHABET_SIZE = 1 << 20


def default_pair_alphabet(
    alpha: SerialEpisode, beta: SerialEpisode, alphabet_size: int
) -> Alphabet:
    """Alphabet of the requested size containing both episodes' symbols.

    Episode symbols come first in order of appearance; remaining slots are
    filled with unused capital letters, then generated names.  Sizes above
    ``MAX_PAIR_ALPHABET_SIZE`` are refused before any name is built.
    """
    if alphabet_size > MAX_PAIR_ALPHABET_SIZE:
        raise ValueError(f"alphabet size must be at most {MAX_PAIR_ALPHABET_SIZE}")
    names = list(dict.fromkeys(alpha.event_types + beta.event_types))
    if alphabet_size < len(names):
        raise ValueError(
            f"alphabet size {alphabet_size} too small for "
            f"{len(names)} distinct episode symbols"
        )
    taken = set(names)  # the list keeps the order, the set answers membership
    for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        if len(names) == alphabet_size:
            break
        if letter not in taken:
            names.append(letter)
    k = 0
    while len(names) < alphabet_size:
        candidate = f"x{k}"
        if candidate not in taken:
            names.append(candidate)
        k += 1
    return Alphabet(tuple(names))


@dataclass(frozen=True)
class Trajectory:
    """A sampled (state, output) path."""

    states: tuple[int, ...]
    outputs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.states)


def trajectory_counts(
    model: EpisodePairModel, traj: Trajectory
) -> tuple[int, int, int]:
    """(noise, unshared-episode, shared-episode) state counts of a path."""
    *_, n_shared, n_noise = _walk(model, traj.states)
    return n_noise, len(traj) - n_noise - n_shared, n_shared


def simulate(model: EpisodePairModel, length: int, seed: int) -> Trajectory:
    """Sample a trajectory of the given length; deterministic per seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    init_cdf = np.cumsum(model.initial)
    succ_states = [tuple(row) for row in model.successors]
    succ_cdf = [list(itertools.accumulate(row.values())) for row in model.successors]
    symbols = model.symbols
    m = model.alphabet_size

    # Rounding can leave a cumulative sum just below 1; a draw at or above
    # it goes to the last state with positive probability.
    init_last = int(np.flatnonzero(model.initial)[-1])
    state = min(
        int(np.searchsorted(init_cdf, rng.random(), side="right")), init_last
    )
    states: list[int] = []
    outputs: list[int] = []
    for t in range(length):
        if t > 0:
            dsts = succ_states[state]
            k = bisect.bisect_right(succ_cdf[state], rng.random())
            state = dsts[min(k, len(dsts) - 1)]
        states.append(state)
        outputs.append(int(rng.integers(0, m)) if symbols[state] < 0 else symbols[state])
    return Trajectory(tuple(states), tuple(outputs))


def trajectory_dataset(model: EpisodePairModel, traj: Trajectory) -> EventDataset:
    """View a trajectory's output as a one-sequence dataset, times 1..T."""
    times = np.arange(1, len(traj.outputs) + 1)
    return EventDataset([0, len(times)], traj.outputs, times, model.alphabet)


def joint_log_likelihood(
    model: EpisodePairModel,
    outputs: Sequence[int],
    states: Sequence[int],
) -> float:
    """Log joint probability of an output sequence and a state sequence.

    Product of the initial probability, the stepwise transition
    probabilities, and the per-state emission probabilities; -inf when any
    factor is zero.
    """
    if len(outputs) != len(states):
        raise ValueError("output and state sequences must have equal length")
    if len(outputs) == 0:
        raise ValueError("sequences must be non-empty")
    _check_ids(states, model.n_states, "state")
    _check_ids(outputs, model.alphabet_size, "output symbol")
    uniform = 1.0 / model.alphabet_size
    weight = model.initial[states[0]]
    total = 0.0
    for t, (state, output) in enumerate(zip(states, outputs)):
        if t:
            weight = model.successors[states[t - 1]].get(state, 0.0)
        symbol = model.symbols[state]
        p = weight * (uniform if symbol < 0 else float(symbol == output))
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def closed_form_case1(model: EpisodePairModel, n_noise: int, n_episode: int) -> float:
    """Log joint probability from counts alone, no shared events.

    Every noise emission contributes eta/M and every episode emission
    (1 - eta)/2, so the path probability is a function of the two counts.
    """
    if n_noise < 0 or n_episode < 0:
        raise ValueError("counts must be non-negative")
    eta, m = model.eta, model.alphabet_size
    return n_noise * math.log(eta / m) + n_episode * math.log((1.0 - eta) / 2.0)


def closed_form_decomposed(
    model: EpisodePairModel, n_noise: int, n_unshared: int, n_shared: int
) -> float:
    """Log joint probability from (noise, unshared, shared) state counts.

    Shared-event emissions enter with weight 1 - eta instead of
    (1 - eta)/2; with no shared states this is the two-count form.
    """
    if min(n_noise, n_unshared, n_shared) < 0:
        raise ValueError("counts must be non-negative")
    eta = model.eta
    return closed_form_case1(model, n_noise, n_unshared) + n_shared * math.log(
        1.0 - eta
    )


def closed_form_case2(
    model: EpisodePairModel,
    f_first: int,
    f_second: int,
    n_shared_events: int,
    length: int,
) -> float:
    """Log joint probability of a path carrying complete occurrences only.

    For f occurrences of each episode sharing ``n_shared_events`` events:
    (eta/M)^T * ((1-eta)M/(2 eta))^(N f1 + N f2) * ((1-eta)M/(4 eta))^(-shared).
    """
    if min(f_first, f_second, n_shared_events) < 0:
        raise ValueError("counts must be non-negative")
    # E episode events, s of them shared, sit in E - s steps: E - 2s
    # unshared, s shared, and the other T - (E - s) steps are noise.
    e, s = model.n_nodes * (f_first + f_second), n_shared_events
    return closed_form_decomposed(model, length - e + s, e - 2 * s, s)


def viterbi(model: EpisodePairModel, outputs: Sequence[int]) -> tuple[int, ...]:
    """Most likely state sequence for an output sequence.

    Log-space max-product over predecessor lists (Rabiner 1989, sec. III-B):
    each step maximizes over the few states with an edge into a state, so a
    step costs O(S K) for the largest in-degree K, not O(S^2).  A step
    gathers a (K, S) table of predecessor scores, takes its column maxima,
    and keeps the (K, S) mask of the slots that reach them.  Every 64 steps
    the masks fold into one K-bit code per step and state, and the code's
    lowest set bit, the first predecessor slot at the maximum, is stored in
    the 0, 1, 2 or 4 bits that the state's in-degree calls for.  Predecessors
    are in ascending index order, so ties go to the lowest canonical state index.
    """
    if len(outputs) == 0:
        raise ValueError("output sequence must be non-empty")
    _check_ids(outputs, model.alphabet_size, "output symbol")
    n_states = model.n_states
    # Column d of ``preds`` lists the sources of the edges into d in
    # ascending order; spare slots hold source 0 at log-weight -inf.
    edges = sorted(
        (dst, src, weight)
        for src, row in enumerate(model.successors)
        for dst, weight in row.items()
    )
    dst, src, weight = (np.array(col) for col in zip(*edges))
    in_degree = np.bincount(dst, minlength=n_states)
    slot = np.arange(dst.size) - (np.cumsum(in_degree) - in_degree)[dst]
    k = int(in_degree.max())
    preds = np.zeros((k, n_states), dtype=np.intp)
    preds[slot, dst] = src
    log_w = np.full(preds.shape, -np.inf)
    log_w[slot, dst] = np.log(weight)
    # Emission rows only for the U <= min(M, T) distinct outputs: 1 at the
    # states that emit the output, 1/M at noise states, 0 elsewhere.
    row_of = {o: r for r, o in enumerate(dict.fromkeys(outputs))}
    emit = np.zeros((len(row_of), n_states))
    for state, symbol in enumerate(model.symbols):
        if symbol < 0:
            emit[:, state] = 1.0 / model.alphabet_size
        elif symbol in row_of:
            emit[row_of[symbol], state] = 1.0
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_emit = dict(zip(row_of, np.log(emit)))  # output -> its (S,) row
    t_max = len(outputs)
    delta = log_init + log_emit[outputs[0]]
    # A state of in-degree d gets a slot below max(d, 1), kept in w = 0, 1, 2
    # or 4 bits for d = 1, 2, 3-4 or 5-16.  The states of a width w > 0 share
    # a uint8 array, a column each, with step t in bits w * (t % per) of row
    # t // per, per = 8 // w; zero-width states read one zero byte.
    n_steps = -(-t_max // 64) * 64  # whole chunks, each starting on a byte
    width = [(0, 1, 2, 4, 4)[(d - 1).bit_length()] for d in np.maximum(in_degree, 1).tolist()]
    back, packs = [None] * n_states, []  # per state: (array, column, per, w, slot mask)
    for w in sorted(set(width)):
        cols = [s for s in range(n_states) if width[s] == w]
        per = 8 // w if w else n_steps
        array = np.zeros((n_steps // per, len(cols)), np.uint8)
        for c, s in enumerate(cols):
            back[s] = (array, c, per, w, (1 << w) - 1)
        if w:
            weights = np.uint8(1) << np.arange(0, 8, w, dtype=np.uint8)
            packs.append((cols, per, weights, array.reshape(-1, 64 // per, len(cols))))
    lowest = np.array([(c & -c).bit_length() - 1 if c else 0 for c in range(1 << k)], np.uint8)
    bits = np.uint8(1) << np.arange(k, dtype=np.uint8)  # K <= 8: a mask code fits a uint8
    mask = np.zeros((64, k, n_states), bool)  # a chunk of steps' equality masks
    masks, mx = list(mask), np.empty(n_states)
    for t in range(1, t_max):
        sc = delta[preds]
        sc += log_w
        np.maximum.reduce(sc, 0, out=mx)
        np.equal(sc, mx, out=masks[t % 64])
        np.add(mx, log_emit[outputs[t]], out=delta)
        if t % 64 == 63 or t == t_max - 1:  # fold steps t - t % 64 .. t
            slots = lowest.take(np.einsum("k,tks->ts", bits, mask.view(np.uint8)))
            for cols, per, weights, chunks in packs:
                step_rows = slots.take(cols, 1).reshape(-1, per, len(cols))
                chunks[t // 64] = np.einsum("rjs,j->rs", step_rows, weights)
    path, sources = [int(np.argmax(delta))], preds.T.tolist()
    for t in range(t_max - 1, 0, -1):
        array, col, per, w, m = back[path[-1]]
        path.append(sources[path[-1]][array.item(t // per, col) >> w * (t % per) & m])
    return tuple(reversed(path))


def overlap_score_1(n_nodes: int, f_star: int, o_star: int) -> int:
    """First pair-rating metric: N f* - O*."""
    return n_nodes * f_star - o_star


def overlap_score_2(n_nodes: int, f_star: int, o_star: int) -> Fraction:
    """Second pair-rating metric: N f* - O*/2, kept exact."""
    return Fraction(2 * n_nodes * f_star - o_star, 2)


@dataclass(frozen=True)
class PairStats:
    """Occurrence statistics of an episode pair along one state sequence."""

    n_nodes: int
    f_first: int
    f_second: int
    shared_events: int

    def __post_init__(self) -> None:
        if min(self.n_nodes, self.f_first, self.f_second, self.shared_events) < 0:
            raise ValueError("statistics must be non-negative")


def trajectory_stats(model: EpisodePairModel, states: Sequence[int]) -> PairStats:
    """Complete-occurrence counts and shared events along a state sequence.

    An episode state entered through a probability-(1 - eta) edge emits a
    shared event.  Occurrences still open when the sequence ends are not
    counted.
    """
    return PairStats(model.n_nodes, *_walk(model, states)[:3])


def _walk(model: EpisodePairModel, states: Sequence[int]) -> tuple[int, int, int, int]:
    """Complete occurrences of each episode, shared events and noise steps
    along a state sequence, counted in one pass."""
    _check_ids(states, model.n_states, "state")
    n = model.n_nodes
    f_first = f_second = n_shared = n_noise = 0
    state_ids = [model.state(idx) for idx in range(model.n_states)]
    # A step is shared at an episode state entered along a shared-entry edge,
    # or at the shared initial state, entered from None at step 0.  A shared
    # step also ends an occurrence of the other episode when its index wraps to 1.
    entries = model.shared_entry_edges | {(None, model.shared_initial_state)}
    for edge in itertools.pairwise(itertools.chain([None], states)):
        idx, is_shared = edge[1], edge in entries
        state = state_ids[idx]
        if state.kind is StateKind.EP1:
            if state.i == n:
                f_first += 1
            if is_shared:
                n_shared += 1
                if state.j == 1:
                    f_second += 1
        elif state.kind is StateKind.EP2:
            if state.j == n:
                f_second += 1
            if is_shared:
                n_shared += 1
                if state.i == 1:
                    f_first += 1
        else:
            n_noise += 1
    return f_first, f_second, n_shared, n_noise


@dataclass(frozen=True)
class PairComparison:
    """Likelihood comparison of two candidate pairings against one episode."""

    log_ratio: float
    preferred: str  # "second-vs-first" sense: "beta", "gamma", or "tie"


def compare_pairs(
    stats_beta: PairStats,
    stats_gamma: PairStats,
    eta: float,
    alphabet_size: int,
) -> PairComparison:
    """Log likelihood ratio of the two pair models on the same output.

    Positive favors the pairing described by ``stats_beta``.  The ratio is
    ((1-eta)M/(2 eta))^(N (f_beta - f_gamma)) *
    ((1-eta)M/(4 eta))^(shared_gamma - shared_beta).
    """
    if stats_beta.n_nodes != stats_gamma.n_nodes:
        raise ValueError("pair statistics must describe equal-length episodes")
    if stats_beta.n_nodes < 1:
        raise ValueError(f"episodes must have at least 1 node, got {stats_beta.n_nodes}")
    m = alphabet_size
    _check_eta(eta, m)
    n = stats_beta.n_nodes
    log_ratio = n * (stats_beta.f_second - stats_gamma.f_second) * math.log(
        (1.0 - eta) * m / (2.0 * eta)
    ) + (stats_gamma.shared_events - stats_beta.shared_events) * math.log(
        (1.0 - eta) * m / (4.0 * eta)
    )
    if log_ratio > 0:
        preferred = "beta"
    elif log_ratio < 0:
        preferred = "gamma"
    else:
        preferred = "tie"
    return PairComparison(log_ratio, preferred)


def model_summary(model: EpisodePairModel) -> dict:
    """JSON-compatible dump: states, initial law, sparse transitions, emissions."""
    labels = [model.state(idx).label() for idx in range(model.n_states)]
    transitions = [
        [labels[src], labels[dst], p]
        for src, row in enumerate(model.successors)
        for dst, p in row.items()
    ]
    emissions = {
        label: "*uniform*" if sym < 0 else model.alphabet.name(sym)
        for label, sym in zip(labels, model.symbols)
    }
    return {
        "n_nodes": model.n_nodes,
        "alphabet": list(model.alphabet.symbols),
        "eta": model.eta,
        "alpha": str(model.alpha),
        "beta": str(model.beta),
        "states": labels,
        "initial": {
            labels[idx]: model.initial[idx]
            for idx in range(model.n_states)
            if model.initial[idx] > 0.0
        },
        "transitions": transitions,
        "emissions": emissions,
    }
