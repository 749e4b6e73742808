"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: exhaustive enumeration and
take/skip searches (memoized, which only deduplicates work) that stay
independent of the library's algorithms so they can serve as oracles.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache
from itertools import groupby, permutations, product
from operator import itemgetter

import numpy as np

from episodeseq import (
    Alphabet,
    Event,
    EventDataset,
    FixedIntervalEpisode,
    FrequencyMode,
    OccurrenceList,
    StateId,
    StateKind,
    find_no_occurrences,
    score,
)
from episodeseq.candidates import Candidate
from episodeseq.mdl import SelectedEpisode, SelectionState, row_gain
from episodeseq.occurrences import CoverIntegrityError, non_overlapped

_PRUNE_FREQUENCY = 1


def max_nonoverlap_from_starts(starts: list[int], ep_span: int) -> int:
    """Exhaustive maximum non-overlapped subset of fixed-interval starts.

    Take/skip search over the sorted starts; occurrence at s' is compatible
    with a kept occurrence at s iff s' > s + span.
    """
    ordered = tuple(sorted(starts))

    @lru_cache(maxsize=None)
    def best(k: int) -> int:
        if k >= len(ordered):
            return 0
        skip = best(k + 1)
        nxt = k + 1
        while nxt < len(ordered) and ordered[nxt] <= ordered[k] + ep_span:
            nxt += 1
        return max(skip, 1 + best(nxt))

    return best(0)


def per_sequence_starts(
    starts: tuple[tuple[int, int], ...], n_sequences: int
) -> tuple[tuple[int, ...], ...]:
    """Group ``(sequence, time)`` pairs into one tuple of times per sequence."""
    out: list[list[int]] = [[] for _ in range(n_sequences)]
    for seq_idx, t in starts:
        out[seq_idx].append(t)
    return tuple(map(tuple, out))


def fixed_interval_starts(
    events: list[tuple[int, str]], symbols: tuple[str, ...], gaps: tuple[int, ...]
) -> list[int]:
    """Distinct occurrence starts by direct scanning of raw (time, name) events."""
    times_of = {}
    for t, name in events:
        times_of.setdefault(name, set()).add(t)
    offsets = [0]
    for g in gaps:
        offsets.append(offsets[-1] + g)
    starts = []
    for t in sorted(times_of.get(symbols[0], ())):
        if all(
            t + off in times_of.get(sym, set())
            for sym, off in zip(symbols, offsets)
        ):
            starts.append(t)
    return starts


def serial_occurrence_intervals(
    events: list[tuple[int, str]], symbols: tuple[str, ...]
) -> list[tuple[int, int]]:
    """(first time, last time) of every occurrence of a gap-free episode.

    Enumerates all position tuples with the required types in order and
    strictly increasing times.
    """
    out: list[tuple[int, int]] = []

    def extend(node: int, start_pos: int, last_time: int | None, first_time: int | None):
        if node == len(symbols):
            out.append((first_time, last_time))
            return
        for pos in range(start_pos, len(events)):
            t, name = events[pos]
            if name != symbols[node]:
                continue
            if last_time is not None and t <= last_time:
                continue
            extend(node + 1, pos + 1, t, t if first_time is None else first_time)

    extend(0, 0, None, None)
    return out


def max_nonoverlap_intervals(intervals: list[tuple[int, int]]) -> int:
    """Exhaustive maximum subset of pairwise non-overlapped occurrences.

    Two occurrences are non-overlapped iff the later one's first event is
    strictly after the earlier one's last event.
    """
    ordered = tuple(sorted(intervals))

    @lru_cache(maxsize=None)
    def best(k: int, last_end: int) -> int:
        if k == len(ordered):
            return 0
        first, last = ordered[k]
        result = best(k + 1, last_end)
        if first > last_end:
            result = max(result, 1 + best(k + 1, last))
        return result

    return best(0, -(10**9))


def raw_events(data: EventDataset, seq_idx: int = 0) -> list[tuple[int, str]]:
    return [
        (ev.time, data.alphabet.name(ev.event_type))
        for ev in data.sequences[seq_idx]
    ]


def all_fixed_interval_episodes(
    symbols: tuple[str, ...], max_nodes: int, max_gap: int
) -> list[FixedIntervalEpisode]:
    """Every injective fixed-interval episode over the symbols, bounded."""
    episodes = []
    for n in range(1, max_nodes + 1):
        for combo in permutations(symbols, n):
            for gaps in product(range(1, max_gap + 1), repeat=n - 1):
                episodes.append(FixedIntervalEpisode(combo, gaps))
    return episodes


def random_dataset(
    rng: random.Random,
    max_events: int = 30,
    max_symbols: int = 5,
    max_sequences: int = 2,
    max_time: int = 40,
    allow_duplicates: bool = False,
) -> EventDataset:
    """Random small dataset; sequences are non-empty."""
    n_symbols = rng.randint(2, max_symbols)
    alphabet = Alphabet(tuple("ABCDE"[:n_symbols]))
    n_seq = rng.randint(1, max_sequences)
    budget = rng.randint(n_seq, max_events)
    sequences = []
    remaining = budget
    for s in range(n_seq):
        size = (
            remaining
            if s == n_seq - 1
            else rng.randint(1, max(1, remaining - (n_seq - 1 - s)))
        )
        remaining -= size
        seq = []
        for _ in range(size):
            t = rng.randint(1, max_time)
            sym = rng.randrange(n_symbols)
            seq.append(Event(sym, t))
        if allow_duplicates and size >= 2 and rng.random() < 0.5:
            seq[-1] = seq[0]
        sequences.append(tuple(seq))
    return EventDataset(tuple(sequences), alphabet)


def random_planted_dataset(
    rng: random.Random,
    n_repetitions: int = 6,
    noise_events: int = 8,
) -> tuple[EventDataset, FixedIntervalEpisode]:
    """Dataset with a planted repeating episode plus random noise events."""
    symbols = tuple("ABCDE")
    n = rng.randint(2, 3)
    ep_symbols = tuple(rng.sample(symbols, n))
    gaps = tuple(rng.randint(1, 2) for _ in range(n - 1))
    episode = FixedIntervalEpisode(ep_symbols, gaps)
    alphabet = Alphabet(symbols)
    events = []
    t = rng.randint(1, 3)
    ep_span = sum(gaps)
    for _ in range(n_repetitions):
        off = 0
        events.append((t, ep_symbols[0]))
        for g, sym in zip(gaps, ep_symbols[1:]):
            off += g
            events.append((t + off, sym))
        t += ep_span + rng.randint(1, 3)
    for _ in range(noise_events):
        events.append((rng.randint(1, t + 3), symbols[rng.randrange(len(symbols))]))
    data = EventDataset.from_tuples(
        [[(tm, sym) for tm, sym in events]], alphabet
    )
    return data, episode


def dense_transitions(model) -> np.ndarray:
    """A pair model's successor maps as a dense (S, S) transition matrix."""
    trans = np.zeros((model.n_states, model.n_states))
    for src, row in enumerate(model.successors):
        trans[src, list(row)] = list(row.values())
    return trans


def dense_transition_oracle(alpha, beta, alphabet, eta) -> np.ndarray:
    """The pair model's (S, S) transition matrix, built densely.

    Every edge is added into a zero matrix; each shared-entry row is then
    cleared and given only its shared exit (1 - eta) and its noise exit.
    """
    n = alpha.length
    alpha_ids = [alphabet.index(sym) for sym in alpha.event_types]
    beta_ids = [alphabet.index(sym) for sym in beta.event_types]

    n_states = 4 * n * n + 1
    trans = np.zeros((n_states, n_states))

    def nxt(k: int) -> int:
        return k % n + 1

    def s1(i: int, j: int) -> int:
        return StateId(StateKind.EP1, i, j).index(n)

    def s2(i: int, j: int) -> int:
        return StateId(StateKind.EP2, i, j).index(n)

    def n1(i: int, j: int) -> int:
        return StateId(StateKind.NOISE1, i, j).index(n)

    def n2(i: int, j: int) -> int:
        return StateId(StateKind.NOISE2, i, j).index(n)

    n0 = StateId(StateKind.NOISE0).index(n)
    half = (1.0 - eta) / 2.0

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            trans[s1(i, j), s1(nxt(i), j)] += half
            trans[s1(i, j), s2(nxt(i), j)] += half
            trans[s1(i, j), n1(i, j)] += eta
            trans[s2(i, j), s1(i, nxt(j))] += half
            trans[s2(i, j), s2(i, nxt(j))] += half
            trans[s2(i, j), n2(i, j)] += eta
            trans[n1(i, j), s1(nxt(i), j)] += half
            trans[n1(i, j), s2(nxt(i), j)] += half
            trans[n1(i, j), n1(i, j)] += eta
            trans[n2(i, j), s1(i, nxt(j))] += half
            trans[n2(i, j), s2(i, nxt(j))] += half
            trans[n2(i, j), n2(i, j)] += eta
    trans[n0, s1(1, 1)] = half
    trans[n0, s2(1, 1)] = half
    trans[n0, n0] = eta

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if alpha_ids[nxt(i) - 1] != beta_ids[nxt(j) - 1]:
                continue
            src_a = s1(i, nxt(j))
            dst_a = s1(nxt(i), nxt(nxt(j)))
            trans[src_a, :] = 0.0
            trans[src_a, dst_a] = 1.0 - eta
            trans[src_a, n1(i, nxt(j))] = eta

            src_b = s2(nxt(i), j)
            dst_b = s2(nxt(nxt(i)), nxt(j))
            trans[src_b, :] = 0.0
            trans[src_b, dst_b] = 1.0 - eta
            trans[src_b, n2(nxt(i), j)] = eta
    return trans


def dense_viterbi(model, outputs) -> tuple[int, ...]:
    """Viterbi path by the dense O(T·S²) max-product over every state pair.

    Ties resolve to the lowest canonical state index, as ``np.argmax``
    picks the first maximum.
    """
    if len(outputs) == 0:
        raise ValueError("output sequence must be non-empty")
    m = model.alphabet_size
    if any(not 0 <= o < m for o in outputs):
        raise ValueError("output symbol outside the alphabet")
    with np.errstate(divide="ignore"):
        log_trans = np.log(dense_transitions(model))
        log_init = np.log(model.initial)
        log_emit = np.log(model.emissions)
    t_max = len(outputs)
    n_states = model.n_states
    delta = log_init + log_emit[:, outputs[0]]
    pointers = np.empty((t_max, n_states), dtype=np.int64)
    for t in range(1, t_max):
        scores = delta[:, None] + log_trans
        pointers[t] = np.argmax(scores, axis=0)
        delta = scores[pointers[t], np.arange(n_states)] + log_emit[:, outputs[t]]
    path = [int(np.argmax(delta))]
    for t in range(t_max - 1, 0, -1):
        path.append(int(pointers[t, path[-1]]))
    return tuple(reversed(path))


def dense_features(features) -> np.ndarray:
    """A ``FeatureMatrix`` as a dense (documents × dictionary words) array."""
    dense = np.zeros((features.n_documents, len(features.dictionary)))
    rows = np.repeat(np.arange(features.n_documents), np.diff(features.indptr))
    dense[rows, features.indices] = features.data
    return dense


def _dense_counts(corpus, dictionary) -> np.ndarray:
    """Dictionary word counts as a dense (documents × words) array, filled
    by ``np.add.at``; out-of-dictionary words are left out."""
    rows, cols = [], []
    for row, doc in enumerate(corpus.documents):
        for word in doc:
            if word in dictionary:
                rows.append(row)
                cols.append(dictionary.index(word))
    counts = np.zeros((corpus.n_documents, len(dictionary)))
    np.add.at(counts, (rows, cols), 1.0)
    return counts


def dense_idf(corpus, dictionary) -> np.ndarray:
    """Inverse document frequency with each word's document frequency read
    off the dense count matrix as its number of non-zero rows."""
    df = (_dense_counts(corpus, dictionary) > 0).sum(axis=0)
    return np.log((1.0 + corpus.n_documents) / (1.0 + df)) + 1.0


def dense_tfidf(corpus, dictionary, idf, weighting: str) -> np.ndarray:
    """Document vectors as dense rows: word counts times ``idf``, each
    non-zero row divided by its ``np.linalg.norm``; or 0/1 presence for
    ``binary``."""
    counts = _dense_counts(corpus, dictionary)
    if weighting == "binary":
        return (counts > 0).astype(float)
    weighted = counts * idf
    norms = np.linalg.norm(weighted, axis=1, keepdims=True)
    return weighted / np.where(norms == 0.0, 1.0, norms)


def dense_naive_bayes(features: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """``(class_log_prior, feature_log_prob)`` of add-one multinomial NB,
    with class totals from a dense one-hot matmul."""
    y = np.asarray(labels)
    onehot = np.eye(int(y.max()) + 1)[y]
    counts = onehot.sum(axis=0)
    smoothed = onehot.T @ features + 1.0
    return (
        np.log(counts / counts.sum()),
        np.log(smoothed / smoothed.sum(axis=1, keepdims=True)),
    )


def dense_class_scores(features: np.ndarray, class_log_prior, feature_log_prob) -> np.ndarray:
    """Unnormalized log posteriors, (documents × classes), by a dense matmul."""
    return features @ feature_log_prob.T + class_log_prior


class _DataIndex:
    """All sequences on one global time axis, with the lookups of the joins.

    Sequence k is shifted so that its first event falls more than
    ``max_gap`` after the last event of sequence k-1.  A join looks at most
    ``max_gap`` past an occurrence's end, and the non-overlap test keeps a
    start later than the previous occurrence's end, so neither ever crosses
    a sequence boundary: one sorted list of global times holds an episode's
    starts in every sequence.
    """

    def __init__(self, data: EventDataset, max_gap: int):
        # symbol id -> sorted distinct global times of its events
        self.times_by_type: dict[int, list[int]] = {}
        # global time -> symbol ids present at that time
        self.types_at_time: dict[int, set[int]] = {}
        # global time -> (sequence index, time in that sequence)
        self.pair_at: dict[int, tuple[int, int]] = {}
        end = None
        for seq_idx, seq in enumerate(data.sequences):
            if not seq:
                continue
            base = 0 if end is None else end + max_gap + 1 - seq[0].time
            for ev in seq:
                # unshifted times keep the events' own int objects
                g = ev.time + base if base else ev.time
                self.pair_at[g] = (seq_idx, ev.time)
                self.types_at_time.setdefault(g, set()).add(ev.event_type)
                times = self.times_by_type.setdefault(ev.event_type, [])
                if not times or times[-1] != g:
                    times.append(g)
            end = seq[-1].time + base


def dfs_candidates(
    data: EventDataset,
    max_gap: int,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> tuple[Candidate, ...]:
    """DFS the episode lattice and return the per-path best episodes.

    The depth-first lattice search, kept as the oracle of
    ``generate_candidates``.  Along a path the best episode has the highest score, and
    ties go to the longer episode.  Lengths grow strictly along a path, so
    a node replaces the path's best whenever its score is at least as high.
    Candidates are deduplicated and come in canonical (episode string)
    order.
    """
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    index = _DataIndex(data, max_gap)
    at_time = index.types_at_time
    no_mode = mode is FrequencyMode.NON_OVERLAPPED
    deltas = range(1, max_gap + 1)
    # (type ids, gaps) of each emitted episode -> its candidate
    emitted: dict[tuple[tuple[int, ...], tuple[int, ...]], Candidate] = {}
    # Nodes to visit: (type ids, gaps, span, distinct starts, frequency,
    # the path's best so far as (score, type ids, gaps, starts) or None).
    stack: list[tuple] = [
        ((root_type,), (), 0, starts, len(starts), None)
        for root_type, starts in index.times_by_type.items()
    ]
    while stack:
        type_ids, gaps, ep_span, starts, f, best = stack.pop()
        node_score = row_gain(len(type_ids), f)
        if best is None or node_score >= best[0]:
            best = (node_score, type_ids, gaps, starts)

        children: dict[tuple[int, int], list[int]] = defaultdict(list)
        if f > _PRUNE_FREQUENCY:
            # Gather extensions from events actually present at reachable
            # offsets instead of probing the whole alphabet blindly.
            for t in starts:
                end = t + ep_span
                for delta in deltas:
                    for sym in at_time.get(end + delta, ()):
                        if sym not in type_ids:
                            children[sym, delta].append(t)

        explored = False
        for (sym, delta), child in children.items():
            child_span = ep_span + delta
            child_f = len(non_overlapped(child, child_span) if no_mode else child)
            if child_f <= _PRUNE_FREQUENCY:
                continue
            explored = True
            stack.append(
                (type_ids + (sym,), gaps + (delta,), child_span, child, child_f, best)
            )
        if not explored and (best[1], best[2]) not in emitted:
            # Leaf of the explored tree: emit this path's best episode.
            _, best_ids, best_gaps, best_starts = best
            episode = FixedIntervalEpisode(
                tuple(data.alphabet.name(i) for i in best_ids), best_gaps
            )
            pairs = tuple(map(index.pair_at.__getitem__, best_starts))
            occ = OccurrenceList(episode, pairs)
            if no_mode:
                occ = find_no_occurrences(occ)
            # the pairs themselves, read back by index
            emitted[best_ids, best_gaps] = Candidate(
                episode, occ.total, score(episode, occ.total), np.arange(occ.total), occ.starts
            )
    return tuple(sorted(emitted.values(), key=lambda cand: cand.key))


def _lowest_positions(events) -> dict[tuple[int, int], int]:
    """(type, time) -> lowest position among ``(position, event)`` pairs.

    The pairs come in increasing position order.
    """
    lowest: dict[tuple[int, int], int] = {}
    for pos, ev in events:
        lowest.setdefault((ev.event_type, ev.time), pos)
    return lowest


def _lowest_cover(data, episode, starts, lowest) -> frozenset[tuple[int, int]]:
    """``(sequence, position)`` pairs of the events coded by ``starts``, each
    node bound to the position ``lowest`` gives for its (type, time)."""
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    offsets = episode.offsets()
    positions: set[tuple[int, int]] = set()
    for seq_idx, run in groupby(starts, key=itemgetter(0)):
        at = lowest[seq_idx]
        for _, t in run:
            for tid, off in zip(type_ids, offsets):
                pos = at.get((tid, t + off))
                if pos is None:
                    raise CoverIntegrityError(f"no event for start {t} in sequence {seq_idx}")
                positions.add((seq_idx, pos))
    return frozenset(positions)


def reference_select(
    data: EventDataset,
    max_gap: int,
    max_episodes: int | None = None,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> SelectionState:
    """Greedy selection as a plain rebuild of every round, the oracle of
    ``select``.

    Each round rebuilds the residual ``EventDataset``, mines it with
    :func:`dfs_candidates`, covers each positive candidate with a
    ``frozenset`` of ``(sequence, position)`` pairs, and picks by a full
    scan of the entries after every pick.  Ties go to the higher
    frequency, then the longer episode, then the canonical order.
    """
    removed: set[tuple[int, int]] = set()  # (sequence, position) coded so far
    selected: list[SelectedEpisode] = []
    round_index = 0
    while max_episodes is None or len(selected) < max_episodes:
        left = [
            [(pos, ev) for pos, ev in enumerate(seq) if (seq_idx, pos) not in removed]
            for seq_idx, seq in enumerate(data.sequences)
        ]
        res_data = EventDataset(
            tuple(tuple(ev for _, ev in seq) for seq in left), data.alphabet
        )
        if res_data.n_events == 0:
            break
        candidates = dfs_candidates(res_data, max_gap, mode)
        # Candidate covers, in positions of ``data``: each node binds the
        # lowest-index event with its (type, time) that is still left.
        entries: list[list] = []
        lowest = [_lowest_positions(seq) for seq in left]
        for cand in candidates:
            if cand.score <= 0:
                continue
            cov = _lowest_cover(res_data, cand.episode, cand.occurrences.starts, lowest)
            entries.append([cand, cov, 0])  # [candidate, cover, penalty]

        round_picks: list[list] = []
        while entries and (
            max_episodes is None
            or len(selected) + len(round_picks) < max_episodes
        ):
            best_idx = max(
                range(len(entries)),
                key=lambda i: (
                    entries[i][0].score - entries[i][2],
                    entries[i][0].frequency,
                    entries[i][0].episode.length,
                ),
            )
            best = entries[best_idx]
            if best[0].score - best[2] <= 0:
                break
            entries.pop(best_idx)
            round_picks.append(best)
            for entry in entries:
                entry[2] += len(entry[1] & best[1])
        if not round_picks:
            break
        for cand, covered, _ in round_picks:
            selected.append(
                SelectedEpisode(cand.episode, cand.occurrences.starts, round_index, covered)
            )
            removed |= covered
        round_index += 1
    return SelectionState(tuple(selected), round_index)
