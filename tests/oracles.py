"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: exhaustive enumeration and
take/skip searches (memoized, which only deduplicates work) that stay
independent of the library's algorithms so they can serve as oracles.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache, partial
from itertools import groupby, permutations, product
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, NamedTuple

import numpy as np

from episodeseq import (
    Alphabet,
    EventDataset,
    FixedIntervalEpisode,
    FrequencyMode,
    OccurrenceList,
    StateId,
    StateKind,
    score,
    span,
)
from episodeseq.events import DataValidationError
from episodeseq.mdl import (
    EncodingTable,
    SelectedEpisode,
    SelectionState,
    TableFormatError,
    TableRow,
    row_gain,
)
from episodeseq.occurrences import StartList

_PRUNE_FREQUENCY = 1


class Event(NamedTuple):
    """One event of the tuple-based references: a symbol id and its time."""

    event_type: int
    time: int


_new_event = partial(tuple.__new__, Event)


def event_tuples(data: EventDataset) -> tuple[tuple[Event, ...], ...]:
    """Per sequence of ``data``, its events as ``Event`` tuples, read from
    the arrays."""
    events = list(map(_new_event, zip(data.types.tolist(), data.times.tolist())))
    ends = data.offsets.tolist()
    return tuple(tuple(events[a:z]) for a, z in zip(ends, ends[1:]))


def pairs(starts: StartList) -> tuple[tuple[int, int], ...]:
    """A start list as the tuple of its ``(sequence, time)`` pairs."""
    return tuple(zip(starts.seqs.tolist(), starts.times.tolist()))


def start_list(items: Iterable[tuple[int, int]]) -> StartList:
    """The start list of ``(sequence, time)`` pairs."""
    items = list(items)
    return StartList([s for s, _ in items], [t for _, t in items])


def covered(sel: SelectedEpisode, data: EventDataset) -> frozenset[tuple[int, int]]:
    """A pick's events as ``(sequence, position)`` pairs in ``data``, which
    the pick was selected on."""
    seq = np.searchsorted(data.offsets, sel.events, "right") - 1
    return frozenset(zip(seq.tolist(), (sel.events - data.offsets[seq]).tolist()))


def event_dataset(seqs, alphabet: Alphabet) -> EventDataset:
    """The dataset of ``Event`` tuples, one iterable per sequence."""
    seqs = [list(seq) for seq in seqs]
    flat = [ev for seq in seqs for ev in seq]
    offsets = np.cumsum([0, *map(len, seqs)])
    return EventDataset(offsets, [ev.event_type for ev in flat], [ev.time for ev in flat], alphabet)


class CoverIntegrityError(ValueError):
    """Raised when a claimed occurrence start has no matching data events."""


def non_overlapped(starts: Iterable[int], ep_span: int) -> list[int]:
    """Greedy maximal non-overlapped subset of sorted distinct starts.

    Keeps the earliest start, then repeatedly the next start strictly
    greater than the last-kept start plus the episode span.
    """
    kept: list[int] = []
    for t in starts:
        if not kept or t > kept[-1] + ep_span:
            kept.append(t)
    return kept


def reference_no_occurrences(occ: OccurrenceList) -> OccurrenceList:
    """:func:`non_overlapped` applied to each sequence's run of starts: the
    oracle of ``find_no_occurrences``."""
    kept: list[tuple[int, int]] = []
    for seq_idx, run in groupby(pairs(occ.starts), key=itemgetter(0)):
        times = [t for _, t in run]
        kept.extend((seq_idx, t) for t in non_overlapped(times, span(occ.episode)))
    return OccurrenceList(occ.episode, start_list(kept))


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


def per_sequence_starts(starts: StartList, n_sequences: int) -> tuple[tuple[int, ...], ...]:
    """Group a start list's pairs into one tuple of times per sequence."""
    out: list[list[int]] = [[] for _ in range(n_sequences)]
    for seq_idx, t in pairs(starts):
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


def raw_sequences(data: EventDataset) -> list[list[tuple[int, str]]]:
    """Every sequence of ``data`` as (time, symbol name) pairs."""
    name = data.alphabet.name
    return [[(ev.time, name(ev.event_type)) for ev in seq] for seq in event_tuples(data)]


def raw_events(data: EventDataset, seq_idx: int = 0) -> list[tuple[int, str]]:
    return raw_sequences(data)[seq_idx]


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
    return event_dataset(sequences, alphabet)


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


def reference_pair_alphabet(alpha, beta, alphabet_size: int) -> tuple[str, ...]:
    """The pair alphabet's symbols, built with membership tests on the list:
    episode symbols in order of appearance, unused capitals, then x0, x1, ..."""
    names: list[str] = []
    for sym in alpha.event_types + beta.event_types:
        if sym not in names:
            names.append(sym)
    for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        if len(names) == alphabet_size:
            break
        if letter not in names:
            names.append(letter)
    k = 0
    while len(names) < alphabet_size:
        if f"x{k}" not in names:
            names.append(f"x{k}")
        k += 1
    return tuple(names)


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


def dense_emission_oracle(alpha, beta, alphabet) -> np.ndarray:
    """The pair model's (S, M) emission matrix, built densely from the
    episodes: S1(i, j) emits alpha's i-th symbol, S2(i, j) beta's j-th, and
    every noise state each of the M symbols with probability 1/M."""
    n = alpha.length
    m = alphabet.size
    emit = np.zeros((4 * n * n + 1, m))
    for idx in range(emit.shape[0]):
        state = StateId.from_index(idx, n)
        if state.kind is StateKind.EP1:
            emit[idx, alphabet.index(alpha.event_types[state.i - 1])] = 1.0
        elif state.kind is StateKind.EP2:
            emit[idx, alphabet.index(beta.event_types[state.j - 1])] = 1.0
        else:
            emit[idx, :] = 1.0 / m
    return emit


def dense_emissions(model) -> np.ndarray:
    """A pair model's per-state symbols as a dense (S, M) emission matrix."""
    emit = np.zeros((model.n_states, model.alphabet_size))
    for idx, sym in enumerate(model.symbols):
        if sym < 0:
            emit[idx, :] = 1.0 / model.alphabet_size
        else:
            emit[idx, sym] = 1.0
    return emit


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
        log_emit = np.log(dense_emission_oracle(model.alpha, model.beta, model.alphabet))
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
        for seq_idx, seq in enumerate(event_tuples(data)):
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


class DfsCandidate(NamedTuple):
    """An episode that :func:`dfs_candidates` emits, with its frequency,
    score and counted occurrences under the search's mode."""

    episode: FixedIntervalEpisode
    frequency: int
    score: int
    occurrences: OccurrenceList

    @property
    def key(self) -> str:
        return str(self.episode)


def dfs_candidates(
    data: EventDataset,
    max_gap: int,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> tuple[DfsCandidate, ...]:
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
    emitted: dict[tuple[tuple[int, ...], tuple[int, ...]], DfsCandidate] = {}
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
            occ = OccurrenceList(episode, start_list(map(index.pair_at.__getitem__, best_starts)))
            if no_mode:
                occ = reference_no_occurrences(occ)
            emitted[best_ids, best_gaps] = DfsCandidate(
                episode, occ.total, score(episode, occ.total), occ
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


def reference_distinct_starts(
    data: EventDataset, episode: FixedIntervalEpisode
) -> OccurrenceList:
    """All ``(sequence, t)`` pairs such that every node's event exists at its
    offset, found in a set of the data's (sequence, time, type) triples: the
    oracle of ``find_distinct_starts``.  Raises ``KeyError`` for a symbol
    outside the data's alphabet.
    """
    type_ids = [data.alphabet.index(sym) for sym in episode.event_types]
    nodes = list(zip(type_ids, episode.offsets()))
    present = {
        (seq_idx, ev.time, ev.event_type)
        for seq_idx, seq in enumerate(event_tuples(data))
        for ev in seq
    }
    starts = sorted(
        (seq_idx, t)
        for seq_idx, t, tid in present
        if tid == type_ids[0]
        and all((seq_idx, t + off, k) in present for k, off in nodes)
    )
    return OccurrenceList(episode, start_list(starts))


def reference_occurrences_for_mode(
    data: EventDataset, episode: FixedIntervalEpisode, mode: FrequencyMode
) -> OccurrenceList:
    """:func:`reference_distinct_starts`, filtered to the greedy
    non-overlapped chain in non-overlapped mode."""
    occ = reference_distinct_starts(data, episode)
    return reference_no_occurrences(occ) if mode is FrequencyMode.NON_OVERLAPPED else occ


def reference_cover(
    data: EventDataset, episode: FixedIntervalEpisode, starts
) -> frozenset[tuple[int, int]]:
    """``(sequence, position)`` pairs of the events coded by ``(sequence,
    start time)`` pairs, each node bound to the lowest-index event with its
    (type, time) in its sequence, found through one dict per sequence.
    Raises :class:`CoverIntegrityError` for a start whose events are
    missing, and ``KeyError`` for a symbol outside the data's alphabet.
    """
    lowest = [_lowest_positions(enumerate(seq)) for seq in event_tuples(data)]
    return _lowest_cover(data, episode, starts, lowest)


def _flat_events(data: EventDataset, positions):
    """The flat indices into ``data``'s arrays of ``(sequence, position)``
    pairs, in order: a pick's ``events``."""
    first = data.offsets.tolist()
    return np.array(sorted(first[s] + p for s, p in positions), np.int64)


def reference_forced_selection(
    data: EventDataset,
    episodes,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> SelectionState:
    """One round of the given episodes over the full data, each with its
    reference occurrences and cover: the oracle of ``forced_selection``."""
    selected = []
    for episode in episodes:
        occ = reference_occurrences_for_mode(data, episode, mode)
        cov = reference_cover(data, episode, pairs(occ.starts))
        selected.append(SelectedEpisode(episode, occ.starts, 0, _flat_events(data, cov)))
    return SelectionState(tuple(selected), 1 if selected else 0)


def reference_overlap_score(
    episode: FixedIntervalEpisode,
    data: EventDataset,
    selected,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> int:
    """Score minus the events each selected episode's reference cover shares
    with the episode's: the oracle of ``overlap_score``."""
    own, *others = reference_forced_selection(data, [episode, *selected], mode).selected
    own_cover = covered(own, data)
    return score(episode, own.frequency) - sum(len(own_cover & covered(o, data)) for o in others)


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
    seqs = event_tuples(data)
    selected: list[SelectedEpisode] = []
    round_index = 0
    while max_episodes is None or len(selected) < max_episodes:
        left = [
            [(pos, ev) for pos, ev in enumerate(seq) if (seq_idx, pos) not in removed]
            for seq_idx, seq in enumerate(seqs)
        ]
        res_data = event_dataset([[ev for _, ev in seq] for seq in left], data.alphabet)
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
            cov = _lowest_cover(res_data, cand.episode, pairs(cand.occurrences.starts), lowest)
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
        for cand, cov, _ in round_picks:
            selected.append(
                SelectedEpisode(
                    cand.episode, cand.occurrences.starts, round_index, _flat_events(data, cov)
                )
            )
            removed |= cov
        round_index += 1
    return SelectionState(tuple(selected), round_index)


def reference_canonical(sequences, alphabet: Alphabet) -> tuple[tuple[Event, ...], ...]:
    """Each sequence sorted by (time, symbol name) after a per-event check of
    its type ids: the oracle of ``EventDataset``'s canonical order."""
    m = alphabet.size
    canonical = []
    for seq in sequences:
        for ev in seq:
            if not 0 <= ev.event_type < m:
                raise DataValidationError(
                    f"event type id {ev.event_type} outside alphabet of size {m}"
                )
        canonical.append(
            tuple(sorted(seq, key=lambda e: (e.time, alphabet.name(e.event_type))))
        )
    return tuple(canonical)


def reference_encode(data: EventDataset, selection: SelectionState) -> EncodingTable:
    """The encoding table built by a walk over every event, the oracle of
    ``encode``: selected rows in selection order, then one 1-node row per
    symbol with uncovered events, in symbol order."""
    coded = set().union(*(covered(sel, data) for sel in selection.selected))
    rows = [TableRow(sel.episode, sel.starts, residual=False) for sel in selection.selected]
    leftovers: dict[str, list[tuple[int, int]]] = {}
    counts: dict[tuple[int, int, str], int] = {}
    for seq_idx, seq in enumerate(event_tuples(data)):
        for pos, ev in enumerate(seq):
            name = data.alphabet.name(ev.event_type)
            counts[(seq_idx, ev.time, name)] = counts.get((seq_idx, ev.time, name), 0) + 1
            if (seq_idx, pos) not in coded:
                leftovers.setdefault(name, []).append((seq_idx, ev.time))
    for name in sorted(leftovers):
        starts = start_list(sorted(leftovers[name]))
        rows.append(TableRow(FixedIntervalEpisode((name,), ()), starts, residual=True))
    multiplicities = {key: m for key, m in counts.items() if m > 1}
    return EncodingTable(tuple(rows), multiplicities, data.n_sequences)


def triples_decode(table: EncodingTable) -> EventDataset:
    """A table expanded through a set of (sequence, time, symbol) triples,
    the oracle of ``decode`` on the tables it accepts."""
    triples: set[tuple[int, int, str]] = set()
    max_seq = -1
    for row in table.rows:
        offsets = row.episode.offsets()
        for seq_idx, t in pairs(row.starts):
            if seq_idx < 0:
                raise TableFormatError(f"negative sequence index {seq_idx}")
            max_seq = max(max_seq, seq_idx)
            for sym, off in zip(row.episode.event_types, offsets):
                triples.add((seq_idx, t + off, sym))
    if max_seq >= table.n_sequences:
        raise TableFormatError("start refers to a sequence beyond the declared count")
    unknown = sorted(key for key in table.multiplicities if key not in triples)
    if unknown:
        seq_idx, t, sym = unknown[0]
        raise TableFormatError(f"#mult names {seq_idx}:{t}:{sym}, which no row codes")
    alphabet = Alphabet(tuple(sorted({sym for _, _, sym in triples})))
    sequences: list[list[Event]] = [[] for _ in range(table.n_sequences)]
    for seq_idx, t, sym in triples:
        copies = table.multiplicities.get((seq_idx, t, sym), 1)
        sequences[seq_idx].extend([Event(alphabet.index(sym), t)] * copies)
    return event_dataset(reference_canonical(sequences, alphabet), alphabet)


# --- Frozen per-event implementations ---------------------------------------
#
# The per-event loops of ``load_events``, ``_Axis.__init__`` and ``decode`` as
# they stood before events were held as arrays, kept as oracles of the array
# code.  ``reference_load_events`` inlines ``EventDataset.from_tuples`` and the
# constructor's canonical sort (``reference_canonical``), so that no array
# code runs in any of them but the final ``event_dataset``.


def reference_load_events(handle) -> EventDataset:
    """Event-file text read line by line, the oracle of ``load_events``."""
    sequences: list[list[tuple[int, str]]] = [[]]
    for lineno, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped:
            if sequences[-1]:
                sequences.append([])
            continue
        fields = stripped.split("\t")
        if len(fields) != 2:
            raise DataValidationError(
                f"line {lineno}: expected '<time>\\t<event_type>', got {line!r}"
            )
        try:
            t = int(fields[0])
        except ValueError:
            raise DataValidationError(f"line {lineno}: bad timestamp {fields[0]!r}")
        sequences[-1].append((t, fields[1]))
    if sequences and not sequences[-1]:
        sequences.pop()
    alphabet = Alphabet.from_names(name for seq in sequences for _, name in seq)
    seqs = tuple(
        tuple(map(_new_event, [(alphabet.index(name), int(t)) for t, name in seq]))
        for seq in sequences
    )
    return event_dataset(reference_canonical(seqs, alphabet), alphabet)


def reference_axis(data: EventDataset, max_gap: int) -> SimpleNamespace:
    """The attributes of ``occurrences._Axis(data, max_gap)``, built by a walk
    over every event."""
    self = SimpleNamespace()
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    # No gap outgrows the longest sequence; a shorter max_gap keeps the axis short.
    seqs = event_tuples(data)
    longest = max((seq[-1].time - seq[0].time for seq in seqs if seq), default=0)
    self.max_gap = max_gap = min(max_gap, max(longest, 1))
    self.alphabet = data.alphabet
    # axis time -> (sequence index, time in that sequence)
    self.pair_at: dict[int, tuple[int, int]] = {}
    times: list[int] = []  # per slot, in time order
    types: list[int] = []
    first: list[int] = []  # the slot's first event, indexed among all events
    ends = np.cumsum([len(seq) for seq in seqs], dtype=np.int64)
    g = -max_gap - 1
    for seq_idx, seq in enumerate(seqs):
        prev = None
        for k, ev in enumerate(seq, int(ends[seq_idx]) - len(seq)):
            if ev.time != prev:
                g += max_gap + 1 if prev is None else min(ev.time - prev, max_gap + 1)
                prev = ev.time
                self.pair_at[g] = (seq_idx, prev)
            elif ev.event_type == types[-1]:
                continue  # events sharing (time, type) are adjacent
            times.append(g)
            types.append(ev.event_type)
            first.append(k)
    if (g + max_gap + 1) * data.alphabet.size >= 2**63:
        raise ValueError(f"times too far apart for a 64-bit axis at max_gap {max_gap}")
    # Small int types keep a depth's arrays small.
    self.time_type = np.int32 if g + 2 * max_gap < 2**31 else np.int64
    self.sym_type = np.min_scalar_type(data.alphabet.size)
    self.gap_type = np.min_scalar_type(-max_gap)  # signed, so spans stay integers
    self.n_types = data.alphabet.size
    key = np.array(times, np.int64) * self.n_types + types
    order = np.argsort(key, kind="stable")  # the identity when type ids follow name order
    first = np.array(first, np.int64)
    seq = np.searchsorted(ends, first, side="right")
    self.key, self.seq = key[order], seq[order]
    self.pos = (first - np.append(0, ends)[seq])[order]
    self.mult = np.diff(first, append=ends[-1:])[order]  # up to the next slot's first event
    self.times = (self.key // self.n_types).astype(self.time_type)
    self.types = (self.key % self.n_types).astype(self.sym_type)
    return self


def reference_decode(table: EncodingTable) -> EventDataset:
    """A table expanded entry by entry into ``Event`` tuples, the oracle of
    ``decode``, refusals and their messages included."""
    alphabet = Alphabet.from_names(
        [sym for row in table.rows if row.starts for sym in row.episode.event_types]
        + [sym for _, _, sym in table.multiplicities]
    )
    # Entries of (sequence, time, symbol id, episode size, copies): one per
    # row node and start, then one per #mult key, with size 0.
    seqs, times, blocks = [], [], []  # blocks: (entries, symbol id, episode size, copies)
    for row in table.rows:
        if not row.starts:
            continue
        t = row.starts.times.tolist()
        seqs += row.starts.seqs.tolist() * row.size
        for sym, off in zip(row.episode.event_types, row.episode.offsets()):
            times += map(off.__add__, t)
            blocks.append((len(t), alphabet.index(sym), row.size, 1))
    low, high, n = min(seqs, default=0), max(seqs, default=-1), table.n_sequences
    if low < 0 or high >= n:
        raise TableFormatError(f"start in sequence {low if low < 0 else high}, outside 0..{n - 1}")
    for (s, t, sym), m in table.multiplicities.items():
        if not 0 <= s <= high:
            raise TableFormatError(f"rows and #mult disagree on the copies of {s}:{t}:{sym}")
        seqs.append(s)
        times.append(t)
        blocks.append((1, alphabet.index(sym), 0, m))
    count, sym, size, m = np.array(blocks, np.int64).reshape(-1, 4).T
    sym, size, m = (np.repeat(x, count) for x in (sym, size, m))
    seq = np.array(seqs, np.int64)
    rank = dict(zip(sorted(times), range(len(times))))  # equal times share one
    t_rank = np.fromiter(map(rank.__getitem__, times), np.int64, len(times))  # orders any ints
    order = np.lexsort((sym, t_rank, seq))
    key = np.stack((seq, t_rank, sym))[:, order]
    heads = np.flatnonzero((np.diff(key, prepend=-1) != 0).any(axis=0))  # keys are >= 0
    first = order[heads]
    copies = np.maximum.reduceat(m[order], heads)
    one_node = np.add.reduceat(size[order] == 1, heads, dtype=np.int64)
    size = np.maximum.reduceat(size[order], heads)  # 0: only #mult names the event
    # Multi-node rows may code one copy of an event, 1-node rows the others.
    bad = np.flatnonzero((size == 0) | (one_node > copies - (size > 1)))
    if len(bad):
        i = first[bad[0]]
        where = f"{seq[i]}:{times[i]}:{alphabet.name(sym[i])}"
        raise TableFormatError(f"rows and #mult disagree on the copies of {where}")
    at = np.repeat(first, copies)  # one entry per decoded event
    del rank, t_rank, key, order, first, copies, one_node, size, m, bad
    events = list(map(_new_event, zip(sym[at].tolist(), map(times.__getitem__, at.tolist()))))
    ends = np.cumsum(np.bincount(seq[at], minlength=n)).tolist()
    return event_dataset([events[a:z] for a, z in zip([0, *ends], ends)], alphabet)
