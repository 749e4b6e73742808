"""The benchmark's workloads: seeded inputs, one pipeline pass, output checks.

Every call into the package goes through the attribute of the module that
defines it (``mdl.select``, never a name bound at import time), so that the
tracer can swap those attributes for timing wrappers during a traced run.

Why these workloads:

* ``text-dict`` mines corpora of 60 short documents.  Nearly all of a pass
  is the candidate DFS, whose cost grows with the number of sequences, so
  it exercises the per-sequence occurrence lists.  A corpus's cost depends
  on its random class balance, so a run rotates over twelve corpora drawn
  from the seed; one corpus would make the median pass time vary by about
  ten percent from seed to seed.
* ``trajectory-mine`` mines one long simulated sequence through the file
  formats.  One sequence means no per-sequence cost; covers, the residual
  rounds and the event loader carry a larger share here.
* ``pair-viterbi`` decodes a long trajectory of a 257-state pair model.  No
  mining module runs; the dense Viterbi pass dominates.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Any, Callable

from episodeseq import datasets, events, hmm, mdl, textpipe


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict[str, int]  # generator sizes of the measured workload
    tiny: dict[str, int]  # sizes for the smoke test
    setup: Callable[[int, dict[str, int]], tuple]  # (seed, size) -> inputs
    run: Callable[[Any], Any]  # one pipeline pass on one input -> outputs
    check: Callable[[Any, Any], list[str]]  # invariant failures, empty if fine
    quality: Callable[[Any, Any], float]  # code units per event
    digest: Callable[[Any], str]


def decode_failures(table: mdl.EncodingTable, data: events.EventDataset) -> list[str]:
    """The lossless-code check: the table must decode to exactly ``data``."""
    if mdl.decode(table) != data:
        return ["decode(table) differs from the encoded data"]
    return []


def _selection_digest(selection: mdl.SelectionState, table: mdl.EncodingTable) -> str:
    lines = [events.format_episode(ep) for ep in selection.episodes()]
    lines.append(f"total_length={mdl.total_length(table)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# --- text-dict: corpus -> episodes -> Dictionary-II -> naive Bayes ---------


@dataclass(frozen=True)
class TextInputs:
    train: textpipe.Corpus
    test: textpipe.Corpus


@dataclass(frozen=True)
class TextOutputs:
    data: events.EventDataset
    selection: mdl.SelectionState
    table: mdl.EncodingTable
    dict_one: textpipe.Dictionary
    dict_two: textpipe.Dictionary
    accuracy_one: float
    accuracy_two: float


def _text_setup(seed: int, size: dict[str, int]) -> tuple[TextInputs, ...]:
    n = size["corpora"]
    return tuple(
        TextInputs(
            *datasets.make_two_class_corpus(
                n_train=size["n_train"], n_test=size["n_test"], seed=seed * n + k
            )
        )
        for k in range(n)
    )


def _nb_accuracy(inputs: TextInputs, dictionary: textpipe.Dictionary) -> float:
    idf = textpipe.compute_idf(inputs.train, dictionary)
    model = textpipe.train_nb(
        textpipe.tfidf(inputs.train, dictionary, idf), inputs.train.labels
    )
    predicted = textpipe.predict(model, textpipe.tfidf(inputs.test, dictionary, idf))
    return textpipe.evaluate(predicted, inputs.test.labels)["accuracy"]


def _text_run(inputs: TextInputs) -> TextOutputs:
    data = textpipe.corpus_to_events(inputs.train)
    selection = mdl.select(data, 5)
    dict_two = textpipe.build_dictionary_II(selection)
    table = mdl.encode(data, selection)
    dict_one = textpipe.build_dictionary_I(inputs.train)
    return TextOutputs(
        data,
        selection,
        table,
        dict_one,
        dict_two,
        _nb_accuracy(inputs, dict_one),
        _nb_accuracy(inputs, dict_two),
    )


def _text_check(inputs: TextInputs, out: TextOutputs) -> list[str]:
    failures = decode_failures(out.table, out.data)
    if len(out.dict_two) > 0.5 * len(out.dict_one):
        failures.append(
            f"Dictionary-II has {len(out.dict_two)} words, "
            f"more than half of Dictionary-I's {len(out.dict_one)}"
        )
    if abs(out.accuracy_one - out.accuracy_two) > 0.03:
        failures.append(
            f"NB accuracy I={out.accuracy_one:.3f} and II={out.accuracy_two:.3f} "
            "differ by more than 0.03"
        )
    return failures


# --- trajectory-mine: event file -> episodes -> table file -> event file ---


@dataclass(frozen=True)
class TrajectoryInputs:
    text: str  # the simulated sequence in event-file format


@dataclass(frozen=True)
class TrajectoryOutputs:
    data: events.EventDataset
    selection: mdl.SelectionState
    table: mdl.EncodingTable
    loaded: mdl.EncodingTable
    dumped: str


def _trajectory_setup(seed: int, size: dict[str, int]) -> tuple[TrajectoryInputs]:
    alpha = events.parse_serial_episode("A -> B -> C")
    beta = events.parse_serial_episode("D -> B -> E")
    model = hmm.build_model(
        alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25
    )
    traj = hmm.simulate(model, size["length"], seed)
    handle = io.StringIO()
    events.dump_events(hmm.trajectory_dataset(model, traj), handle)
    return (TrajectoryInputs(handle.getvalue()),)


def _trajectory_run(inputs: TrajectoryInputs) -> TrajectoryOutputs:
    data = events.load_events(io.StringIO(inputs.text))
    selection = mdl.select(data, 3)
    table = mdl.encode(data, selection)
    saved = io.StringIO()
    mdl.save_table(table, saved)
    loaded = mdl.load_table(io.StringIO(saved.getvalue()))
    dumped = io.StringIO()
    events.dump_events(mdl.decode(loaded), dumped)
    return TrajectoryOutputs(data, selection, table, loaded, dumped.getvalue())


def _trajectory_check(inputs: TrajectoryInputs, out: TrajectoryOutputs) -> list[str]:
    failures = decode_failures(out.loaded, out.data)
    if out.dumped != inputs.text:
        failures.append("dumped event file differs from the input event file")
    return failures


# --- pair-viterbi: likelihoods and the best path of a pair model ----------


@dataclass(frozen=True)
class PairInputs:
    model: hmm.EpisodePairModel
    traj: hmm.Trajectory


@dataclass(frozen=True)
class PairOutputs:
    true_loglik: float
    path: tuple[int, ...]
    path_loglik: float
    stats: hmm.PairStats


def _pair_setup(seed: int, size: dict[str, int]) -> tuple[PairInputs]:
    # Two 8-node episodes sharing the symbol D, over 20 symbols: 257 states.
    alpha = events.parse_serial_episode("A -> B -> C -> D -> E -> F -> G -> H")
    beta = events.parse_serial_episode("I -> J -> K -> D -> L -> M -> N -> O")
    model = hmm.build_model(
        alpha, beta, hmm.default_pair_alphabet(alpha, beta, 20), 0.25
    )
    return (PairInputs(model, hmm.simulate(model, size["length"], seed)),)


def _pair_run(inputs: PairInputs) -> PairOutputs:
    model, traj = inputs.model, inputs.traj
    true_loglik = hmm.joint_log_likelihood(model, traj.outputs, traj.states)
    path = hmm.viterbi(model, traj.outputs)
    path_loglik = hmm.joint_log_likelihood(model, traj.outputs, path)
    return PairOutputs(true_loglik, path, path_loglik, hmm.trajectory_stats(model, path))


def _pair_check(inputs: PairInputs, out: PairOutputs) -> list[str]:
    # Both sums add T logs in different orders; allow their rounding only.
    slack = 1e-9 * abs(out.true_loglik)
    if not out.path_loglik >= out.true_loglik - slack:
        return [
            f"Viterbi path log-likelihood {out.path_loglik!r} is below "
            f"the true path's {out.true_loglik!r}"
        ]
    return []


def _pair_quality(inputs: PairInputs, out: PairOutputs) -> float:
    # The path's code length per step, in nats.
    return -out.path_loglik / len(out.path)


def _path_digest(out: PairOutputs) -> str:
    return hashlib.sha256(" ".join(map(str, out.path)).encode()).hexdigest()[:16]


def _mining_quality(inputs: Any, out: Any) -> float:
    return mdl.total_length(out.table) / out.data.n_events


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "text-dict",
            {"corpora": 12, "n_train": 60, "n_test": 40},
            {"corpora": 2, "n_train": 40, "n_test": 20},
            _text_setup,
            _text_run,
            _text_check,
            _mining_quality,
            lambda out: _selection_digest(out.selection, out.table),
        ),
        Workload(
            "trajectory-mine",
            {"length": 10_000},
            {"length": 400},
            _trajectory_setup,
            _trajectory_run,
            _trajectory_check,
            _mining_quality,
            lambda out: _selection_digest(out.selection, out.table),
        ),
        Workload(
            "pair-viterbi",
            {"length": 10_000},
            {"length": 200},
            _pair_setup,
            _pair_run,
            _pair_check,
            _pair_quality,
            _path_digest,
        ),
    )
}

# Digests of the default-seed, full-size outputs, one per input, recorded
# when the benchmark was defined: selected episodes and total_length for the
# miners, the state path for pair-viterbi.  Changed results fail the pass.
DEFAULT_DIGESTS: dict[str, tuple[str, ...]] = {
    "text-dict": (
        "d3eb89ad4cfbc82c", "b88dcb710899d36a", "81575b2b0e157543",
        "a0c8e8299e4d26a3", "79da4dd9eaf22bce", "bc619158601a2372",
        "8b61a1251fb5e20a", "d7cc25cc5e80019f", "4e29c7ddcdfcf569",
        "78de855ad3b77ba3", "e879cf8078897c63", "f00113ba666a8638",
    ),
    "trajectory-mine": ("be5c908ba6045ff2",),
    "pair-viterbi": ("daed020910d30a98",),
}
