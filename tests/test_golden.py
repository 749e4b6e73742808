"""Frozen CLI outputs: ``mine`` tables, candidate dumps, ``dict`` and
``classify`` runs, ``hmm-sim --model-out`` dumps and ``hmm-score --viterbi``
paths.

Each case builds its input files from the bundled sample or a seeded
generator, runs the CLI in-process and compares stdout byte for byte with
the file in ``tests/golden/``.  A difference is a behaviour change of the miner.  The
files were written by running this module as a script::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from episodeseq import EventDataset, corpus_to_events, dump_events, hmm
from episodeseq.cli import main
from episodeseq.datasets import (
    make_planted_corpus,
    make_two_class_corpus,
    sample_sequence_text,
)
from episodeseq.events import parse_serial_episode
from episodeseq.textpipe import mine_dictionary, save_corpus, save_dictionary

GOLDEN = Path(__file__).parent / "golden"


def _events_text(data) -> str:
    handle = io.StringIO()
    dump_events(data, handle)
    return handle.getvalue()


def _two_class_train():
    return make_two_class_corpus(n_train=60, n_test=20)[0]


def _trajectory_text() -> str:
    alpha = parse_serial_episode("A -> B -> C")
    beta = parse_serial_episode("D -> B -> E")
    model = hmm.build_model(
        alpha, beta, hmm.default_pair_alphabet(alpha, beta, 9), 0.25
    )
    return _events_text(hmm.trajectory_dataset(model, hmm.simulate(model, 2000, 5)))


def _duplicates_text() -> str:
    # Three sequences of A/B/C events at times 1-12, so many (time, type)
    # pairs occur twice.  Under ``--max-gap 2``, round 0 codes the first copy
    # of such a pair and round 1 the second one.
    rng = random.Random(2506)
    return _events_text(
        EventDataset.from_tuples(
            [
                [(rng.randint(1, 12), rng.choice("ABC")) for _ in range(rng.randint(10, 30))]
                for _ in range(rng.randint(2, 3))
            ]
        )
    )


def _huge_times_text() -> str:
    # Three sequences near -10**30, 10**30 and -10**30 + 5.  Each holds
    # bursts of A/B/C/D events 10**25 apart, and every burst carries
    # A -1-> B -2-> C once, so mined episodes cross no jump.
    rng = random.Random(1030)
    sequences = []
    for base in (-(10**30), 10**30, 5 - 10**30):
        seq = []
        for burst in range(rng.randint(2, 4)):
            origin = base + burst * 10**25
            at = origin + rng.randint(0, 12)
            seq += [(at, "A"), (at + 1, "B"), (at + 3, "C")]
            seq += [
                (origin + rng.randint(0, 15), rng.choice("ABCD"))
                for _ in range(rng.randint(6, 14))
            ]
        sequences.append(seq)
    return _events_text(EventDataset.from_tuples(sequences))


def _pair_trajectory_case(alpha: str, beta: str, size: int, length: int, seed: int):
    """A ``hmm-score --viterbi`` case on a simulated states-and-symbols file."""

    def text() -> str:
        a, b = parse_serial_episode(alpha), parse_serial_episode(beta)
        model = hmm.build_model(a, b, hmm.default_pair_alphabet(a, b, size), 0.25)
        traj = hmm.simulate(model, length, seed)
        states = " ".join(model.state(idx).label() for idx in traj.states)
        return states + "\n" + " ".join(map(model.alphabet.name, traj.outputs)) + "\n"

    flags = ["--alpha", alpha, "--beta", beta, "--alphabet-size", str(size)]
    return {"data": text}, ["hmm-score", "{data}", *flags, "--eta", "0.25", "--viterbi"]


def _model_out_case(alpha: str, beta: str, size: int):
    """An ``hmm-sim`` case whose stdout starts with the model's JSON dump."""
    flags = ["--alpha", alpha, "--beta", beta, "--alphabet-size", str(size)]
    return {}, ["hmm-sim", *flags, "--eta", "0.25", "--length", "20", "--seed", "3",
                "--model-out", "-"]


def _corpus_text(corpus) -> str:
    handle = io.StringIO()
    save_corpus(corpus, handle)
    return handle.getvalue()


def _small_two_class():
    # Twelve training documents keep most accuracies below 1.0, so the
    # metrics move when the features or the classifier do.
    return make_two_class_corpus(n_train=12, n_test=60)


def _mined_dictionary_text() -> str:
    handle = io.StringIO()
    save_dictionary(mine_dictionary(_small_two_class()[0], 5)[0], handle)
    return handle.getvalue()


def _classify_case(dictionary: str, weighting: str):
    """A ``classify`` case with Dictionary-I or the mined Dictionary-II."""
    inputs = {
        "train": lambda: _corpus_text(_small_two_class()[0]),
        "test": lambda: _corpus_text(_small_two_class()[1]),
    }
    argv = ["classify", "--train", "{train}", "--test", "{test}", "--weighting", weighting]
    if dictionary == "II":
        inputs["dictionary"] = _mined_dictionary_text
        argv += ["--dictionary", "{dictionary}"]
    return inputs, argv


# name -> (input file text, max_gap)
EVENT_INPUTS = {
    "sample": (sample_sequence_text, 5),
    "two_class_60": (lambda: _events_text(corpus_to_events(_two_class_train())), 5),
    "planted": (lambda: _events_text(corpus_to_events(make_planted_corpus())), 3),
    "trajectory_2k": (_trajectory_text, 3),
    "huge_times": (_huge_times_text, 3),
}

# golden file name -> (input builders by name, argv); "{name}" in argv stands
# for the path of that input file.
CASES = {
    **{
        f"{name}.candidates.tsv": (
            {"data": text},
            ["mine", "{data}", "--max-gap", str(g), "--dump-candidates"],
        )
        for name, (text, g) in EVENT_INPUTS.items()
    },
    **{
        f"{name}.table.csv": ({"data": text}, ["mine", "{data}", "--max-gap", str(g)])
        for name, (text, g) in EVENT_INPUTS.items()
    },
    "two_class_60.distinct.candidates.tsv": (
        {"data": EVENT_INPUTS["two_class_60"][0]},
        ["mine", "{data}", "--max-gap", "5", "--freq-mode", "distinct", "--dump-candidates"],
    ),
    "two_class_60.dict.txt": (
        {"data": lambda: _corpus_text(_two_class_train())},
        ["dict", "{data}", "--max-gap", "5"],
    ),
    **{
        f"two_class_12.classify.{d}.{w}.csv": _classify_case(d, w)
        for d in ("I", "II")
        for w in ("tfidf-cosine", "binary")
    },
    "duplicates.table.csv": ({"data": _duplicates_text}, ["mine", "{data}", "--max-gap", "2"]),
    # The benchmark's 257-state pair: two 8-node episodes sharing D.
    "pair_8node.viterbi.txt": _pair_trajectory_case(
        "A -> B -> C -> D -> E -> F -> G -> H",
        "I -> J -> K -> D -> L -> M -> N -> O",
        20,
        2000,
        11,
    ),
    # Equal first symbols: the model starts in its shared initial state.
    "pair_shared_start.viterbi.txt": _pair_trajectory_case(
        "A -> B -> C", "A -> D -> B", 9, 300, 12
    ),
    "pair_8node.model.txt": _model_out_case(
        "A -> B -> C -> D -> E -> F -> G -> H", "I -> J -> K -> D -> L -> M -> N -> O", 20
    ),
    "pair_shared_start.model.txt": _model_out_case("A -> B -> C", "A -> D -> B", 9),
}


def run_case(name: str, tmp_dir: Path) -> bytes:
    """The case's CLI stdout, with its inputs written under ``tmp_dir``."""
    inputs, argv = CASES[name]
    paths = {}
    for key, text in inputs.items():
        paths[key] = tmp_dir / f"{name}.{key}"
        paths[key].write_text(text(), "utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main([arg.format_map(paths) for arg in argv])
    assert status == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert run_case(name, tmp_path) == expected, f"{name} differs from its golden file"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(run_case(case, Path(tmp)))
            print(f"wrote {case}", file=sys.stderr)
