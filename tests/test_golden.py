"""Frozen CLI outputs: ``mine`` tables, candidate dumps, a ``dict`` run and
``hmm-score --viterbi`` paths.

Each case builds its input from the bundled sample or a seeded generator,
runs the CLI in-process and compares stdout byte for byte with the file in
``tests/golden/``.  A difference is a behaviour change of the miner.  The
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
from episodeseq.textpipe import save_corpus

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


def _pair_trajectory_case(alpha: str, beta: str, size: int, length: int, seed: int):
    """A ``hmm-score --viterbi`` case on a simulated states-and-symbols file."""

    def text() -> str:
        a, b = parse_serial_episode(alpha), parse_serial_episode(beta)
        model = hmm.build_model(a, b, hmm.default_pair_alphabet(a, b, size), 0.25)
        traj = hmm.simulate(model, length, seed)
        states = " ".join(model.state(idx).label() for idx in traj.states)
        return states + "\n" + " ".join(map(model.alphabet.name, traj.outputs)) + "\n"

    flags = ["--alpha", alpha, "--beta", beta, "--alphabet-size", str(size)]
    return text, ["hmm-score", *flags, "--eta", "0.25", "--viterbi"]


def _corpus_text() -> str:
    handle = io.StringIO()
    save_corpus(_two_class_train(), handle)
    return handle.getvalue()


# name -> (input file text, max_gap)
EVENT_INPUTS = {
    "sample": (sample_sequence_text, 5),
    "two_class_60": (lambda: _events_text(corpus_to_events(_two_class_train())), 5),
    "planted": (lambda: _events_text(corpus_to_events(make_planted_corpus())), 3),
    "trajectory_2k": (_trajectory_text, 3),
}

# golden file name -> (input builder, argv after the input path)
CASES = {
    **{
        f"{name}.candidates.tsv": (text, ["mine", "--max-gap", str(g), "--dump-candidates"])
        for name, (text, g) in EVENT_INPUTS.items()
    },
    **{
        f"{name}.table.csv": (text, ["mine", "--max-gap", str(g)])
        for name, (text, g) in EVENT_INPUTS.items()
    },
    "two_class_60.distinct.candidates.tsv": (
        EVENT_INPUTS["two_class_60"][0],
        ["mine", "--max-gap", "5", "--freq-mode", "distinct", "--dump-candidates"],
    ),
    "two_class_60.dict.txt": (_corpus_text, ["dict", "--max-gap", "5"]),
    "duplicates.table.csv": (_duplicates_text, ["mine", "--max-gap", "2"]),
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
}


def run_case(name: str, tmp_dir: Path) -> bytes:
    """The case's CLI stdout, with its input written under ``tmp_dir``."""
    text, argv = CASES[name]
    path = tmp_dir / (name + ".in")
    path.write_text(text(), "utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main([argv[0], str(path), *argv[1:]])
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
