import io
from pathlib import Path

import pytest

from episodeseq import load_events
from episodeseq.cli import main
from episodeseq.datasets import sample_sequence_text

SAMPLE_TABLE = """size,episode,freq,starts
3,A -2-> B -1-> C,2,0:2;0:4
3,D -2-> E -2-> C,2,0:1;0:5
2,A -1-> B,1,0:7
1,C,2,0:3;0:8
"""


@pytest.fixture()
def sample_file(tmp_path) -> Path:
    path = tmp_path / "seq.tsv"
    path.write_text(sample_sequence_text(), "utf-8")
    return path


@pytest.fixture()
def episode_file(tmp_path) -> Path:
    path = tmp_path / "eps.txt"
    path.write_text("A -2-> B -1-> C\nD -2-> E -2-> C\nA -1-> B\n", "utf-8")
    return path


def test_mine_forced_reproduces_reference_table(sample_file, episode_file, capsys):
    status = main(
        [
            "mine",
            str(sample_file),
            "--freq-mode",
            "distinct",
            "--force-episodes",
            str(episode_file),
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out == SAMPLE_TABLE
    assert "total encoded length 29 units" in captured.err


def test_decode_round_trips_byte_identical(sample_file, episode_file, tmp_path, capsys):
    table = tmp_path / "table.csv"
    assert (
        main(
            [
                "mine",
                str(sample_file),
                "--freq-mode",
                "distinct",
                "--force-episodes",
                str(episode_file),
                "--out",
                str(table),
            ]
        )
        == 0
    )
    capsys.readouterr()
    out = tmp_path / "decoded.tsv"
    assert main(["decode", str(table), "--out", str(out)]) == 0
    assert out.read_bytes() == sample_file.read_bytes()


def test_mine_selection_output_parses(sample_file, capsys):
    assert main(["mine", str(sample_file), "--max-gap", "2"]) == 0
    table_text = capsys.readouterr().out
    assert table_text.startswith("size,episode,freq,starts\n")


def test_dump_candidates_lines(sample_file, capsys):
    assert main(["mine", str(sample_file), "-g", "2", "--dump-candidates"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        episode, f, score = line.split("\t")
        int(f), int(score)
    assert lines == sorted(lines)


def test_hmm_sim_deterministic(capsys):
    argv = [
        "hmm-sim",
        "--alpha", "A -> B -> C",
        "--beta", "D -> B -> E",
        "--alphabet-size", "7",
        "--eta", "0.4",
        "--length", "10",
        "--seed", "3",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    states_line, symbols_line = first.strip().splitlines()
    assert len(states_line.split()) == len(symbols_line.split()) == 10


def test_hmm_sim_different_seed_differs(capsys):
    base = [
        "hmm-sim",
        "--alpha", "A -> B",
        "--beta", "C -> D",
        "--alphabet-size", "6",
        "--eta", "0.3",
        "--length", "25",
    ]
    assert main(base + ["--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(base + ["--seed", "2"]) == 0
    assert capsys.readouterr().out != first


def test_hmm_sim_model_dump_is_json(tmp_path, capsys):
    import json

    model_file = tmp_path / "model.json"
    assert (
        main(
            [
                "hmm-sim",
                "--alpha", "A -> B",
                "--beta", "C -> D",
                "--alphabet-size", "6",
                "--eta", "0.3",
                "--length", "5",
                "--seed", "0",
                "--model-out", str(model_file),
            ]
        )
        == 0
    )
    capsys.readouterr()
    dump = json.loads(model_file.read_text("utf-8"))
    assert dump["n_nodes"] == 2
    assert len(dump["states"]) == 17
    assert all(p > 0 for _, _, p in dump["transitions"])


def test_hmm_score_on_simulated_trajectory(tmp_path, capsys):
    traj = tmp_path / "traj.txt"
    pair = [
        "--alpha", "A -> B -> C",
        "--beta", "D -> B -> E",
        "--alphabet-size", "7",
        "--eta", "0.4",
    ]
    assert main(["hmm-sim", *pair, "--length", "12", "--seed", "5", "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["hmm-score", *pair, str(traj), "--viterbi"]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split("\t", 1) for line in out.strip().splitlines() if "\t" in line
    )
    joint = float(lines["joint_log_likelihood"])
    best = float(lines["viterbi_log_likelihood"])
    assert best >= joint


@pytest.mark.parametrize("label", ["S1(9,9)", "S1(0,2)"])
def test_hmm_score_rejects_state_out_of_range(label, tmp_path, capsys):
    traj = tmp_path / "traj.txt"
    traj.write_text(f"N0 {label}\nA B\n", "utf-8")
    pair = ["--alpha", "A -> B", "--beta", "C -> D", "--alphabet-size", "6", "--eta", "0.4"]
    assert main(["hmm-score", *pair, str(traj)]) == 3
    assert f"state {label} out of range for N=2" in capsys.readouterr().err


def test_hmm_compare_output(capsys):
    assert (
        main(
            [
                "hmm-compare",
                "--n-nodes", "3",
                "--f-beta", "10", "--o-beta", "1",
                "--f-gamma", "8", "--o-gamma", "4",
                "--eta", "0.2",
                "--alphabet-size", "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "preferred\tbeta" in out
    assert "overlap_score_1[beta]\t29" in out


def test_dict_and_classify(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    train.write_text(
        "".join(
            f"{label}\t{text}\n"
            for label, text in [
                ("pet", "cat purr soft cat purr soft cat purr soft"),
                ("pet", "cat purr soft fish cat purr soft"),
                ("car", "engine oil filter engine oil filter engine oil filter"),
                ("car", "engine oil filter wheel engine oil filter"),
            ]
        ),
        "utf-8",
    )
    test.write_text("pet\tcat purr\ncar\tengine oil\n", "utf-8")
    dictionary = tmp_path / "dict.txt"
    assert main(["dict", str(train), "-g", "2", "--out", str(dictionary)]) == 0
    capsys.readouterr()
    words = dictionary.read_text("utf-8").split()
    assert set(words) <= {"cat", "purr", "soft", "engine", "oil", "filter"}
    assert (
        main(
            [
                "classify",
                "--train", str(train),
                "--test", str(test),
                "--dictionary", str(dictionary),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dictionary,classifier,accuracy,macro_f"
    assert out.splitlines()[1].startswith("II,naive-bayes,1.000000")


def test_classify_maps_test_labels_onto_training_ids(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text(
        "pet\tcat purr soft cat purr\ncar\tengine oil filter engine oil\n", "utf-8"
    )
    pets_only = tmp_path / "pets.tsv"
    pets_only.write_text("pet\tcat purr\npet\tsoft cat\n", "utf-8")
    argv = ["classify", "--train", str(train), "--test", str(pets_only)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "I,naive-bayes,1.000000,1.000000"

    unseen = tmp_path / "unseen.tsv"
    unseen.write_text("pet\tcat purr\nboat\tsail keel\n", "utf-8")
    argv = ["classify", "--train", str(train), "--test", str(unseen)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "boat" in captured.err


def test_dict_refuses_a_space_separated_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("pet cat purr soft\ncar engine oil filter\n", "utf-8")
    assert main(["dict", str(corpus)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "corpus line 1 has no tab" in captured.err


def test_exit_code_validation_error(sample_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A -0-> B\n", "utf-8")
    status = main(["mine", str(sample_file), "--force-episodes", str(bad)])
    assert status == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("events", ["1\ta b\n2\tc\n", "1\ta;b\n1\ta;b\n2\tc\n"])
def test_mine_rejects_symbols_a_table_cannot_carry(events, tmp_path, capsys):
    path = tmp_path / "seq.tsv"
    path.write_text(events, "utf-8")
    assert main(["mine", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_mine_out_file_written_only_on_success(sample_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_bytes(b"previous contents\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\ta b\n2\tc\n", "utf-8")
    assert main(["mine", str(bad), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    capsys.readouterr()
    assert main(["mine", str(sample_file)]) == 0
    printed = capsys.readouterr().out
    assert main(["mine", str(sample_file), "-o", str(out)]) == 0
    assert out.read_bytes() == printed.encode("utf-8")


def test_decode_refuses_a_table_with_an_empty_sequence(tmp_path, capsys):
    # sequence 1 is empty; an event file cannot hold it, so decode must not
    # write one that reloads as two sequences
    table = tmp_path / "t.csv"
    table.write_text(
        "size,episode,freq,starts\n#sequences 3\n1,A,1,0:1\n1,B,1,2:4\n", "utf-8"
    )
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "error:" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    status = main(["decode", str(tmp_path / "missing.csv")])
    assert status == 4


def test_exit_code_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["mine"])  # missing positional
    assert exc.value.code == 2


def test_decoded_output_loads(sample_file, episode_file, tmp_path, capsys):
    table = tmp_path / "t.csv"
    main(
        [
            "mine", str(sample_file),
            "--freq-mode", "distinct",
            "--force-episodes", str(episode_file),
            "--out", str(table),
        ]
    )
    capsys.readouterr()
    assert main(["decode", str(table)]) == 0
    decoded = capsys.readouterr().out
    data = load_events(io.StringIO(decoded))
    assert data.n_events == 15
