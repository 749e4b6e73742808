import csv
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from episodeseq import decode, hmm, load_events, load_table, save_table
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


@pytest.mark.parametrize("alpha", ["-> A B", "A B ->", "A -> -> B", "A -> ->"])
def test_hmm_sim_refuses_misplaced_arrows(alpha, tmp_path, capsys):
    out = tmp_path / "traj.txt"
    out.write_bytes(b"previous contents\n")
    argv = ["hmm-sim", "--alpha", alpha, "--beta", "C -> D", "--alphabet-size", "6"]
    assert main([*argv, "--eta", "0.3", "--length", "5", "--seed", "1", "--out", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("size", ["-8", "-100"])
def test_hmm_compare_refuses_an_alphabet_size_below_one(size, capsys):
    # Below -8, M / (M + 8) is positive again and eta passes its bound.
    argv = ["hmm-compare", "--n-nodes", "3", "--f-beta", "10", "--o-beta", "1"]
    argv += ["--f-gamma", "8", "--o-gamma", "4", "--eta", "0.2", "--alphabet-size", size]
    assert main(argv) == 3
    assert f"alphabet size must be at least 1, got {size}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alphabet-size", "--n-nodes", "--f-beta", "--o-gamma"])
def test_hmm_compare_refuses_an_integer_too_large_for_a_float(flag, capsys):
    args = {"--n-nodes": "3", "--f-beta": "10", "--o-beta": "1", "--f-gamma": "8"}
    args.update({"--o-gamma": "4", "--eta": "0.2", "--alphabet-size": "10", flag: "9" * 400})
    assert main(["hmm-compare", *(x for pair in args.items() for x in pair)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: int too large to convert to float" in captured.err


def test_hmm_compare_refuses_episodes_without_nodes(capsys):
    argv = ["hmm-compare", "--n-nodes", "0", "--f-beta", "3", "--o-beta", "0"]
    argv += ["--f-gamma", "2", "--o-gamma", "0", "--eta", "0.2", "--alphabet-size", "10"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1 node, got 0" in captured.err


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


def test_decode_refuses_a_repeated_start(tmp_path, capsys):
    # A@1 would decode once while the row counts it twice
    table = tmp_path / "t.csv"
    table.write_text("size,episode,freq,starts\n1,A,2,0:1;0:1\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        # A@1 and B@2 decode once each, but four event codes cover them
        "2,A -1-> B,1,0:1\n1,A,1,0:1\n1,B,1,0:2\n",
        "1,A,1,0:1\n1,A,1,0:1\n",
        "#mult 0:1:A=2\n2,A -1-> B,1,0:1\n1,A,2,0:1;0:1\n1,B,1,0:2\n",
    ],
)
def test_decode_refuses_rows_that_code_an_event_too_often(body, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("size,episode,freq,starts\n" + body, "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "disagree on the copies of 0:1:A" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("forced", "status"),
    [
        ("A -1-> B\nA\n", 3),
        ("A\nA\n", 3),
        ("A\nB\n", 0),
        ("A -1-> B\nB -3-> A\n", 0),
        ("A -1-> B\nB -1-> A\n", 0),  # the last row never occurs
    ],
)
def test_mine_refuses_forced_one_node_episodes_that_share_events(forced, status, tmp_path, capsys):
    data, episodes = tmp_path / "seq.tsv", tmp_path / "eps.txt"
    data.write_text("1\tA\n2\tB\n5\tA\n6\tB\n", "utf-8")
    episodes.write_text(forced, "utf-8")
    table, out = tmp_path / "t.csv", tmp_path / "events.tsv"
    table.write_bytes(b"previous contents\n")
    assert main(["mine", str(data), "--force-episodes", str(episodes), "-o", str(table)]) == status
    if status == 3:
        assert table.read_bytes() == b"previous contents\n"
        assert "codes events another episode codes" in capsys.readouterr().err
    else:
        assert main(["decode", str(table), "-o", str(out)]) == 0
        assert out.read_bytes() == data.read_bytes()


GOLDEN_TABLES = sorted((Path(__file__).parent / "golden").glob("*.table.csv"))


def _arabic(text: str) -> str:
    """``text`` with Arabic-Indic digits, which ``int`` reads as ASCII ones."""
    return text.translate({ord("0") + d: 0x660 + d for d in range(10)})


@st.composite
def _mutated_golden_table(draw):
    """A golden table with 1-3 edits: starts dropped, repeated or moved, a
    row that re-codes a covered event, a changed multiplicity, extra
    sequences, an integer in another spelling that ``int`` reads the same,
    or a form ``save_table`` never writes: a blank line, CRLF line ends,
    ``#mult`` keys shuffled or repeated, or a ``#sequences`` line that the
    rows imply."""
    header, *lines = draw(st.sampled_from(GOLDEN_TABLES)).read_text("utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [[*r[:3], r[3].split(";")] for r in csv.reader(l for l in lines if l[0] != "#")]
    forms = set()  # edits of the finished text
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row[3]) - 1))
        seq, _, t = row[3][k].partition(":")
        edit = draw(
            st.sampled_from(
                ["drop", "repeat", "move", "recode", "mult", "sequences", "spelling", "form"]
            )
        )
        if edit == "drop" and len(row[3]) > 1:
            del row[3][k]
        elif edit == "repeat":
            row[3].insert(k, row[3][k])
        elif edit == "move":
            row[3][k] = f"{seq}:{int(t) + draw(st.sampled_from([-1, 1]))}"
        elif edit == "recode":
            node = draw(st.integers(0, int(row[0]) - 1))
            episode = row[1].split()
            off = sum(map(int, (a.strip("->") for a in episode[1 : 2 * node : 2])))
            rows.append(["1", episode[2 * node], "1", [f"{seq}:{int(t) + off}"]])
        elif edit == "mult" and comments and comments[0].startswith("#mult "):
            parts = comments[0][6:].split(";")
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = parts[j].rpartition("=")[0] + f"={draw(st.integers(1, 4))}"
            comments[0] = "#mult " + ";".join(parts)
        elif edit == "sequences" and not any(c.startswith("#seq") for c in comments):
            used = 1 + max(int(p.partition(":")[0]) for r in rows for p in r[3])
            comments.append(f"#sequences {used + draw(st.integers(1, 2))}")
        elif edit == "spelling":
            respell = draw(
                st.sampled_from([" {}".format, "{} ".format, "+{}".format, "0{}".format, _arabic])
            )
            field = draw(st.sampled_from(["size", "gap", "seq", "time"]))
            if field == "size":
                row[0] = respell(row[0])
            elif field == "gap":
                row[1] = re.sub(r"-(\d+)->", r"-0\1->", row[1], count=1)
            else:
                row[3][k] = f"{respell(seq)}:{t}" if field == "seq" else f"{seq}:{respell(t)}"
        elif edit == "form":
            form = draw(st.sampled_from(["blank", "crlf", "shuffle", "repeat key", "implied"]))
            has_mult = comments and comments[0].startswith("#mult ")
            mult = comments[0][6:].split(";") if has_mult else []
            if form in ("blank", "crlf"):
                forms.add(form)
            elif form == "shuffle" and len(mult) > 1:
                comments[0] = "#mult " + ";".join(draw(st.permutations(mult)))
            elif form == "repeat key" and mult:
                j = draw(st.integers(0, len(mult) - 1))
                again = mult[j].rpartition("=")[0] + f"={draw(st.integers(2, 4))}"
                comments[0] = "#mult " + ";".join([*mult[: j + 1], again, *mult[j + 1 :]])
            elif form == "implied" and not any(c.startswith("#seq") for c in comments):
                used = 1 + max(int(p.partition(":")[0]) for r in rows for p in r[3])
                comments.append(f"#sequences {used}")
        row[2] = str(len(row[3]))
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows([*r[:3], ";".join(r[3])] for r in rows)
    text = "\n".join([header, *comments]) + "\n" + body.getvalue()
    if "blank" in forms:
        lines = text.split("\n")
        at = draw(st.integers(1, len(lines) - 1))
        text = "\n".join([*lines[:at], "", *lines[at:]])
    return text.replace("\n", "\r\n") if "crlf" in forms else text


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_golden_table())
def test_mutated_golden_tables_round_trip_or_exit_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp) / "t.csv", Path(tmp) / "events.tsv"
        table.write_text(text, "utf-8")
        status = main(["decode", str(table), "-o", str(out)])
    assert status in (0, 3)
    if status == 3:
        return
    loaded = load_table(io.StringIO(text))
    again = io.StringIO()
    save_table(loaded, again)
    assert again.getvalue() == text
    coded = sum(row.size * row.frequency for row in loaded.rows)
    tracemalloc.start()
    try:
        decode(loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10 + 1024 * coded


def _capped_main(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process that caps its address space at 1 GiB."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from episodeseq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_decode_refuses_a_huge_sequence_count_before_allocating(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("size,episode,freq,starts\n#sequences 99999999999\n1,A,1,0:1\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    # An allocation per declared sequence fails fast in the capped child
    # instead of exhausting the machine.
    child = _capped_main("decode", str(table), "-o", str(out))
    assert child.returncode == 3, child.stderr
    assert "empty sequence" in child.stderr
    assert out.read_bytes() == b"previous contents\n"


def test_decode_exits_3_when_a_table_states_more_copies_than_memory_holds(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("size,episode,freq,starts\n#mult 0:0:A=1000000000\n1,A,1,0:0\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    # A billion copies of one event need 7.45 GiB of int64 in decode's
    # arrays, which the capped child cannot allocate.
    child = _capped_main("decode", str(table), "-o", str(out))
    assert child.returncode == 3, child.stderr
    (line,) = child.stderr.splitlines()  # one error line, no traceback
    assert line.startswith("error: ")
    assert out.read_bytes() == b"previous contents\n"


def test_pair_model_commands_fit_a_large_alphabet(tmp_path):
    # One dense (S, M) float array at S = 401, M = 200,000 would take 612 MiB,
    # so the capped child fails if either command builds one.
    pair = ["--alpha", " -> ".join("ABCDEFGHIJ"), "--beta", " -> ".join("KLMNOPQRST")]
    pair += ["--alphabet-size", "200000", "--eta", "0.2"]
    traj = tmp_path / "traj.txt"
    sim = _capped_main("hmm-sim", *pair, "--length", "2000", "--seed", "3", "-o", str(traj))
    assert sim.returncode == 0, sim.stderr
    score = _capped_main("hmm-score", *pair, str(traj), "--viterbi")
    assert score.returncode == 0, score.stderr
    assert score.stdout.startswith("joint_log_likelihood\t")
    assert len(score.stdout.splitlines()[2].split()) == 2001  # label plus 2,000 states


@pytest.mark.parametrize("size", ["1" * 400, str(hmm.MAX_PAIR_ALPHABET_SIZE + 1)])
def test_hmm_sim_refuses_an_alphabet_too_large_before_building_it(size, tmp_path):
    # Building one name per symbol would run out of memory in the capped
    # child long before a 400-digit size was reached.
    out = tmp_path / "traj.txt"
    pair = ["--alpha", "A -> B", "--beta", "C -> D", "--alphabet-size", size, "--eta", "0.2"]
    child = _capped_main("hmm-sim", *pair, "--length", "5", "--seed", "0", "-o", str(out))
    assert child.returncode == 3, child.stderr
    assert child.stderr.splitlines() == [
        f"error: alphabet size must be at most {hmm.MAX_PAIR_ALPHABET_SIZE}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("mult", ["0:1:A=0", "0:1:A=-2", "0:9:A=3"])
def test_decode_refuses_a_multiplicity_line_it_cannot_honour(mult, tmp_path, capsys):
    # a zero or negative count would drop A@1; a key no row codes would be ignored
    table = tmp_path / "t.csv"
    table.write_text(f"size,episode,freq,starts\n#mult {mult}\n1,A,2,0:1;0:2\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "2,A -01-> B,1,0:1",
        "2,A -1-> B,+1,0:1",
        "02,A -1-> B,1,0:1",
        "2,A -1-> B,1,0:1_0",
        "2,A -1-> B,1, 0:1",
        "2,A -1-> B,1,0:-0",
        "2,A -1-> B,1,0:\u0661",
        "#sequences 02\n1,A,1,0:1",
        "#mult 0:1:A=02\n1,A,2,0:1;0:1",
        "#mult 00:1:A=2\n1,A,2,0:1;0:1",
    ],
)
def test_decode_refuses_an_integer_not_in_plain_decimal(body, tmp_path, capsys):
    # The table would load, but save_table would write other bytes.
    table = tmp_path / "t.csv"
    table.write_text(f"size,episode,freq,starts\n{body}\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert "plain decimal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        ("size,episode,freq,starts\n2,A -1-> B,1,0:1\n\n1,A,1,0:5\n", 3),
        ("size,episode,freq,starts\r\n2,A -1-> B,1,0:1\r\n", 1),
        ("size,episode,freq,starts\n2,A -1-> B,1,0:1", 2),
        ('size,episode,freq,starts\n"2",A -1-> B,1,0:1\n', 2),
        ("size,episode,freq,starts\n#mult 0:3:A=2;0:1:A=2\n1,A,4,0:1;0:1;0:3;0:3\n", 2),
        ("size,episode,freq,starts\n#mult 0:1:A=2;0:1:A=3\n1,A,3,0:1;0:1;0:1\n", 2),
        ("size,episode,freq,starts\n#sequences 1\n1,A,1,0:1\n", 2),
        ("size,episode,freq,starts\n2,A  -1-> B,1,0:1\n", 2),
        ('size,episode,freq,starts\n1,A",1,0:1\n', 2),
    ],
    ids=[
        "blank-line",
        "crlf",
        "no-final-newline",
        "quoted-field",
        "mult-keys-out-of-order",
        "mult-key-repeated",
        "implied-sequence-count",
        "episode-spacing",
        "unquoted-quote-mark",
    ],
)
def test_decode_refuses_a_table_save_table_would_not_write(text, line, tmp_path, capsys):
    # Each table loads to one that save_table writes as other bytes.
    table = tmp_path / "t.csv"
    table.write_bytes(text.encode("utf-8"))
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert f"error: line {line} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, line",
    [
        ("1,A,1,0:x", 2),
        ("2,A -1-> B,1,0:1\n1,A,1,0:1;y:2", 3),
        ("1,A,1", 2),
        ("2,A -0-> B,1,0:1", 2),
        ("#mult 0:1:A=x\n1,A,2,0:1;0:1", 2),
        ("#mult 0:x:A=2\n1,A,2,0:1;0:1", 2),
        ("#sequences x\n1,A,1,0:1", 2),
        ("#mult 0:1:A=2\n#sequences 1x\n1,A,2,0:1;0:1", 3),
        ("#mult 0:1:A=2\n1,B,1,0:2\n1,A,2,0:1;0:x", 4),
    ],
)
def test_decode_names_the_line_of_a_parse_error(body, line, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(f"size,episode,freq,starts\n{body}\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert f"error: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0:1:A", "=2", "0:1=2"])
def test_decode_names_a_malformed_multiplicity_entry(entry, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(f"size,episode,freq,starts\n#mult {entry}\n1,A,2,0:1;0:1\n", "utf-8")
    out = tmp_path / "events.tsv"
    out.write_bytes(b"previous contents\n")
    assert main(["decode", str(table), "-o", str(out)]) == 3
    assert out.read_bytes() == b"previous contents\n"
    assert f"#mult entry {entry!r}" in capsys.readouterr().err


def test_mine_with_a_huge_gap_runs_in_bounded_memory(tmp_path):
    # On the huge_times input the search's windows stay as small as its
    # slots: mine at max_gap 10**12 fits in 1 GiB and its table decodes
    # back to the input, and a gap of 2 * 10**16 finds the candidates that
    # max_gap 16 finds, since no step inside a burst is longer.
    from test_golden import _huge_times_text

    data, table, out = tmp_path / "huge.tsv", tmp_path / "t.csv", tmp_path / "d.tsv"
    data.write_text(_huge_times_text(), "utf-8")
    child = _capped_main("mine", str(data), "--max-gap", "1000000000000", "-o", str(table))
    assert child.returncode == 0, child.stderr
    assert _capped_main("decode", str(table), "-o", str(out)).returncode == 0
    decoded, original = (load_events(io.StringIO(p.read_text("utf-8"))) for p in (out, data))
    assert decoded == original
    dumps = [
        _capped_main("mine", str(data), "--dump-candidates", "--max-gap", gap)
        for gap in ("16", "20000000000000000")
    ]
    assert [d.returncode for d in dumps] == [0, 0], dumps[1].stderr
    assert dumps[0].stdout == dumps[1].stdout and dumps[0].stdout


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


def test_mine_refuses_a_gap_too_long_for_a_64_bit_axis(tmp_path, capsys):
    # The huge_times input spans 10**25 per sequence, so at max_gap 10**20
    # its time axis would pass 2**63.
    from test_golden import _huge_times_text

    data, table = tmp_path / "huge.tsv", tmp_path / "t.csv"
    data.write_text(_huge_times_text(), "utf-8")
    table.write_bytes(b"previous contents\n")
    assert main(["mine", str(data), "--max-gap", "100000000000000000000", "-o", str(table)]) == 3
    assert table.read_bytes() == b"previous contents\n"
    assert "64-bit axis" in capsys.readouterr().err
