"""Command-line interface for batch mining, coding, simulation, and text runs.

Every subcommand is a pure function of its input files, flags, and seed:
re-running with identical inputs produces byte-identical outputs.  Exit
codes: 2 for argument parse errors, 3 for validation errors, 4 for I/O
errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import contextmanager
from typing import IO

from .events import (
    DataValidationError,
    EpisodeSyntaxError,
    dump_events,
    load_events,
    parse_episode,
    parse_serial_episode,
)
from .hmm import (
    StateId,
    PairStats,
    build_model,
    compare_pairs,
    default_pair_alphabet,
    joint_log_likelihood,
    model_summary,
    overlap_score_1,
    overlap_score_2,
    simulate,
    viterbi,
)
from .mdl import (
    TableFormatError,
    decode,
    encode,
    forced_selection,
    load_table,
    save_table,
    select,
    total_length,
)
from .occurrences import FrequencyMode
from .textpipe import (
    build_dictionary_I,
    evaluate,
    load_corpus,
    load_dictionary,
    metrics_csv,
    mine_dictionary,
    compute_idf,
    predict,
    save_dictionary,
    tfidf,
    train_nb,
)

EXIT_VALIDATION = 3
EXIT_IO = 4


@contextmanager
def _open_out(path: str | None):
    """Stdout, or a buffer written to ``path`` only if the body succeeds.

    A command that fails part-way leaves an existing output file as it was.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    buffer = io.StringIO()
    yield buffer
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


@contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle


def _mode(text: str) -> FrequencyMode:
    return FrequencyMode(text)


def _cmd_mine(args: argparse.Namespace) -> int:
    with _open_in(args.data) as handle:
        data = load_events(handle)
    mode = _mode(args.freq_mode)
    if args.dump_candidates:
        from .candidates import generate_candidates

        candidates = generate_candidates(data, args.max_gap, mode)
        with _open_out(args.out) as out:
            for cand in candidates:
                out.write(f"{cand.key}\t{cand.frequency}\t{cand.score}\n")
        return 0
    if args.force_episodes:
        with _open_in(args.force_episodes) as handle:
            episodes = [
                parse_episode(line.strip(), data.alphabet)
                for line in handle
                if line.strip()
            ]
        selection = forced_selection(data, episodes, mode)
    else:
        selection = select(data, args.max_gap, args.top_k, mode)
    table = encode(data, selection)
    with _open_out(args.out) as out:
        save_table(table, out)
    print(
        f"selected {len(selection.selected)} episode(s); "
        f"total encoded length {total_length(table)} units",
        file=sys.stderr,
    )
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with _open_in(args.table) as handle:
        table = load_table(handle)
    # Refused before decode allocates the sequences that no row refers to.
    if len({seq for row in table.rows for seq, _ in row.starts}) < table.n_sequences:
        raise DataValidationError("an event file cannot hold an empty sequence")
    data = decode(table)
    with _open_out(args.out) as out:
        dump_events(data, out)
    return 0


def _build_pair_model(args: argparse.Namespace):
    alpha = parse_serial_episode(args.alpha)
    beta = parse_serial_episode(args.beta)
    alphabet = default_pair_alphabet(alpha, beta, args.alphabet_size)
    return build_model(alpha, beta, alphabet, args.eta)


def _cmd_hmm_sim(args: argparse.Namespace) -> int:
    model = _build_pair_model(args)
    traj = simulate(model, args.length, args.seed)
    if args.model_out:
        with _open_out(args.model_out) as out:
            json.dump(model_summary(model), out, indent=2)
            out.write("\n")
    with _open_out(args.out) as out:
        out.write(" ".join(model.state(idx).label() for idx in traj.states) + "\n")
        out.write(
            " ".join(model.alphabet.name(sym) for sym in traj.outputs) + "\n"
        )
    return 0


def _read_trajectory(handle: IO[str]) -> tuple[list[str], list[str]]:
    lines = [line.strip() for line in handle if line.strip()]
    if len(lines) != 2:
        raise DataValidationError(
            "trajectory file must hold two lines: states, then symbols"
        )
    states = lines[0].split()
    symbols = lines[1].split()
    if len(states) != len(symbols):
        raise DataValidationError("state and symbol lines must align")
    return states, symbols


def _cmd_hmm_score(args: argparse.Namespace) -> int:
    model = _build_pair_model(args)
    with _open_in(args.trajectory) as handle:
        state_labels, symbol_names = _read_trajectory(handle)
    states = [
        model.state_index(StateId.from_label(label)) for label in state_labels
    ]
    outputs = [model.alphabet.index(name) for name in symbol_names]
    with _open_out(args.out) as out:
        out.write(
            f"joint_log_likelihood\t{joint_log_likelihood(model, outputs, states):.10f}\n"
        )
        if args.viterbi:
            best = viterbi(model, outputs)
            out.write(
                f"viterbi_log_likelihood\t{joint_log_likelihood(model, outputs, best):.10f}\n"
            )
            out.write(
                "viterbi_states\t"
                + " ".join(model.state(idx).label() for idx in best)
                + "\n"
            )
    return 0


def _cmd_hmm_compare(args: argparse.Namespace) -> int:
    beta = PairStats(args.n_nodes, args.f_alpha, args.f_beta, args.o_beta)
    gamma = PairStats(args.n_nodes, args.f_alpha, args.f_gamma, args.o_gamma)
    result = compare_pairs(beta, gamma, args.eta, args.alphabet_size)
    with _open_out(args.out) as out:
        out.write(f"log_ratio\t{result.log_ratio:.10f}\n")
        out.write(f"preferred\t{result.preferred}\n")
        for name, stats in (("beta", beta), ("gamma", gamma)):
            s1 = overlap_score_1(stats.n_nodes, stats.f_second, stats.shared_events)
            s2 = overlap_score_2(stats.n_nodes, stats.f_second, stats.shared_events)
            out.write(f"overlap_score_1[{name}]\t{s1}\n")
            out.write(f"overlap_score_2[{name}]\t{s2}\n")
    return 0


def _cmd_dict(args: argparse.Namespace) -> int:
    with _open_in(args.corpus) as handle:
        train = load_corpus(handle)
    dictionary, selection = mine_dictionary(
        train, args.max_gap, args.top_k, _mode(args.freq_mode)
    )
    with _open_out(args.out) as out:
        save_dictionary(dictionary, out)
    print(
        f"selected {len(selection.selected)} episode(s); "
        f"dictionary size {len(dictionary)} "
        f"(max_gap={args.max_gap}, top_k={args.top_k}, mode={args.freq_mode})",
        file=sys.stderr,
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    with _open_in(args.train) as handle:
        train = load_corpus(handle)
    with _open_in(args.test) as handle:
        test = load_corpus(handle)
    unseen = sorted(set(test.label_names) - set(train.label_names))
    if unseen:
        raise DataValidationError(f"test labels not in the training set: {unseen}")
    train_id = {name: i for i, name in enumerate(train.label_names)}
    truth = [train_id[test.label_names[label]] for label in test.labels]
    if args.dictionary:
        with _open_in(args.dictionary) as handle:
            dictionary = load_dictionary(handle)
    else:
        dictionary = build_dictionary_I(train)
    idf = compute_idf(train, dictionary)
    train_features = tfidf(train, dictionary, idf, args.weighting)
    test_features = tfidf(test, dictionary, idf, args.weighting)
    model = train_nb(train_features, train.labels)
    metrics = evaluate(predict(model, test_features), truth)
    with _open_out(args.out) as out:
        out.write(
            metrics_csv(
                [
                    (
                        "II" if args.dictionary else "I",
                        "naive-bayes",
                        metrics["accuracy"],
                        metrics["macro_f"],
                    )
                ]
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episodeseq",
        description="Event-sequence summarization with fixed-interval episodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="select episodes and emit the encoding table")
    mine.add_argument("data", help="event data file ('-' for stdin)")
    mine.add_argument("--max-gap", "-g", type=int, default=5)
    mine.add_argument("--top-k", "-k", type=int, default=None)
    mine.add_argument(
        "--freq-mode",
        choices=[m.value for m in FrequencyMode],
        default=FrequencyMode.NON_OVERLAPPED.value,
    )
    mine.add_argument(
        "--force-episodes",
        metavar="FILE",
        help="skip selection; encode with the episodes listed in FILE",
    )
    mine.add_argument(
        "--dump-candidates",
        action="store_true",
        help="print '<episode>\\t<f>\\t<score>' candidate lines and exit",
    )
    mine.add_argument("--out", "-o", default=None)
    mine.set_defaults(func=_cmd_mine)

    dec = sub.add_parser("decode", help="expand an encoding table back to events")
    dec.add_argument("table", help="encoding table CSV ('-' for stdin)")
    dec.add_argument("--out", "-o", default=None)
    dec.set_defaults(func=_cmd_decode)

    pair_common = argparse.ArgumentParser(add_help=False)
    pair_common.add_argument("--alpha", required=True, help="e.g. 'A -> B -> C'")
    pair_common.add_argument("--beta", required=True)
    pair_common.add_argument("--alphabet-size", type=int, required=True)
    pair_common.add_argument("--eta", type=float, required=True)

    sim = sub.add_parser(
        "hmm-sim", parents=[pair_common], help="sample from an episode-pair model"
    )
    sim.add_argument("--length", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--model-out", metavar="FILE", default=None)
    sim.add_argument("--out", "-o", default=None)
    sim.set_defaults(func=_cmd_hmm_sim)

    hscore = sub.add_parser(
        "hmm-score", parents=[pair_common], help="score a dumped trajectory"
    )
    hscore.add_argument("trajectory", help="two-line trajectory file")
    hscore.add_argument("--viterbi", action="store_true")
    hscore.add_argument("--out", "-o", default=None)
    hscore.set_defaults(func=_cmd_hmm_score)

    hcmp = sub.add_parser(
        "hmm-compare", help="compare two pairings by likelihood ratio"
    )
    hcmp.add_argument("--n-nodes", type=int, required=True)
    hcmp.add_argument("--f-alpha", type=int, default=0)
    hcmp.add_argument("--f-beta", type=int, required=True)
    hcmp.add_argument("--o-beta", type=int, required=True)
    hcmp.add_argument("--f-gamma", type=int, required=True)
    hcmp.add_argument("--o-gamma", type=int, required=True)
    hcmp.add_argument("--eta", type=float, required=True)
    hcmp.add_argument("--alphabet-size", type=int, required=True)
    hcmp.add_argument("--out", "-o", default=None)
    hcmp.set_defaults(func=_cmd_hmm_compare)

    dct = sub.add_parser("dict", help="mine a reduced dictionary from a corpus")
    dct.add_argument("corpus", help="corpus file: '<label>\\t<tok tok ...>' lines")
    dct.add_argument("--max-gap", "-g", type=int, default=5)
    dct.add_argument("--top-k", "-k", type=int, default=None)
    dct.add_argument(
        "--freq-mode",
        choices=[m.value for m in FrequencyMode],
        default=FrequencyMode.NON_OVERLAPPED.value,
    )
    dct.add_argument("--out", "-o", default=None)
    dct.set_defaults(func=_cmd_dict)

    cls = sub.add_parser("classify", help="train and evaluate the NB classifier")
    cls.add_argument("--train", required=True)
    cls.add_argument("--test", required=True)
    cls.add_argument(
        "--dictionary",
        default=None,
        help="word list file; defaults to the full training vocabulary",
    )
    cls.add_argument(
        "--weighting", choices=["tfidf-cosine", "binary"], default="tfidf-cosine"
    )
    cls.add_argument("--out", "-o", default=None)
    cls.set_defaults(func=_cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        EpisodeSyntaxError,
        DataValidationError,
        TableFormatError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
