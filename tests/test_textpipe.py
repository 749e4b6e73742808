import io
import math
import random
import warnings

import numpy as np
import pytest

from episodeseq import (
    Alphabet,
    Corpus,
    DataValidationError,
    FrequencyMode,
    PreprocessOptions,
    build_dictionary_I,
    build_dictionary_II,
    compute_idf,
    corpus_to_events,
    evaluate,
    forced_selection,
    load_corpus,
    load_corpus_dir,
    load_dictionary,
    metrics_csv,
    mine_dictionary,
    parse_episode,
    predict,
    preprocess,
    save_corpus,
    save_dictionary,
    tfidf,
    train_nb,
)
from episodeseq.datasets import make_two_class_corpus
from oracles import (
    dense_class_scores,
    dense_features,
    dense_idf,
    dense_naive_bayes,
    dense_tfidf,
)


def corpus_of(docs, labels, names=("neg", "pos")):
    return Corpus(tuple(tuple(d.split()) for d in docs), tuple(labels), names)


def test_preprocess_drops_short_tokens():
    assert preprocess("The plot, a MESS!") == ["the", "plot", "mess"]


def test_preprocess_empty():
    assert preprocess("") == []


def test_preprocess_keeps_and_the_without_stopwords():
    options = PreprocessOptions(lowercase=True, min_len=3, stopwords=frozenset())
    assert preprocess("and the", options) == ["and", "the"]


def test_preprocess_applies_stopwords_and_case():
    options = PreprocessOptions(lowercase=False, min_len=2, stopwords=frozenset({"of"}))
    assert preprocess("Of of THE cat", options) == ["Of", "THE", "cat"]


def test_corpus_to_events_positions():
    corpus = corpus_of(["a b c d e", "f g h i j"], [0, 1])
    data = corpus_to_events(corpus)
    assert data.n_sequences == 2
    for seq in data.sequences:
        assert [ev.time for ev in seq] == [1, 2, 3, 4, 5]


def test_corpus_to_events_repeated_token():
    corpus = corpus_of(["aa bb aa"], [0])
    data = corpus_to_events(corpus)
    assert [(ev.time, data.event_name(ev)) for ev in data.sequences[0]] == [
        (1, "aa"),
        (2, "bb"),
        (3, "aa"),
    ]


def test_dictionary_ii_from_selection():
    corpus = corpus_of(["aa bb cc bb dd"], [0])
    data = corpus_to_events(corpus)
    selection = forced_selection(
        data,
        [parse_episode("aa -1-> bb -2-> dd"), parse_episode("bb -1-> cc")],
        FrequencyMode.DISTINCT,
    )
    d2 = build_dictionary_II(selection)
    assert set(d2.symbols) == {"aa", "bb", "cc", "dd"}


def test_dictionary_ii_empty_warns():
    corpus = corpus_of(["aa bb"], [0])
    data = corpus_to_events(corpus)
    selection = forced_selection(data, [parse_episode("aa")])
    with pytest.warns(UserWarning):
        d2 = build_dictionary_II(selection)
    assert len(d2) == 0


def test_dictionary_ii_subset_of_dictionary_i():
    train, _ = make_two_class_corpus(n_train=60, n_test=10)
    d1 = build_dictionary_I(train)
    d2, _ = mine_dictionary(train, max_gap=3)
    assert set(d2.symbols) <= set(d1.symbols)


def test_idf_formula():
    corpus = corpus_of(["w x", "w y", "w z"], [0, 0, 1])
    d = build_dictionary_I(corpus)
    idf = compute_idf(corpus, d)
    assert idf[d.index("w")] == pytest.approx(1.0)  # in every document
    assert idf[d.index("x")] == pytest.approx(math.log(4 / 2) + 1)


def test_tfidf_rows_unit_norm():
    corpus = corpus_of(["w w x y", "x z z z", "w"], [0, 1, 0])
    d = build_dictionary_I(corpus)
    dense = dense_features(tfidf(corpus, d, compute_idf(corpus, d)))
    norms = np.sqrt((dense * dense).sum(axis=1))
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_tfidf_uses_train_df_for_test():
    train = corpus_of(["w x", "w y"], [0, 1])
    test = corpus_of(["w w"], [0])
    d = build_dictionary_I(train)
    idf = compute_idf(train, d)
    out = tfidf(test, d, idf)
    # single-word document: unit mass on w regardless of idf scale
    assert dense_features(out)[0, d.index("w")] == pytest.approx(1.0)
    # but the raw weight reflects the training idf, not the test df
    raw = tfidf(test, d, idf, weighting="binary")
    assert dense_features(raw)[0, d.index("w")] == 1.0


def test_tfidf_document_order_invariance():
    docs = ["w x y", "x z", "w w z"]
    c1 = corpus_of(docs, [0, 1, 0])
    c2 = corpus_of(list(reversed(docs)), [0, 1, 0])
    d = build_dictionary_I(c1)
    m1 = dense_features(tfidf(c1, d, compute_idf(c1, d)))
    m2 = dense_features(tfidf(c2, d, compute_idf(c2, d)))
    assert np.allclose(m1, m2[::-1])


def test_binary_weighting_is_zero_one():
    corpus = corpus_of(["w w x", "y"], [0, 1])
    d = build_dictionary_I(corpus)
    features = tfidf(corpus, d, compute_idf(corpus, d), weighting="binary")
    assert set(np.unique(dense_features(features))) <= {0.0, 1.0}


def test_projection_never_increases_unnormalized_norm():
    train, _ = make_two_class_corpus(n_train=40, n_test=10)
    d1 = build_dictionary_I(train)
    idf1 = compute_idf(train, d1)
    d2, _ = mine_dictionary(train, max_gap=3)
    if len(d2) == 0:
        pytest.skip("no mined dictionary on this tiny split")
    idf2 = compute_idf(train, d2)

    def raw_norms(dictionary, idf):
        rows = []
        for doc in train.documents:
            weights = {}
            for tok in doc:
                if tok in dictionary:
                    weights[tok] = weights.get(tok, 0) + 1
            rows.append(
                math.sqrt(
                    sum(
                        (count * idf[dictionary.index(tok)]) ** 2
                        for tok, count in weights.items()
                    )
                )
            )
        return rows

    for n1, n2 in zip(raw_norms(d1, idf1), raw_norms(d2, idf2)):
        assert n2 <= n1 + 1e-12


def _oracle_cases(n_cases):
    """Seeded (train, test, dictionary) triples: two-class corpora and
    small-vocabulary corpora with up to three classes and empty documents;
    Dictionary-I, a shuffled sub-dictionary with an unseen word, and, on
    the two-class corpora, the mined Dictionary-II."""
    for seed in range(n_cases):
        rng = random.Random(seed)
        if seed % 2:
            train, test = make_two_class_corpus(
                n_train=rng.randint(5, 30), n_test=10, seed=seed
            )
        else:
            n_classes = rng.randint(2, 3)
            vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]

            def random_corpus(n_docs):
                labels = [i % n_classes for i in range(n_docs)]
                rng.shuffle(labels)
                docs = [" ".join(rng.choices(vocab, k=rng.randint(0, 8))) for _ in labels]
                return corpus_of(docs, labels, names=("c0", "c1", "c2")[:n_classes])

            train, test = random_corpus(rng.randint(n_classes, 12)), random_corpus(8)
        d1 = build_dictionary_I(train)
        yield train, test, d1
        words = rng.sample(d1.symbols, rng.randint(1, len(d1))) + ["unseen"]
        rng.shuffle(words)
        yield train, test, Alphabet(tuple(words))
        if seed % 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                d2, _ = mine_dictionary(train, max_gap=3)
            if len(d2):
                yield train, test, d2


@pytest.mark.parametrize("weighting", ["tfidf-cosine", "binary"])
def test_text_pipeline_matches_dense_oracle(weighting):
    for train, test, d in _oracle_cases(40):
        idf = compute_idf(train, d)
        assert np.array_equal(idf, dense_idf(train, d))
        features = tfidf(train, d, idf, weighting)
        dense = dense_tfidf(train, d, idf, weighting)
        assert np.allclose(dense_features(features), dense, rtol=1e-12, atol=0.0)
        model = train_nb(features, train.labels)
        prior, log_prob = dense_naive_bayes(dense, train.labels)
        assert np.allclose(model.class_log_prior, prior, rtol=1e-12, atol=0.0)
        assert np.allclose(model.feature_log_prob, log_prob, rtol=1e-12, atol=0.0)
        scores = dense_class_scores(dense_tfidf(test, d, idf, weighting), prior, log_prob)
        top_two = np.sort(scores, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-9
        predicted = predict(model, tfidf(test, d, idf, weighting))
        assert (predicted[clear] == np.argmax(scores, axis=1)[clear]).all()


def test_nb_separable_corpus_is_perfect():
    train = corpus_of(["cat cat purr", "cat purr", "dog bark", "dog dog bark"], [0, 0, 1, 1])
    test = corpus_of(["purr cat", "bark dog"], [0, 1])
    d = build_dictionary_I(train)
    idf = compute_idf(train, d)
    model = train_nb(tfidf(train, d, idf), train.labels)
    metrics = evaluate(predict(model, tfidf(test, d, idf)), test.labels)
    assert metrics["accuracy"] == 1.0 and metrics["macro_f"] == 1.0


def test_nb_memorizes_single_doc_per_class():
    train = corpus_of(["alpha beta", "gamma delta"], [0, 1])
    d = build_dictionary_I(train)
    idf = compute_idf(train, d)
    features = tfidf(train, d, idf)
    model = train_nb(features, train.labels)
    assert evaluate(predict(model, features), train.labels)["accuracy"] == 1.0


def test_evaluate_constant_predictor():
    metrics = evaluate([0, 0, 0, 0], [0, 0, 1, 1])
    assert metrics["accuracy"] == 0.5
    assert metrics["macro_f"] == pytest.approx(1 / 3)


def test_evaluate_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([0], [0, 1])


def test_nb_invariant_to_all_zero_column():
    train = corpus_of(["w x w", "y z", "w x", "z y y"], [0, 0, 1, 1])
    test = corpus_of(["w x x", "y z z"], [0, 1])
    d_small = build_dictionary_I(train)
    d_big = Alphabet(d_small.symbols + ("unused",))
    preds = []
    for d in (d_small, d_big):
        idf = compute_idf(train, d)
        model = train_nb(tfidf(train, d, idf), train.labels)
        preds.append(predict(model, tfidf(test, d, idf)).tolist())
    assert preds[0] == preds[1]


def test_predict_rejects_dimension_mismatch():
    train = corpus_of(["w x", "y z"], [0, 1])
    d = build_dictionary_I(train)
    model = train_nb(tfidf(train, d, compute_idf(train, d)), train.labels)
    other = Alphabet(("w",))
    with pytest.raises(ValueError):
        predict(model, tfidf(train, other, compute_idf(train, other)))


def test_corpus_file_roundtrip():
    corpus = corpus_of(["aa bb", "cc dd"], [0, 1])
    out = io.StringIO()
    save_corpus(corpus, out)
    again = load_corpus(io.StringIO(out.getvalue()))
    assert again.documents == corpus.documents
    assert again.labels == corpus.labels
    assert again.label_names == corpus.label_names


def test_load_corpus_refuses_a_line_without_a_tab():
    with pytest.raises(DataValidationError, match="line 3"):
        load_corpus(io.StringIO("pos\taa bb\n\nneg cc dd\n"))


def test_corpus_dir_layout(tmp_path):
    for cls, text in (("spam", "Buy NOW buy"), ("ham", "hello old friend")):
        d = tmp_path / "train" / cls
        d.mkdir(parents=True)
        (d / "doc0.txt").write_text(text, "utf-8")
    corpus = load_corpus_dir(tmp_path, "train")
    assert corpus.label_names == ("ham", "spam")
    assert corpus.documents == (("hello", "old", "friend"), ("buy", "now", "buy"))


def test_dictionary_file_roundtrip():
    d = load_dictionary(io.StringIO("aa\nbb\n"))
    assert d.symbols == ("aa", "bb")
    out = io.StringIO()
    save_dictionary(d, out)
    assert out.getvalue() == "aa\nbb\n"


def test_metrics_csv_format():
    text = metrics_csv([("I", "naive-bayes", 0.9125, 0.9)])
    assert text == "dictionary,classifier,accuracy,macro_f\nI,naive-bayes,0.912500,0.900000\n"
