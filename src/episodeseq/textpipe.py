"""Text classification with an episode-mined dictionary.

Documents are token sequences; viewing tokens as events (time = token
position) lets the episode miner run over a whole training corpus at once,
with one sequence per document so no episode spans two documents.  The
full vocabulary forms Dictionary-I; the words appearing in the selected
non-singleton episodes form the much smaller Dictionary-II.  Both are
``Alphabet``s: a dictionary is a sub-alphabet of the corpus's events, and
a word's id is its position in the dictionary.  Documents are represented
as tf-idf vectors over either dictionary, held as numpy CSR arrays, and
classified with a multinomial Naive Bayes.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .events import Alphabet, DataValidationError, EventDataset
from .mdl import SelectionState, select
from .occurrences import FrequencyMode


@dataclass(frozen=True)
class PreprocessOptions:
    lowercase: bool = True
    min_len: int = 3
    stopwords: frozenset[str] = frozenset()


_TOKEN = re.compile(r"[A-Za-z0-9]+")


def preprocess(raw_text: str, options: PreprocessOptions = PreprocessOptions()) -> list[str]:
    """Tokenize on non-alphanumeric boundaries and filter.

    Applies lowercasing, then drops tokens shorter than ``min_len`` and
    stopword members.
    """
    text = raw_text.lower() if options.lowercase else raw_text
    return [
        tok
        for tok in _TOKEN.findall(text)
        if len(tok) >= options.min_len and tok not in options.stopwords
    ]


@dataclass(frozen=True)
class Corpus:
    """Labeled token-sequence documents."""

    documents: tuple[tuple[str, ...], ...]
    labels: tuple[int, ...]
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.documents) != len(self.labels):
            raise ValueError("documents and labels must align")
        for label in self.labels:
            if not 0 <= label < len(self.label_names):
                raise ValueError(f"label id {label} outside label names")

    @property
    def n_documents(self) -> int:
        return len(self.documents)


def load_corpus(handle: IO[str]) -> Corpus:
    """Read a pre-tokenized corpus: one ``<label>\\t<tok tok ...>`` per line.

    Empty lines are skipped; any other line without a tab is refused.
    """
    raw: list[tuple[str, tuple[str, ...]]] = []
    for number, line in enumerate(handle, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        label, tab, text = line.partition("\t")
        if not tab:
            raise DataValidationError(f"corpus line {number} has no tab after its label")
        raw.append((label, tuple(text.split())))
    label_names = tuple(sorted({label for label, _ in raw}))
    label_ids = {name: i for i, name in enumerate(label_names)}
    return Corpus(
        tuple(doc for _, doc in raw),
        tuple(label_ids[label] for label, _ in raw),
        label_names,
    )


def save_corpus(corpus: Corpus, handle: IO[str]) -> None:
    for doc, label in zip(corpus.documents, corpus.labels):
        handle.write(f"{corpus.label_names[label]}\t{' '.join(doc)}\n")


def load_corpus_dir(
    root: str | Path,
    split: str,
    options: PreprocessOptions = PreprocessOptions(),
) -> Corpus:
    """Read raw text laid out as ``<root>/<split>/<class>/<docid>.txt``."""
    base = Path(root) / split
    label_names = tuple(sorted(p.name for p in base.iterdir() if p.is_dir()))
    documents: list[tuple[str, ...]] = []
    labels: list[int] = []
    for label_id, name in enumerate(label_names):
        for doc_path in sorted((base / name).glob("*.txt")):
            documents.append(tuple(preprocess(doc_path.read_text("utf-8"), options)))
            labels.append(label_id)
    return Corpus(tuple(documents), tuple(labels), label_names)


def corpus_to_events(train: Corpus) -> EventDataset:
    """One event sequence per document; event time is the token position.

    The alphabet is Dictionary-I, the training vocabulary in sorted order;
    one sequence per document confines episode occurrences to single
    documents.
    """
    if train.n_documents == 0:
        raise ValueError("corpus is empty")
    alphabet = build_dictionary_I(train)
    ids = dict(zip(alphabet.symbols, range(len(alphabet))))
    offsets = np.cumsum([0, *map(len, train.documents)])
    types = np.fromiter(map(ids.__getitem__, chain.from_iterable(train.documents)), np.int64)
    times = np.arange(1, offsets[-1] + 1) - np.repeat(offsets[:-1], np.diff(offsets))
    return EventDataset(offsets, types, times, alphabet)


def build_dictionary_I(corpus: Corpus) -> Alphabet:
    """All unique training words, sorted."""
    return Alphabet.from_names(tok for doc in corpus.documents for tok in doc)


def build_dictionary_II(selection: SelectionState) -> Alphabet:
    """Unique words of the selected episodes of size two or more."""
    words = {
        sym
        for sel in selection.selected
        if sel.episode.length >= 2
        for sym in sel.episode.event_types
    }
    if not words:
        warnings.warn("no non-singleton episodes selected; dictionary is empty")
    return Alphabet.from_names(words)


def mine_dictionary(
    train: Corpus,
    max_gap: int = 5,
    max_episodes: int | None = None,
    mode: FrequencyMode = FrequencyMode.NON_OVERLAPPED,
) -> tuple[Alphabet, SelectionState]:
    """Run the episode miner over the corpus and build Dictionary-II."""
    data = corpus_to_events(train)
    selection = select(data, max_gap, max_episodes, mode)
    return build_dictionary_II(selection), selection


def save_dictionary(dictionary: Alphabet, handle: IO[str]) -> None:
    """One word per line; the line number (from 0) is the word id."""
    for word in dictionary.symbols:
        handle.write(word + "\n")


def load_dictionary(handle: IO[str]) -> Alphabet:
    """The non-blank lines, stripped, in file order; ids follow that order."""
    return Alphabet(tuple(line.strip() for line in handle if line.strip()))


@dataclass(frozen=True)
class FeatureMatrix:
    """Document-term weights over a dictionary, as numpy CSR arrays.

    Document ``r`` holds the weights ``data[indptr[r]:indptr[r + 1]]`` of
    the word ids ``indices[indptr[r]:indptr[r + 1]]``, in ascending id.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dictionary: Alphabet

    @property
    def n_documents(self) -> int:
        return len(self.indptr) - 1


def _term_counts(corpus: Corpus, dictionary: Alphabet) -> FeatureMatrix:
    """Raw word counts per document; out-of-dictionary words are left out."""
    n, docs = len(dictionary), corpus.documents
    ids = dict(zip(dictionary.symbols, range(n)))
    # One document-major key per in-dictionary token: document * n + word id.
    keys = np.array([r * n + ids[w] for r, d in enumerate(docs) for w in d if w in ids], np.intp)
    keys = keys[np.lexsort((keys,))]  # np.sort's quicksort would map 0.3 MiB more code
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    indptr = np.searchsorted(keys[heads], np.arange(len(docs) + 1) * n)
    counts = np.diff(heads, append=len(keys)).astype(float)
    return FeatureMatrix(indptr, keys[heads] % max(n, 1), counts, dictionary)


def compute_idf(corpus: Corpus, dictionary: Alphabet) -> np.ndarray:
    """Inverse document frequency: log((1 + n_d) / (1 + df)) + 1."""
    df = np.bincount(_term_counts(corpus, dictionary).indices, minlength=len(dictionary))
    return np.log((1.0 + corpus.n_documents) / (1.0 + df)) + 1.0


def tfidf(
    corpus: Corpus,
    dictionary: Alphabet,
    idf: np.ndarray,
    weighting: str = "tfidf-cosine",
) -> FeatureMatrix:
    """Document vectors over the dictionary; out-of-dictionary words are ignored.

    Default weighting multiplies word counts by ``idf`` (the training
    split's, also when transforming a test split) and cosine-normalizes
    each row.  ``binary`` weighting records presence/absence instead.
    """
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    if weighting not in ("tfidf-cosine", "binary"):
        raise ValueError(f"unknown weighting {weighting!r}")
    counts = _term_counts(corpus, dictionary)
    indptr, indices = counts.indptr, counts.indices
    if weighting == "binary":
        return FeatureMatrix(indptr, indices, np.ones(len(indices)), dictionary)
    data = counts.data * idf[indices]
    lengths = np.diff(indptr)
    norms = np.zeros(corpus.n_documents)
    # Sums of squares in stored order; reduceat needs the empty rows left out.
    norms[lengths > 0] = np.sqrt(np.add.reduceat(data * data, indptr[:-1][lengths > 0]))
    norms[norms == 0.0] = 1.0
    return FeatureMatrix(indptr, indices, data * np.repeat(1.0 / norms, lengths), dictionary)


@dataclass(frozen=True)
class NBModel:
    """Multinomial Naive Bayes over (possibly fractional) feature weights."""

    class_log_prior: np.ndarray
    feature_log_prob: np.ndarray  # (n_classes, n_features)


def train_nb(features: FeatureMatrix, labels: Sequence[int]) -> NBModel:
    """Fit class priors and add-one smoothed per-class word weight totals."""
    y = np.asarray(labels)
    if features.n_documents != len(y):
        raise ValueError("feature rows and labels must align")
    n_classes = int(y.max()) + 1 if len(y) else 0
    if n_classes < 1:
        raise ValueError("need at least one class")
    counts = np.bincount(y, minlength=n_classes).astype(float)
    if (counts == 0).any():
        raise ValueError("every class id up to the maximum needs examples")
    n_features = len(features.dictionary)
    rows = np.repeat(np.arange(features.n_documents), np.diff(features.indptr))
    # One bin per (class, word), filled in document order.
    bins = y[rows] * n_features + features.indices
    totals = np.bincount(bins, features.data, n_classes * n_features).reshape(n_classes, -1)
    class_log_prior = np.log(counts / counts.sum())
    smoothed = totals + 1.0
    feature_log_prob = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    return NBModel(class_log_prior, feature_log_prob)


def predict(model: NBModel, features: FeatureMatrix) -> np.ndarray:
    """Argmax class posterior per document; ties go to the lowest class id."""
    if len(features.dictionary) != model.feature_log_prob.shape[1]:
        raise ValueError(
            f"feature dimension {len(features.dictionary)} does not match "
            f"model dimension {model.feature_log_prob.shape[1]}"
        )
    rows = np.repeat(np.arange(features.n_documents), np.diff(features.indptr))
    # Per class, each document's weighted log-probabilities in stored order.
    weights = features.data * model.feature_log_prob[:, features.indices]
    scores = np.stack([np.bincount(rows, w, features.n_documents) for w in weights], axis=1)
    return np.argmax(scores + model.class_log_prior, axis=1)


def evaluate(predicted: Sequence[int], truth: Sequence[int]) -> dict[str, float]:
    """Accuracy and macro F-measure (unweighted mean of per-class F1)."""
    pred = np.asarray(predicted)
    y = np.asarray(truth)
    if len(y) == 0:
        raise ValueError("empty evaluation set")
    if len(pred) != len(y):
        raise ValueError("prediction and truth lengths differ")
    accuracy = float((pred == y).mean())
    f_scores = []
    for c in sorted(set(y.tolist()) | set(pred.tolist())):
        tp = int(((pred == c) & (y == c)).sum())
        fp = int(((pred == c) & (y != c)).sum())
        fn = int(((pred != c) & (y == c)).sum())
        denom = 2 * tp + fp + fn
        f_scores.append(2 * tp / denom if denom else 0.0)
    return {"accuracy": accuracy, "macro_f": float(np.mean(f_scores))}


def metrics_csv(rows: Iterable[tuple[str, str, float, float]]) -> str:
    """Render ``dictionary,classifier,accuracy,macro_f`` report lines."""
    lines = ["dictionary,classifier,accuracy,macro_f"]
    for dictionary, classifier, accuracy, macro_f in rows:
        lines.append(f"{dictionary},{classifier},{accuracy:.6f},{macro_f:.6f}")
    return "\n".join(lines) + "\n"
