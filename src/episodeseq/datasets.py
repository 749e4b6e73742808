"""Bundled sample data and seeded synthetic corpus generators.

The sample event sequence and its demonstration episode set live as data
files inside the package.  The corpus generators are deterministic given a
seed, so the benchmark corpora used by the test suite are reproducible
without shipping large files.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .events import EventDataset, FixedIntervalEpisode, load_events, parse_episode
from .textpipe import Corpus

PLANTED_CORPUS_SEED = 7
TWO_CLASS_CORPUS_SEED = 11


def sample_sequence_text() -> str:
    return (
        resources.files("episodeseq.data")
        .joinpath("sample_sequence.tsv")
        .read_text("utf-8")
    )


def sample_dataset() -> EventDataset:
    """The bundled 15-event demonstration sequence."""
    import io

    return load_events(io.StringIO(sample_sequence_text()))


def sample_selection() -> tuple[FixedIntervalEpisode, ...]:
    """The three episodes used to demonstrate the encoding table."""
    text = (
        resources.files("episodeseq.data")
        .joinpath("sample_selection.txt")
        .read_text("utf-8")
    )
    return tuple(parse_episode(line) for line in text.splitlines() if line.strip())


_PLANTED_EPISODES = (
    ("solar -1-> panel -1-> grid"),
    ("battery -1-> charge -2-> cycle"),
    ("wind -2-> turbine -1-> blade"),
    ("fuel -1-> cell -1-> stack"),
    ("hydro -2-> dam -2-> flow"),
)

_PLANTED_NOISE_WORDS = (
    "table chair window door floor ceiling garden fence road bridge "
    "river stone cloud crayon pencil bottle basket candle mirror clock "
    "ladder hammer engine wheel rope nail brick tile lamp shelf "
    "curtain carpet drawer pillow blanket kettle spoon plate knife fork"
).split()


def planted_episodes() -> tuple[FixedIntervalEpisode, ...]:
    """The five fixed-interval episodes hidden in the planted corpus."""
    return tuple(parse_episode(text) for text in _PLANTED_EPISODES)


def make_planted_corpus(
    n_documents: int = 200,
    occurrences_per_episode: int = 52,
    noise_fraction: float = 0.30,
    seed: int = PLANTED_CORPUS_SEED,
) -> Corpus:
    """Corpus of short documents carrying planted fixed-interval episodes.

    Each planted episode occurs ``occurrences_per_episode`` times across
    the corpus; roughly ``noise_fraction`` of all tokens are filler words
    drawn uniformly from a vocabulary disjoint from the planted words.
    Occurrences inside a document never interleave.
    """
    rng = np.random.default_rng(seed)
    episodes = planted_episodes()
    assignments = [
        idx for idx in range(len(episodes)) for _ in range(occurrences_per_episode)
    ]
    rng.shuffle(assignments)
    per_doc: list[list[int]] = [[] for _ in range(n_documents)]
    for k, ep_idx in enumerate(assignments):
        per_doc[k % n_documents].append(ep_idx)

    def noise_word() -> str:
        return _PLANTED_NOISE_WORDS[rng.integers(0, len(_PLANTED_NOISE_WORDS))]

    documents = []
    for doc_eps in per_doc:
        tokens: list[str] = []
        planted_tokens = 0
        for ep_idx in doc_eps:
            episode = episodes[ep_idx]
            tokens.append(episode.event_types[0])
            for gap, sym in zip(episode.gaps, episode.event_types[1:]):
                tokens.extend(noise_word() for _ in range(gap - 1))
                tokens.append(sym)
            planted_tokens += episode.length
            tokens.extend(noise_word() for _ in range(int(rng.integers(1, 5))))
        # Pad with filler until the noise share reaches the target.
        while (len(tokens) - planted_tokens) < noise_fraction * len(tokens) + 1:
            if rng.random() < 0.5:
                tokens.insert(0, noise_word())
            else:
                tokens.append(noise_word())
        documents.append(tuple(tokens))
    return Corpus(tuple(documents), (0,) * n_documents, ("all",))


_CLASS_PHRASES = {
    "nature": (
        ("fresh", "mountain", "air"),
        ("quiet", "forest", "trail"),
        ("clear", "lake", "water"),
        ("green", "valley", "meadow"),
    ),
    "urban": (
        ("busy", "city", "street"),
        ("loud", "subway", "train"),
        ("bright", "neon", "sign"),
        ("tall", "office", "tower"),
    ),
}

_SHARED_PHRASES = (
    ("daily", "weather", "report"),
    ("local", "radio", "update"),
)


def _filler_vocabulary(size: int = 400) -> tuple[str, ...]:
    return tuple(f"filler{k:03d}" for k in range(size))


def make_two_class_corpus(
    n_train: int = 260,
    n_test: int = 80,
    seed: int = TWO_CLASS_CORPUS_SEED,
) -> tuple[Corpus, Corpus]:
    """Two-class corpus whose signal lives in recurring word phrases.

    Class-specific three-word phrases recur corpus-wide; a large
    label-independent filler vocabulary inflates the full dictionary
    without adding signal, which is what the mined dictionary prunes.
    """
    rng = np.random.default_rng(seed)
    filler = _filler_vocabulary()
    label_names = tuple(sorted(_CLASS_PHRASES))

    def make_doc(label: int) -> tuple[str, ...]:
        phrases = _CLASS_PHRASES[label_names[label]]
        tokens: list[str] = []
        n_phrases = int(rng.integers(2, 4))
        picks = rng.choice(len(phrases), size=n_phrases, replace=False)
        chunks = [list(phrases[p]) for p in picks]
        if rng.random() < 0.5:
            chunks.append(list(_SHARED_PHRASES[int(rng.integers(0, len(_SHARED_PHRASES)))]))
        rng.shuffle(chunks)
        for chunk in chunks:
            tokens.extend(chunk)
            tokens.extend(
                filler[int(rng.integers(0, len(filler)))]
                for _ in range(int(rng.integers(1, 4)))
            )
        for _ in range(int(rng.integers(2, 5))):
            tokens.insert(
                int(rng.integers(0, len(tokens) + 1)),
                filler[int(rng.integers(0, len(filler)))],
            )
        return tuple(tokens)

    def make_split(n_docs: int) -> Corpus:
        labels = tuple(int(rng.integers(0, 2)) for _ in range(n_docs))
        docs = tuple(make_doc(label) for label in labels)
        return Corpus(docs, labels, label_names)

    return make_split(n_train), make_split(n_test)
