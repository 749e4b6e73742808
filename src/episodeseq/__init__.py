"""Event-sequence summarization with fixed-interval serial episodes.

The package selects a small, non-redundant episode set by lossless-coding
benefit, validates the selection rule against an episode-pair generative
model, and applies the miner as an unsupervised dictionary-learning step
for text classification.
"""

from .events import (
    Alphabet,
    DataValidationError,
    EpisodeSyntaxError,
    Event,
    EventDataset,
    FixedIntervalEpisode,
    SerialEpisode,
    dump_events,
    format_episode,
    load_events,
    parse_episode,
    parse_serial_episode,
    span,
)
from .occurrences import (
    CoverIntegrityError,
    FrequencyMode,
    OccurrenceList,
    count_no_general,
    cover,
    find_distinct_starts,
    find_no_occurrences,
    occurrences_for_mode,
)
from .mdl import (
    EncodingTable,
    SelectedEpisode,
    SelectionState,
    TableFormatError,
    TableRow,
    decode,
    encode,
    forced_selection,
    load_table,
    overlap_score,
    save_table,
    score,
    select,
    total_length,
)
from .candidates import Candidate, generate_candidates
from .hmm import (
    EpisodePairModel,
    PairComparison,
    PairStats,
    StateId,
    StateKind,
    Trajectory,
    build_model,
    closed_form_case1,
    closed_form_case2,
    closed_form_decomposed,
    compare_pairs,
    default_pair_alphabet,
    eta_upper_bound,
    joint_log_likelihood,
    model_summary,
    overlap_score_1,
    overlap_score_2,
    simulate,
    trajectory_counts,
    trajectory_dataset,
    trajectory_stats,
    viterbi,
)
from .textpipe import (
    Corpus,
    FeatureMatrix,
    NBModel,
    PreprocessOptions,
    build_dictionary_I,
    build_dictionary_II,
    compute_idf,
    corpus_to_events,
    evaluate,
    load_corpus,
    load_corpus_dir,
    load_dictionary,
    metrics_csv,
    mine_dictionary,
    predict,
    preprocess,
    save_corpus,
    save_dictionary,
    tfidf,
    train_nb,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
