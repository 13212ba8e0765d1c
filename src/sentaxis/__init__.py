"""Sentiment-axis lexicon induction from word embeddings, with a PMI baseline."""

from .axis import (
    AxisProjection,
    DistanceMatrix,
    OrientationLexicon,
    SentimentAxis,
    build_distance_matrix,
    build_reference_vectors,
    orient_by_seed,
    partition_by_lexicon,
    partition_by_origin,
    principal_axis,
    score_vocabulary,
)
from .corpus import (
    FreqTable,
    PolarityLexicon,
    TaggedCorpus,
    TaggedDocument,
    TaggedToken,
    count_frequencies,
    load_labeled_reviews,
    load_polarity_lexicon,
    load_tagged_corpus,
)
from .evaluation import (
    EvalReport,
    PipelineConfig,
    SweepRow,
    classify_review,
    evaluate,
    evaluate_pmi,
    run_pipeline,
    sweep_cutoffs,
)
from .patterns import (
    PatternRule,
    PhraseOccurrence,
    PointWordSet,
    TagVarianceReport,
    builtin_rules,
    extract_phrases,
    select_point_words,
    tag_polarity_variance,
)
from .pmi import NearIndex, PhraseSO, build_near_index, classify_review_pmi, hits, so_phrase
from .sgns import SgnsConfig, train_sgns
from .vectors import (
    EmbeddingTable,
    cosine_distance,
    cosine_similarity,
    load_embeddings,
    save_embeddings,
)

__version__ = "0.1.0"
