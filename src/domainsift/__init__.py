"""Lexical detection of algorithmically generated and typosquatting domains.

The pipeline: normalize raw hostnames to a comparable label, extract eight
character-level features, then either train a 5-classifier majority-vote
ensemble on labeled data or cluster an unlabeled corpus with k-means and
cross-check the two views of the same corpus.
"""

from .analytics import (
    UndefinedCorrelationError,
    correlation,
    correlation_table,
    histogram_pdf,
    summarize,
)
from .base import NotFittedError, clone, corpus_fingerprint
from .cluster import KMeans, cluster_report
from .corpus import (
    CorpusSource,
    DomainError,
    DomainRecord,
    ParseError,
    dedupe,
    normalize_domain,
    parse_census_lines,
    parse_labeled_csv,
)
from .ensemble import MajorityVoteEnsemble
from .evaluate import (
    ConfusionMatrix,
    Metrics,
    confusion,
    cross_validate,
    evaluate_all,
    metrics,
    stratified_kfold,
    stratified_split,
)
from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    FeatureExtractor,
    domain_features,
    extract_features,
)
from .learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from .model_io import ModelFormatError, ModelIOError, load_model, save_model
from .preprocessing import Standardizer
from .reputation import (
    HTTPReputationProvider,
    LocalListProvider,
    ReputationResult,
    check,
    sample_and_check,
)
from .synthetic import generate_labeled_corpus

__version__ = "0.1.0"

__all__ = [
    "C45Tree",
    "ConfusionMatrix",
    "CorpusSource",
    "DomainError",
    "DomainRecord",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "GaussianNaiveBayes",
    "HTTPReputationProvider",
    "KMeans",
    "KNNClassifier",
    "LocalListProvider",
    "LogisticRegressionGD",
    "MajorityVoteEnsemble",
    "Metrics",
    "ModelFormatError",
    "ModelIOError",
    "N_FEATURES",
    "NotFittedError",
    "ParseError",
    "PegasosSVM",
    "ReputationResult",
    "Standardizer",
    "UndefinedCorrelationError",
    "check",
    "clone",
    "cluster_report",
    "confusion",
    "correlation",
    "correlation_table",
    "corpus_fingerprint",
    "cross_validate",
    "dedupe",
    "domain_features",
    "evaluate_all",
    "extract_features",
    "generate_labeled_corpus",
    "histogram_pdf",
    "load_model",
    "metrics",
    "normalize_domain",
    "parse_census_lines",
    "parse_labeled_csv",
    "sample_and_check",
    "save_model",
    "stratified_kfold",
    "stratified_split",
    "summarize",
    "__version__",
]
