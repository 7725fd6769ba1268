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
from .base import NotFittedError
from .cluster import KMeans
from .corpus import (
    DomainError,
    DomainTable,
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
    evaluate_all,
    metrics,
    stratified_kfold,
    stratified_split,
)
from .features import (
    FEATURE_NAMES,
    N_FEATURES,
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
from .synthetic import generate_labeled_corpus

__version__ = "0.1.0"

__all__ = [
    "C45Tree",
    "ConfusionMatrix",
    "DomainError",
    "DomainTable",
    "FEATURE_NAMES",
    "GaussianNaiveBayes",
    "KMeans",
    "KNNClassifier",
    "LogisticRegressionGD",
    "MajorityVoteEnsemble",
    "Metrics",
    "ModelFormatError",
    "ModelIOError",
    "N_FEATURES",
    "NotFittedError",
    "ParseError",
    "PegasosSVM",
    "Standardizer",
    "UndefinedCorrelationError",
    "confusion",
    "correlation",
    "correlation_table",
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
    "save_model",
    "stratified_kfold",
    "stratified_split",
    "summarize",
    "__version__",
]
