"""Nearest shrunken centroid classification toolkit.

Provides the shrunken-centroid classifier with three interchangeable
thresholding rules (soft, hard, order), cross-validation based threshold
tuning with an interval-narrowing deep search, a Sum-of-Ranking-Differences
(SRD) engine for comparing classifier variants across datasets, and a
seeded benchmark harness with synthetic data generation.
"""

from .errors import (
    DeepSearchError,
    DegenerateDesignError,
    DegenerateVarianceError,
    ParseError,
    ValidationError,
)
from .data import Dataset, fold_count, load_matrix, save_matrix, stratified_folds
from .thresholds import (
    ThresholdRule,
    apply_rule,
    hard,
    order,
    parse_rule,
    soft,
    threshold_grid,
)
from .model import (
    CentroidStats,
    ShrunkenModel,
    discriminant_scores,
    fit_statistics,
    load_model,
    predict,
    predict_labels,
    save_model,
    shrink,
)
from .tuning import (
    CvCurve,
    CvPoint,
    DeepSearchTrace,
    cross_validate,
    deep_search,
    select_smallest,
)
from .srd import (
    PerformanceMatrix,
    SrdResult,
    exact_null_distribution,
    golden_standard,
    max_srd,
    normal_approx_null,
    rank_vector,
    srd,
    srd_loo,
    srd_report,
)
from .bench import (
    Aggregate,
    RunRecord,
    SynthSpec,
    aggregate,
    generate_synthetic,
    run_experiment,
)

__version__ = "0.1.0"
