"""Zero-shot classification over precomputed embeddings.

Text proxies are built by retrieving class descriptions against the mean
image embedding; entropic optimal transport turns image/proxy similarities
into row-stochastic pseudo-labels; gradient descent on a KL objective then
learns multimodal proxies that classify across the text/vision gap.
"""

__version__ = "0.1.0"

from .errors import (
    DataError,
    NumericError,
    NumericOverflowError,
    ProxyOTError,
    UsageError,
)
from .fixture import FixtureSpec, generate_fixture, write_fixture
from .learner import (
    LearnConfig,
    LearnTrace,
    ProxyWeights,
    classify,
    learn,
)
from .numerics import l2_normalize_rows
from .pipeline import MODES, RunSpec, accuracy, bench_solvers, run
from .retrieval import (
    ClassRecord,
    KnowledgeBase,
    RetrievalResult,
    build_text_proxies,
    description_proxies,
    mean_image_feature,
    name_proxies,
    retrieve,
    score_descriptions,
    top_k,
)
from .solvers import (
    ALGORITHMS,
    ClassMarginal,
    PseudoLabels,
    SolverConfig,
    TransportPlan,
    entropic_objective,
    newton_semidual,
    pseudo_labels,
    sinkhorn_linear,
    sinkhorn_log,
    solve,
    stable_greenkhorn,
)

__all__ = [
    "__version__",
    "ProxyOTError",
    "UsageError",
    "DataError",
    "NumericError",
    "NumericOverflowError",
    "l2_normalize_rows",
    "ALGORITHMS",
    "ClassMarginal",
    "SolverConfig",
    "TransportPlan",
    "PseudoLabels",
    "sinkhorn_linear",
    "sinkhorn_log",
    "stable_greenkhorn",
    "newton_semidual",
    "solve",
    "entropic_objective",
    "pseudo_labels",
    "ClassRecord",
    "KnowledgeBase",
    "RetrievalResult",
    "mean_image_feature",
    "score_descriptions",
    "top_k",
    "retrieve",
    "build_text_proxies",
    "description_proxies",
    "name_proxies",
    "ProxyWeights",
    "LearnConfig",
    "LearnTrace",
    "learn",
    "classify",
    "MODES",
    "RunSpec",
    "run",
    "accuracy",
    "bench_solvers",
    "FixtureSpec",
    "generate_fixture",
    "write_fixture",
]
