"""Why width-k conv layers generalize where one-layer models memorize.

The package studies linear classifiers on sparse sign-vector tasks whose
score is linear in the input but whose parameterization (one-layer,
convolutional two-layer, fully-connected two-layer) changes what
gradient descent converges to.  It bundles the synthetic tasks, the
shift-matrix algebra, hinge / extreme-hinge training, closed-form and
asymptotic dynamics, the error-probability calculators, and a CLI
harness for the standard experiment grids.
"""

from .dynamics import (
    AsymptoticErrorEstimate,
    AsymptoticWeights,
    ClosedFormStep,
    asymptotic_error,
    asymptotic_error_estimate,
    asymptotic_error_for_trainset,
    asymptotic_weights,
    closed_form_weights,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    MultiplicityError,
    NumericalError,
    ShapeError,
    StepOverflowError,
    ZeroMatrixError,
)
from .linalg import (
    SpectralDecomposition,
    fix_top_pair_sign,
    is_irreducible,
    is_primitive_bruteforce,
    thin_svd,
)
from .models import (
    ConvWeights,
    FCWeights,
    LinearWeights,
    TrainConfig,
    TrainTrace,
    classification_error,
    effective_weights,
    error_from_margins,
    init_weights,
    train,
    weight_error,
)
from .shift import (
    shift_matrix,
    training_average,
)
from .tasks import (
    TASKS,
    Dataset,
    sample_training_set,
    whole_dataset,
)
from .theory import (
    DecompositionReport,
    SampleComplexity,
    coverage_term_approx,
    count_draws_without_adjacent_pair,
    coverage_term_exact,
    decomposition_report,
    estimate_prob_no_adjacent_pair,
    estimate_prob_nonprimitive,
    has_adjacent_pair,
    onelayer_error,
    prob_no_adjacent_pair_exact,
    sample_complexity,
    sparse_training_set,
)

__version__ = "0.1.0"
