"""rieszreg: automatic debiased estimation for nested-regression estimands.

Estimands are written as stacked conditional regressions paired with linear
maps (treatment differences, subgroup means, mediator shifts). The package
fits the representing weights of those maps directly by minimizing the Riesz
loss, assembles the influence function stage by stage, and produces
cross-fit one-step estimates with influence-based confidence intervals,
all checkable against closed-form weights and simulation ground truth.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DegenerateFoldError,
    NonConvergenceError,
    NonFiniteEifError,
    RieszregError,
    SchemaError,
    SingularGramError,
    SpecSyntaxError,
    SpecValidationError,
    TrainingDivergedError,
)
from .data import Column, Dataset, as_columns  # noqa: F401
from .estimands import (  # noqa: F401
    CONTRAST_TOKEN,
    EstimandSpec,
    FunctionalMap,
    MapTerm,
    Stage,
    apply_map,
    builtin_spec,
    format_spec,
    parse_spec,
    validate_binding,
)
from .basis import (  # noqa: F401
    Basis,
    Feature,
    default_basis,
    intercept_basis,
    make_basis,
    saturated_basis,
)
from .simulate import (  # noqa: F401
    AppendixDgp,
    DiscreteDgp,
    closed_form_representer,
    DGPS,
    simulate,
    substream,
    true_nuisance,
    truth_oracle,
    truth_report,
)
from .mlp import MlpConfig  # noqa: F401
from .riesz import (  # noqa: F401
    ClosedFormRieszFit,
    MlpRieszFit,
    SieveRieszFit,
    constant_one_fit,
    fit_mlp,
    fit_mlps,
    fit_sequential,
    fit_sieve,
    mlp_loss_gradients,
    representation_residuals,
    riesz_loss,
)
from .nuisance import (  # noqa: F401
    NuisanceFit,
    fit_all_stages,
    fit_least_squares,
    fit_logistic,
)
from .estimator import (  # noqa: F401
    EifTerm,
    EstimateReport,
    EstimatorSettings,
    assemble_eif,
    one_step_estimate,
)
