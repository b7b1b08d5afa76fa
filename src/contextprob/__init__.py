"""Contextual probability on finite spaces.

Classical conditioning on weighted point spaces, measurement disturbance via
row-stochastic kernels, interference coefficients with trigonometric or
hyperbolic classification, and reconstruction of complex or split-complex
amplitudes verified against the Born rule.
"""

__version__ = "0.1.0"

from .errors import (
    ContextProbError,
    DegenerateContext,
    DegenerateData,
    InvariantViolation,
    NoPhase,
    NotDoublyStochastic,
    TypeMismatch,
    UnknownValue,
    WrongRegime,
)
from .prespace import (
    Context,
    Distribution,
    Prespace,
    RandomVariable,
    conditional_distribution,
    context_probability,
    expectation_and_dispersion,
    fiber,
    filter_context,
    pushforward,
    variable_distribution,
)
from .dynamics import (
    ContextualStatistics,
    FrequencyTable,
    PerturbationKernel,
    apply_kernel,
    branch_probabilities,
    contextual_statistics,
    is_contextually_sensitive,
    measurement_distribution,
    sample_frequencies,
    transition_probabilities,
)
from .interference import (
    Classification,
    InterferenceReport,
    OutcomeInterference,
    analyze_interference,
    classify,
    phases,
)
from .hyperbolic import HyperbolicNumber, exp_j
from .amplitudes import (
    ComplexAmplitudeVector,
    HyperbolicAmplitudeVector,
    SelectorBasis,
    born_residual,
    hyperbolic_amplitude,
    selector_basis,
    trigonometric_amplitude,
)
from .model_io import (
    AnalysisOptions,
    ExperimentModel,
    ingest_contingency_table,
    load_model,
)
from .reporting import (
    AnalysisReport,
    analyze_model,
    analyze_statistics,
    canonical_json,
    emit_report,
    load_report,
)

__all__ = [
    "__version__",
    "AnalysisOptions",
    "AnalysisReport",
    "Classification",
    "ComplexAmplitudeVector",
    "Context",
    "ContextProbError",
    "ContextualStatistics",
    "DegenerateContext",
    "DegenerateData",
    "Distribution",
    "ExperimentModel",
    "FrequencyTable",
    "HyperbolicAmplitudeVector",
    "HyperbolicNumber",
    "InterferenceReport",
    "InvariantViolation",
    "NoPhase",
    "NotDoublyStochastic",
    "OutcomeInterference",
    "PerturbationKernel",
    "Prespace",
    "RandomVariable",
    "SelectorBasis",
    "TypeMismatch",
    "UnknownValue",
    "WrongRegime",
    "analyze_interference",
    "analyze_model",
    "analyze_statistics",
    "apply_kernel",
    "born_residual",
    "branch_probabilities",
    "canonical_json",
    "classify",
    "conditional_distribution",
    "context_probability",
    "contextual_statistics",
    "emit_report",
    "exp_j",
    "expectation_and_dispersion",
    "fiber",
    "filter_context",
    "hyperbolic_amplitude",
    "ingest_contingency_table",
    "is_contextually_sensitive",
    "load_model",
    "load_report",
    "measurement_distribution",
    "pushforward",
    "phases",
    "sample_frequencies",
    "selector_basis",
    "trigonometric_amplitude",
    "transition_probabilities",
    "variable_distribution",
]
