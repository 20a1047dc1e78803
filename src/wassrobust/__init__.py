"""Wasserstein-robust optimization via semi-infinite convex programming.

The package solves robust training problems of the form "minimize the
worst average loss over all perturbations of the training set whose
transport cost stays within a radius", through an equivalent dual with
one convex constraint per admissible perturbed point.  Two cutting
schemes solve that semi-infinite dual; robust logistic regression and a
repeated train/test experiment harness are built on top.
"""

from .model import (
    BoxRegion,
    Dataset,
    DualPoint,
    FiniteRegion,
    Scenario,
    constraint_g,
    objective_f,
)
from .losses import LogisticLoss
from .convex import ConvexProgram, SolveReport, solve
from .reformulate import DerivedConstants, ProblemData, derive_constants
from .separation import (
    SeparationResult,
    TransportProfile,
    best_violation,
    separate_exact,
    transport_profile,
)
from .solvers import (
    CutPool,
    SolveTrace,
    solve_cutting_surface,
    solve_exchange,
    solve_full_enumeration,
    solve_nominal,
)
from .wrlr import (
    CvReport,
    FittedModel,
    auc,
    build_regions,
    fit_lr,
    fit_wrlr,
    load_model,
    predict_score,
    save_model,
    select_r0,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RepetitionResult,
    emit_results,
    load_results,
    paired_pvalue,
    run_experiment,
    welch_pvalue,
)

__version__ = "0.1.0"
