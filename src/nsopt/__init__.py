"""Nonsmooth constrained convex optimization with explicit oracle accounting.

Solvers access the objective through (stochastic) first-order oracles and
the constraint set through projection or linear-minimization oracles, with
every call tallied.  The Moreau-splitting methods obtain target accuracy
with far fewer set-oracle calls than projected subgradient baselines; the
harness measures those separations on desk-scale problems.
"""

from types import ModuleType as _ModuleType

from .errors import ConfigError, FormatError, NumericalError
from .geometry import (
    SetDescriptor,
    l1_ball,
    l2_ball,
    lmo_l1_ball,
    lmo_nuclear_ball,
    nuclear_ball,
    project_l1_ball,
    project_l2_ball,
    project_nuclear_ball,
)
from .harness import (
    ExperimentConfig,
    fit_slopes,
    fit_slopes_from_csv,
    load_config,
    reference_optimum,
    run_experiment,
)
from .moreau import ProxResult, prox_subgradient
from .oracles import (
    FirstOrderOracle,
    LinearMinimizationOracle,
    OracleCounters,
    ProjectionOracle,
    StochasticFirstOrderOracle,
    estimate_variance,
    minibatch_sfo,
    wrap_counting,
)
from .problems import (
    AbsoluteValueInstance,
    HingeSvmInstance,
    MatrixSvmInstance,
    PiecewiseLinearInstance,
    synth_hinge_data,
    synth_piecewise_linear,
)
from .solvers import (
    CSV_HEADER,
    RunTrace,
    SolverConfig,
    SolverResult,
    TraceRecord,
    compute_schedule,
    fw_pgd,
    fw_quadratic_projection,
    moles,
    mopes,
    pgd,
    prox_slide,
)

# The names imported above; the submodules bound as a side effect stay out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
