"""Logit-space convex policy optimization lab.

Stable probability primitives, per-timestep losses with analytic logit
gradients, closed-form KL-regularized targets, logit-space curvature
analysis, gradient-norm and convergence envelopes, and a toy trainer that
reproduces the qualitative gradient dynamics of clipped-surrogate versus
target-alignment training.
"""

from .dist import (
    entropy,
    kl_divergence,
    log_softmax,
    normalize_advantages,
    sample_action,
    sample_actions,
    softmax,
    total_variation,
)
from .objectives import (
    LossEval,
    ObjectiveKind,
    evaluate,
    ppo_active,
)
from .targets import (
    EstimatorKind,
    OptimalTarget,
    load_logprob_table,
    optimal_logits,
    optimal_policy,
    optimal_shift,
    optimal_target,
)
from .convexity import (
    BoundCheck,
    HessianReport,
    bound_check,
    directionality,
    gradient_norm_bound,
    hessian_analytic,
    hessian_numeric,
    min_eigenvalue,
    ppo_witness,
)
from .policy import (
    Family,
    PolicyModel,
    forward,
    linear_policy,
    linearization_residual,
    mlp1_policy,
    pullback,
    sigma_max,
    tabular_policy,
)
from .envs import MatchReward, TableReward, ToyEnvironment
from .training import (
    ConvergeConfig,
    ConvergeResult,
    DynamicsRecord,
    TrainerConfig,
    converge_experiment,
    converge_violations,
    run_training,
    train_step,
)

__version__ = "0.1.0"
