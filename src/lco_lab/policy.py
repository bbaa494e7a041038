"""Differentiable softmax-policy families over finite state spaces.

Three families map a flat parameter vector theta to per-state logits:

  TABULAR  one independent logit row per state; the Jacobian is a 0/1
           selection matrix and the linearization is exact
  LINEAR   logits = W @ phi(state) for a fixed per-state feature table;
           the Jacobian has Kronecker structure and is also exact
  MLP1     one tanh hidden layer; the linearization residual is the
           quadratic-order term the NTK-style analysis treats as negligible

States are integer indices into the model's state space.  Feature tables
for LINEAR and MLP1 are drawn once from a seed and stored with the model.

The one derivative here is ``pullback``, J^T g without forming J;
``sigma_max`` is closed form, and ``linearization_residual`` reads row a of
J as the pullback of e_a.

At one state of a TABULAR or LINEAR model the logit kernel J J^T is a
multiple lam I of the identity, and ``_kernel_scale`` is the one place that
says so (lam = 1 and ||phi||^2; None for MLP1, whose kernel is not).  Two
facts follow from it and are read from it: sigma_max = sqrt(lam), and the
least-norm parameters whose logits at the state are z are J^T z / lam,
``pullback(model, state, z) / lam``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .dist import as_array, check_integer
from .errors import InvalidInputError, InvalidStateError


class Family(Enum):
    TABULAR = "TABULAR"
    LINEAR = "LINEAR"
    MLP1 = "MLP1"


@dataclass(frozen=True)
class PolicyModel:
    family: Family
    theta: np.ndarray
    n_states: int
    vocab_size: int
    features: np.ndarray | None = None  # (n_states, feature_dim) for LINEAR/MLP1
    hidden: int = 0  # MLP1 width

    def __post_init__(self):
        """The layout checked against the family: each field it cannot use raises ``InvalidInputError`` naming it.

        TABULAR reads no ``features`` and LINEAR and MLP1 one row of them per
        state; only MLP1 has a ``hidden`` layer, of width >= 1; and ``theta``
        holds ``_n_params`` entries.  Arrays are read, not checked finite:
        theta may be a diverged run's, and sigma_max reports a NaN it meets.
        """
        if not isinstance(self.family, Family):
            raise InvalidInputError(f"family must be a Family, got {self.family!r}")
        n_states, vocab_size = _check_shape(self.n_states, self.vocab_size)
        feature_dim = 0
        if self.family is Family.TABULAR:
            if self.features is not None:
                raise InvalidInputError("features must be None for the TABULAR family, which reads none")
        else:
            features = as_array(self.features, "features", 2, 1, finite=False)
            if len(features) != n_states:
                raise InvalidInputError(f"features must have one row per state, {n_states}, got shape {features.shape}")
            object.__setattr__(self, "features", features)
            feature_dim = features.shape[1]
        if self.family is Family.MLP1:
            check_integer(self.hidden, "hidden", 1)
        elif self.hidden != 0:
            raise InvalidInputError(f"hidden must be 0 for the {self.family.value} family, got {self.hidden!r}")
        size = _n_params(self.family, n_states, vocab_size, feature_dim, self.hidden)
        object.__setattr__(self, "theta", as_array(self.theta, "theta", (size,), finite=False))

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta: np.ndarray) -> "PolicyModel":
        return replace(self, theta=theta)  # read by __post_init__ against the layout

    @cached_property
    def mlp_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """MLP1's (w1, b1, w2, b2) as views of theta, built on first use.

        Slices and reshapes of a 1-D array are always views, so an update of
        theta in place (the trainer's) shows through them.
        """
        d, h, v = self.features.shape[1], self.hidden, self.vocab_size
        theta = self.theta
        w1 = theta[: h * d].reshape(h, d)
        b1 = theta[h * d : h * d + h]
        w2 = theta[h * d + h : h * d + h + v * h].reshape(v, h)
        b2 = theta[h * d + h + v * h :]
        return w1, b1, w2, b2


def _n_params(family: Family, n_states: int, vocab_size: int, feature_dim: int, hidden: int) -> int:
    """The length of theta in a family's layout, the one place it is stated."""
    if family is Family.TABULAR:
        return n_states * vocab_size
    if family is Family.LINEAR:
        return vocab_size * feature_dim
    return hidden * feature_dim + hidden + vocab_size * hidden + vocab_size


def tabular_policy(n_states: int, vocab_size: int, init_logits=None) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    theta = np.zeros(_n_params(Family.TABULAR, n_states, vocab_size, 0, 0))
    if init_logits is not None:
        theta = np.tile(as_array(init_logits, "init_logits", (vocab_size,)), n_states)
    return PolicyModel(Family.TABULAR, theta, n_states, vocab_size)


def linear_policy(n_states: int, vocab_size: int, feature_dim: int = 4, seed: int = 0) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    feature_dim = check_integer(feature_dim, "feature_dim", 1)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    features = rng.standard_normal((n_states, feature_dim))
    theta = np.zeros(_n_params(Family.LINEAR, n_states, vocab_size, feature_dim, 0))
    return PolicyModel(Family.LINEAR, theta, n_states, vocab_size, features=features)


def mlp1_policy(
    n_states: int, vocab_size: int, feature_dim: int = 4, hidden: int = 16, seed: int = 0
) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    feature_dim = check_integer(feature_dim, "feature_dim", 1)
    hidden = check_integer(hidden, "hidden", 1)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    features = rng.standard_normal((n_states, feature_dim))
    theta = rng.uniform(-0.1, 0.1, size=_n_params(Family.MLP1, n_states, vocab_size, feature_dim, hidden))
    return PolicyModel(Family.MLP1, theta, n_states, vocab_size, features=features, hidden=hidden)


def _check_shape(n_states: int, vocab_size: int) -> tuple[int, int]:
    return check_integer(n_states, "n_states", 1), check_integer(vocab_size, "vocab_size", 2)


def _check_state(model: PolicyModel, state: int) -> int:
    if type(state) is not int:  # a plain int is already what check_integer returns
        state = check_integer(state, "state")
    if not 0 <= state < model.n_states:
        raise InvalidStateError(f"state {state} outside state space of size {model.n_states}")
    return state


def forward(model: PolicyModel, state: int) -> np.ndarray:
    """Logits of the model at one state."""
    state = _check_state(model, state)
    return _forward(model, state, _hidden(model, state))


def _hidden(model: PolicyModel, state: int) -> np.ndarray | None:
    """MLP1's tanh layer at a checked state; None for the families without one.

    ``_forward``, ``_vjp`` and ``_sigma_maxes`` read it, so a caller that
    needs more than one of them at a state evaluates the layer once.
    """
    if model.family is not Family.MLP1:
        return None
    w1, b1, _, _ = model.mlp_views
    return np.tanh(w1 @ model.features[state] + b1)


def _forward(model: PolicyModel, state: int, hidden: np.ndarray | None) -> np.ndarray:
    """Logits at a checked state, with ``hidden = _hidden(model, state)``."""
    if model.family is Family.TABULAR:
        v = model.vocab_size
        return model.theta[state * v : (state + 1) * v].copy()
    if model.family is Family.LINEAR:
        phi = model.features[state]
        d = phi.size
        w = model.theta.reshape(model.vocab_size, d)
        return w @ phi
    _, _, w2, b2 = model.mlp_views
    return w2 @ hidden + b2


def pullback(model: PolicyModel, state: int, grad_z) -> np.ndarray:
    """Vector-Jacobian product J(state)^T grad_z in reverse mode.

    Never forms the V x n_params Jacobian: TABULAR scatters grad_z into the
    state's logit row, LINEAR is the outer product grad_z phi^T, and MLP1
    backpropagates once through the tanh layer.  The product is zero
    outside the state's span of theta (``_span``).
    """
    state = _check_state(model, state)
    # a non-finite grad_z pulls back to a non-finite vector, which the trainer's gradient check reports
    grad_z = as_array(grad_z, "grad_z", (model.vocab_size,), finite=False)
    start, stop = _span(model, state)
    out = np.zeros(model.n_params)
    out[start:stop] = _vjp(model, state, grad_z, _hidden(model, state))
    return out


def _span(model: PolicyModel, state: int) -> tuple[int, int]:
    """(start, stop) of the slice of theta that the logits at ``state`` depend on:
    the state's row for TABULAR, all of theta for LINEAR and MLP1."""
    if model.family is Family.TABULAR:
        return state * model.vocab_size, (state + 1) * model.vocab_size
    return 0, model.n_params


def _vjp(model: PolicyModel, state: int, grad_z: np.ndarray, hidden: np.ndarray | None) -> np.ndarray:
    """J(state)^T grad_z restricted to ``_span(model, state)``; zero outside it.

    ``hidden`` is ``_hidden(model, state)``.
    """
    if model.family is Family.TABULAR:
        return grad_z
    phi = model.features[state]
    if model.family is Family.LINEAR:
        return np.outer(grad_z, phi).ravel()
    _, _, w2, _ = model.mlp_views
    back = (grad_z @ w2) * (1.0 - hidden**2)  # through sech^2 of the pre-activation
    return np.concatenate((np.outer(back, phi).ravel(), back, np.outer(grad_z, hidden).ravel(), grad_z))


def sigma_max(model: PolicyModel, state: int) -> float:
    """Largest singular value of the logit Jacobian at one state, in closed form.

    TABULAR and LINEAR: sqrt(lam) of J J^T = lam I (``_kernel_scale``), so
    1 and ||phi||.  MLP1: J J^T = (||h||^2 + 1) I + (||phi||^2 + 1) B B^T with
    B = w2 diag(1 - h^2), so the top eigenvalue is read off sigma_max(B)^2,
    the top ``eigvalsh`` eigenvalue of the smaller of B B^T and B^T B, which
    matches the square of B's top singular value to a few ulps.  A square
    beyond the float range, or a NaN in B, raises ``InvalidInputError``.

    This is the one-state case of ``_sigma_maxes``, which a training step
    calls once per episode.  With hidden 16 on a 2-vCPU guest (best of 7),
    one call over an H = 3 episode's states took 39, 69 and 76 us at V = 8,
    32 and 64, against 59, 91 and 99 us for three one-state calls; a lone
    state pays 5-7 us for the stacking (26-36 us).
    """
    state = _check_state(model, state)
    return _sigma_maxes(model, (state,), (_hidden(model, state),))[0]


def _kernel_scale(model: PolicyModel, state: int) -> float | None:
    """lam with J(state) J(state)^T = lam I at a checked state; None where J J^T is no multiple of I.

    TABULAR: J selects the state's logit row, so 1.  LINEAR: J = I kron
    phi^T, so ||phi||^2, taken as np.linalg.norm takes it.  MLP1: None.
    """
    if model.family is Family.TABULAR:
        return 1.0
    if model.family is Family.LINEAR:
        phi = model.features[state]
        return float(phi.dot(phi))
    return None


def _sigma_maxes(model: PolicyModel, states: Sequence[int], hiddens: Sequence[np.ndarray | None]) -> list[float]:
    """``sigma_max`` at each checked state of ``states``, with ``hiddens[i] = _hidden(model, states[i])``.

    MLP1's B matrices are stacked, so their Gram matrices take one batched
    product and their top eigenvalues one ``eigvalsh`` call, and each value
    is bit for bit its one-state call's.  A NaN or an overflowing square is
    raised at the first state, in the order of ``states``, that has one.
    """
    if model.family is not Family.MLP1:
        return [math.sqrt(_kernel_scale(model, state)) for state in states]
    _, _, w2, _ = model.mlp_views
    b = w2 * (1.0 - np.array(hiddens) ** 2)[:, None, :]
    # sigma_max(B)^2 is the top eigenvalue of B's Gram matrix on its smaller side
    bt = b.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        gram = b @ bt if w2.shape[0] <= w2.shape[1] else bt @ b
    # LAPACK is handed finite matrices only.  A matrix's largest |entry| is
    # finite exactly when all its entries are; otherwise it is NaN (from a NaN
    # parameter) or inf, and since no entry exceeds sigma_max(B)^2, an inf
    # entry puts that square beyond the float range
    top = np.maximum.reduce(np.abs(gram), axis=(1, 2))
    finite = np.isfinite(top)
    top[finite] = np.linalg.eigvalsh(gram[finite])[:, -1]
    sigmas = []
    for state, hidden, top_b2 in zip(states, hiddens, top.tolist()):
        if math.isnan(top_b2):
            raise InvalidInputError("sigma_max is undefined: w2 diag(1 - h^2) has a NaN entry")
        if top_b2 == math.inf:
            raise InvalidInputError("sigma_max overflows: sigma_max(w2 diag(1 - h^2))^2 lies beyond the float range")
        phi = model.features[state]
        sigmas.append(float(np.sqrt((hidden @ hidden + 1.0) + (phi @ phi + 1.0) * top_b2)))
    return sigmas


def linearization_residual(model: PolicyModel, theta, theta_star, state: int) -> float:
    """Relative remainder of the first-order logit expansion between theta
    and theta_star; exactly zero for the TABULAR and LINEAR families."""
    theta = as_array(theta, "theta", model.theta.shape)
    theta_star = as_array(theta_star, "theta_star", model.theta.shape)
    at_theta = model.with_theta(theta)
    z = forward(at_theta, state)
    z_star = forward(model.with_theta(theta_star), state)
    # row a of the logit Jacobian is J^T e_a, one pullback per logit
    jac = np.array([pullback(at_theta, state, e) for e in np.eye(model.vocab_size)])
    predicted = z + jac @ (theta_star - theta)
    gap = float(np.linalg.norm(z_star - z))
    return float(np.linalg.norm(z_star - predicted)) / max(gap, 1e-12)
