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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dist import check_integer
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

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta: np.ndarray) -> "PolicyModel":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise InvalidInputError("parameter shape mismatch")
        return replace(self, theta=theta)


def tabular_policy(n_states: int, vocab_size: int, init_logits=None) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    theta = np.zeros(n_states * vocab_size)
    if init_logits is not None:
        row = np.asarray(init_logits, dtype=np.float64)
        if row.shape != (vocab_size,):
            raise InvalidInputError(f"init_logits must have shape ({vocab_size},)")
        theta = np.tile(row, n_states)
    return PolicyModel(Family.TABULAR, theta, n_states, vocab_size)


def linear_policy(n_states: int, vocab_size: int, feature_dim: int, seed: int = 0) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    feature_dim = check_integer(feature_dim, "feature_dim", 1)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_states, feature_dim))
    theta = np.zeros(vocab_size * feature_dim)
    return PolicyModel(Family.LINEAR, theta, n_states, vocab_size, features=features)


def mlp1_policy(
    n_states: int, vocab_size: int, feature_dim: int, hidden: int = 16, seed: int = 0
) -> PolicyModel:
    n_states, vocab_size = _check_shape(n_states, vocab_size)
    feature_dim = check_integer(feature_dim, "feature_dim", 1)
    hidden = check_integer(hidden, "hidden", 1)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_states, feature_dim))
    n_params = hidden * feature_dim + hidden + vocab_size * hidden + vocab_size
    theta = rng.uniform(-0.1, 0.1, size=n_params)
    return PolicyModel(Family.MLP1, theta, n_states, vocab_size, features=features, hidden=hidden)


def _check_shape(n_states: int, vocab_size: int) -> tuple[int, int]:
    return check_integer(n_states, "n_states", 1), check_integer(vocab_size, "vocab_size", 2)


def _check_state(model: PolicyModel, state: int) -> int:
    state = check_integer(state, "state")
    if not 0 <= state < model.n_states:
        raise InvalidStateError(f"state {state} outside state space of size {model.n_states}")
    return state


def _mlp_unpack(model: PolicyModel):
    d, h, v = model.features.shape[1], model.hidden, model.vocab_size
    theta = model.theta
    w1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d : h * d + h]
    w2 = theta[h * d + h : h * d + h + v * h].reshape(v, h)
    b2 = theta[h * d + h + v * h :]
    return w1, b1, w2, b2


def forward(model: PolicyModel, state: int) -> np.ndarray:
    """Logits of the model at one state."""
    state = _check_state(model, state)
    if model.family is Family.TABULAR:
        v = model.vocab_size
        return model.theta[state * v : (state + 1) * v].copy()
    if model.family is Family.LINEAR:
        phi = model.features[state]
        d = phi.size
        w = model.theta.reshape(model.vocab_size, d)
        return w @ phi
    w1, b1, w2, b2 = _mlp_unpack(model)
    hidden = np.tanh(w1 @ model.features[state] + b1)
    return w2 @ hidden + b2


def pullback(model: PolicyModel, state: int, grad_z, out: np.ndarray | None = None) -> np.ndarray:
    """Vector-Jacobian product J(state)^T grad_z in reverse mode.

    Never forms the V x n_params Jacobian: TABULAR scatters grad_z into the
    state's logit row, LINEAR is the outer product grad_z phi^T, and MLP1
    backpropagates once through the tanh layer.  With ``out`` (a float64
    vector of n_params entries) the product is added into ``out`` in place
    and ``out`` is returned, so an episode sums its timesteps in one buffer
    and TABULAR touches only one row of it.
    """
    state = _check_state(model, state)
    grad_z = np.asarray(grad_z, dtype=np.float64)
    if grad_z.shape != (model.vocab_size,):
        raise InvalidInputError(f"grad_z must have shape ({model.vocab_size},), got {grad_z.shape}")
    if out is not None:
        _check_out(model, out)
    offset, size = _span(model, state)
    span = slice(offset, offset + size)
    if out is None:
        out = np.zeros(model.n_params)
        out[span] = _vjp(model, state, grad_z)
    else:
        out[span] += _vjp(model, state, grad_z)
    return out


def _check_out(model: PolicyModel, out) -> None:
    """``out`` is a float64 vector of n_params entries, as ``pullback(..., out=)`` adds into."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (model.n_params,)):
        raise InvalidInputError(f"out must be a float64 array of shape ({model.n_params},)")


def _span(model: PolicyModel, state: int) -> tuple[int, int]:
    """(offset, size) of the slice of theta that the logits at ``state`` depend on:
    the state's row for TABULAR, all of theta for LINEAR and MLP1."""
    if model.family is Family.TABULAR:
        return state * model.vocab_size, model.vocab_size
    return 0, model.n_params


def _vjp(model: PolicyModel, state: int, grad_z: np.ndarray) -> np.ndarray:
    """J(state)^T grad_z restricted to ``_span(model, state)``; zero outside it."""
    if model.family is Family.TABULAR:
        return grad_z
    phi = model.features[state]
    if model.family is Family.LINEAR:
        return np.outer(grad_z, phi).ravel()
    w1, b1, w2, _ = _mlp_unpack(model)
    h = np.tanh(w1 @ phi + b1)
    back = (grad_z @ w2) * (1.0 - h**2)  # through sech^2 of the pre-activation
    return np.concatenate((np.outer(back, phi).ravel(), back, np.outer(grad_z, h).ravel(), grad_z))


def sigma_max(model: PolicyModel, state: int) -> float:
    """Largest singular value of the logit Jacobian at one state, in closed form.

    TABULAR: J is a 0/1 selection, so 1.  LINEAR: J = I kron phi^T, so
    ||phi||.  MLP1: J J^T = (||h||^2 + 1) I + (||phi||^2 + 1) B B^T with
    B = w2 diag(1 - h^2), so the top eigenvalue is read off sigma_max(B).
    """
    return _sigma_max(model, _check_state(model, state))


def _sigma_max(model: PolicyModel, state: int) -> float:
    if model.family is Family.TABULAR:
        return 1.0
    phi = model.features[state]
    if model.family is Family.LINEAR:
        return float(np.linalg.norm(phi))
    w1, b1, w2, _ = _mlp_unpack(model)
    h = np.tanh(w1 @ phi + b1)
    # the largest singular value, as norm(B, 2) takes it, without its wrapper
    top_b = float(np.linalg.svd(w2 * (1.0 - h**2), compute_uv=False)[0])
    return float(np.sqrt((h @ h + 1.0) + (phi @ phi + 1.0) * top_b**2))


def linearization_residual(model: PolicyModel, theta, theta_star, state: int) -> float:
    """Relative remainder of the first-order logit expansion between theta
    and theta_star; exactly zero for the TABULAR and LINEAR families."""
    theta = np.asarray(theta, dtype=np.float64)
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if theta.shape != model.theta.shape or theta_star.shape != model.theta.shape:
        raise InvalidInputError("parameter shape mismatch")
    at_theta = model.with_theta(theta)
    z = forward(at_theta, state)
    z_star = forward(model.with_theta(theta_star), state)
    # row a of the logit Jacobian is J^T e_a, one pullback per logit
    jac = np.array([pullback(at_theta, state, e) for e in np.eye(model.vocab_size)])
    predicted = z + jac @ (theta_star - theta)
    gap = float(np.linalg.norm(z_star - z))
    return float(np.linalg.norm(z_star - predicted)) / max(gap, 1e-12)
