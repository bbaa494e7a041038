import numpy as np
import pytest

from lco_lab.errors import InvalidInputError, InvalidStateError
from lco_lab.policy import (
    Family,
    _hidden,
    _kernel_scale,
    _span,
    _vjp,
    forward,
    linear_policy,
    linearization_residual,
    mlp1_policy,
    pullback,
    sigma_max,
    tabular_policy,
)

from oracles import jacobian, rel_close


def test_tabular_forward_returns_stored_row():
    model = tabular_policy(3, 2, init_logits=np.array([0.4, -0.4]))
    assert np.array_equal(forward(model, 1), [0.4, -0.4])
    theta = model.theta.copy()
    theta[2 * 2 : 3 * 2] = [7.0, -7.0]
    assert np.array_equal(forward(model.with_theta(theta), 2), [7.0, -7.0])


def test_linear_zero_weights_zero_logits():
    model = linear_policy(4, 3, 5, seed=0)
    for state in range(4):
        assert np.array_equal(forward(model, state), np.zeros(3))


def test_mlp_forward_matches_reimplementation():
    model = mlp1_policy(2, 3, 4, hidden=6, seed=42)
    d, h, v = 4, 6, 3
    theta = model.theta
    w1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d : h * d + h]
    w2 = theta[h * d + h : h * d + h + v * h].reshape(v, h)
    b2 = theta[h * d + h + v * h :]
    for state in range(2):
        phi = model.features[state]
        expected = w2 @ np.tanh(w1 @ phi + b1) + b2
        assert np.abs(forward(model, state) - expected).max() < 1e-15


def test_tabular_jacobian_is_selection():
    model = tabular_policy(2, 3)
    info = jacobian(model, 1)
    expected = np.zeros((3, 6))
    expected[0, 3] = expected[1, 4] = expected[2, 5] = 1.0
    assert np.array_equal(info.J, expected)
    assert abs(info.sigma_max - 1.0) < 1e-10


def test_linear_jacobian_kronecker_structure():
    model = linear_policy(3, 4, 5, seed=7)
    info = jacobian(model, 2)
    phi = model.features[2]
    assert np.array_equal(info.J, np.kron(np.eye(4), phi))
    assert abs(info.sigma_max - np.linalg.norm(phi)) < 1e-8 * np.linalg.norm(phi)


def test_mlp_jacobian_matches_finite_differences():
    model = mlp1_policy(1, 3, 4, hidden=5, seed=3)
    info = jacobian(model, 0)
    step = 1e-6
    for a in range(3):
        numeric = np.zeros(model.n_params)
        for i in range(model.n_params):
            bump = np.zeros(model.n_params)
            bump[i] = step
            hi = forward(model.with_theta(model.theta + bump), 0)[a]
            lo = forward(model.with_theta(model.theta - bump), 0)[a]
            numeric[i] = (hi - lo) / (2 * step)
        assert rel_close(info.J[a], numeric, rel=1e-6, floor=1e-9)


def test_sigma_max_matches_gram_spectrum():
    model = mlp1_policy(1, 4, 3, hidden=8, seed=11)
    info = jacobian(model, 0)
    top = float(np.linalg.eigvalsh(info.J @ info.J.T)[-1])
    assert abs(info.sigma_max**2 - top) <= 1e-8 * top


def test_linearization_residual_exact_families():
    rng = np.random.default_rng(19)
    model = tabular_policy(2, 3)
    theta = rng.uniform(-1, 1, model.n_params)
    theta_star = rng.uniform(-1, 1, model.n_params)
    assert linearization_residual(model, theta, theta_star, 1) < 1e-14

    model = linear_policy(2, 3, 4, seed=1)
    theta = rng.uniform(-1, 1, model.n_params)
    theta_star = rng.uniform(-1, 1, model.n_params)
    assert linearization_residual(model, theta, theta_star, 0) < 1e-12


def test_linearization_residual_quadratic_scaling():
    model = mlp1_policy(1, 3, 4, hidden=16, seed=5)
    rng = np.random.default_rng(23)
    direction = rng.standard_normal(model.n_params)
    direction /= np.linalg.norm(direction)

    norms = [1e-3 / 2**k for k in range(5)]
    remainders = []
    for delta in norms:
        theta_star = model.theta + delta * direction
        z = forward(model, 0)
        z_star = forward(model.with_theta(theta_star), 0)
        predicted = z + jacobian(model, 0).J @ (theta_star - model.theta)
        remainders.append(np.linalg.norm(z_star - predicted))
        assert linearization_residual(model, model.theta, theta_star, 0) < 1e-2

    slope = np.polyfit(np.log(norms), np.log(np.maximum(remainders, 1e-300)), 1)[0]
    assert abs(slope - 2.0) < 0.2  # first-order remainder shrinks quadratically


def test_unknown_state_rejected():
    model = tabular_policy(2, 3)
    with pytest.raises(InvalidStateError):
        forward(model, 5)
    with pytest.raises(InvalidStateError):
        jacobian(model, -1)
    with pytest.raises(InvalidStateError):
        linearization_residual(model, model.theta, model.theta, -1)


@pytest.mark.parametrize("state", [1.7, 1.0, np.float64(1.0), True, np.True_, "1", float("nan"), None])
def test_a_state_that_is_not_an_integer_is_rejected(state):
    # int() would read 1.7, True and "1" as state 1, and raise a bare ValueError on NaN
    model = tabular_policy(3, 2)
    for call in (forward, sigma_max, lambda m, s: pullback(m, s, np.zeros(2))):
        with pytest.raises(InvalidInputError, match="state must be an integer"):
            call(model, state)


@pytest.mark.parametrize("state", [np.int64(1), np.int32(1), np.uint8(1)])
def test_a_numpy_integer_state_reads_as_the_int(state):
    model = mlp1_policy(3, 4, 2, hidden=3, seed=1)
    assert np.array_equal(forward(model, state), forward(model, 1))
    assert sigma_max(model, state) == sigma_max(model, 1)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda x: tabular_policy(x, 3), "n_states"),
        (lambda x: tabular_policy(2, x), "vocab_size"),
        (lambda x: linear_policy(x, 3, 2), "n_states"),
        (lambda x: linear_policy(2, x, 2), "vocab_size"),
        (lambda x: linear_policy(2, 3, x), "feature_dim"),
        (lambda x: mlp1_policy(x, 3, 2), "n_states"),
        (lambda x: mlp1_policy(2, x, 2), "vocab_size"),
        (lambda x: mlp1_policy(2, 3, x), "feature_dim"),
        (lambda x: mlp1_policy(2, 3, 2, hidden=x), "hidden"),
    ],
)
@pytest.mark.parametrize("value", [True, np.True_, 2.5, 2.0, "2", None])
def test_a_model_size_that_is_not_a_positive_integer_is_rejected(build, name, value):
    # unchecked, a bool would read as 1 and a float would reach numpy as a bare TypeError
    with pytest.raises(InvalidInputError, match=name):
        build(value)


def test_model_sizes_are_stored_as_ints():
    model = mlp1_policy(np.int64(2), np.int32(3), np.uint8(2), hidden=np.int64(4))
    assert (type(model.n_states), type(model.vocab_size), type(model.hidden)) == (int, int, int)
    assert model.n_params == 4 * 2 + 4 + 3 * 4 + 3
    with pytest.raises(InvalidInputError, match="vocab_size must be >= 2"):
        tabular_policy(2, 1)


@pytest.mark.parametrize("build", [lambda s: linear_policy(2, 3, 2, seed=s), lambda s: mlp1_policy(2, 3, 2, seed=s)])
@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0"), (2.5, "seed must be an integer"), (True, "seed must be an integer"), ("7", "seed")],
)
def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(build, seed, message):
    # unchecked, -1 was numpy's ValueError, 2.5 its TypeError, and True read as 1
    with pytest.raises(InvalidInputError, match=message):
        build(seed)
    assert np.array_equal(build(np.int64(7)).features, build(7).features)


def _random_model(family: Family, v: int, rng: np.random.Generator):
    if family is Family.TABULAR:
        model = tabular_policy(5, v)
        return model.with_theta(rng.uniform(-2.0, 2.0, model.n_params))
    if family is Family.LINEAR:
        model = linear_policy(5, v, 6, seed=int(rng.integers(10_000)))
        return model.with_theta(rng.uniform(-1.0, 1.0, model.n_params))
    model = mlp1_policy(5, v, 4, hidden=12, seed=int(rng.integers(10_000)))
    return model.with_theta(rng.uniform(-1.0, 1.0, model.n_params))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("v", [2, 8, 64])
def test_the_kernel_scale_is_lam_of_j_j_transpose_equal_lam_i(family, v):
    rng = np.random.default_rng(v)
    model = _random_model(family, v, rng)
    for state in (0, 2, 4):
        lam = _kernel_scale(model, state)
        J = jacobian(model, state).J
        if family is Family.MLP1:
            assert lam is None
            continue
        assert np.abs(J @ J.T - lam * np.eye(v)).max() <= 1e-12 * lam
        assert sigma_max(model, state) == np.sqrt(lam)
        # J^T z / lam is the least-norm theta with logits z at the state
        z = rng.uniform(-2.0, 2.0, v)
        theta = pullback(model, state, z) / lam
        assert np.abs(J @ theta - z).max() <= 1e-12 * np.abs(z).max()
        assert np.abs(theta - np.linalg.lstsq(J, z, rcond=None)[0]).max() <= 1e-12 * np.abs(theta).max()


@pytest.mark.parametrize(
    "family, hidden",
    [(Family.TABULAR, None), (Family.LINEAR, None), (Family.MLP1, 3), (Family.MLP1, 12), (Family.MLP1, 80)],
)
@pytest.mark.parametrize("v", [2, 8, 12, 32, 64])
def test_pullback_and_sigma_max_match_dense_jacobian(family, hidden, v):
    # MLP1's sigma_max reads the Gram matrix of B = w2 diag(1 - h^2) on its
    # smaller side: B B^T where V <= hidden, B^T B where hidden < V
    rng = np.random.default_rng(v)
    if hidden is None:
        model = _random_model(family, v, rng)
    else:
        model = mlp1_policy(5, v, 4, hidden=hidden, seed=int(rng.integers(10_000)))
        model = model.with_theta(rng.uniform(-1.0, 1.0, model.n_params))
    for state in (0, 2, 4):
        J = jacobian(model, state).J
        for _ in range(3):
            g = rng.standard_normal(v)
            dense = J.T @ g
            assert np.linalg.norm(pullback(model, state, g) - dense) <= 1e-12 * np.linalg.norm(dense)
        top = float(np.linalg.svd(J, compute_uv=False)[0])
        assert abs(sigma_max(model, state) - top) <= 1e-12 * top


def test_mlp1_sigma_max_with_a_nan_parameter_raises_a_typed_error():
    # an SVD of w2 diag(1 - h^2) raised numpy's untyped LinAlgError here
    model = mlp1_policy(1, 4, 3, hidden=5, seed=0)
    theta = model.theta.copy()
    theta[-6] = np.nan  # an entry of w2
    with pytest.raises(InvalidInputError, match="sigma_max is undefined"):
        sigma_max(model.with_theta(theta), 0)


@pytest.mark.parametrize("family", list(Family))
def test_pullback_and_sigma_max_reject_bad_input(family):
    model = _random_model(family, 3, np.random.default_rng(0))
    with pytest.raises(InvalidStateError):
        pullback(model, 5, np.ones(3))
    with pytest.raises(InvalidStateError):
        sigma_max(model, -1)
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(InvalidInputError):
            pullback(model, 0, bad)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("v", [2, 64])
def test_pullback_returns_a_fresh_vector_that_is_zero_outside_the_states_span(family, v):
    # an episode adds ``_vjp`` into the ``_span`` slice of its trainer state's
    # buffer; pullback puts the same product in a new all-zero vector
    rng = np.random.default_rng(11 + v)
    model = _random_model(family, v, rng)
    for state in (0, 3):
        g = rng.standard_normal(v)
        first = pullback(model, state, g)
        start, stop = _span(model, state)
        assert stop - start == (v if family is Family.TABULAR else model.n_params)
        assert not first[:start].any() and not first[stop:].any()
        assert first[start:stop].tobytes() == _vjp(model, state, g, _hidden(model, state)).tobytes()
        second = pullback(model, state, g)
        assert second is not first and second.tobytes() == first.tobytes()


@pytest.mark.parametrize("family", list(Family))
def test_linearization_residual_equals_the_dense_oracle_expression(family):
    # J delta from one pullback per logit equals the dense oracle's J @ delta bit for bit
    rng = np.random.default_rng(31)
    for v in (2, 5, 17):
        model = _random_model(family, v, rng)
        for state in (0, 4):
            theta = rng.uniform(-1.0, 1.0, model.n_params)
            theta_star = theta + rng.uniform(-1.0, 1.0, model.n_params) * 10.0 ** rng.uniform(-4.0, 0.0)
            at_theta = model.with_theta(theta)
            z = forward(at_theta, state)
            z_star = forward(model.with_theta(theta_star), state)
            predicted = z + jacobian(at_theta, state).J @ (theta_star - theta)
            expected = float(np.linalg.norm(z_star - predicted)) / max(float(np.linalg.norm(z_star - z)), 1e-12)
            assert linearization_residual(model, theta, theta_star, state) == expected
