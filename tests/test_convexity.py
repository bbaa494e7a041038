import numpy as np
import pytest

from lco_lab.convexity import (
    bound_check,
    directionality,
    gradient_norm_bound,
    hessian_analytic,
    hessian_numeric,
    min_eigenvalue,
    ppo_hessian_matrix,
    ppo_witness,
)
from lco_lab.dist import softmax
from lco_lab.errors import (
    InactiveRegionError,
    InvalidInputError,
    KinkError,
    WitnessSearchError,
)
from lco_lab.objectives import OBJECTIVES, ObjectiveKind

from oracles import min_eigenvalue_bisect


def test_sft_hessian_at_uniform():
    report = hessian_analytic(ObjectiveKind.SFT, [0.0, 0.0], step=(0,))
    assert np.allclose(report.matrix, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
    assert report.min_eigenvalue >= -1e-12
    assert report.witness is None


def test_mse_hessian_is_scaled_identity():
    report = hessian_analytic(ObjectiveKind.LCO_MSE, np.zeros(4), np.zeros(4))
    assert np.array_equal(report.matrix, 0.5 * np.eye(4))
    assert abs(report.min_eigenvalue - 0.5) < 1e-15
    assert abs(report.max_eigenvalue - 0.5) < 1e-15


def test_lch_hessian_at_zero_residual():
    report = hessian_analytic(ObjectiveKind.LCO_LCH, np.zeros(5), np.zeros(5))
    assert np.allclose(report.matrix, np.eye(5) / 5.0, atol=1e-15)


def test_lch_hessian_eigenvalue_floor():
    residual = np.array([0.5, -1.5, 0.1])
    report = hessian_analytic(ObjectiveKind.LCO_LCH, residual, np.zeros(3))
    radius = np.abs(residual).max()
    assert report.min_eigenvalue >= 1.0 / (3.0 * np.cosh(radius) ** 2) - 1e-14
    assert report.max_eigenvalue <= 1.0 / 3.0 + 1e-15


def test_ppo_hessian_inactive_point_rejected():
    z = np.array([2.0, 0.0])  # pi(0) ~ 0.88
    with pytest.raises(InactiveRegionError):
        hessian_analytic(ObjectiveKind.PPO, z, step=(0, 1.0, 0.5, 0.2))
    with pytest.raises(InactiveRegionError):
        hessian_analytic(ObjectiveKind.PPO, z, step=(0, 0.0, 0.9, 0.2))


def test_numeric_hessian_matches_analytic():
    rng = np.random.default_rng(3)
    z = rng.uniform(-1, 1, 3)
    analytic = hessian_analytic(ObjectiveKind.SFT, z, step=(1,))
    numeric = hessian_numeric(ObjectiveKind.SFT, z, step=(1,))
    assert np.abs(analytic.matrix - numeric.matrix).max() < 1e-5

    z_star = rng.uniform(-1, 1, 4)
    z = rng.uniform(-1, 1, 4)
    numeric = hessian_numeric(ObjectiveKind.LCO_MSE, z, z_star)
    assert np.abs(numeric.matrix - 0.5 * np.eye(4)).max() < 1e-5

    pi_star = softmax(rng.uniform(-1, 1, 3))
    numeric = hessian_numeric(ObjectiveKind.LCO_KLD, z[:3], pi_star)
    analytic = hessian_analytic(ObjectiveKind.LCO_KLD, z[:3], pi_star)
    assert np.abs(analytic.matrix - numeric.matrix).max() < 1e-5


def test_numeric_hessian_detects_clip_kink():
    step = (0, 1.0, 0.5, 0.2)  # behavioral logits (0, 0), positive unit advantage
    # place the ratio just inside the active boundary so a 2*step stencil crosses it
    z = np.array([0.40, 0.0])  # ratio ~1.1974, boundary at gap ln(0.6/0.4) ~ 0.4055
    with pytest.raises(KinkError):
        hessian_numeric(ObjectiveKind.PPO, z, step=step, h=5e-3)


Z3 = np.array([0.3, -0.2, 0.1])
# (kind, target, step) points that break one rule of ``Objective.point`` each, at z = Z3
MALFORMED_POINTS = [
    (ObjectiveKind.SFT, None, ()),  # no target token
    (ObjectiveKind.SFT, None, (3,)),  # token out of range
    (ObjectiveKind.SFT, None, (None,)),
    (ObjectiveKind.SFT, None, ("a",)),
    (ObjectiveKind.SFT, None, 1),  # not a sequence
    (ObjectiveKind.SFT, None, np.array([1])),
    (ObjectiveKind.PPO, None, ()),  # no step at all
    (ObjectiveKind.PPO, None, (0, 1.0, 0.5)),  # short
    (ObjectiveKind.PPO, None, (-1, 1.0, 0.5, 0.2)),
    (ObjectiveKind.PPO, None, (0, np.nan, 0.5, 0.2)),
    (ObjectiveKind.PPO, None, (0, 1.0, 0.0, 0.2)),  # behavioral probability 0
    (ObjectiveKind.PPO, None, (0, 1.0, 1.5, 0.2)),
    (ObjectiveKind.PPO, None, (0, 1.0, 0.5, 1.0)),  # clip epsilon outside (0, 1)
    (ObjectiveKind.PPO, None, (0, 1.0, 0.5, np.inf)),
    (ObjectiveKind.LCO_MSE, None, ()),  # no target
    (ObjectiveKind.LCO_MSE, np.zeros(4), ()),  # target of the wrong size
    (ObjectiveKind.LCO_LCH, [0.0, np.inf, 0.0], ()),
    (ObjectiveKind.LCO_KLD, [0.5, 0.5], ()),
    (ObjectiveKind.LCO_KLD, [0.5, 0.6, -0.1], ()),  # not a distribution
    (ObjectiveKind.REINFORCE, None, (0, 1.0)),  # no Hessian
]


@pytest.mark.parametrize("hessian", [hessian_analytic, hessian_numeric])
@pytest.mark.parametrize("kind, target, step", MALFORMED_POINTS)
def test_hessians_reject_a_malformed_point(hessian, kind, target, step):
    with pytest.raises(InvalidInputError):
        hessian(kind, Z3, target, step)


@pytest.mark.parametrize("hessian", [hessian_analytic, hessian_numeric])
def test_hessians_reject_malformed_logits(hessian):
    for z in ([0.0], [0.0, np.nan], np.zeros((2, 2))):
        with pytest.raises(InvalidInputError):
            hessian(ObjectiveKind.SFT, z, None, (0,))


def test_numeric_hessian_rejects_a_non_positive_h():
    for h in (0.0, -1e-3, np.nan):
        with pytest.raises(InvalidInputError):
            hessian_numeric(ObjectiveKind.LCO_MSE, Z3, Z3, h=h)


def test_point_returns_the_values_the_kernel_reads():
    ppo = OBJECTIVES[ObjectiveKind.PPO]
    z, target, step = ppo.point([0, 1], [9.0], [np.int64(1), 2, 0.5, 0.25, "unread"])
    assert z.dtype == np.float64 and target is None
    assert step == (1, 2.0, 0.5, 0.25) and type(step[0]) is int
    mse = OBJECTIVES[ObjectiveKind.LCO_MSE]
    _, target, step = mse.point(Z3, [1, 2, 3], ("unread",))
    assert np.array_equal(target, [1.0, 2.0, 3.0]) and step == ()
    assert [objective.reads for objective in OBJECTIVES.values()] == [1, 4, 2, 0, 0, 0]


def test_min_eigenvalue_identity_and_zero_row_sums():
    assert abs(min_eigenvalue(np.eye(5)) - 1.0) < 1e-15
    pi = softmax(np.random.default_rng(9).uniform(-2, 2, 6))
    curvature = np.diag(pi) - np.outer(pi, pi)
    assert min_eigenvalue(curvature) >= -1e-12
    assert np.abs(curvature @ np.ones(6)).max() < 1e-15  # the ones vector is in the kernel


def test_min_eigenvalue_against_cholesky_bisection():
    rng = np.random.default_rng(13)
    for _ in range(10):
        raw = rng.standard_normal((6, 6))
        sym = 0.5 * (raw + raw.T)
        assert abs(min_eigenvalue(sym) - min_eigenvalue_bisect(sym)) < 1e-9


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_exact_on_diagonal():
    # the LCO_MSE / LCO_LCH Hessians are diagonal; their spectra must come
    # back exact, with the basis vectors as eigenvectors
    values, vectors = np.linalg.eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(values, [-1.0, 2.0, 3.0])
    assert np.array_equal(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_witness_boundary_case_symmetric_two_actions():
    pi = np.array([0.5, 0.5])
    hess = ppo_hessian_matrix(pi, 0, 1.0, 0.5)
    v = np.array([1.0, 0.0])
    assert v @ hess @ v == 0.0  # exactly on the boundary of the sign condition
    with pytest.raises(WitnessSearchError):
        ppo_witness(pi, 0, 1, max_trials=2000)


def test_witness_low_probability_positive_advantage():
    pi = np.array([0.1, 0.9])
    witness = ppo_witness(pi, 0, 1)
    assert np.array_equal(witness, [1.0, 0.0])  # basis direction already works
    hess = ppo_hessian_matrix(pi, 0, 1.0, 0.1)
    form = witness @ hess @ witness
    # D(e_0) = 0.09 and (v_0 - E)^2 = 0.81, scaled by pi(a)/pi_old(a) = 1
    assert abs(form - (0.09 - 0.81)) < 1e-12
    assert form < -1e-8


def test_witness_high_probability_negative_advantage():
    pi = np.array([0.9, 0.1])
    witness = ppo_witness(pi, 0, -1)
    hess = ppo_hessian_matrix(pi, 0, -1.0, 0.9)
    assert witness @ hess @ witness < -1e-8
    # cross-check against the eigensolver: the Hessian truly is indefinite
    assert np.linalg.eigvalsh(hess)[0] < -1e-8


def test_directionality_values():
    z_star = np.array([0.4, -0.6, 1.0])
    assert directionality(ObjectiveKind.LCO_MSE, z_star, z_star) == 0.0

    rng = np.random.default_rng(17)
    z = rng.uniform(-3, 3, 3)
    value = directionality(ObjectiveKind.LCO_MSE, z, z_star)
    assert abs(value - (2.0 / 3.0) * ((z - z_star) ** 2).sum()) < 1e-12

    for _ in range(100):
        z = rng.uniform(-3, 3, 4)
        z_star = rng.uniform(-3, 3, 4)
        assert directionality(ObjectiveKind.LCO_KLD, z, z_star) >= -1e-12


def test_gradient_norm_bounds():
    for kind in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD):
        assert gradient_norm_bound(kind, 0.0, 3.0, 4) == 0.0
    assert abs(gradient_norm_bound(ObjectiveKind.LCO_KLD, 0.5, 1.0, 2) - 1.0) < 1e-15
    assert abs(gradient_norm_bound(ObjectiveKind.LCO_MSE, 1.0, 2.0, 4) - 2.0) < 1e-15
    # monotone in the loss
    grid = np.linspace(0.0, 3.0, 40)
    for kind in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD):
        bounds = [gradient_norm_bound(kind, x, 1.7, 5) for x in grid]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    with pytest.raises(InvalidInputError):
        gradient_norm_bound(ObjectiveKind.LCO_MSE, -0.1, 1.0, 4)
    # a vocabulary size is an integer of at least 2
    for vocab_size in (2.5, 4.0, True, 1, "4"):
        with pytest.raises(InvalidInputError, match="vocab_size"):
            gradient_norm_bound(ObjectiveKind.LCO_MSE, 1.0, 1.0, vocab_size)
    assert gradient_norm_bound(ObjectiveKind.LCO_MSE, 1.0, 2.0, np.int64(4)) == gradient_norm_bound(
        ObjectiveKind.LCO_MSE, 1.0, 2.0, 4
    )


@pytest.mark.parametrize("kind", [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD])
@pytest.mark.parametrize("loss, sigma", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
def test_gradient_norm_bound_rejects_non_finite(kind, loss, sigma):
    with pytest.raises(InvalidInputError):
        gradient_norm_bound(kind, loss, sigma, 4)


def test_bound_check_flag():
    check = bound_check(ObjectiveKind.LCO_KLD, 0.9, 0.5, 1.0, 2)
    assert check.satisfied and check.bound_value == pytest.approx(1.0)
    check = bound_check(ObjectiveKind.LCO_KLD, 1.1, 0.5, 1.0, 2)
    assert not check.satisfied
