"""Library inputs of the wrong kind raise InputValidationError.

The kind rule is ``errors._check_kind``: a number is any
``numbers.Real`` and an integer any ``numbers.Integral``, numpy scalars
included, but a bool is neither.
"""

import math

import numpy as np
import pytest
from scipy import special

from pcmeta.combiners import CombinerSpec, combine_stouffer_weighted, combine_tpm
from pcmeta.counterexample import region_phi, region_phi_prime, region_phi_tilde
from pcmeta.errors import InputValidationError, NumericDomainError
from pcmeta.numerics import ProbValue, chisq_sf
from pcmeta.partial_conjunction import (
    GroupPartition,
    PcCurve,
    gbhpc_enumerate,
    pc_curve,
    select_construction,
    weighted_gbhpc_rows,
    weighted_subset_combiner,
)

PS = [ProbValue.from_linear(p) for p in (0.1, 0.2, 0.3, 0.4, 0.5)]
FISHER = CombinerSpec("fisher")

ALPHA_TAKERS = {
    "pc_curve": lambda a: pc_curve(PS, a, spec=FISHER),
    "select_construction": lambda a: select_construction(PS, a, spec=FISHER),
    "PcCurve": lambda a: PcCurve(n=0, method="fisher", alpha=a, entries=()),
    "region_phi": region_phi,
    "region_phi_prime": region_phi_prime,
    "region_phi_tilde": region_phi_tilde,
}


@pytest.mark.parametrize("name", sorted(ALPHA_TAKERS))
@pytest.mark.parametrize("alpha, message", [
    ("0.05", "alpha: '0.05' is not a number"),
    (True, "alpha: True is not a number"),
    (0.0, r"alpha must be in \(0, 1\)"),
    # 1 - alpha rounds to 1, where the corner search of phi_prime cannot end.
    (-1e-300, r"alpha must be in \(0, 1\)"),
])
def test_alpha_is_a_number_in_unit_interval(name, alpha, message):
    with pytest.raises(InputValidationError, match=message):
        ALPHA_TAKERS[name](alpha)


@pytest.mark.parametrize("gamma", ["0.2", True])
@pytest.mark.parametrize("taker", [
    lambda g: CombinerSpec("tpm", tpm_gamma=g),
    lambda g: combine_tpm(PS, g),
])
def test_tpm_gamma_is_a_number(taker, gamma):
    # A bool is not a number: tpm_gamma=True would run Fisher's method (gamma = 1).
    with pytest.raises(InputValidationError, match="is not a number"):
        taker(gamma)


@pytest.mark.parametrize("weights", [("a",), (True, 2.0), (1.0, np.bool_(True))])
@pytest.mark.parametrize("taker", [
    lambda w: CombinerSpec("stouffer_weighted", weights=w),
    weighted_subset_combiner,
])
def test_weights_are_numbers(taker, weights):
    with pytest.raises(InputValidationError, match="is not a number"):
        taker(weights)


@pytest.mark.parametrize("weights", [[True, 1.0], ["a", 1.0], [1.0, np.bool_(True)]])
def test_combine_stouffer_weighted_weights_are_numbers(weights):
    with pytest.raises(InputValidationError, match="is not a number"):
        combine_stouffer_weighted(PS[:2], weights)


@pytest.mark.parametrize("weights", [
    [1e-200, 1e-200],  # squares 0: the rule divided by sqrt(0)
    [1e200, 1e200],  # squares inf: the rule returned 0.5
    [1e-200, 1.0],
    [1e154, 1e154],  # squares finite, their sum overflows
])
@pytest.mark.parametrize("taker", [
    lambda w: combine_stouffer_weighted([PS[2]] * len(w), w),
    lambda w: CombinerSpec("stouffer_weighted", weights=w),
    lambda w: gbhpc_enumerate([PS[2]] * 3, 2, weighted_subset_combiner(w[:1] * 3)),
    lambda w: weighted_gbhpc_rows(np.log(np.full((4, 2), 0.3)), 1, w),
])
def test_weights_squares_stay_in_the_double_range(taker, weights):
    with pytest.raises(InputValidationError, match=r"squares and sum in \(0, inf\)"):
        taker(weights)


def test_weights_near_the_square_limits_keep_the_scale_free_value():
    p = PS[2]
    want = combine_stouffer_weighted([p, p], [1.0, 1.0])
    assert math.isclose(want.linear, float(special.ndtr(math.sqrt(2.0) * special.ndtri(0.3))))
    for w in (1e-150, 1e150, 1e153):
        got = combine_stouffer_weighted([p, p], [w, w])
        assert math.isclose(got.log_value, want.log_value, rel_tol=1e-12)


@pytest.mark.parametrize("make", [tuple, list, np.array, iter])
def test_weights_from_any_iterable_of_numbers(make):
    spec = CombinerSpec("stouffer_weighted", weights=make([1, 2.5, np.float32(0.5)]))
    assert spec.weights == (1.0, 2.5, 0.5)
    assert all(type(w) is float for w in spec.weights)


@pytest.mark.parametrize("count", [2, 7])
def test_weight_count_must_match_the_p_values(count):
    factory = weighted_subset_combiner([1.0] * count)
    message = f"{count} weights for 5 p-values"
    with pytest.raises(InputValidationError, match=message):
        gbhpc_enumerate(PS, 2, factory)
    with pytest.raises(InputValidationError, match=message):
        pc_curve(PS, 0.05, g=factory)


@pytest.mark.parametrize("value", [math.nan, 2.5, True, "x", None, -1])
def test_budget_and_partition_size_are_integers(value):
    # A NaN budget would compare false with every count and turn the budget off.
    with pytest.raises(InputValidationError, match="^budget"):
        gbhpc_enumerate(PS, 2, lambda u: None, budget=value)
    with pytest.raises(InputValidationError, match=r"^n\b"):
        GroupPartition(value, ((0,),))
    assert type(GroupPartition(np.int64(1), ((0,),)).n) is int


@pytest.mark.parametrize("dof, error", [
    ("4", InputValidationError),
    (4.0, InputValidationError),
    (True, InputValidationError),
    (np.int64(3), NumericDomainError),
    (0, NumericDomainError),
    (-2, NumericDomainError),
])
def test_chisq_sf_dof_is_a_positive_even_integer(dof, error):
    with pytest.raises(error):
        chisq_sf(3.0, dof)


@pytest.mark.parametrize("x", [0.5, 3.0, 40.0, math.inf])
def test_chisq_sf_numpy_dof_same_bits(x):
    for dof in (np.int64(4), np.int32(8)):
        got, want = chisq_sf(x, dof), chisq_sf(x, int(dof))
        assert (got.linear, got.log_value) == (want.linear, want.log_value)
