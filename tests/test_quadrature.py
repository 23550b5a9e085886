"""Trigonometric quadrature rules and the dyadic sphere grids."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn, rgamma

from spheremra import quadrature
from spheremra.harmonics import SphereGeometry
from spheremra.mra import _node_cartesians
from spheremra.quadrature import (
    grid_axes,
    grid_shape,
    grid_size,
    integrate,
    level_weights,
    make_rule,
    node_cap,
    single_frequency_integral,
)


def test_small_rule_weights():
    rule = make_rule(2, 1)
    assert np.allclose(np.cos(rule.nodes), [1.0, 0.0, -1.0], atol=1e-15)
    assert rule.weights == pytest.approx([1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])
    rule2 = make_rule(2, 2)
    assert rule2.weights == pytest.approx(
        [math.pi / 16.0, 3.0 * math.pi / 8.0, math.pi / 16.0]
    )


@pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5, 6])
def test_weight_symmetry(order, alpha):
    """chi_u = chi_{M-u} always; interior weights stay positive in this range
    (endpoint weights can vanish or dip slightly negative for alpha >= 2, so
    no endpoint positivity is claimed)."""
    rule = make_rule(order, alpha)
    assert rule.weights.shape == (order + 1,)
    assert np.allclose(rule.weights, rule.weights[::-1], rtol=1e-13)
    assert np.all(rule.weights[1:-1] > 0.0)
    if alpha == 1:
        # classical Clenshaw-Curtis weights are positive throughout
        assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5, 6])
def test_monomial_exactness(order, alpha):
    """The order-M rule integrates t^d against (1 - t^2)^((alpha-1)/2)
    exactly for d <= M.  Odd powers vanish; even powers equal the Beta
    function value B((d+1)/2, (alpha+1)/2)."""
    rule = make_rule(order, alpha)
    ts = np.cos(rule.nodes)
    for d in range(order + 1):
        value = integrate(rule, ts**d)
        if d % 2 == 1:
            assert abs(value) <= 1e-12
        else:
            exact = beta_fn((d + 1) / 2.0, (alpha + 1) / 2.0)
            assert value == pytest.approx(exact, rel=1e-10)


def test_single_frequency_closed_form():
    # mu = 0, alpha = 1: int (1 - t^2)^0 ... = int_{-1}^{1} dt = 2
    assert single_frequency_integral(0, 1) == pytest.approx(2.0)
    # odd mu always integrates to zero (cos(mu pi / 2) factor)
    assert single_frequency_integral(3, 2) == 0.0
    # mu = 2, alpha = 1: int T_2(t) dt = -2/3
    assert single_frequency_integral(2, 1) == pytest.approx(-2.0 / 3.0)
    # mu = 2, alpha = 2: pi 2! cos(pi) / (4 Gamma(1) Gamma(3)) = -pi/4
    assert single_frequency_integral(2, 2) == pytest.approx(-math.pi / 4.0)


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("alpha", [1, 3])
def test_cosine_frequency_exactness(order, alpha):
    """cos(mu theta) sampled at theta_u = u pi / M integrates exactly for
    mu <= M, which is the defining property of the rule."""
    rule = make_rule(order, alpha)
    for mu in range(order + 1):
        samples = np.cos(mu * rule.nodes)
        assert integrate(rule, samples) == pytest.approx(
            single_frequency_integral(mu, alpha), abs=1e-12
        )


def test_clenshaw_curtis_cross_check():
    """For alpha = 1 the construction reduces to classical Clenshaw-Curtis
    weights, which have an independent textbook formula."""
    M = 8
    rule = make_rule(M, 1)
    expected = np.empty(M + 1)
    for u in range(M + 1):
        eps = 0.5 if u in (0, M) else 1.0
        acc = 0.0
        for k in range(0, M + 1, 2):
            term = math.cos(k * u * math.pi / M) / (1.0 - k * k) if k else 1.0
            if k in (0, M):
                term *= 0.5
            acc += term
        expected[u] = eps * (4.0 / M) * acc
    assert np.allclose(rule.weights, expected, atol=1e-14)


def test_grid_shapes_and_sizes():
    two = SphereGeometry(2)
    three = SphereGeometry(3)
    assert grid_shape(two, 1) == (3, 4)
    assert grid_size(two, 1) == 12
    assert grid_size(two, 2) == 40
    assert grid_shape(three, 1) == (3, 3, 4)
    assert grid_size(three, 1) == 36
    assert grid_size(two, 3) == 9 * 16


def test_grid_axes_and_node_order():
    two = SphereGeometry(2)
    thetas, phis = grid_axes(two, 1)
    assert len(thetas) == 1
    assert np.allclose(thetas[0], [0.0, math.pi / 2.0, math.pi])
    assert np.allclose(phis, [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0])
    nodes = _node_cartesians(two, 1)
    assert nodes.shape == (12, 3)
    # azimuth varies fastest: node 0 is the pole, nodes 4 and 5 sit on the
    # equator at phi = 0 and pi/2
    assert np.allclose(nodes[0], [1.0, 0.0, 0.0])
    assert np.allclose(nodes[4], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(nodes[5], [0.0, 0.0, 1.0], atol=1e-15)


def test_level_weights_nonnegative_and_consistent():
    for n in (2, 3):
        geo = SphereGeometry(n)
        for j in (1, 2):
            flat = level_weights(geo, j)
            assert flat.shape == (grid_size(geo, j),)
            # zero only at poles of the alpha = 2 axis on S^3
            assert np.all(flat >= 0.0)
            assert np.max(flat) > 0.0
            # polar axes nu = 1..n-1 (alpha = n - nu) in grid order, then
            # the 2^(j+1) azimuth nodes
            outer = np.ones(1)
            for nu in range(1, n):
                outer = np.multiply.outer(outer, make_rule(2**j, n - nu).weights)
            outer = np.multiply.outer(outer, np.ones(2 ** (j + 1)))
            assert np.array_equal(flat, outer.ravel())
    # weights cover the polar axes only (the uniform azimuth factor lives in
    # the analysis constant), so the total is prod_nu int_0^pi sin^(n-nu)
    # times the azimuth count 2^(j+1)
    assert level_weights(SphereGeometry(2), 1).sum() == pytest.approx(2.0 * 4)
    assert level_weights(SphereGeometry(3), 1).sum() == pytest.approx(
        (math.pi / 2.0) * 2.0 * 4
    )


def test_node_cap_override(monkeypatch):
    assert node_cap() == 10_000_000
    monkeypatch.setenv("SPHEREMRA_NODE_CAP", "100")
    assert node_cap() == 100
    geo = SphereGeometry(3)
    with pytest.raises(ValueError):
        grid_axes(geo, 3)  # 40 * 81 * ... nodes exceed the lowered cap
    monkeypatch.setenv("SPHEREMRA_NODE_CAP", "not-a-number")
    with pytest.raises(ValueError):
        node_cap()


def test_rule_validation():
    with pytest.raises(ValueError):
        make_rule(0, 1)
    with pytest.raises(ValueError):
        make_rule(4, 0)
    rule = make_rule(4, 1)
    with pytest.raises(ValueError):
        integrate(rule, np.ones(4))  # five samples required


@pytest.mark.parametrize("alpha", [1, 3])
def test_exactness_past_the_reciprocal_gamma_overflow(alpha):
    """From M = 512 on, odd-alpha summands need the reflected tail; the rule
    keeps the exactness the smaller orders have."""
    test_monomial_exactness(1024, alpha)
    test_cosine_frequency_exactness(1024, alpha)


@pytest.mark.parametrize("mu", [2, 300, 342, 344, 1024, 2**14])
def test_single_frequency_integral_in_the_reflected_tail(mu):
    """Elementary closed forms for even mu: int_0^pi cos(mu theta) sin(k theta)
    = 2k / (k^2 - mu^2) for odd k, so sin(theta) gives 2 / (1 - mu^2), and
    sin^3 = (3 sin(theta) - sin(3 theta)) / 4 gives 12 / ((1 - mu^2)(9 - mu^2))."""
    one = 2.0 / (1.0 - mu**2)
    three = 12.0 / ((1.0 - mu**2) * (9.0 - mu**2))
    assert single_frequency_integral(mu, 1) == pytest.approx(one, rel=1e-13)
    assert single_frequency_integral(mu, 3) == pytest.approx(three, rel=1e-13)


@pytest.mark.parametrize("alpha", range(1, 9))
def test_weights_finite_for_large_orders(alpha):
    # the rule's series (the only source of non-finite terms) up to M = 2^14;
    # full rules only to 2^11, as the O(M^2) cosine matrix of a 2^14 rule
    # takes 1 GB
    for order in (2**9, 2**11, 2**14):
        series = quadrature._rule_series(order, alpha)
        assert np.all(np.isfinite(series))
        assert math.isfinite(single_frequency_integral(order, alpha))
    exact = beta_fn(0.5, (alpha + 1) / 2.0)  # int_0^pi sin^alpha
    for order in (2**9, 2**11):
        weights = make_rule(order, alpha).weights
        assert np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(exact, rel=1e-14)


def _eps(k, order):
    return 0.5 if k == 0 or k == order else 1.0


def loop_rule_series(order, alpha):
    """_rule_series as it was before it became one array expression,
    verbatim: one pair of scalar reciprocal gammas per mu."""
    m = order
    mus = np.arange(m // 2 + 1)
    with np.errstate(invalid="ignore"):  # inf * 0 in the tail, replaced below
        series = np.array(
            [
                _eps(2 * mu, m)
                * (-1.0) ** mu
                * rgamma(alpha / 2.0 - mu + 1.0)
                * rgamma(alpha / 2.0 + mu + 1.0)
                for mu in mus
            ]
        )
    lost, tail = quadrature._reflected_tail(alpha, mus)
    series[lost] = np.where(2 * mus[lost] == m, 0.5, 1.0) * tail
    return series


@pytest.mark.parametrize("alpha", range(1, 9))
def test_rule_series_keeps_the_loop_bits(alpha):
    """Odd and even orders, both ends of the eps factor, and for odd alpha
    the reflected tail from M = 512 on."""
    for order in (1, 2, 3, 16, 63, 64, 1024, 4096, 20000):
        got = quadrature._rule_series(order, alpha)
        assert got.tobytes() == loop_rule_series(order, alpha).tobytes(), order


def test_level_weights_are_read_only_and_cached():
    geo = SphereGeometry(3)
    flat = level_weights(geo, 2)
    assert not flat.flags.writeable
    with pytest.raises(ValueError):
        flat[0] = 1.0
    assert level_weights(geo, 2) is flat
