import math

import numpy as np
import pytest

from radnorm.moments import (
    exact_lp_enumeration,
    hitczenko_surrogate,
    power_mean_estimate,
    water_fill,
)


def desc(a):
    """Nonincreasing rearrangement of |a|."""
    return np.sort(np.abs(np.asarray(a, dtype=float)))[::-1]


def dual(a, p):
    """sup{<a, b> : ||b||_inf <= 1, ||b||_2 <= sqrt(p)} by water-filling."""
    return water_fill(desc(a), p)[0]


def grid_dual_oracle(a, p, steps=60):
    """Brute maximization of <a, b> over the box-ball body by projected
    ascent from a coarse grid of directions."""
    a = np.abs(np.asarray(a, dtype=float))
    n = a.size
    best = 0.0
    rng = np.random.default_rng(0)
    dirs = [a] + [rng.random(n) for _ in range(steps)]
    for d in dirs:
        b = np.minimum(d / max(d.max(), 1e-12), 1.0)
        # scale onto the ball, then re-clip and re-scale until stable
        for _ in range(50):
            norm = np.linalg.norm(b)
            if norm > math.sqrt(p):
                b = b * (math.sqrt(p) / norm)
            g = b + 0.05 * a
            b = np.minimum(g, 1.0)
        norm = np.linalg.norm(b)
        if norm > math.sqrt(p):
            b = b * (math.sqrt(p) / norm)
        best = max(best, float(a @ b))
    return best


class TestHitczenkoSurrogate:
    def test_321_p2(self):
        r = hitczenko_surrogate([3, 2, 1], 2)
        assert r.head == 5.0
        assert r.tail == pytest.approx(math.sqrt(2))
        assert r.total == pytest.approx(5 + math.sqrt(2))

    def test_single_p1(self):
        assert hitczenko_surrogate([1], 1).total == 1.0

    def test_flat_p2(self):
        r = hitczenko_surrogate([1, 1, 1, 1], 2)
        assert r.head == 2.0 and r.tail == pytest.approx(2.0)
        assert r.total == pytest.approx(4.0)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            hitczenko_surrogate([1], 0.5)

    def test_concrete_lower_facts(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = rng.standard_normal(int(rng.integers(1, 12)))
            star = desc(a)
            for p in (1.0, 2.0, 3.5, 8.0):
                total = hitczenko_surrogate(a, p).total
                assert total >= star[0] - 1e-12
            assert hitczenko_surrogate(a, 1).total >= star[0] - 1e-12


class TestDualSurrogate:
    def test_all_ones_p4(self):
        assert dual([1, 1, 1, 1], 4) == pytest.approx(4.0)

    def test_all_ones_p1_cauchy_schwarz(self):
        assert dual([1, 1, 1, 1], 1) == pytest.approx(2.0)

    def test_321_p2_vs_grid_oracle(self):
        got = dual([3, 2, 1], 2)
        # KKT water-filling clips the 3, spreads budget 1 over (2, 1)
        assert got == pytest.approx(3 + math.sqrt(5), abs=1e-12)
        assert got >= grid_dual_oracle([3, 2, 1], 2) - 1e-9
        assert got <= grid_dual_oracle([3, 2, 1], 2) + 0.2

    def test_matches_grid_oracle_randomly(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a = rng.standard_normal(int(rng.integers(1, 7)))
            p = float(rng.uniform(1, 6))
            got = dual(a, p)
            approx = grid_dual_oracle(a, p)
            assert got >= approx - 1e-9
            assert got <= approx * 1.2 + 1e-9

    def test_water_fill_feasible_and_tight(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            star = desc(rng.standard_normal(int(rng.integers(1, 15))))
            p = float(rng.uniform(1, 20))
            value, b = water_fill(star, p)
            assert np.all(b <= 1.0 + 1e-12) and np.all(b >= -1e-12)
            assert np.linalg.norm(b) <= math.sqrt(p) + 1e-9
            assert float(star @ b) == pytest.approx(value, rel=1e-12)

    def test_factor_two_relation_to_total(self):
        rng = np.random.default_rng(5)
        for _ in range(80):
            a = rng.standard_normal(int(rng.integers(1, 16)))
            p = float(rng.uniform(1, 12))
            value = dual(a, p)
            total = hitczenko_surrogate(a, p).total
            assert value <= total + 1e-9
            assert total <= 2 * value + 1e-9


class TestExactLpEnumeration:
    @staticmethod
    def all_at_once(a, p):
        n = len(a)
        signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
        return float(np.mean(np.abs(signs @ a) ** p) ** (1.0 / p))

    def test_matches_all_at_once_formula(self):
        # n = 16 spans four blocks of sign patterns
        rng = np.random.default_rng(14)
        for n in (1, 2, 5, 9, 14, 15, 16):
            a = rng.standard_normal(n)
            for p in (1, 2, 3.5, 16):
                assert exact_lp_enumeration(a, p) == pytest.approx(
                    self.all_at_once(a, p), rel=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError):
            exact_lp_enumeration(np.ones(23), 2)


class TestSandwichProperty:
    def test_exact_lp_within_constant_window(self):
        # universal-constant window: exact L_p within [total/10, 10 total]
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            a = rng.standard_normal(n)
            for p in (1, 2, 4, 8, 16):
                total = hitczenko_surrogate(a, p).total
                exact = exact_lp_enumeration(a, p)
                assert total / 10 <= exact <= 10 * total


class TestPowerMeanEstimate:
    def test_constant_values(self):
        est, se = power_mean_estimate(np.full(50, 2.0), 8)
        assert est == 2.0 and se == 0.0

    def test_zeros(self):
        assert power_mean_estimate(np.zeros(10), 4) == (0.0, 0.0)

    def test_logspace_matches_plain(self):
        rng = np.random.default_rng(13)
        v = np.abs(rng.standard_normal(2000)) + 0.1
        e32, s32 = power_mean_estimate(v, 32)
        e33, s33 = power_mean_estimate(v, 32.0000001)
        assert e33 == pytest.approx(e32, rel=1e-6)
        assert s33 == pytest.approx(s32, rel=1e-4)

    def test_huge_values_no_overflow(self):
        v = np.array([1e200, 2e200, 3e200])
        est, se = power_mean_estimate(v, 64)
        assert math.isfinite(est) and math.isfinite(se)
        assert 1e200 <= est <= 3e200

    @pytest.mark.parametrize("c", [1e-12, 1e10])
    @pytest.mark.parametrize("p", [2, 32, 33, 64])
    def test_scale_equivariant(self, c, p):
        v = np.abs(np.random.default_rng(19).standard_normal(500)) + 0.1
        est, se = power_mean_estimate(v, p)
        c_est, c_se = power_mean_estimate(c * v, p)
        assert c_est == pytest.approx(c * est, rel=1e-12)
        assert c_se == pytest.approx(c * se, rel=1e-12)
