import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import heatflow.stats
from heatflow.fields import FieldStack
from heatflow.stats import (
    StatMap,
    bh_fdr,
    correlation_map,
    f_p_value,
    hotelling_t2_map,
    student_t_p_value,
    two_sample_t_map,
    write_statmap,
)


def subjects(values):
    values = np.asarray(values, dtype=float)
    return FieldStack(values, [f"s{i}" for i in range(values.shape[1])], "subjects")


def brute_force_bh(p, q):
    """max{k : p_(k) <= k q / N} by explicit scan."""
    p = np.asarray(p, float)
    n = p.size
    order = np.sort(p)
    best = 0
    for k in range(1, n + 1):
        if order[k - 1] <= k * q / n:
            best = k
    if best == 0:
        return None, np.zeros(n, dtype=bool)
    return float(order[best - 1]), p <= order[best - 1]


class TestTwoSampleT:
    def test_identical_groups(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((20, 4))
        out = two_sample_t_map(subjects(vals), subjects(vals.copy()))
        np.testing.assert_array_equal(out.statistic, 0.0)
        np.testing.assert_array_equal(out.p_values, 1.0)

    def test_hand_computed_example(self):
        a = subjects([[1.0, 2.0, 3.0]])
        b = subjects([[4.0, 5.0, 6.0]])
        out = two_sample_t_map(a, b)
        # pooled T = -3 / sqrt(2/3); p frozen from a 40-digit betainc oracle
        assert out.statistic[0] == pytest.approx(-3.6742346141747673, rel=1e-12)
        assert out.p_values[0] == pytest.approx(0.0213116411288, rel=1e-9)
        assert out.dof == (4,)

    def test_sign_flip_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((15, 5))
        b = rng.standard_normal((15, 7)) + 0.3
        t_ab = two_sample_t_map(subjects(a), subjects(b)).statistic
        t_ba = two_sample_t_map(subjects(b), subjects(a)).statistic
        np.testing.assert_array_equal(t_ab, -t_ba)

    def test_zero_variance_flagged(self):
        a = subjects([[1.0, 1.0, 1.0]])
        b = subjects([[1.0, 1.0, 1.0]])
        out = two_sample_t_map(a, b)
        assert out.flagged[0]
        assert out.statistic[0] == 0.0
        assert out.p_values[0] == 1.0

    def test_monotone_p_in_abs_t(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 6))
        b = rng.standard_normal((40, 6)) + np.linspace(0, 2, 40)[:, None]
        out = two_sample_t_map(subjects(a), subjects(b))
        order = np.argsort(np.abs(out.statistic))
        assert np.all(np.diff(out.p_values[order]) <= 1e-12)

    def test_group_size_validation(self):
        with pytest.raises(ValueError, match="two subjects"):
            two_sample_t_map(subjects([[1.0]]), subjects([[1.0, 2.0]]))

    def test_overflowing_values_fail_by_vertex(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pooled variance overflows at vertex 0: "
                                                 "its values are too large$"):
                two_sample_t_map(subjects(a * 1e160), subjects(b * 1e160))
            a[:2] *= 1e-160  # only the vertices from 2 on overflow
            b[:2] *= 1e-160
            with pytest.raises(ValueError, match="^pooled variance overflows at vertex 2: "):
                two_sample_t_map(subjects(a * 1e160), subjects(b * 1e160))
            # group sums that overflow leave the variance not finite as well
            with pytest.raises(ValueError, match="^pooled variance overflows at vertex 0: "):
                two_sample_t_map(subjects([[1.5e308, 1.5e308]]), subjects([[0.0, 1.0]]))


class TestHotellingT2:
    def test_single_scale_reduces_to_t_squared(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((25, 8))
        b = rng.standard_normal((25, 9)) + 0.5
        t_map = two_sample_t_map(subjects(a), subjects(b))
        t2_map = hotelling_t2_map(a.T[:, :, None], b.T[:, :, None])
        np.testing.assert_allclose(t2_map.statistic, t_map.statistic**2, atol=1e-10)
        np.testing.assert_allclose(t2_map.p_values, t_map.p_values, atol=1e-10)

    def test_identical_groups_zero(self):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((6, 10, 3))
        out = hotelling_t2_map(arr, arr.copy())
        np.testing.assert_allclose(out.statistic, 0.0, atol=1e-20)

    def test_two_scale_toy_against_matrix_oracle(self):
        a = np.array(
            [[[1.0, 2.0]], [[2.0, 1.5]], [[3.0, 2.5]]]
        )  # 3 subjects, 1 vertex, 2 scales
        b = np.array([[[2.0, 3.0]], [[2.5, 3.5]], [[4.0, 5.0]]])
        out = hotelling_t2_map(a, b)
        xa = a[:, 0, :]
        xb = b[:, 0, :]
        d = xa.mean(0) - xb.mean(0)
        ca = xa - xa.mean(0)
        cb = xb - xb.mean(0)
        sp = (ca.T @ ca + cb.T @ cb) / 4.0
        det = sp[0, 0] * sp[1, 1] - sp[0, 1] * sp[1, 0]
        inv = np.array([[sp[1, 1], -sp[0, 1]], [-sp[1, 0], sp[0, 0]]]) / det
        want = (3 * 3 / 6) * d @ inv @ d
        assert out.statistic[0] == pytest.approx(want, rel=1e-10)

    def test_takes_one_subject_scale_array(self):
        # callers stack per-subject FieldStacks into (n_subjects, N, S) themselves
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 7, 2))
        b = rng.standard_normal((5, 7, 2))
        out = hotelling_t2_map(a, b)
        assert out.statistic.shape == (7,)
        assert out.dof == (2, 6)
        with pytest.raises(ValueError, match=r"\(n_subjects, N, S\)"):
            hotelling_t2_map(a[0], b)

    def test_singular_covariance_ridge_flagged(self):
        # identical feature columns make the pooled covariance rank 1
        rng = np.random.default_rng(6)
        base_a = rng.standard_normal((5, 4, 1))
        base_b = rng.standard_normal((5, 4, 1)) + 1.0
        a = np.concatenate([base_a, base_a], axis=2)
        b = np.concatenate([base_b, base_b], axis=2)
        out = hotelling_t2_map(a, b)
        assert out.flagged.all()
        assert np.all(np.isfinite(out.statistic))

    def test_pooled_covariance_is_bitwise_the_one_expression(self, monkeypatch):
        # the covariance is built block by block in place; its bits must be those of
        # (ca ca^T + cb cb^T) / (n - 2) over the whole (N, S, n) groups in one expression,
        # with the ridge trace(cov) / S 1e-10 on the diagonal of each flagged vertex
        rng = np.random.default_rng(26)
        a = rng.standard_normal((7, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4) + 3.0
        b = rng.standard_normal((6, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4)
        seen = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, d: seen.append(m.copy()) or solve(m, d))
        monkeypatch.setattr(heatflow.stats, "_BLOCK_BYTES", 20 * 8 * 4 * (13 + 3 * 4))
        out = hotelling_t2_map(a, b)
        ca = (a - a.mean(axis=0)).transpose(1, 2, 0)
        cb = (b - b.mean(axis=0)).transpose(1, 2, 0)
        want = (ca @ ca.transpose(0, 2, 1) + cb @ cb.transpose(0, 2, 1)) / (13 - 2)
        ridge = 1e-10 * np.maximum(np.trace(want, axis1=1, axis2=2) / 4, 1e-300)
        assert 0 < out.flagged.sum() < 50
        want[out.flagged] += ridge[out.flagged, None, None] * np.eye(4)
        assert len(seen) == 3  # blocks of 20, 20 and 10 vertices
        np.testing.assert_array_equal(np.concatenate(seen).view(np.int64), want.view(np.int64))

    def test_overflowing_features_fail_by_vertex(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((6, 40, 3))
        b = rng.standard_normal((6, 40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pooled covariance overflows at vertex 0: "):
                hotelling_t2_map(a * 1e200, b * 1e200)
            a[:, :5] *= 1e-200  # only the vertices from 5 on overflow
            b[:, :5] *= 1e-200
            with pytest.raises(ValueError, match="^pooled covariance overflows at vertex 5: "):
                hotelling_t2_map(a * 1e200, b * 1e200)
            b[2, 3, 1] = np.nan
            with pytest.raises(ValueError, match="^features at vertex 3 are not finite$"):
                hotelling_t2_map(a, b)

    def test_overflowing_group_sums_fail_without_a_warning(self):
        # finite features whose group sums overflow are named by the same error,
        # with no RuntimeWarning from the means before it
        rng = np.random.default_rng(26)
        a = rng.uniform(1.0, 1.5, (6, 40, 3)) * 1e308
        b = rng.uniform(-1.0, 1.0, (6, 40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pooled covariance overflows at vertex 0: "):
                hotelling_t2_map(a, b)
            # one subject far from three: the covariance is finite, the mean difference is not
            with pytest.raises(ValueError, match="^mean difference overflows at vertex 0: "):
                hotelling_t2_map(np.full((1, 2, 1), 1.5e308), np.full((3, 2, 1), -5e307))

    @staticmethod
    def _planted(lam_over_tau, rng):
        # group a's centred scatter is (n - 2) Q diag(1, 0.7, lam) Q^T at each vertex and
        # group b is constant, so the pooled covariance has smallest eigenvalue lam
        n_a, n_b, s = 8, 4, 3
        a = np.empty((n_a, len(lam_over_tau), s))
        for v, k in enumerate(lam_over_tau):
            lam = np.array([1.0, 0.7, 0.0])
            lam[2] = k * 1e-12 * lam.sum() / s / (1.0 - k * 1e-12 / s)
            z = rng.standard_normal((n_a, s))
            z = np.linalg.qr(z - z.mean(axis=0))[0]  # orthonormal, orthogonal to ones
            q = np.linalg.qr(rng.standard_normal((s, s)))[0]
            a[:, v] = z * np.sqrt((n_a + n_b - 2) * lam) @ q.T
        return a, np.ones((n_b, len(lam_over_tau), s))

    def test_cholesky_certificate_keeps_the_eigenvalue_flag_rule(self, monkeypatch):
        # smallest eigenvalues of 0.5, 1.5 and 3 tau = 1e-12 trace / S beside
        # well-conditioned vertices: the flags are eigvalsh(cov)[:, 0] <= tau at every vertex
        a, b = self._planted([1e11, 0.5, 1e11, 1.5, 1e11, 3.0, 1e11], np.random.default_rng(29))
        ca = (a - a.mean(axis=0)).transpose(1, 2, 0)
        cov = ca @ ca.transpose(0, 2, 1) / (12 - 2)
        rule = np.linalg.eigvalsh(cov)[:, 0] <= 1e-12 * np.trace(cov, axis1=1, axis2=2) / 3
        np.testing.assert_array_equal(rule, [False, True, False, False, False, False, False])
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        np.testing.assert_array_equal(hotelling_t2_map(a, b).flagged, rule)
        assert calls == [7]  # one block, which the 0.5 tau vertex sends to eigvalsh
        monkeypatch.setattr(heatflow.stats, "_BLOCK_BYTES", 1)
        calls.clear()
        np.testing.assert_array_equal(hotelling_t2_map(a, b).flagged, rule)
        assert calls == [1]  # vertex by vertex, the certificate holds at 1.5 and 3 tau

    @pytest.mark.parametrize("vertices", [1, 2, 3])
    def test_map_does_not_depend_on_the_block_size(self, monkeypatch, vertices):
        # blocks that pass the certificate and blocks that fall back to eigvalsh
        rng = np.random.default_rng(26)
        a = rng.standard_normal((7, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4) + 3.0
        b = rng.standard_normal((6, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4)
        a[:, 20:] += rng.standard_normal((7, 30, 4))
        a[:, 35:] -= 3.0  # BH rejects some vertices and keeps others
        whole = hotelling_t2_map(a, b, fdr_q=0.05)
        assert 0 < whole.flagged.sum() < 50 and 0 < whole.significant.sum() < 50
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        monkeypatch.setattr(heatflow.stats, "_BLOCK_BYTES", vertices * 8 * 4 * (13 + 3 * 4))
        blocked = hotelling_t2_map(a, b, fdr_q=0.05)
        assert 0 < len(calls) < -(-50 // vertices)  # some blocks certified, some not
        for name in ("statistic", "p_values"):
            np.testing.assert_array_equal(getattr(blocked, name).view(np.int64),
                                          getattr(whole, name).view(np.int64))
        for name in ("flagged", "significant", "dof", "fdr_threshold", "min_rejected_stat"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))

    def test_refusals_name_the_vertex_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(heatflow.stats, "_BLOCK_BYTES", 3 * 8 * 3 * (12 + 3 * 3))
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 40, 3))
        b = rng.standard_normal((6, 40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a[:, 17] *= 1e200
            with pytest.raises(ValueError, match="^pooled covariance overflows at vertex 17: "):
                hotelling_t2_map(a, b)
            a[:, 17] = rng.standard_normal((6, 3))
            a[:1, 31], b[:, 31] = 1.5e308, -5e307  # one subject against three, one scale
            with pytest.raises(ValueError, match="^mean difference overflows at vertex 31: "):
                hotelling_t2_map(a[:1, :, :1], b[:3, :, :1])
            a[:, 31] = 0.0
            b[4, 25, 2] = np.inf
            with pytest.raises(ValueError, match="^features at vertex 25 are not finite$"):
                hotelling_t2_map(a, b)

    def test_dof_precondition(self):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((2, 5, 3))
        with pytest.raises(ValueError, match="n_a"):
            hotelling_t2_map(arr, arr)


class TestBhFdr:
    def test_nan_p_values_refused(self):
        with pytest.raises(ValueError, match="p-values must lie in"):
            bh_fdr(np.array([0.01, np.nan]), 0.05)
        with pytest.raises(ValueError, match="p-values must lie in"):
            StatMap(np.zeros(2), np.array([np.nan, 0.5]), (3,), np.zeros(2, dtype=bool),
                    np.zeros(2, dtype=bool), 2, 3)

    def test_all_ones_no_rejection(self):
        threshold, mask = bh_fdr(np.ones(10), 0.05)
        assert threshold is None
        assert not mask.any()

    def test_worked_vector_matches_brute_force(self):
        p = np.array([0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205])
        threshold, mask = bh_fdr(p, 0.05)
        want_threshold, want_mask = brute_force_bh(p, 0.05)
        assert threshold == want_threshold
        np.testing.assert_array_equal(mask, want_mask)
        # explicit scan: only k = 1, 2 satisfy p_(k) <= k*0.05/8
        assert mask.sum() == 2

    def test_single_small_p_rejected(self):
        threshold, mask = bh_fdr(np.array([0.04]), 0.05)
        assert threshold == 0.04
        assert mask.all()

    def test_ties_at_threshold_all_rejected(self):
        p = np.array([0.01, 0.01, 0.01, 0.9])
        threshold, mask = bh_fdr(p, 0.05)
        assert mask.sum() == 3

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=0.2),
    )
    def test_matches_brute_force_scan(self, p_list, q):
        p = np.array(p_list)
        threshold, mask = bh_fdr(p, q)
        want_threshold, want_mask = brute_force_bh(p, q)
        assert threshold == want_threshold
        np.testing.assert_array_equal(mask, want_mask)


class TestCorrelationMap:
    def test_self_correlation(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((12, 6))
        out = correlation_map(subjects(vals), subjects(vals.copy()))
        np.testing.assert_allclose(out.statistic, 1.0, atol=1e-12)

    def test_negation(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((12, 6))
        out = correlation_map(subjects(vals), subjects(-vals))
        np.testing.assert_allclose(out.statistic, -1.0, atol=1e-12)

    def test_five_subject_toy_direct_formula(self):
        a = np.array([[1.0, 2.0, 4.0, 3.0, 5.0]])
        b = np.array([[2.0, 1.0, 3.0, 5.0, 4.0]])
        out = correlation_map(subjects(a), subjects(b))
        ca = a[0] - a[0].mean()
        cb = b[0] - b[0].mean()
        want = (ca @ cb) / np.sqrt((ca @ ca) * (cb @ cb))
        assert out.statistic[0] == pytest.approx(want, abs=1e-12)

    def test_zero_variance_flagged(self):
        a = np.array([[1.0, 1.0, 1.0, 1.0]])
        b = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = correlation_map(subjects(a), subjects(b))
        assert out.flagged[0]
        assert out.p_values[0] == 1.0

    @pytest.mark.parametrize("n", [3, 4, 10, 30])
    def test_p_is_the_exact_t_on_n_minus_2_dof(self, n):
        rng = np.random.default_rng(31 + n)
        a = rng.standard_normal((200, n))
        b = 0.5 * a + rng.standard_normal((200, n))
        out = correlation_map(subjects(a), subjects(b))
        want = scipy.stats.pearsonr(a, b, axis=1)
        np.testing.assert_allclose(out.statistic, want.statistic, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.p_values, want.pvalue, rtol=1e-11)
        assert out.dof == (n - 2,)

    def test_perfect_correlation_has_p_zero_without_a_warning(self):
        vals = np.random.default_rng(35).standard_normal((12, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sign in (1.0, -1.0):
                out = correlation_map(subjects(vals), subjects(sign * vals))
                np.testing.assert_array_equal(np.abs(out.statistic), 1.0)
                np.testing.assert_array_equal(out.p_values, 0.0)

    def test_too_few_subjects_named(self):
        with pytest.raises(ValueError, match="^need at least 3 subjects for a correlation p-value$"):
            correlation_map(subjects([[1.0, 2.0]]), subjects([[2.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflowing_values_fail_by_vertex(self, scale):
        rng = np.random.default_rng(36)
        a = rng.standard_normal((4, 8))
        b = a + 0.2 * rng.standard_normal((4, 8))  # r about 0.98
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^variance product overflows at vertex 0: "
                                                 "its values are too large$"):
                correlation_map(subjects(a * scale), subjects(b * scale))
            a[:3] /= scale  # only vertex 3 overflows
            b[:3] /= scale
            with pytest.raises(ValueError, match="^variance product overflows at vertex 3: "):
                correlation_map(subjects(a * scale), subjects(b * scale))


class TestNullCalibration:
    """Seeded null studies of 642 independent vertices: the share of p-values
    below a level must be that level, to within seeded noise."""

    @staticmethod
    def _null_p(test_map, n_a, n_b, studies, seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            test_map(subjects(rng.standard_normal((642, n_a))),
                     subjects(rng.standard_normal((642, n_b)))).p_values
            for _ in range(studies)
        ])

    def test_t_map_at_30_plus_30_subjects(self):
        p = self._null_p(two_sample_t_map, 30, 30, 20, 1000)
        assert 0.04 <= np.mean(p < 0.05) <= 0.06

    def test_correlation_tail_at_10_subjects(self):
        # the Fisher z normal tail put about 0.0022 of null p-values below 0.001 here
        p = self._null_p(correlation_map, 10, 10, 40, 1001)
        assert 0.0004 <= np.mean(p < 0.001) <= 0.0018
        assert 0.04 <= np.mean(p < 0.05) <= 0.06

    def test_correlation_at_3_subjects_is_not_all_ones(self):
        p = self._null_p(correlation_map, 3, 3, 1, 1002)
        assert np.mean(p < 1.0) == 1.0
        assert 0.03 <= np.mean(p < 0.05) <= 0.07


class TestPValueHelpers:
    def test_student_t_symmetric_in_t(self):
        assert student_t_p_value(2.5, 10) == student_t_p_value(-2.5, 10)

    def test_f_p_value_at_zero_is_one(self):
        assert f_p_value(0.0, 3, 20) == pytest.approx(1.0, abs=1e-14)

    def test_f_matches_t_squared(self):
        t = 2.2
        dof = 17
        assert f_p_value(t * t, 1, dof) == pytest.approx(
            student_t_p_value(t, dof), rel=1e-12
        )

    def test_huge_statistics_give_p_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a denormal pooled variance makes t about 1e161, whose square overflows
            out = two_sample_t_map(subjects([[5.0, 5.0]]), subjects([[0.0, 1e-160]]))
            assert out.statistic[0] > 1e160 and out.p_values[0] == 0.0
            assert f_p_value(1e308, 10, 29) == 0.0
            assert student_t_p_value(-1e200, 3) == 0.0

    @pytest.mark.parametrize("t, dof", [(0.3, 1), (-2.5, 4), (1.96, 30), (7.0, 12), (40.0, 200)])
    def test_student_t_against_mpmath_betainc(self, t, dof):
        with mp.workdps(40):
            x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
            want = float(mp.betainc(mp.mpf(dof) / 2, 0.5, 0, x, regularized=True))
        assert student_t_p_value(t, dof) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("f, d1, d2", [(0.5, 1, 5), (2.0, 3, 20), (4.7, 10, 15), (30.0, 2, 100)])
    def test_f_against_mpmath_betainc(self, f, d1, d2):
        with mp.workdps(40):
            x = mp.mpf(d2) / (d2 + d1 * mp.mpf(f))
            want = float(mp.betainc(mp.mpf(d2) / 2, mp.mpf(d1) / 2, 0, x, regularized=True))
        assert f_p_value(f, d1, d2) == pytest.approx(want, rel=1e-10)


class TestStatMapIo:
    def test_csv_and_sidecar(self, tmp_path):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((9, 5))
        b = rng.standard_normal((9, 5)) + 1.0
        out = two_sample_t_map(subjects(a), subjects(b), fdr_q=0.05)
        csv_p = tmp_path / "map.csv"
        json_p = tmp_path / "map.json"
        write_statmap(out, csv_p, json_p)
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "vertex,stat,p,significant"
        assert len(lines) == 10
        import json as _json

        sidecar = _json.loads(json_p.read_text())
        assert sidecar["dof"] == [8]
        assert sidecar["fdr_q"] == 0.05
        assert sidecar["n_a"] == 5 and sidecar["n_b"] == 5
        if out.significant.any():
            assert sidecar["min_rejected_stat"] is not None


EDGE_STATS = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0 / 3.0, -2.5e-300]


def test_statmap_csv_bytes_match_per_row_format(tmp_path):
    # p = 0 and 1 are the p-value extremes; every other p repeats a middle value
    p = np.array([0.0, 1.0, 0.5, 1e-300, 0.25, 1.0, 0.0, 0.125])
    sig = np.array([True, False, True, True, False, False, True, False])
    statmap = StatMap(np.array(EDGE_STATS), p, (3,), sig, np.zeros(8, dtype=bool), 2, 3)
    write_statmap(statmap, tmp_path / "m.csv", tmp_path / "m.json")
    rows = "".join(
        f"{i},{t:.16e},{q:.16e},{int(s)}\n" for i, (t, q, s) in enumerate(zip(EDGE_STATS, p, sig))
    )
    assert (tmp_path / "m.csv").read_text() == "vertex,stat,p,significant\n" + rows
