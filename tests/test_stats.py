import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # the covariance is built group by group in place; its bits must be those of
        # (ca^T ca + cb^T cb) / (n - 2) formed in one expression
        rng = np.random.default_rng(26)
        a = rng.standard_normal((7, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4) + 3.0
        b = rng.standard_normal((6, 50, 4)) * 10.0 ** rng.integers(-5, 6, 4)
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.copy()) or eigvalsh(m))
        hotelling_t2_map(a, b)
        ca = a - a.mean(axis=0, keepdims=True)
        cb = b - b.mean(axis=0, keepdims=True)
        want = (np.einsum("ans,ant->nst", ca, ca) + np.einsum("ans,ant->nst", cb, cb)) / (13 - 2)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0].view(np.int64), want.view(np.int64))

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

    def test_dof_precondition(self):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((2, 5, 3))
        with pytest.raises(ValueError, match="n_a"):
            hotelling_t2_map(arr, arr)


class TestBhFdr:
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
