"""Input sanitization: imputation, clipping, gap tracking."""

import numpy as np
import pytest

from repro.runtime import SanitizationReport, Sanitizer
from repro.runtime.sanitize import MAX_CONSECUTIVE_IMPUTED


@pytest.fixture
def history(rng):
    base = np.stack([np.sin(np.arange(300) / 7.0),
                     np.cos(np.arange(300) / 11.0) * 3.0], axis=1)
    return base + 0.05 * rng.normal(size=base.shape)


@pytest.fixture
def fitted(history):
    return Sanitizer().fit(history)


class TestImputation:
    def test_clean_observation_passes_through(self, fitted):
        observation = np.array([0.1, 2.5])
        clean, report = fitted.sanitize(observation)
        np.testing.assert_array_equal(clean, observation)
        assert not report.modified

    def test_nan_imputed_from_last_value(self, fitted):
        first, _ = fitted.sanitize(np.array([0.4, 1.0]))
        clean, report = fitted.sanitize(np.array([np.nan, 1.1]))
        assert clean[0] == first[0]          # last clean value repeated
        assert clean[1] == 1.1               # healthy feature untouched
        assert report.imputed_features == (0,)

    def test_inf_imputed(self, fitted):
        clean, report = fitted.sanitize(np.array([np.inf, -0.2]))
        assert np.isfinite(clean).all()
        assert report.imputed_features == (0,)

    def test_missing_row_fully_imputed(self, fitted):
        clean, report = fitted.sanitize(None)
        assert np.isfinite(clean).all()
        assert report.missing_row
        assert report.imputed_features == (0, 1)

    def test_output_always_finite(self, fitted):
        clean, _ = fitted.sanitize(np.array([np.nan, np.inf]))
        assert np.isfinite(clean).all()


class TestClipping:
    def test_gross_outlier_clipped(self, fitted):
        clean, report = fitted.sanitize(np.array([1e9, 0.0]))
        assert np.isfinite(clean).all()
        assert abs(clean[0]) < 1e3
        assert report.clipped_features == (0,)

    def test_genuine_anomaly_not_clipped(self, fitted):
        # A 5-sigma excursion is a *detection target*, not transport noise.
        clean, report = fitted.sanitize(np.array([0.0, 3.0 + 5 * 0.05]))
        assert report.clipped_features == ()
        assert clean[1] == pytest.approx(3.0 + 5 * 0.05)

    def test_clip_preserves_direction(self, fitted):
        low, _ = fitted.sanitize(np.array([-1e9, 0.0]))
        high, _ = fitted.sanitize(np.array([1e9, 0.0]))
        assert low[0] < 0 < high[0]


class TestGapTracking:
    def test_gap_reported_after_consecutive_imputed_rows(self, fitted):
        reports = [fitted.sanitize(None)[1]
                   for _ in range(MAX_CONSECUTIVE_IMPUTED + 1)]
        assert not any(r.gap_exceeded
                       for r in reports[:MAX_CONSECUTIVE_IMPUTED - 1])
        assert reports[MAX_CONSECUTIVE_IMPUTED - 1].gap_exceeded
        assert reports[MAX_CONSECUTIVE_IMPUTED].gap_exceeded

    def test_clean_row_resets_gap(self, fitted):
        for _ in range(MAX_CONSECUTIVE_IMPUTED - 1):
            fitted.sanitize(None)
        fitted.sanitize(np.array([0.0, 3.0]))
        _, report = fitted.sanitize(None)
        assert not report.gap_exceeded


class TestCalibration:
    def test_unfitted_rejects(self):
        with pytest.raises(RuntimeError):
            Sanitizer().sanitize(np.zeros(2))

    def test_dirty_history_tolerated(self, history):
        history = history.copy()
        history[10:20, 0] = np.nan
        sanitizer = Sanitizer().fit(history)
        clean, _ = sanitizer.sanitize(np.array([np.nan, 0.0]))
        assert np.isfinite(clean).all()

    def test_all_nan_feature_rejected(self):
        history = np.zeros((50, 2))
        history[:, 1] = np.nan
        with pytest.raises(ValueError):
            Sanitizer().fit(history)

    def test_dead_feature_gets_nondegenerate_band(self):
        history = np.stack([np.sin(np.arange(100) / 5.0),
                            np.zeros(100)], axis=1)
        sanitizer = Sanitizer().fit(history)
        clean, report = sanitizer.sanitize(np.array([0.0, 0.0]))
        assert not report.modified  # constant value is inside its own band

    def test_feature_count_checked(self, fitted):
        with pytest.raises(ValueError):
            fitted.sanitize(np.zeros(5))


class TestReport:
    def test_default_report_unmodified(self):
        assert not SanitizationReport().modified

    def test_modified_flags(self):
        assert SanitizationReport(imputed_features=(1,)).modified
        assert SanitizationReport(clipped_features=(0,)).modified
        assert SanitizationReport(missing_row=True).modified
