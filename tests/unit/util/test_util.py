"""Unit tests for units and stats utilities."""

import pytest

from repro.util import (
    GB,
    KB,
    MB,
    Summary,
    best_of,
    fmt_bandwidth,
    fmt_bytes,
    fmt_time,
    mean_ci,
    t_critical_95,
)


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(3 * MB) == "3.00 MB"
        assert fmt_bytes(1.5 * GB) == "1.50 GB"

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(875 * MB) == "875.00 MB/s"

    def test_fmt_time_scales(self):
        assert fmt_time(5e-7) == "0.5 us"
        assert fmt_time(2.5e-3) == "2.50 ms"
        assert fmt_time(51.58) == "51.58 s"
        assert fmt_time(846.64) == "14.11 min"


class TestStats:
    def test_best_of_is_min(self):
        s = best_of([5.0, 3.0, 4.0])
        assert s.value == 3.0
        assert s.halfwidth == 0.0
        assert s.n == 3

    def test_best_of_empty_rejected(self):
        with pytest.raises(ValueError):
            best_of([])

    def test_mean_ci_basic(self):
        s = mean_ci([10.0, 12.0, 14.0])
        assert s.value == pytest.approx(12.0)
        # halfwidth = t(2) * sd/sqrt(3) = 4.303 * 2/sqrt(3)
        assert s.halfwidth == pytest.approx(4.303 * 2.0 / 3**0.5, rel=1e-3)
        assert s.low < 12.0 < s.high

    def test_mean_ci_single_sample(self):
        s = mean_ci([7.0])
        assert s.value == 7.0
        assert s.halfwidth == 0.0

    def test_mean_ci_only_95(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], confidence=0.9)

    def test_t_critical_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(2) == pytest.approx(4.303)
        assert t_critical_95(1000) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_summary_str(self):
        assert str(Summary(3.0, 0.5, 3)) == "3.00 ± 0.50"
        assert str(Summary(3.0, 0.0, 1)) == "3.00"
