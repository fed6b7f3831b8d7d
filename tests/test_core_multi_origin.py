"""Tests for repro.core.multi_origin: synthetic-aperture support."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import paper_system
from repro.core.multi_origin import (
    OriginSchedule,
    synthetic_aperture_cost_comparison,
)


class TestOriginSchedule:
    def test_single_center(self):
        schedule = OriginSchedule.single_center()
        assert schedule.count == 1
        np.testing.assert_allclose(schedule.origins, [[0, 0, 0]])

    def test_virtual_sources_behind_probe(self, small):
        schedule = OriginSchedule.virtual_sources_behind_probe(small, count=5)
        assert schedule.count == 5
        assert np.all(schedule.origins[:, 2] < 0)          # behind the probe
        assert np.all(np.abs(schedule.origins[:, 0])
                      <= small.transducer.aperture_x / 2 + 1e-12)

    def test_translated_subapertures(self, small):
        schedule = OriginSchedule.translated_subapertures(small, count=4)
        assert schedule.count == 4
        np.testing.assert_allclose(schedule.origins[:, 2], 0.0)
        # Origins are symmetric about the aperture centre.
        np.testing.assert_allclose(schedule.origins[:, 0],
                                   -schedule.origins[::-1, 0])

    def test_invalid_counts_rejected(self, small):
        with pytest.raises(ValueError):
            OriginSchedule.virtual_sources_behind_probe(small, count=0)
        with pytest.raises(ValueError):
            OriginSchedule.translated_subapertures(small, count=0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            OriginSchedule(origins=np.zeros((3, 2)))

    @pytest.mark.parametrize("origins, message", [
        (np.zeros((2, 3, 3)), r"shape \(n, 3\)"),
        (np.zeros((0, 3)), "at least one origin"),
        ([[np.nan, 0.0, 0.0]], "finite"),
        ([[0.0, np.inf, 0.0]], "finite"),
    ], ids=["three_dimensional", "empty", "nan", "inf"])
    def test_malformed_origins_rejected(self, origins, message):
        with pytest.raises(ValueError, match=message):
            OriginSchedule(origins=origins)


class TestCostComparison:
    def test_paper_scale_single_origin_matches_section5(self):
        rows = synthetic_aperture_cost_comparison(paper_system(),
                                                  origin_counts=(1,))
        assert rows[0]["tablesteer_entries"] == pytest.approx(2.5e6)
        assert rows[0]["tablesteer_megabits_18b"] == pytest.approx(45.0)

    def test_storage_grows_superlinearly_off_center(self):
        rows = synthetic_aperture_cost_comparison(paper_system(),
                                                  origin_counts=(1, 2, 4))
        entries = [row["tablesteer_entries"] for row in rows]
        assert entries[1] > 2 * entries[0]       # off-centre origins lose pruning
        assert entries[2] > entries[1]

    def test_tablefree_always_zero(self):
        rows = synthetic_aperture_cost_comparison(paper_system())
        assert all(row["tablefree_megabits"] == 0.0 for row in rows)
