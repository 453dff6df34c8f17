"""Unit tests of the experiment result dataclasses (no drivers run).

The shape tests run the drivers end to end; these cover the result helpers'
logic in isolation with synthetic inputs, so boundary behaviour (ties,
empties, normalizations) is pinned down cheaply.
"""

import numpy as np
import pytest

from repro.exp.batch_transfer import BatchTransferResult
from repro.exp.fig2 import Fig2Result
from repro.exp.fig3 import Fig3Result
from repro.exp.fig10 import Fig10Result
from repro.exp.fig12 import Fig12Result
from repro.exp.fig13 import Fig13Result
from repro.exp.fig14 import Fig14Result
from repro.exp.fig19 import Fig19Result
from repro.exp.read_disturb import ReadDisturbResult
from repro.exp.table1 import Table1Result


class TestFig2Result:
    def make(self, errors):
        offsets = np.arange(-len(errors) // 2, len(errors) - len(errors) // 2)
        errors = np.asarray(errors, dtype=float)
        zero = int(np.argmin(np.abs(offsets)))
        return Fig2Result(
            kind="tlc", vindex=4, offsets=offsets, errors=errors,
            optimal=float(offsets[np.argmin(errors)]),
            at_default=float(errors[zero]), at_optimal=float(errors.min()),
        )

    def test_v_shape_detection(self):
        assert self.make([90, 40, 10, 5, 10, 40, 90]).is_v_shaped()

    def test_flat_curve_not_v(self):
        assert not self.make([10, 10, 10, 10, 10, 10, 10]).is_v_shaped()

    def test_reduction(self):
        r = self.make([100, 50, 10, 5, 20, 60, 100])
        assert r.reduction == r.at_default / r.at_optimal


class TestFig3Result:
    def make(self):
        return Fig3Result(
            kind="qlc",
            pe_cycles=(0, 1000),
            layers=np.arange(4),
            default_rber={0: np.array([1e-3, 2e-3, 4e-3, 2e-3]),
                          1000: np.array([1e-2, 2e-2, 4e-2, 2e-2])},
            optimal_rber={0: np.array([1e-4, 2e-4, 2e-4, 1e-4]),
                          1000: np.array([1e-3, 2e-3, 2e-3, 1e-3])},
        )

    def test_reduction_factor(self):
        r = self.make()
        assert r.reduction_factor(1000) == pytest.approx(
            np.mean([1e-2, 2e-2, 4e-2, 2e-2]) / np.mean([1e-3, 2e-3, 2e-3, 1e-3])
        )

    def test_layer_spread(self):
        r = self.make()
        assert r.layer_spread(0, "default") == pytest.approx(4.0)
        assert r.layer_spread(0, "optimal") == pytest.approx(2.0)

    def test_rows_cover_all_pe(self):
        assert len(self.make().rows()) == 2


class TestFig10Result:
    def make(self, groundtruth, inferred):
        return Fig10Result(
            kind="tlc", sentinel_voltage=4,
            train_d_rates=np.zeros(3), train_optima=np.zeros(3),
            poly_coeffs=np.zeros(2),
            wordlines=np.arange(len(groundtruth)),
            groundtruth=np.asarray(groundtruth, dtype=float),
            inferred=np.asarray(inferred, dtype=float),
        )

    def test_direction_accuracy_ignores_near_zero(self):
        r = self.make([-20, -30, 1], [-15, -35, -40])
        # the +1 groundtruth is within the dead zone, so 2/2 correct
        assert r.direction_accuracy() == 1.0

    def test_direction_accuracy_counts_sign_misses(self):
        r = self.make([-20, 30], [-15, -10])
        assert r.direction_accuracy() == 0.5

    def test_mean_abs_error(self):
        r = self.make([-20, -30], [-15, -35])
        assert r.mean_abs_error() == pytest.approx(5.0)


class TestFig12Result:
    def test_monotonicity_helper(self):
        r = Fig12Result(
            kind="qlc", deltas=(-3, 0, 3),
            normalized_counts=np.array([1.05, 1.0, 0.97]),
            per_wordline=np.zeros((1, 3)),
        )
        assert r.is_monotone_decreasing()
        r2 = Fig12Result(
            kind="qlc", deltas=(-3, 0, 3),
            normalized_counts=np.array([0.9, 1.0, 0.97]),
            per_wordline=np.zeros((1, 3)),
        )
        assert not r2.is_monotone_decreasing()


class TestFig13Result:
    def make(self):
        return Fig13Result(
            kind="tlc", page="MSB", wordlines=np.arange(5),
            current_retries=np.array([5, 6, 7, 6, 6]),
            sentinel_retries=np.array([1, 1, 2, 1, 5]),
            current_failures=0, sentinel_failures=0,
        )

    def test_means_and_reduction(self):
        r = self.make()
        assert r.current_mean == 6.0
        assert r.sentinel_mean == 2.0
        assert r.reduction == pytest.approx(1 - 2.0 / 6.0)

    def test_fraction_within(self):
        assert self.make().fraction_within(2) == pytest.approx(0.8)


class TestFig14Result:
    def test_average(self):
        r = Fig14Result(
            kind="tlc",
            reductions={"a": 0.5, "b": 0.7},
            reports={},
            profile_retries={},
        )
        assert r.average_reduction == pytest.approx(0.6)
        assert r.rows()[-1][0] == "average"


class TestFig19Result:
    def test_rate_lookup(self):
        success = {
            (mode, method): np.array([1.0, 0.9])
            for mode in ("hard", "soft2", "soft3")
            for method in ("opt", "current-flash", "sentinel")
        }
        r = Fig19Result(
            kind="tlc", pe_cycles=(0, 5000), success=success,
            frames_per_point=10, punctured_parity_fraction=0.018,
        )
        assert r.rate("hard", "opt", 5000) == 0.9
        # one row per (sensing mode, P/E) pair
        assert len(r.rows()) == 6


class TestTable1Result:
    def test_monotone_with_slack(self):
        r = Table1Result(
            kind="qlc", ratios=(0.001, 0.002, 0.004),
            mean_abs={0.001: 5.0, 0.002: 5.3, 0.004: 4.0},
            std={k: 1.0 for k in (0.001, 0.002, 0.004)},
            sentinel_counts={k: 1 for k in (0.001, 0.002, 0.004)},
        )
        assert r.is_monotone_improving(slack=0.10)
        assert not r.is_monotone_improving(slack=0.01)


class TestReadDisturbResult:
    def make(self):
        return ReadDisturbResult(
            kind="tlc",
            read_counts=(0, 1_000_000, 10_000_000),
            rber=np.array([1e-3, 1.05e-3, 3e-3]),
        )

    def test_degradation(self):
        assert self.make().degradation(10_000_000) == pytest.approx(3.0)

    def test_flat_below_one_million(self):
        assert self.make().flat_below_one_million(tolerance=0.10)
        assert not self.make().flat_below_one_million(tolerance=0.01)


class TestBatchTransferResult:
    def test_spread(self):
        r = BatchTransferResult(
            kind="qlc", train_seed=100, eval_seeds=(1, 2),
            mean_abs_error={1: 4.0, 2: 6.0},
            mean_retries={1: 1.0, 2: 1.1},
        )
        assert r.worst_error() == 6.0
        assert r.error_spread() == pytest.approx(2.0 / 5.0)
