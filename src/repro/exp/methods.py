"""Shared collector for the method-comparison experiments (Figs 15-18).

For every wordline of the evaluated aged block, gather the dense offset
vector each method would read with — default, sentinel-inferred,
sentinel-calibrated (the controller's final voltages), per-block tracking,
and the true optimum — plus the per-voltage error counts at each.

Two error flavors are recorded:

* ``errors`` — bit errors attributed per voltage by an actual (noisy)
  full-state read: what Figures 16-18 plot.
* ``boundary_errors`` — noiseless adjacent-state misclassification counts:
  the quantity behind Figure 15's "successfully achieved the optimal read
  voltage" criterion (within 5% of the optimum's errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import default_ecc, eval_chip, read_rows, trained_model
from repro.flash.optimal import errors_at_offsets, optimal_offsets_batch
from repro.retry import TrackingPolicy

METHOD_ORDER = ("default", "inferred", "calibrated", "tracking", "optimal")


@dataclass
class MethodErrorData:
    kind: str
    wordlines: np.ndarray
    offsets: Dict[str, np.ndarray]  # method -> (n_wl, n_voltages)
    errors: Dict[str, np.ndarray]  # method -> (n_wl, n_voltages) noisy
    boundary_errors: Dict[str, np.ndarray]  # method -> (n_wl, n_voltages)

    @property
    def n_voltages(self) -> int:
        return self.errors["default"].shape[1]

    def mean_errors(self, method: str) -> np.ndarray:
        return self.errors[method].mean(axis=0)

    def success_rate(
        self,
        method: str,
        relative_tolerance: float = 0.05,
        absolute_slack: int = 3,
    ) -> np.ndarray:
        """Per-voltage fraction of wordlines achieving the optimum.

        Success means the method's boundary errors exceed the optimal ones
        by at most ``relative_tolerance`` (plus a small absolute slack that
        absorbs counting noise on nearly error-free boundaries).
        """
        got = self.boundary_errors[method]
        best = self.boundary_errors["optimal"]
        threshold = np.maximum(best * (1.0 + relative_tolerance), best + absolute_slack)
        return (got <= threshold).mean(axis=0)


def collect_method_errors(
    kind: str = "qlc",
    wordline_step: int = 4,
    include_tracking: bool = False,
    page: str = "MSB",
    max_wordlines: Optional[int] = None,
    strict_ecc_factor: float = 0.45,
) -> MethodErrorData:
    """Run all methods over the evaluated block and collect error counts.

    The "calibrated" method runs the sentinel controller against a *strict*
    ECC (capability scaled by ``strict_ecc_factor``), so the calibration loop
    engages whenever the inferred voltages are not essentially optimal —
    matching how the paper measures whether the optimum was *achieved*, not
    merely whether some ECC decoded.  The vendor-table fallback is disabled
    so the final voltages are genuinely the calibration's output.
    """
    chip = eval_chip(kind)
    spec = chip.spec
    model = trained_model(kind)
    ecc = default_ecc(kind)
    strict = CapabilityEcc(
        capability_rber=ecc.capability_rber * strict_ecc_factor,
        frame_bits=ecc.frame_bits,
    )
    controller = SentinelController(strict, model, fallback_table=False)
    tracking = TrackingPolicy(ecc, chip) if include_tracking else None

    indices = np.arange(0, spec.wordlines_per_block, wordline_step)
    if max_wordlines is not None:
        indices = indices[:max_wordlines]
    methods = [m for m in METHOD_ORDER if include_tracking or m != "tracking"]
    n_v = spec.n_voltages
    offsets = {m: np.zeros((len(indices), n_v)) for m in methods}
    errors = {m: np.zeros((len(indices), n_v), dtype=np.int64) for m in methods}
    boundary = {m: np.zeros((len(indices), n_v), dtype=np.int64) for m in methods}

    tracked = tracking.tracked_offsets(0) if tracking is not None else None

    def batch(cols):
        # per row: sentinel readout, then the controller's read, then the
        # error counts of every method
        rows = []
        for wl, opt, readout, outcome in zip(
            cols.iter_views(), optimal_offsets_batch(cols),
            cols.sentinel_readout_batch(0.0), read_rows(controller, cols, page),
        ):
            inferred = model.infer_offsets(
                readout.difference_rate, wl.stress.temperature_c
            )
            # calibration output counts only when it converged; on a strict-ECC
            # wipeout the controller would fall back to the vendor table, so the
            # honest "calibrated" voltages are the inferred ones
            converged = outcome.success and len(outcome.final_offsets) == n_v
            per_wl = {
                "default": np.zeros(n_v), "optimal": opt, "inferred": inferred,
                "calibrated": outcome.final_offsets if converged else inferred,
                "tracking": tracked,
            }
            rows.append([
                (off, wl.per_voltage_errors(off), [
                    errors_at_offsets(wl, v, [off[v - 1]])[0]
                    for v in range(1, n_v + 1)
                ])
                for off in (per_wl[m] for m in methods)
            ])
        return rows

    for i, row in enumerate(chip.map_wordlines(batch, indices)):
        for method, (off, errs, bounds) in zip(methods, row):
            offsets[method][i] = off
            errors[method][i] = errs
            boundary[method][i] = bounds
    return MethodErrorData(
        kind=kind,
        wordlines=indices,
        offsets=offsets,
        errors=errors,
        boundary_errors=boundary,
    )
