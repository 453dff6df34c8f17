"""Read-retry policies: the baselines the paper compares against.

All policies derive from :class:`repro.retry.policy.ReadPolicy` and return
a :class:`repro.retry.policy.ReadOutcome`, so the experiment drivers can
swap them freely.  Each only declares a lazy per-read offset schedule; the
base reads it per wordline or in lockstep over a columnar batch.

* :class:`repro.retry.current_flash.CurrentFlashPolicy` — the vendor retry
  table shipped in today's chips ("current flash" in the paper's figures).
* :class:`repro.retry.tracking.TrackingPolicy` — Cai et al. (HPCA'15): track
  the optimal voltages of one sampled wordline per block and apply them to
  the whole block.
* :class:`repro.retry.layer_similarity.LayerSimilarityPolicy` — Shim et al.
  (MICRO'19): one tracked optimum per layer.
* :class:`repro.retry.oracle.OraclePolicy` — reads at the true per-wordline
  optimum ("OPT").
* :class:`repro.retry.adaptive.AdaptiveRetryPolicy` — Park et al. (arXiv
  2104.09611): learned per-(block, layer) ladder starts plus pipelined
  speculative retry sensing.
* :class:`repro.retry.online_model.OnlineModelPolicy` — Luo et al. (arXiv
  1807.05140): retention-model prediction before the first sense with
  online per-layer process-variation corrections.
* :class:`repro.retry.tracked_sentinel.TrackedSentinelPolicy` — the
  paper's combination: a tracked first attempt, the sentinel flow on
  failure.

The sentinel controller itself lives in :mod:`repro.core.controller`.
"""

from repro.retry.policy import MAX_RETRIES, ReadPolicy, ReadOutcome, ReadAttempt
from repro.retry.current_flash import CurrentFlashPolicy, vendor_table
from repro.retry.tracking import TrackingPolicy
from repro.retry.layer_similarity import LayerSimilarityPolicy
from repro.retry.oracle import OraclePolicy
from repro.retry.tracked_sentinel import TrackedSentinelPolicy
from repro.retry.adaptive import AdaptiveRetryPolicy
from repro.retry.online_model import OnlineModelPolicy

__all__ = [
    "MAX_RETRIES",
    "ReadPolicy",
    "ReadOutcome",
    "ReadAttempt",
    "CurrentFlashPolicy",
    "vendor_table",
    "TrackingPolicy",
    "LayerSimilarityPolicy",
    "OraclePolicy",
    "TrackedSentinelPolicy",
    "AdaptiveRetryPolicy",
    "OnlineModelPolicy",
]
