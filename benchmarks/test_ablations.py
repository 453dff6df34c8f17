"""Ablation benches for the design choices called out in DESIGN.md."""

from conftest import emit

from repro.exp.ablations import (
    ablate_calibration_delta,
    ablate_correlation,
    ablate_polynomial_degree,
    ablate_sentinel_ratio,
    ablate_sentinel_voltage,
)


def test_ablation_sentinel_ratio(benchmark, paper_digest):
    result = benchmark.pedantic(
        lambda: ablate_sentinel_ratio(
            "tlc", ratios=(0.0005, 0.002, 0.006), wordline_step=8
        ),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: sentinel ratio -> mean retries (TLC)",
         result.rows(), headers=["ratio", result.metric_name])
    assert result.metrics[0.002] < 2.0


def test_ablation_sentinel_voltage(benchmark, paper_digest):
    result = benchmark.pedantic(
        lambda: ablate_sentinel_voltage("qlc", voltages=(4, 8, 12),
                                        wordline_step=8),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: sentinel voltage choice (QLC)",
         result.rows(), headers=["voltage", result.metric_name])
    # mid-range voltages stay well under a quarter state pitch of error
    assert min(result.metrics.values()) < 128 * 0.25


def test_ablation_polynomial_degree(benchmark, paper_digest):
    result = benchmark.pedantic(
        lambda: ablate_polynomial_degree("qlc", degrees=(1, 3, 5, 7)),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: d->offset polynomial degree (QLC)",
         result.rows(), headers=["degree", result.metric_name])
    assert result.metrics[5] <= result.metrics[1] * 1.02


def test_ablation_calibration_delta(benchmark, paper_digest):
    result = benchmark.pedantic(
        lambda: ablate_calibration_delta("tlc", deltas=(2.0, 5.0, 10.0),
                                         wordline_step=8),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: calibration step Delta (TLC)",
         result.rows(), headers=["delta", result.metric_name])
    assert min(result.metrics.values()) < 2.0


def test_ablation_correlation(benchmark, paper_digest):
    result = benchmark.pedantic(
        lambda: ablate_correlation("qlc", wordline_step=8),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: cross-voltage correlation (QLC)",
         result.rows(), headers=["variant", result.metric_name])
    assert result.metrics["sentinel-only"] > 2 * result.metrics["with-correlation"]


def test_ablation_read_noise(benchmark, paper_digest):
    from repro.exp.ablations import ablate_read_noise

    result = benchmark.pedantic(
        lambda: ablate_read_noise("qlc", noise_sigmas=(1.0, 3.5, 8.0),
                                  wordline_step=16),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: sense-amp noise -> inference accuracy (QLC)",
         result.rows(), headers=["noise sigma", result.metric_name])
    # counting statistics dominate; accuracy stays within a small band, and
    # moderate noise even *helps* by dithering the quantized counts
    values = list(result.metrics.values())
    assert max(values) < 10.0


def test_ablation_training_budget(benchmark, paper_digest):
    from repro.exp.ablations import ablate_training_budget

    result = benchmark.pedantic(
        lambda: ablate_training_budget("qlc", wordline_steps=(64, 16, 4),
                                       eval_step=16),
        rounds=1,
        iterations=1,
    )
    paper_digest(result)
    emit("Ablation: factory training samples -> inference accuracy (QLC)",
         result.rows(), headers=["training samples", result.metric_name])
    samples = sorted(result.metrics)
    # more factory data never hurts, with fast saturation
    assert result.metrics[samples[-1]] <= result.metrics[samples[0]] * 1.1
