"""Figure 19: LDPC decoding success under the parity worst case (TLC)."""

from conftest import emit

from repro.exp.fig19 import run_fig19


def bench():
    return run_fig19(
        "tlc",
        pe_cycles=(0, 1000, 2000, 3000, 4000, 5000),
        wordline_step=32,
        frames_per_wordline=3,
    )


def test_fig19(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 19 (TLC): LDPC decoding success rate "
        f"(sentinel punctures {result.punctured_parity_fraction:.1%} of parity)",
        result.rows(),
        headers=["sensing", "P/E", "OPT", "current flash", "sentinel"],
    )
    # all 100% within 1000 P/E (the paper's statement)
    for mode in ("hard", "soft2", "soft3"):
        for method in ("opt", "current-flash", "sentinel"):
            assert result.rate(mode, method, 0) == 1.0
            assert result.rate(mode, method, 1000) == 1.0
    # soft sensing compensates hard-decoding losses
    for method in ("opt", "current-flash", "sentinel"):
        assert result.rate("soft3", method, 5000) >= result.rate(
            "hard", method, 5000
        )
