#!/usr/bin/env python
"""ECC comparison on real flash reads: LDPC hard vs soft vs the threshold model.

Reads an aged QLC wordline at the default, sentinel-inferred, and optimal
voltages and feeds the same error patterns to three correction engines:

* the LDPC code with min-sum under hard sensing,
* the same LDPC code under 3-bit soft sensing,
* the capability-threshold model the controllers use, at its shipped
  capability and the LDPC's frame length.

It shows why the voltage matters more than the code: at the default
voltages no decoder copes, while at the inferred/optimal voltages even
hard decoding succeeds.

Run:  python examples/ecc_comparison.py
"""

from repro import FlashChip, QLC_SPEC
from repro.analysis import print_table
from repro.ecc.capability import CapabilityEcc
from repro.ecc.ldpc import LdpcCode
from repro.ecc.soft import SoftSensing, extract_frames, page_llrs
from repro.exp.common import eval_stress, trained_model
from repro.flash.optimal import optimal_offsets
from repro.util.rng import derive_rng


def main() -> None:
    spec = QLC_SPEC.scaled(cells_per_wordline=65536, wordlines_per_layer=4)
    chip = FlashChip(spec, seed=1)
    chip.set_block_stress(0, eval_stress("qlc"))
    wl = chip.wordline(0, 40)
    model = trained_model("qlc")

    ldpc = LdpcCode.random_regular(1023, rate=0.84, seed=9)
    threshold = CapabilityEcc(
        capability_rber=CapabilityEcc.for_spec(spec).capability_rber,
        frame_bits=ldpc.n,
    )
    rng = derive_rng(77)

    voltage_sets = {
        "default": None,
        "inferred": model.infer_offsets(
            wl.sentinel_readout().difference_rate
        ),
        "optimal": optimal_offsets(wl),
    }

    rows = []
    for label, offsets in voltage_sets.items():
        hard = SoftSensing.for_pitch(spec.state_pitch, "hard")
        soft = SoftSensing.for_pitch(spec.state_pitch, "soft3")
        err_h, mag_h = page_llrs(wl, "MSB", offsets, hard, rng)
        err_s, mag_s = page_llrs(wl, "MSB", offsets, soft, rng)
        frames_h = extract_frames(err_h, mag_h, ldpc.n, max_frames=16)
        frames_s = extract_frames(err_s, mag_s, ldpc.n, max_frames=16)

        ldpc_ok = soft_ok = model_ok = 0
        n_frames = len(frames_h[0])
        for fe_h, fm_h, fe_s, fm_s in zip(*frames_h, *frames_s):
            ldpc_ok += ldpc.decode_error_pattern(fe_h, fm_h).success
            soft_ok += ldpc.decode_error_pattern(fe_s, fm_s).success
            model_ok += threshold.decode_ok(fe_h)
        rber = err_h.mean()
        rows.append(
            (
                label,
                f"{rber:.2e}",
                f"{ldpc_ok}/{n_frames}",
                f"{soft_ok}/{n_frames}",
                f"{model_ok}/{n_frames}",
            )
        )
    print_table(
        rows,
        headers=["voltages", "RBER", "LDPC hard", "LDPC soft3", "threshold"],
        title=(
            f"MSB frames of wordline {wl.index} "
            f"(QLC, {eval_stress('qlc').pe_cycles} P/E + 1 yr)"
        ),
    )
    print(
        "\nAt the default voltages the raw error rate swamps every decoder;"
        "\nthe sentinel-inferred voltages bring it into the LDPC's range,"
        "\nwhile the stricter threshold model still fails a few frames —"
        "\nthe voltage placement, not the decoder, is the lever."
    )


if __name__ == "__main__":
    main()
