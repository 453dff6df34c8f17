"""Error-correction substrate.

Two models with one interface:

* :class:`repro.ecc.capability.CapabilityEcc` — a correction-capability
  threshold: a frame decodes iff its raw bit errors do not exceed the
  capability.  Fast enough for block-scale sweeps; this is
  what the read controllers use.  It models hard-decision decoding only:
  the paper's read flow has no soft-decode stage.
* :class:`repro.ecc.ldpc.LdpcCode` — a real (random regular) LDPC code with
  a normalized min-sum decoder, fed by the hard / 2-bit soft / 3-bit soft
  sensing LLRs of :mod:`repro.ecc.soft`.  This is what the Figure 19
  decoding-success experiment runs, and the only place soft sensing is
  modelled.

:class:`repro.ecc.page_ecc.RealPageEcc` wraps the LDPC code in the threshold
model's interface, with hard-decision input, so a read controller can run
against the real decoder.
A test holds the threshold rule to it at the LDPC's measured capability;
no passing test yet holds the shipped capability to it (ROADMAP item 12).
"""

from repro.ecc.capability import CapabilityEcc
from repro.ecc.ldpc import LdpcCode, DecodeResult
from repro.ecc.page_ecc import RealPageEcc
from repro.ecc.soft import SoftSensing, page_llrs

__all__ = [
    "CapabilityEcc",
    "LdpcCode",
    "DecodeResult",
    "RealPageEcc",
    "SoftSensing",
    "page_llrs",
]
