"""Error-correction substrate.

Two models with one interface:

* :class:`repro.ecc.capability.CapabilityEcc` — a correction-capability
  threshold: a frame decodes iff its raw bit errors do not exceed the
  capability.  Fast enough for block-scale sweeps; this is
  what the read controllers use.
* :class:`repro.ecc.ldpc.LdpcCode` — a real (random regular) LDPC code with
  a normalized min-sum decoder, fed by the hard / 2-bit soft / 3-bit soft
  sensing LLRs of :mod:`repro.ecc.soft`.  This is what the Figure 19
  decoding-success experiment runs.

Additionally, :class:`repro.ecc.bch.BchCode` implements the classic binary
BCH code (syndromes / Berlekamp-Massey / Chien) whose exact-``t`` guarantee
is what the capability model abstracts — used to cross-validate it.
"""

from repro.ecc.capability import CapabilityEcc
from repro.ecc.ldpc import LdpcCode, DecodeResult
from repro.ecc.bch import BchCode, BchDecodeResult
from repro.ecc.gf import GF2m, field
from repro.ecc.page_ecc import RealPageEcc, ShortenedBch, shortened_bch
from repro.ecc.soft import SoftSensing, page_llrs

__all__ = [
    "CapabilityEcc",
    "LdpcCode",
    "DecodeResult",
    "BchCode",
    "BchDecodeResult",
    "GF2m",
    "field",
    "RealPageEcc",
    "ShortenedBch",
    "shortened_bch",
    "SoftSensing",
    "page_llrs",
]
