"""SIMD substrate: instruction sets, a register-level machine model and
instruction-count profiles for the T-MAC and dequantization inner loops.

The paper's kernels are hand-scheduled NEON/AVX2 code generated through TVM.
This package substitutes two things for that:

* :mod:`repro.simd.machine` — a small register machine that numerically
  executes the T-MAC basic block (unpack, table lookup, aggregate) using the
  modeled instructions, while counting every instruction issued.  Unit tests
  check that the machine's numeric result equals the kernel's, which ties
  the instruction counts to the real algorithm.
* :mod:`repro.simd.profile` — closed-form instruction-count profiles for the
  full kernels (too large to execute instruction-by-instruction in Python),
  validated against the machine on small tiles.  These profiles feed the
  roofline cost model in :mod:`repro.hardware`.

:mod:`repro.simd.isa` describes the NEON and AVX2 instruction sets, and
:mod:`repro.simd.intrinsics` records the paper's Table 1 (lookup and fast
aggregation intrinsics per ISA).
"""

from repro.simd.isa import AVX2, NEON, InstructionSet
from repro.simd.machine import SIMDMachine
from repro.simd.profile import (
    InstructionProfile,
    profile_dequant_gemm,
    profile_tmac_gemm,
)

__all__ = [
    "NEON",
    "AVX2",
    "InstructionSet",
    "SIMDMachine",
    "InstructionProfile",
    "profile_tmac_gemm",
    "profile_dequant_gemm",
]
