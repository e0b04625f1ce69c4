"""LLM substrate: model architectures, a runnable numpy transformer and the
end-to-end throughput estimator.

Two complementary paths are provided, mirroring how the paper evaluates:

* **Numerical path** — :mod:`repro.llm.model` builds a real (randomly
  initialized or user-provided) transformer whose linear layers run through
  a selectable mpGEMM backend from the registry (:mod:`repro.backends`:
  full-precision reference, llama.cpp-style dequantization, or T-MAC).
  This is what the quality/error experiments (Tables 3 and 4) use, at
  laptop-friendly sizes.  Batched multi-request serving on top of this
  path lives in :mod:`repro.serving`.
* **Analytic path** — :mod:`repro.llm.throughput` walks the *real* layer
  shapes of Llama-2-7B/13B and BitNet-3B (:mod:`repro.llm.architecture`)
  and sums roofline kernel latencies to estimate tokens/second per device,
  engine and bit width.  This is what the throughput/energy experiments
  (Figures 8, 9, Tables 5, 7) use.
"""

from repro.llm.architecture import (
    BITNET_3B,
    LLAMA_2_13B,
    LLAMA_2_7B,
    TransformerArch,
    tiny_arch,
)
from repro.llm.inference import GenerationResult, Generator
from repro.llm.model import TransformerModel
from repro.llm.throughput import ThroughputEstimate, estimate_token_throughput

__all__ = [
    "TransformerArch",
    "LLAMA_2_7B",
    "LLAMA_2_13B",
    "BITNET_3B",
    "tiny_arch",
    "TransformerModel",
    "Generator",
    "GenerationResult",
    "ThroughputEstimate",
    "estimate_token_throughput",
]
