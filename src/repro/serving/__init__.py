"""Batched LLM serving on top of the numerical transformer substrate.

The paper establishes the kernel (LUT-based mpGEMM); this subpackage turns
it into a *serving* engine, the production layer the ROADMAP's north star
asks for:

* :mod:`repro.serving.session` — :class:`InferenceSession`: per-request
  state (prompt, KV caches, position, sampling rng, termination).
* :mod:`repro.serving.engine` — :class:`ServingEngine`: continuous-batching
  scheduler (admit at token granularity, retire on completion) with plan-
  and LUT-cache statistics.  Each step coalesces the current token of
  every active session into one ``[B, hidden]`` activation matrix
  (:meth:`repro.llm.model.TransformerModel.decode`), so each linear layer
  executes one batched mpGEMM (q/k/v and gate/up are one fused operator
  each, bound at model build).  Given a KV byte budget it schedules against a
  paged KV pool (:mod:`repro.kvcache`): admission by free-page count,
  prefix sharing between requests, preemption-and-requeue when pages run
  out, and chunked prefill for long prompts.

Batched execution is bit-identical to running each request alone for
row-independent kernels (T-MAC); the tests assert per-session token
equality against the sequential :class:`repro.llm.inference.Generator`.
(The BLAS-backed fp32 reference may differ in final logits ulps between
batched and single-row matmuls, as BLAS blocks a GEMM differently from a
GEMV; generated tokens still match except at exact argmax near-ties.)
"""

from repro.serving.engine import ServingEngine
from repro.serving.session import (
    InferenceSession,
    SamplingParams,
    SessionState,
    StreamEvent,
)

__all__ = [
    "ServingEngine",
    "InferenceSession",
    "SamplingParams",
    "SessionState",
    "StreamEvent",
]
