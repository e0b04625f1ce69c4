"""Batched LLM serving on top of the numerical transformer substrate.

The paper establishes the kernel (LUT-based mpGEMM); this subpackage turns
it into a *serving* engine, the production layer the ROADMAP's north star
asks for:

* :mod:`repro.serving.session` — :class:`InferenceSession`: per-request
  state (prompt, KV caches, position, sampling rng, termination).
* :mod:`repro.serving.batch` — one batched decode step: the current token
  of every active session is coalesced into a single ``[B, hidden]``
  activation matrix so each linear layer executes one batched mpGEMM
  (q/k/v and gate/up are one fused operator each, bound at model build).
* :mod:`repro.serving.engine` — :class:`ServingEngine`: continuous-batching
  scheduler (admit at token granularity, retire on completion) with plan-
  and LUT-cache statistics.  Given a KV byte budget it schedules against a
  paged KV pool (:mod:`repro.kvcache`): admission by free-page count,
  prefix sharing between requests, preemption-and-requeue when pages run
  out, and chunked prefill for long prompts.

Batched execution is bit-identical to running each request alone for
row-independent kernels (T-MAC); the tests assert per-session token
equality against the sequential :class:`repro.llm.inference.Generator`.
(The BLAS-backed fp32 reference may differ in final logits ulps between
batched and single-row matmuls — see :mod:`repro.serving.batch`.)
"""

from repro.serving.batch import BatchStats, batched_decode_step
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
    "BatchStats",
    "batched_decode_step",
]
