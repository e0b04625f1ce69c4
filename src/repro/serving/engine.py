"""The serving engine: continuous batching with paged-KV scheduling.

:class:`ServingEngine` accepts generation requests at any time
(:meth:`~ServingEngine.submit`), admits them into a bounded running batch,
and advances every active session by one token per :meth:`~ServingEngine.step`
— a single batched forward pass in which each linear layer executes one
mpGEMM over all sessions' current tokens
(:meth:`repro.llm.model.TransformerModel.decode`).
Sessions join mid-flight as slots free up and leave the moment they finish
(continuous batching, vLLM-style scheduling at token granularity), so the
batch never drains to refill.

With a KV byte budget (``kv_cache_bytes``) the engine schedules against a
:class:`repro.kvcache.pool.PagePool` instead of unbounded per-session
caches:

* **Admission control** — a waiting request is admitted only when the pool
  has free pages for its whole prompt (minus prefix-cache hits) plus one
  decode token; otherwise it waits, FIFO.
* **Prefix sharing** — full pages of every session's token history are
  registered in the pool's prefix cache, so requests sharing a prompt
  prefix map the same physical pages and skip recomputing them.
* **Preemption** — when a decode step cannot get a page, the *youngest*
  running session is preempted: its pages are released and it is requeued
  at the front of the waiting queue, to be recomputed from its prompt plus
  the tokens it already generated (vLLM's recompute-style preemption).
  Because sessions keep their sampling rng across preemption, the final
  token sequence is unchanged.  Progress guarantee: a session whose next
  step could not fit even in an *empty* pool is failed with a capacity
  error (``finish_reason == "capacity"``, keeping the tokens produced so
  far) instead of being requeued for a recompute that must starve again.
* **Chunked prefill** — with ``prefill_chunk`` set, long prompts are
  processed ``prefill_chunk`` tokens per engine step instead of stalling
  the whole batch behind one long prompt pass.

Request lifecycle (the serving gateway's substrate): admission is
priority-aware (higher ``priority`` first, FIFO within a level), requests
may carry an absolute ``deadline`` on the engine clock (expired requests
finish with ``finish_reason == "deadline"``, keeping partial tokens), and
a per-request ``stream_hook`` receives every newly sampled token the step
it is produced (:class:`repro.serving.session.StreamEvent`) plus exactly
one terminal event — published exactly once per token even across
preemption/recompute and chunked prefill.  The engine also records TTFT
and per-step decode wall time (``serving_stats()`` /
:meth:`~ServingEngine.drain_timing_samples`) so frontends can export
latency histograms without wrapping the scheduler.

Determinism: all cross-step state lives in the sessions (KV caches,
positions, per-session rngs), so batched outputs are identical to running
each request alone — the serving tests assert token-level equality.
(Attention's two products are BLAS matmuls, a GEMV for one query row and
a GEMM for several, with different blocking, so prefix-reuse and chunked
prefill can shift *logits* by an ulp relative to a whole-prompt prefill;
generated tokens still match except at exact argmax near-ties.  The BLAS
reference backend's linear layers carry the same caveat between a batched
step and one-row calls.)
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.executor import parallel_executor_stats, specialize_stats
from repro.core.kernel import TMACKernel
from repro.core.plan import plan_cache_stats
from repro.kvcache import OutOfBlocks, PagePool
from repro.kvcache.pool import DEFAULT_BLOCK_SIZE
from repro.llm.inference import GenerationResult
from repro.llm.layers import TransformerBlock
from repro.llm.model import TransformerModel
from repro.serving.session import (
    InferenceSession,
    SamplingParams,
    SessionState,
    StreamEvent,
)

__all__ = ["ServingEngine"]

#: Bound on the buffered TTFT / decode-step wall-time samples held for
#: :meth:`ServingEngine.drain_timing_samples`.  A consumer (the gateway's
#: metrics histograms) drains every step; without a consumer the deques
#: simply keep the most recent samples instead of growing with step count.
TIMING_SAMPLE_BUFFER = 4096


class ServingEngine:
    """Continuous-batching inference engine over one shared model.

    Parameters
    ----------
    model:
        The transformer every session runs through.  Its weights/kernels
        are stateless across requests; per-request state lives in the
        sessions.
    max_batch_size:
        Maximum number of concurrently running (prefilling + decoding)
        sessions.  Further submissions queue until a slot frees up.
    kv_cache_bytes:
        Byte budget for all sessions' KV state.  When set, sessions hold
        block tables into a shared :class:`~repro.kvcache.pool.PagePool`
        (prefix sharing, admission control, preemption); when ``None``
        (default) each session owns unbounded per-layer caches, as before.
    page_size:
        Tokens per KV page in paged mode (default 16).
    prefill_chunk:
        Maximum prompt tokens processed per engine step and session;
        ``None`` (default) prefills whole prompts in one pass.
    prefix_caching:
        Whether paged mode registers full pages for cross-request reuse.
    clock:
        Monotonic time source (seconds) used for TTFT / decode-step
        timing and request deadlines.  Injectable so scheduling-policy
        tests can drive deadlines deterministically; defaults to
        :func:`time.perf_counter`.
    """

    def __init__(self, model: TransformerModel, max_batch_size: int = 8,
                 kv_cache_bytes: Optional[int] = None,
                 page_size: int = DEFAULT_BLOCK_SIZE,
                 prefill_chunk: Optional[int] = None,
                 prefix_caching: bool = True,
                 clock: Callable[[], float] = time.perf_counter):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if prefill_chunk is not None and prefill_chunk < 1:
            raise ValueError(f"prefill_chunk must be >= 1, got {prefill_chunk}")
        self.model = model
        self.max_batch_size = max_batch_size
        self.prefill_chunk = prefill_chunk
        self.pool: Optional[PagePool] = None
        if kv_cache_bytes is not None:
            self.pool = PagePool.for_model(model.arch, kv_cache_bytes,
                                           block_size=page_size,
                                           prefix_caching=prefix_caching)
        self.sessions: Dict[int, InferenceSession] = {}
        self._waiting: List[int] = []
        self._prefilling: List[int] = []
        self._active: List[int] = []
        #: Batched decode steps run, the tokens they decoded and the
        #: largest batch one step coalesced.
        self.decode_steps = 0
        self.batched_tokens = 0
        self.peak_batch_size = 0
        # Every decode step calls each linear operator once, and a T-MAC
        # call builds one lookup table that serves all the projections
        # its operator fuses.
        parts = TransformerBlock.PROJECTIONS * len(model.blocks) + (1,)
        tmac_parts = [p for op, p in zip(model.linears(), parts)
                      if isinstance(op.kernel, TMACKernel)]
        self._tables_per_step = len(tmac_parts)
        self._reuses_per_step = sum(tmac_parts) - len(tmac_parts)
        self._prefills = 0
        self._prefill_chunks = 0
        self.preemptions = 0
        #: Sessions force-finished because the KV pool can never hold their
        #: next step (their results carry ``finish_reason == "capacity"``).
        self.capacity_failures = 0
        #: Sessions expired past their deadline (``finish_reason ==
        #: "deadline"``), whether still queued or already running.
        self.deadline_expirations = 0
        #: Stream-hook invocations that raised; the exception is swallowed
        #: (a broken consumer must not take the batch down) and counted.
        self.stream_hook_errors = 0
        self.clock = clock
        self._decode_counts: Dict[int, int] = {}
        self._admit_seq: Dict[int, int] = {}
        self._next_seq = 0
        self._arrival_seq: Dict[int, int] = {}
        self._next_arrival = 0
        self._peak_kv_bytes = 0
        self._peak_shared_blocks = 0
        self._ttft_sum = 0.0
        self._ttft_count = 0
        self._ttft_samples: deque = deque(maxlen=TIMING_SAMPLE_BUFFER)
        self._decode_wall_sum = 0.0
        self._decode_wall_count = 0
        self._decode_wall_samples: deque = deque(
            maxlen=TIMING_SAMPLE_BUFFER)

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #

    def submit(
        self,
        prompt_tokens,
        max_new_tokens: int = 16,
        temperature: float = 0.0,
        top_k: int = 0,
        stop_token: Optional[int] = None,
        stop_tokens: Sequence[int] = (),
        seed: int = 0,
        priority: int = 0,
        deadline: Optional[float] = None,
        stream_hook: Optional[Callable[[StreamEvent], None]] = None,
    ) -> int:
        """Queue a generation request; returns its session id.

        Invalid requests (empty prompt, out-of-vocabulary tokens, prompt
        longer than the context window, negative/non-finite temperature,
        ``max_new_tokens < 1``, ``top_k < 0``, negative stop tokens) are
        rejected here, at submission — not mid-batch, where a failure
        would take the whole step down.

        Request-lifecycle parameters (all optional, defaults reproduce
        the previous FIFO behaviour):

        * ``priority`` — higher values are admitted first; ties are FIFO
          by submission order (and preempted sessions keep their original
          arrival rank, so recompute victims are not starved).
        * ``deadline`` — absolute time on the engine :attr:`clock` after
          which the request is expired with ``finish_reason ==
          "deadline"``, whether still queued or mid-decode; the tokens
          generated so far are kept.
        * ``stream_hook`` — callable receiving a
          :class:`~repro.serving.session.StreamEvent` for every newly
          sampled token the moment the decode step that produced it
          completes, plus one terminal event; exceptions raised by the
          hook are swallowed and counted in ``stream_hook_errors``.
        """
        prompt = [int(t) for t in prompt_tokens]
        arch = self.model.arch
        if not prompt:
            raise ValueError("prompt_tokens must be non-empty")
        if any(t < 0 or t >= arch.vocab_size for t in prompt):
            raise ValueError(
                f"prompt contains token ids outside [0, {arch.vocab_size})"
            )
        if len(prompt) > arch.max_seq_len:
            raise ValueError(
                f"prompt length {len(prompt)} exceeds max_seq_len "
                f"{arch.max_seq_len}"
            )
        if self.pool is not None and \
                self._pages_for(min(len(prompt) + 1, arch.max_seq_len)) > \
                self.pool.num_blocks:
            raise ValueError(
                f"prompt of {len(prompt)} tokens needs more KV pages than "
                f"the pool holds ({self.pool.num_blocks} pages of "
                f"{self.pool.block_size} tokens); raise kv_cache_bytes"
            )
        params = SamplingParams(
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            top_k=top_k,
            stop_token=stop_token,
            stop_tokens=tuple(stop_tokens),
            seed=seed,
        )
        session = InferenceSession(prompt_tokens=prompt, params=params,
                                   priority=priority, deadline=deadline,
                                   stream_hook=stream_hook)
        session.submit_time = self.clock()
        self.sessions[session.session_id] = session
        self._waiting.append(session.session_id)
        self._decode_counts[session.session_id] = 0
        self._arrival_seq[session.session_id] = self._next_arrival
        self._next_arrival += 1
        return session.session_id

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    @property
    def num_waiting(self) -> int:
        """Requests queued (or preempted) but not currently running."""
        return len(self._waiting)

    #: Alias used by the serving gateway's admission control / metrics.
    queue_depth = num_waiting

    @property
    def num_prefilling(self) -> int:
        """Admitted sessions still working through their prompt."""
        return len(self._prefilling)

    @property
    def num_active(self) -> int:
        """Sessions currently in the decoding batch."""
        return len(self._active)

    @property
    def has_work(self) -> bool:
        """Whether any request is still waiting, prefilling or decoding."""
        return bool(self._waiting or self._prefilling or self._active)

    def _admission_key(self, session_id: int):
        """Admission order: highest priority first, then FIFO by arrival."""
        return (-self.sessions[session_id].priority,
                self._arrival_seq[session_id])

    def _admit(self) -> None:
        """Move waiting sessions into the batch while resources allow.

        A session (re-)enters with a prefill target of its *whole* token
        history — just the prompt for fresh requests, prompt plus generated
        tokens for preempted ones (recompute).  In paged mode admission is
        gated by the pool's free-page count against the pages the target
        needs beyond its prefix-cache hits (a non-recording probe).
        Admission order is priority-aware: highest :attr:`InferenceSession.
        priority` first, FIFO within a priority level (preempted sessions
        keep their original arrival rank), and stops at the first request
        in that order which does not fit — deliberate head-of-line
        blocking, so a large high-priority request is not starved by
        smaller low-priority ones slipping past it.  Pages are *bound* at
        prefill start, not here, so requests admitted in one burst can
        still share the prefix pages their burst-mates commit moments
        later.
        """
        while self._waiting and (len(self._active) + len(self._prefilling)
                                 < self.max_batch_size):
            session_id = min(self._waiting, key=self._admission_key)
            session = self.sessions[session_id]
            target = session.tokens
            if self.pool is not None:
                total_pages = self._pages_for(
                    min(len(target) + 1, self.model.arch.max_seq_len))
                if total_pages > self.pool.num_blocks:
                    # A preempted session has grown past what the whole
                    # pool can recompute: it can never run again, so it
                    # fails with a capacity error, keeping the tokens it
                    # already produced (analogous to hitting max_seq_len,
                    # but surfaced as finish_reason == "capacity").
                    self._fail_capacity(session_id)
                    continue
                if total_pages - self._probe_prefix_pages(target) > \
                        self.pool.free_blocks:
                    break
            self._waiting.remove(session_id)
            session.state = SessionState.PREFILLING
            self._prefilling.append(session_id)
            self._admit_seq[session_id] = self._next_seq
            self._next_seq += 1

    def _probe_prefix_pages(self, target: List[int]) -> int:
        """Pages a request would get from the prefix cache (counter-free)."""
        if self.pool is None or self.pool.prefix_cache is None:
            return 0
        block_ids, _ = self.pool.prefix_cache.match(
            target, max_tokens=len(target) - 1, record=False)
        return len(block_ids)

    def _bind_caches(self, session: InferenceSession,
                     target: List[int]) -> bool:
        """Attach KV storage to an admitted session at prefill start.

        In paged mode this is where the real prefix match happens and the
        remaining pages (whole target plus one decode token) are reserved,
        all-or-nothing — so prefill can never die out-of-memory mid-pass.
        Returns ``False`` when the pool cannot cover the reservation (the
        admission-time estimate was beaten by burst-mates grabbing pages
        first); the caller requeues the session.
        """
        if self.pool is None:
            session.caches = self.model.new_cache()
            session.position = 0
            return True
        cache = self.pool.create_session_cache(target)
        try:
            cache.reserve(min(len(target) + 1, self.model.arch.max_seq_len))
        except OutOfBlocks:
            cache.release()
            return False
        session.page_cache = cache
        session.caches = cache.layer_views()
        session.position = cache.prefix_length
        return True

    def _advance_prefills(self) -> None:
        """Run one prompt chunk for every prefilling session.

        Without ``prefill_chunk`` the whole remaining prompt is processed,
        reproducing the previous prefill-at-admission behaviour.  When the
        last chunk completes, the session samples its first token
        (``advance``) and joins the decoding batch.
        """
        for session_id in list(self._prefilling):
            session = self.sessions[session_id]
            target = session.tokens
            if session.caches is None and not self._bind_caches(session,
                                                                target):
                self._prefilling.remove(session_id)
                session.state = SessionState.WAITING
                self._waiting.insert(0, session_id)
                continue
            chunk = self.prefill_chunk or len(target)
            end = min(session.position + chunk, len(target))
            tokens = np.asarray(target[session.position:end], dtype=np.int64)
            logits = self.model.forward(tokens, caches=session.caches,
                                        start_position=session.position)
            session.position = end
            self._prefill_chunks += 1
            if session.page_cache is not None:
                # Commit completed pages immediately so later sessions in
                # this same admission burst can share them.
                session.page_cache.commit_prefix(target)
            if end < len(target):
                continue
            session.last_logits = logits[-1]
            session.state = SessionState.ACTIVE
            self._prefills += 1
            self._prefilling.remove(session_id)
            # For preempted sessions advance() resumes exactly where the
            # failed decode step would have (same logits, same rng); for
            # budget-exhausted recomputes it finishes without sampling.
            session.advance(self.model.arch.max_seq_len)
            if not session.finished:
                self._active.append(session_id)
            else:
                # Finished straight out of prefill (one-token budget, stop
                # token on the first sample, context limit): it never
                # joins _active, so _retire_finished would miss its pages.
                self._release_pages(session)
            self._note_progress(session)

    def _pages_for(self, num_tokens: int) -> int:
        """KV pages needed to hold ``num_tokens`` positions."""
        return -(-num_tokens // self.pool.block_size)

    def _youngest_running(self) -> Optional[int]:
        """The most recently admitted running session (preemption victim)."""
        running = self._prefilling + self._active
        if not running:
            return None
        return max(running, key=lambda sid: self._admit_seq[sid])

    def _preempt(self, session_id: int) -> None:
        """Release a running session's pages and requeue it for recompute.

        The session keeps its generated tokens and its sampling rng; on
        re-admission it prefills over prompt + generated tokens, which
        reproduces the logits the failed decode step would have seen, so
        the continuation is token-identical.
        """
        session = self.sessions[session_id]
        if session_id in self._active:
            self._active.remove(session_id)
        if session_id in self._prefilling:
            self._prefilling.remove(session_id)
        if session.page_cache is not None:
            session.page_cache.release()
            session.page_cache = None
        session.caches = None
        session.last_logits = None
        session.pending_token = None
        session.position = 0
        session.state = SessionState.WAITING
        self._waiting.insert(0, session_id)
        self.preemptions += 1

    def _reserve_decode_pages(self) -> None:
        """Guarantee every pending decode token a page before the step.

        Surfacing out-of-memory *here* — instead of mid-forward — turns it
        into scheduling policy: the youngest running session is preempted
        (freeing its pages) until the reservation fits.  When the starving
        session is itself the youngest, preempting (= requeueing) it only
        helps if the *whole* pool could hold its recomputed history plus
        the next token; if even that is impossible, requeueing would
        recompute everything just to starve again — an unbounded
        preempt/recompute loop when it is the only runnable session — so
        the session fails with a capacity error instead, keeping the
        tokens it already produced (progress guarantee).
        """
        if self.pool is None:
            return
        for session_id in list(self._active):
            if session_id not in self._active:
                continue  # preempted while serving an earlier reservation
            session = self.sessions[session_id]
            if session.pending_token is None:
                continue
            while True:
                try:
                    session.page_cache.reserve(session.position + 1)
                    break
                except OutOfBlocks:
                    victim = self._youngest_running()
                    if victim is None:
                        victim = session_id
                    # A requeued session recomputes its whole history (the
                    # pending token included: position + 1 tokens) and needs
                    # one decode slot on top — exactly _admit's readmission
                    # requirement.  If even an empty pool cannot cover that,
                    # preempting it would be a futile recompute cycle.
                    if victim == session_id and \
                            self._pages_for(session.position + 2) > \
                            self.pool.num_blocks:
                        self._fail_capacity(session_id)
                        break
                    self._preempt(victim)
                    if victim == session_id:
                        break

    def _fail_capacity(self, session_id: int) -> None:
        """Finish a session the pool can never satisfy (capacity error)."""
        session = self.sessions[session_id]
        for queue in (self._waiting, self._prefilling, self._active):
            if session_id in queue:
                queue.remove(session_id)
        self._release_pages(session)
        session.finish("capacity")
        self.capacity_failures += 1
        self._note_progress(session)

    def _expire_deadlines(self) -> None:
        """Finish every live session whose deadline has passed.

        Runs at the top of :meth:`step`, so an expired request is dropped
        before it can consume admission, prefill or decode work.  Queued
        and running sessions are treated alike: pages are released, the
        tokens produced so far are kept, and the result carries
        ``finish_reason == "deadline"`` (the gateway's request-timeout
        path; nothing expires when no deadline was given).
        """
        now = None
        for session_id in list(self.sessions):
            session = self.sessions[session_id]
            if session.finished or session.deadline is None:
                continue
            if now is None:
                now = self.clock()
            if now < session.deadline:
                continue
            for queue in (self._waiting, self._prefilling, self._active):
                if session_id in queue:
                    queue.remove(session_id)
            self._release_pages(session)
            session.finish("deadline")
            self.deadline_expirations += 1
            self._note_progress(session)

    # ------------------------------------------------------------------ #
    # Streaming + timing
    # ------------------------------------------------------------------ #

    def _note_progress(self, session: InferenceSession) -> None:
        """Record TTFT and publish newly sampled tokens for one session.

        Called after every point where a session can gain tokens or
        finish (prefill's first sample, each decode advance, capacity /
        deadline failures, cancel).  ``streamed_tokens`` makes publication
        exactly-once even across preemption and recompute: a requeued
        session regrows its KV state but keeps its generated tokens, so
        nothing is re-published.
        """
        if session.ttft is None and session.generated_tokens and \
                session.submit_time is not None:
            session.ttft = self.clock() - session.submit_time
            self._ttft_sum += session.ttft
            self._ttft_count += 1
            self._ttft_samples.append(session.ttft)
        hook = session.stream_hook
        new_tokens = session.generated_tokens[session.streamed_tokens:]
        if hook is not None:
            for offset, token in enumerate(new_tokens):
                self._emit(hook, StreamEvent(
                    session_id=session.session_id,
                    index=session.streamed_tokens + offset,
                    token=int(token),
                    finished=False,
                ))
        session.streamed_tokens += len(new_tokens)
        if session.finished and not session.stream_closed:
            session.stream_closed = True
            if hook is not None:
                self._emit(hook, StreamEvent(
                    session_id=session.session_id,
                    index=session.streamed_tokens,
                    token=None,
                    finished=True,
                    finish_reason=session.finish_reason,
                ))

    def _emit(self, hook, event: StreamEvent) -> None:
        try:
            hook(event)
        except Exception:
            # A consumer crash must not take the whole batch down; the
            # counter surfaces the problem to metrics/tests.
            self.stream_hook_errors += 1

    def drain_timing_samples(self) -> Dict[str, List[float]]:
        """Return and clear the buffered TTFT / decode-step wall samples.

        The gateway's metrics histograms call this once per engine step;
        the running sums behind ``serving_stats()``'s means are *not*
        reset.  Buffers are bounded (``TIMING_SAMPLE_BUFFER``), so an
        engine without a draining consumer keeps the most recent samples.
        """
        samples = {
            "ttft_s": list(self._ttft_samples),
            "decode_step_s": list(self._decode_wall_samples),
        }
        self._ttft_samples.clear()
        self._decode_wall_samples.clear()
        return samples

    def _commit_prefix_pages(self) -> None:
        """Register newly completed full pages for cross-request reuse."""
        if self.pool is None or self.pool.prefix_cache is None:
            return
        for session in self.sessions.values():
            if session.page_cache is not None:
                session.page_cache.commit_prefix(session.tokens)

    def _retire_finished(self) -> None:
        for session_id in list(self._active):
            session = self.sessions[session_id]
            if not session.finished:
                continue
            self._active.remove(session_id)
            self._release_pages(session)

    def _release_pages(self, session: InferenceSession) -> None:
        if session.page_cache is not None:
            session.page_cache.release()
            session.page_cache = None

    def _track_kv_peak(self) -> None:
        """High-water mark of live KV bytes (pool-tracked in paged mode)."""
        if self.pool is not None:
            self._peak_kv_bytes = self.pool.peak_kv_bytes
            self._peak_shared_blocks = max(self._peak_shared_blocks,
                                           self.pool.shared_blocks)
            return
        live = 0
        for session in self.sessions.values():
            if session.caches:
                live += sum(cache.memory_bytes()
                            for cache in session.caches)
        self._peak_kv_bytes = max(self._peak_kv_bytes, live)

    def step(self) -> Dict[str, int]:
        """Admit, prefill, reserve pages, decode one batched step, retire.

        Returns a small summary (batch size, active/waiting counts) so
        callers can drive scheduling loops and benchmarks.
        """
        self._expire_deadlines()
        self._admit()
        self._advance_prefills()
        self._reserve_decode_pages()
        batch = [self.sessions[sid] for sid in self._active
                 if self.sessions[sid].pending_token is not None]
        if batch:
            step_start = self.clock()
            tokens = [session.pending_token for session in batch]
            positions = [session.position for session in batch]
            caches = [session.caches for session in batch]
            logits = self.model.decode(tokens, positions, caches)
            self.decode_steps += 1
            self.batched_tokens += len(batch)
            self.peak_batch_size = max(self.peak_batch_size, len(batch))
            for row, session in enumerate(batch):
                session.pending_token = None
                session.position += 1
                session.last_logits = logits[row]
                self._decode_counts[session.session_id] += 1
                session.advance(self.model.arch.max_seq_len)
            wall = self.clock() - step_start
            self._decode_wall_sum += wall
            self._decode_wall_count += 1
            self._decode_wall_samples.append(wall)
        self._commit_prefix_pages()
        self._retire_finished()
        # Publish after retirement so a terminal event is only observable
        # once the finished session's pages are back in the pool (the
        # gateway checks free-page baselines on stream completion).
        for session in batch:
            self._note_progress(session)
        self._track_kv_peak()
        return {
            "batch_size": len(batch),
            "active": self.num_active,
            "prefilling": self.num_prefilling,
            "waiting": self.num_waiting,
        }

    def run(self, max_steps: Optional[int] = None) -> Dict[int, GenerationResult]:
        """Drive :meth:`step` until every submitted request completes.

        ``max_steps`` bounds the loop for tests; ``None`` runs to drain.
        Returns one :class:`~repro.llm.inference.GenerationResult` per
        session id.
        """
        steps = 0
        while self.has_work:
            if max_steps is not None and steps >= max_steps:
                break
            self.step()
            steps += 1
        return self.results()

    def results(self) -> Dict[int, GenerationResult]:
        """Generation results of all finished sessions so far."""
        out: Dict[int, GenerationResult] = {}
        for session_id, session in self.sessions.items():
            if not session.finished:
                continue
            out[session_id] = self._result_for(session)
        return out

    def _result_for(self, session) -> GenerationResult:
        return GenerationResult(
            prompt_tokens=list(session.prompt_tokens),
            generated_tokens=list(session.generated_tokens),
            prefill_length=len(session.prompt_tokens),
            decode_steps=self._decode_counts[session.session_id],
            finish_reason=session.finish_reason,
        )

    def release(self, session_id: int) -> GenerationResult:
        """Remove a finished session from the engine, returning its result.

        Finished sessions already dropped their KV pages when they retired;
        releasing them removes the remaining bookkeeping so a long-running
        engine's memory stays proportional to the in-flight request set.
        Releasing a session that is still waiting or running raises
        ``ValueError`` — use :meth:`cancel` for those.
        """
        session = self.sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session id {session_id}")
        if not session.finished:
            raise ValueError(
                f"session {session_id} is {session.state.value}; only "
                "finished sessions can be released (cancel() aborts "
                "running ones)"
            )
        result = self._result_for(session)
        self._forget(session_id)
        return result

    def cancel(self, session_id: int) -> GenerationResult:
        """Abort a waiting or running session and free its KV pages.

        The request is removed from whichever queue holds it — including a
        still-QUEUED session that was never prefilled, the gateway's
        disconnect-before-admission path — its block references are
        dropped (pages shared with other sessions survive — refcounts,
        not ownership), and its bookkeeping is deleted; it will not appear
        in :meth:`results`.  The partial result (tokens generated so far,
        ``finish_reason == "cancelled"``) is returned — retrievable
        exactly once, since the session is forgotten here.  Cancelling a
        finished session raises ``ValueError`` — collect it with
        :meth:`release` instead.
        """
        session = self.sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session id {session_id}")
        if session.finished:
            raise ValueError(
                f"session {session_id} already finished; use release()"
            )
        for queue in (self._waiting, self._prefilling, self._active):
            if session_id in queue:
                queue.remove(session_id)
        # Mid-prefill cancels carry bound pages (reserved all-or-nothing at
        # prefill start) and prefix-cache references; _release_pages drops
        # every block reference, decrementing shared-page refcounts, so the
        # pool's free-page count returns to its pre-submit baseline unless
        # another live session still shares the pages.
        self._release_pages(session)
        session.finish("cancelled")
        self._note_progress(session)
        result = self._result_for(session)
        self._forget(session_id)
        return result

    def _forget(self, session_id: int) -> None:
        del self.sessions[session_id]
        del self._decode_counts[session_id]
        self._admit_seq.pop(session_id, None)
        self._arrival_seq.pop(session_id, None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def serving_stats(self) -> Dict[str, float]:
        """Batching, scheduling and cache counters (used by the benchmarks).

        The ``global_plan_cache_*`` entries report the *process-wide* plan
        cache (shared with every other engine and every ``tmac_gemm`` call
        in the process), not per-engine traffic — the prefix makes the
        scope explicit.  In paged mode the pool's ``kv_*`` / ``prefix_*``
        counters are merged in.
        """
        plan_stats = plan_cache_stats()
        out = {
            "prefills": self._prefills,
            "prefill_chunks": self._prefill_chunks,
            "preemptions": self.preemptions,
            "capacity_failures": self.capacity_failures,
            "deadline_expirations": self.deadline_expirations,
            "stream_hook_errors": self.stream_hook_errors,
            "queue_depth": self.num_waiting,
            "decode_steps": self.decode_steps,
            "batched_tokens": self.batched_tokens,
            "mean_batch_size": (self.batched_tokens / self.decode_steps
                                if self.decode_steps else 0.0),
            "lut_precomputes": self.decode_steps * self._tables_per_step,
            "lut_reuses": self.decode_steps * self._reuses_per_step,
            "ttft_count": self._ttft_count,
            "ttft_mean_s": (self._ttft_sum / self._ttft_count
                            if self._ttft_count else 0.0),
            "decode_step_wall_mean_s": (
                self._decode_wall_sum / self._decode_wall_count
                if self._decode_wall_count else 0.0),
            "peak_kv_bytes": self._peak_kv_bytes,
            "global_plan_cache_hits": plan_stats["hits"],
            "global_plan_cache_misses": plan_stats["misses"],
        }
        # Like the plan-cache counters, the parallel-executor counters are
        # process-wide (every kernel call in the process, not only this
        # engine's); the "parallel_" prefix marks the scope.
        out.update(parallel_executor_stats())
        out.update(specialize_stats())
        if self.pool is not None:
            out.update(self.pool.stats())
            out["peak_shared_blocks"] = self._peak_shared_blocks
            # Authoritative at all times (``_track_kv_peak`` only syncs the
            # engine-side copy inside step()): both peak keys agree.
            out["peak_kv_bytes"] = self.pool.peak_kv_bytes
        return out
