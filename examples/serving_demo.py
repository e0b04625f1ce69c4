"""Serving demo: continuous batching with a paged, prefix-shared KV cache.

Builds a small transformer on the T-MAC backend, submits a burst of
requests that share a "system prompt" prefix (as chat traffic does), and
drives the continuous-batching scheduler against a byte-budgeted KV page
pool (``kv_cache_bytes``) until every request completes — printing the
per-step batch composition and the paging/prefix/batching statistics at
the end.  The same requests are then replayed one at a time to show that
batching, paging and prefix sharing do not change a single token.  Exits
non-zero unless a decode step makes exactly ``4 * layers + 1`` kernel calls
(q|k|v and gate|up are one fused operator each).

Run with:  python examples/serving_demo.py
"""

import sys

import numpy as np

from repro.backends import get_backend
from repro.core.plan import plan_cache_stats
from repro.llm import Generator, TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.serving import ServingEngine


def main():
    arch = tiny_arch(hidden_size=96, intermediate_size=192, num_layers=2,
                     num_heads=4, vocab_size=211, max_seq_len=96)
    weights = generate_random_weights(arch, seed=7)
    model = TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights)

    engine = ServingEngine(model, max_batch_size=4,
                           kv_cache_bytes=2 << 20, page_size=8,
                           prefill_chunk=16)
    rng = np.random.default_rng(0)
    system_prompt = rng.integers(1, arch.vocab_size, size=24).tolist()
    requests = []
    for i in range(8):
        prompt = system_prompt + rng.integers(
            1, arch.vocab_size, size=2 + i % 3).tolist()
        budget = 4 + 2 * (i % 4)
        requests.append((engine.submit(prompt, max_new_tokens=budget),
                         prompt, budget))

    print(f"submitted {len(requests)} requests "
          f"(max_batch_size={engine.max_batch_size})\n")
    step = 0
    while engine.has_work:
        summary = engine.step()
        step += 1
        print(f"step {step:>2}: batch={summary['batch_size']} "
              f"active={summary['active']} waiting={summary['waiting']}")
    results = engine.results()

    print("\ngenerations (batched == sequential replay):")
    generator = Generator(TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights))
    for session_id, prompt, budget in requests:
        batched = results[session_id].generated_tokens
        sequential = generator.generate(
            prompt, max_new_tokens=budget).generated_tokens
        marker = "OK " if batched == sequential else "DIFF"
        print(f"  [{marker}] session {session_id}: prompt {prompt} -> {batched}")

    stats = engine.serving_stats()
    print(f"\nbatched decode steps: {stats['decode_steps']}, "
          f"mean batch size {stats['mean_batch_size']:.1f}")
    calls_per_step = stats["lut_precomputes"] / stats["decode_steps"]
    expected_calls = 4 * arch.num_layers + 1
    print(f"kernel calls per decode step: {calls_per_step:g} "
          f"(q|k|v, o, gate|up, down x {arch.num_layers} layers + lm_head)")
    print("projections served by a fused operator's table beyond the "
          f"first: {stats['lut_reuses']}")
    print(f"KV pool: {stats['kv_num_blocks']:.0f} pages of "
          f"{stats['kv_block_size']:.0f} tokens, peak "
          f"{stats['kv_peak_bytes']:.0f} bytes "
          f"(peak shared pages: {stats['peak_shared_blocks']:.0f})")
    print(f"prefix cache: {stats['prefix_hit_tokens']:.0f} tokens served "
          f"from shared pages ({stats['prefix_hit_rate']:.0%} hit rate), "
          f"{stats['preemptions']:.0f} preemptions")
    cache = plan_cache_stats()
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(sequential-replay model rebind hit the cache)")
    if calls_per_step != expected_calls:
        return (f"expected {expected_calls} kernel calls per decode step, "
                f"counted {calls_per_step:g}")


if __name__ == "__main__":
    sys.exit(main())
