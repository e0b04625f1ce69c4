"""Unit tests for the token-generation loop."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.llm.architecture import tiny_arch
from repro.llm.inference import Generator
from repro.llm.model import TransformerModel, generate_random_weights


@pytest.fixture(scope="module")
def model():
    arch = tiny_arch(hidden_size=48, intermediate_size=96, num_layers=2,
                     num_heads=4, vocab_size=61, max_seq_len=64)
    return TransformerModel(arch, weights=generate_random_weights(arch, seed=2))


class TestGenerator:
    def test_generates_requested_tokens(self, model):
        result = Generator(model).generate([1, 2, 3], max_new_tokens=5)
        assert len(result.generated_tokens) == 5
        assert result.prefill_length == 3
        assert result.decode_steps == 4  # last token needs no extra forward
        assert all(0 <= t < 61 for t in result.generated_tokens)

    def test_greedy_is_deterministic(self, model):
        a = Generator(model).generate([4, 5], max_new_tokens=6)
        b = Generator(model).generate([4, 5], max_new_tokens=6)
        assert a.generated_tokens == b.generated_tokens

    def test_greedy_matches_stateless_argmax(self, model):
        """The KV-cached decode must produce the same greedy continuation as
        repeatedly running the full prompt."""
        prompt = [7, 8, 9]
        result = Generator(model).generate(prompt, max_new_tokens=4)
        tokens = list(prompt)
        for _ in range(4):
            logits = model.forward(np.asarray(tokens))
            tokens.append(int(np.argmax(logits[-1])))
        assert result.tokens == tokens

    def test_stop_token(self, model):
        result = Generator(model).generate([1], max_new_tokens=20,
                                           stop_token=result_token(model))
        if result_token(model) in result.generated_tokens:
            assert result.generated_tokens[-1] == result_token(model)

    def test_temperature_sampling_varies(self, model):
        gen_a = Generator(model, seed=1).generate([3], max_new_tokens=8,
                                                  temperature=2.0)
        gen_b = Generator(model, seed=2).generate([3], max_new_tokens=8,
                                                  temperature=2.0)
        assert gen_a.generated_tokens != gen_b.generated_tokens

    def test_keep_logits(self, model):
        result = Generator(model).generate([1, 2], max_new_tokens=3,
                                           keep_logits=True)
        assert len(result.logits_history) == 1 + result.decode_steps
        assert result.logits_history[0].shape == (61,)

    def test_empty_prompt_rejected(self, model):
        with pytest.raises(ValueError):
            Generator(model).generate([], max_new_tokens=2)

    def test_respects_max_seq_len(self, model):
        result = Generator(model).generate([1] * 60, max_new_tokens=30)
        assert len(result.tokens) <= model.arch.max_seq_len

    def test_zero_new_tokens(self, model):
        result = Generator(model).generate([1, 2, 3], max_new_tokens=0)
        assert result.generated_tokens == []


def result_token(model):
    """First greedy token of a fixed prompt, used as a stop token."""
    logits = model.forward(np.array([1]))
    return int(np.argmax(logits[-1]))


class TestQuantizedGeneration:
    def test_tmac_generation_tracks_reference(self):
        """T-MAC-backed generation mostly agrees with the fp reference for
        a 4-bit model (model-level counterpart of Table 4's parity)."""
        arch = tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                         num_heads=4, vocab_size=61, max_seq_len=64)
        weights = generate_random_weights(arch, seed=6)
        reference = TransformerModel(arch, weights=weights)
        tmac = TransformerModel(arch, engine=get_backend("tmac", bits=4,
                                                           group_size=32),
                                weights=weights)
        ref_tokens = Generator(reference).generate([5, 6, 7],
                                                   max_new_tokens=6).tokens
        tmac_tokens = Generator(tmac).generate([5, 6, 7],
                                               max_new_tokens=6).tokens
        agreement = np.mean([a == b for a, b in zip(ref_tokens, tmac_tokens)])
        assert agreement >= 0.5
