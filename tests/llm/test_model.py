"""Unit tests for the numpy transformer model."""

import numpy as np
import pytest

from repro.llm.architecture import tiny_arch
from repro.llm.engine import create_engine
from repro.llm.model import TransformerModel, generate_random_weights


@pytest.fixture(scope="module")
def arch():
    return tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=97)


@pytest.fixture(scope="module")
def shared_weights(arch):
    return generate_random_weights(arch, seed=11)


class TestForward:
    def test_logits_shape(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        logits = model.forward(np.array([1, 2, 3, 4]))
        assert logits.shape == (4, 97)
        assert np.all(np.isfinite(logits))

    def test_deterministic(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        tokens = np.array([5, 6, 7])
        np.testing.assert_array_equal(model.forward(tokens),
                                      model.forward(tokens))

    def test_cached_decode_matches_full_forward(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        tokens = np.array([3, 14, 15, 92, 6])
        full_logits = model.forward(tokens)

        caches = model.new_cache()
        step_logits = []
        for i, token in enumerate(tokens):
            out = model.forward(np.array([token]), caches=caches,
                                start_position=i)
            step_logits.append(out[0])
        np.testing.assert_allclose(np.stack(step_logits), full_logits,
                                   atol=1e-3)

    def test_token_range_validated(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        with pytest.raises(ValueError):
            model.forward(np.array([1000]))
        with pytest.raises(ValueError):
            model.forward(np.array([-1]))

    def test_sequence_length_validated(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        with pytest.raises(ValueError):
            model.forward(np.zeros(arch.max_seq_len + 1, dtype=np.int64))

    def test_empty_sequence_rejected(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        with pytest.raises(ValueError):
            model.forward(np.array([], dtype=np.int64))


class TestEngines:
    def test_quantized_engines_approximate_reference(self, arch,
                                                     shared_weights):
        tokens = np.array([1, 2, 3, 4, 5, 6])
        reference = TransformerModel(arch, weights=shared_weights)
        ref_logits = reference.forward(tokens)
        for kind in ("dequant", "tmac"):
            engine = create_engine(kind, bits=4, group_size=32)
            model = TransformerModel(arch, engine=engine,
                                     weights=shared_weights)
            logits = model.forward(tokens)
            # Same top-1 prediction on most positions despite 4-bit weights.
            agreement = np.mean(np.argmax(logits, axis=-1)
                                == np.argmax(ref_logits, axis=-1))
            assert agreement >= 0.5

    def test_linears_enumeration(self, arch, shared_weights):
        model = TransformerModel(arch, weights=shared_weights)
        # 4 operators per layer (q|k|v, o, gate|up, down) * 2 layers + lm_head
        assert len(model.linears()) == 9
        assert model.engine_name() == "reference"

    def test_quantized_weight_bytes_smaller_at_low_bits(self, arch,
                                                        shared_weights):
        m4 = TransformerModel(arch, engine=create_engine("tmac", bits=4,
                                                         group_size=32),
                              weights=shared_weights)
        m2 = TransformerModel(arch, engine=create_engine("tmac", bits=2,
                                                         group_size=32),
                              weights=shared_weights)
        assert m2.quantized_weight_bytes() < m4.quantized_weight_bytes()

    def test_bad_embedding_shape_rejected(self, arch, shared_weights):
        weights = dict(shared_weights)
        weights["embedding"] = np.zeros((10, 10), dtype=np.float32)
        with pytest.raises(ValueError):
            TransformerModel(arch, weights=weights)
