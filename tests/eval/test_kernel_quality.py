"""Quality gate for the default kernel path (the integer LUT kernel).

The default ``TMACConfig`` — int8 table entries, group-granularity scales,
integer-domain accumulation — is the only production path for quantized
tables, and its oracle parity is a property test
(``tests/properties/test_property_core.py``).  What parity cannot say is
whether the path is *good*: the gates below hold it to the unquantized
reference at the kernel level (NMSE) and the model level (perplexity
under the numpy transformer), so a change that makes the kernel lossy
fails loudly instead of silently degrading quality.
"""

from repro.backends import TMACBackend, get_backend
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.eval.nmse import nmse
from repro.eval.perplexity import evaluate_engines
from repro.eval.tasks import make_lm_task
from repro.llm.architecture import tiny_arch
from repro.llm.model import TransformerModel, generate_random_weights
from repro.workloads.generator import make_gemv_case

#: Kernel NMSE ceiling for 4-bit weights (paper Table 3 decade).
NMSE_GATE = 5e-2


def test_kernel_nmse_within_gate():
    case = make_gemv_case(m=256, k=512, bits=4, group_size=64, seed=5)
    quantized = TMACKernel(case.qweight, TMACConfig(bits=4)).matmul(
        case.activation)
    unquantized = TMACKernel(
        case.qweight, TMACConfig(bits=4, table_quantization=False)).matmul(
        case.activation)
    # Table quantization is error source (a) of Section 5.6: nearly
    # lossless on top of the weight-quantization error both paths share.
    assert nmse(case.reference, quantized) < NMSE_GATE
    assert nmse(case.reference, quantized) <= (
        nmse(case.reference, unquantized) * 1.05 + 1e-6)


def test_model_perplexity_stays_in_the_reference_regime():
    arch = tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=67, max_seq_len=64)
    weights = generate_random_weights(arch, seed=31)
    teacher = TransformerModel(arch, weights=weights)
    lm_task = make_lm_task(teacher, num_sequences=3, seq_len=12, seed=1)
    engines = [
        get_backend("reference"),
        TMACBackend(bits=4, group_size=32, config=TMACConfig(bits=4)),
    ]
    reference, tmac = evaluate_engines(arch, engines, lm_task,
                                       weights=weights)
    # Table 4: T-MAC matches llama.cpp — the quantized engine stays in
    # the same quality regime as the unquantized reference.
    assert tmac.perplexity < reference.perplexity * 2.0
