"""Host calibration: fitting, persistence, and the live accuracy gate."""

import json
import os

import numpy as np
import pytest

from repro.hardware.calibrate import (
    PROBE_SHAPES,
    CalibrationProfile,
    ProbeResult,
    ProbeShape,
    _features,
    _fit,
    _nonnegative_lstsq,
    _probe_config,
    calibrate,
    main,
)

#: The profile committed with the benchmark results (written before the
#: gather-driver race and the chunk-budget sweep were removed).
COMMITTED_PROFILE = os.path.join(os.path.dirname(__file__), os.pardir,
                                 os.pardir, "benchmarks", "results",
                                 "calibration.json")

TRUE_COEFFICIENTS = {
    "lut_base_s": 2e-5,
    "lut_per_elem_s": 3e-9,
    "span_base_s": 8e-5,
    "gather_per_elem_s": 2e-9,
    "aggregate_per_elem_s": 1e-9,
    "recombine_per_iter_s": 4e-9,
}


def synthetic_probes(coefficients=TRUE_COEFFICIENTS):
    """Probe results whose timings follow an exact linear cost model."""
    probes = []
    for spec in PROBE_SHAPES:
        shape = ProbeShape(*spec)
        config = _probe_config(shape.bits)
        lut_elems, gather, aggregate, recombine = _features(shape, config)
        lut_s = (coefficients["lut_base_s"]
                 + coefficients["lut_per_elem_s"] * lut_elems)
        span_s = (coefficients["span_base_s"]
                  + coefficients["gather_per_elem_s"] * gather
                  + coefficients["aggregate_per_elem_s"] * aggregate
                  + coefficients["recombine_per_iter_s"] * recombine)
        probes.append(ProbeResult(
            shape=shape, lut_elems=lut_elems, gather_elems=gather,
            aggregate_elems=aggregate, recombine_iters=recombine,
            lut_build_s=lut_s, span_s=span_s, total_s=lut_s + span_s,
        ))
    return probes


def synthetic_profile(cores=1, coefficients=TRUE_COEFFICIENTS):
    profile = CalibrationProfile(
        host="testhost", cores=cores, numpy_version=np.__version__,
        repeats=1, coefficients=dict(coefficients), probes=synthetic_probes(),
    )
    for probe in profile.probes:
        probe.predicted_s = profile.predict_gemm_seconds(
            probe.shape.n, probe.shape.m, probe.shape.k,
            _probe_config(probe.shape.bits), probe.shape.group_size)
    return profile


class TestFitting:
    def test_fit_recovers_exact_linear_costs(self):
        fitted = _fit(synthetic_probes())
        for name, truth in TRUE_COEFFICIENTS.items():
            assert fitted[name] == pytest.approx(truth, rel=1e-6), name

    def test_synthetic_profile_is_self_consistent(self):
        profile = synthetic_profile()
        assert profile.max_relative_error() == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_lstsq_clamps_negative_slopes(self):
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        target = np.array([3.0, 2.0, 1.0])  # plain lstsq slope = -1
        coef = _nonnegative_lstsq(design, target)
        assert (coef >= 0).all()
        assert coef[1] == 0.0
        assert coef[0] == pytest.approx(target.mean())

    def test_prediction_monotone_in_problem_size(self):
        profile = synthetic_profile()
        config = _probe_config(4)
        small = profile.predict_gemv_seconds(512, 1024, config)
        large = profile.predict_gemv_seconds(2048, 4096, config)
        assert 0 < small < large


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        profile = synthetic_profile(cores=4)
        path = tmp_path / "calibration.json"
        profile.save(str(path))
        loaded = CalibrationProfile.load(str(path))
        assert loaded.coefficients == profile.coefficients
        assert loaded.cores == 4
        assert len(loaded.probes) == len(profile.probes)
        assert loaded.probes[0].shape == profile.probes[0].shape
        assert loaded.max_relative_error() == pytest.approx(
            profile.max_relative_error())

    def test_unknown_profile_keys_are_rejected(self):
        """Only the listed retired keys are forgiven; a misspelt field
        fails loudly instead of loading a half-empty profile."""
        payload = synthetic_profile().to_dict()
        payload["coefficient"] = payload.pop("coefficients")
        with pytest.raises(TypeError):
            CalibrationProfile.from_dict(payload)

    @pytest.mark.parametrize("retired", [
        dict(gather_variant="take"),
        dict(gather_timings_s={"fancy": 1e-3, "take": 9e-4}),
        dict(gather_variant="take",
             gather_timings_s={"fancy": 1e-3, "take": 9e-4}),
        dict(chunk_elements=None,
             chunk_timings_s={"1048576": 8.25e-4, "16777216": 7.72e-4}),
        dict(chunk_elements=1 << 20, chunk_timings_s={"1048576": 7e-4}),
        dict(gather_variant="take", gather_timings_s={"take": 9e-4},
             chunk_elements=None, chunk_timings_s={"16777216": 7.72e-4}),
    ], ids=["variant", "timings", "both", "chunk-default", "chunk-budget",
            "gather-and-chunk"])
    def test_profiles_with_gather_race_keys_still_load(self, tmp_path,
                                                       retired):
        """Older profiles carry the retired gather-race (``gather_variant``
        / ``gather_timings_s``) and chunk-sweep (``chunk_elements`` /
        ``chunk_timings_s``) keys; they load with all of them ignored."""
        payload = synthetic_profile(cores=2).to_dict()
        payload.update(retired)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = CalibrationProfile.load(str(path))
        assert loaded.cores == 2
        assert not set(retired) & set(loaded.to_dict())
        assert loaded.max_relative_error() == pytest.approx(0.0, abs=1e-9)

    def test_committed_profile_loads(self):
        """The profile committed with the benchmark results predates the
        removal of the gather race and the chunk sweep and still loads."""
        retired = {"gather_variant", "chunk_elements", "chunk_timings_s"}
        with open(COMMITTED_PROFILE) as fh:
            assert retired <= set(json.load(fh))
        committed = CalibrationProfile.load(COMMITTED_PROFILE)
        assert committed.probes and committed.coefficients
        assert not retired & set(committed.to_dict())


class TestCli:
    def test_cli_writes_a_loadable_profile(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        assert main(["--out", str(out), "--quick", "--repeats", "1"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("calibrated ") and "chunk=" not in summary
        profile = CalibrationProfile.load(str(out))
        assert set(profile.coefficients) == set(TRUE_COEFFICIENTS)
        assert not {"chunk_elements", "chunk_timings_s"} & set(
            json.loads(out.read_text()))


class TestLiveCalibration:
    @pytest.mark.skipif(
        os.environ.get("REPRO_SANITIZE", "") not in ("", "0"),
        reason="sanitizer canary checksums add non-linear per-dispatch "
               "overhead the cost fit cannot (and should not) model")
    def test_quick_calibration_meets_accuracy_gate(self):
        """Acceptance: the fitted model predicts measured mpGEMV latency
        within 25% on the probed decode shapes."""
        profile = calibrate(quick=True, repeats=3)
        assert all(v >= 0 for v in profile.coefficients.values())
        assert profile.probes, "calibration kept no probe evidence"
        assert profile.max_relative_error(gemv_only=True) <= 0.25
