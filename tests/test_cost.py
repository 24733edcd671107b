"""FLOPs model tests: formula identities, reference totals, monotonicity."""

import numpy as np
import pytest

from tokmerge import (
    PROFILES,
    ConfigError,
    decode_flops,
    get_profile,
    pipeline_cost_report,
    prefill_flops,
    retained_for_ratio,
    validate_config,
)
from tokmerge.core import ModelProfile
from tokmerge.cost import layer_token_counts


def prefill_oracle(d, m, t, counts):
    """Independent integer evaluation of the per-layer prefill formula."""
    return sum(4 * n * d**2 + 2 * n**2 * d + 2 * n * d * m for n in counts[:t])


OV7B = get_profile("llava-ov-7b")


def tflops(x):
    return round(x / 1e12, 1)


class TestPrefill:
    def test_zero_tokens(self):
        assert prefill_flops(OV7B, [0] * 28) == 0.0

    def test_full_llava_ov_7b_baseline(self):
        v = prefill_flops(OV7B, [6272] * 28)
        assert v == prefill_oracle(3584, 18944, 28, [6272] * 28)
        assert tflops(v) == 40.8

    def test_quarter_retention(self):
        v = prefill_flops(OV7B, [1568] * 28)
        assert tflops(v) == 8.7

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            prefill_flops(OV7B, [100] * 27)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="^per-layer token counts must be non-negative$"):
            prefill_flops(OV7B, [-1] + [0] * 27)

    def test_monotone_in_every_layer(self):
        base = [500] * 28
        v0 = prefill_flops(OV7B, base)
        for i in range(28):
            bumped = list(base)
            bumped[i] += 1
            assert prefill_flops(OV7B, bumped) > v0

    def test_additive_over_layers(self):
        rng = np.random.default_rng(0)
        counts = [int(x) for x in rng.integers(0, 4000, size=28)]
        total = prefill_flops(OV7B, counts)
        per_layer = sum(prefill_flops(OV7B, [c] + [0] * 27) for c in counts)
        assert total == pytest.approx(per_layer, rel=1e-12)


class TestDecode:
    def test_zero_predictions(self):
        assert decode_flops(OV7B, [6272] * 28, r_dec=0) == 0.0

    def test_negative_prediction_count_rejected(self):
        with pytest.raises(ConfigError, match="^decode token count must be >= 0, got -1$"):
            decode_flops(OV7B, [0] * 28, -1)

    def test_hand_evaluated_unit_case(self):
        tiny = ModelProfile("tiny", 1, 1, 1, 1, 1)
        assert decode_flops(tiny, [1], r_dec=1) == 10.0

    def test_decode_share_about_two_percent(self):
        counts = [6272] * 28
        d = decode_flops(OV7B, counts)
        p = prefill_flops(OV7B, counts)
        assert 0.01 < d / (p + d) < 0.03


class TestPipelineReport:
    def test_mixed_schedule_quarter_row(self):
        cfg = validate_config({"inner_layer_K": 18, "inner_ratio_R": 50})
        report = pipeline_cost_report(OV7B, cfg, 1568)
        assert tflops(report.prefill_flops) == 7.1
        assert report.per_layer_tokens[:18] == (1568,) * 18
        assert report.per_layer_tokens[18:] == (784,) * 10

    def test_inner_disabled_ten_percent(self):
        cfg = validate_config({"inner_ratio_R": 0})
        report = pipeline_cost_report(OV7B, cfg, 627)
        # reference-scale value: prints as 3.4 TFLOPs at one decimal
        assert tflops(report.prefill_flops) == 3.4
        assert report.per_layer_tokens == (627,) * 28

    def test_72b_baseline(self):
        p72 = get_profile("llava-ov-72b")
        cfg = validate_config({"inner_ratio_R": 0})
        report = pipeline_cost_report(p72, cfg, 6272)
        assert tflops(report.prefill_flops) == 429.3

    def test_ratio_is_prefill_over_baseline_prefill(self):
        cfg = validate_config({})
        report = pipeline_cost_report(OV7B, cfg, 1568)
        assert report.baseline_flops == prefill_flops(OV7B, [6272] * 28)
        assert report.ratio == report.prefill_flops / report.baseline_flops
        assert 0 < report.ratio <= 1

    def test_layer_schedule_follows_config(self):
        cfg = validate_config({"inner_layer_K": 2, "inner_ratio_R": 25})
        # the inner merge's count: 101 - floor(25 * 101 / 100) = 76
        assert layer_token_counts(OV7B, 101, cfg) == [101, 101] + [76] * 26
        off = validate_config({"inner_ratio_R": 0, "inner_layer_K": 2})
        assert layer_token_counts(OV7B, 101, off) == [101] * 28

    def test_inner_layer_beyond_profile_rejected(self):
        message = "^inner_layer_K 28 must be below the 28 layers of profile llava-ov-7b$"
        with pytest.raises(ConfigError, match=message):
            layer_token_counts(OV7B, 101, validate_config({"inner_layer_K": 28}))
        with pytest.raises(ConfigError, match="inner_layer_K 40 must be below"):
            pipeline_cost_report(OV7B, validate_config({"inner_layer_K": 40}), 101)
        # the last layer is the deepest K that still merges; K is checked at R = 0 too
        assert layer_token_counts(OV7B, 101, validate_config({"inner_layer_K": 27})) == (
            [101] * 27 + [51])
        with pytest.raises(ConfigError, match="inner_layer_K 40 must be below"):
            layer_token_counts(OV7B, 101, validate_config({"inner_ratio_R": 0, "inner_layer_K": 40}))

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_zero_inner_ratio_prices_the_full_count_at_every_layer(self, name):
        """R = 0 is the schedule without the inner merge: every layer keeps
        all n tokens."""
        profile = get_profile(name)
        cfg = validate_config({"inner_ratio_R": 0})
        full = profile.default_frames_B * profile.tokens_per_frame_Nv
        for n in (1, 2, 99, 627, full, 10**7):
            report = pipeline_cost_report(profile, cfg, n)
            assert report.per_layer_tokens == (n,) * profile.layers_T
            assert report.prefill_flops == prefill_flops(profile, [n] * profile.layers_T)
            assert report.decode_flops == decode_flops(profile, [n] * profile.layers_T)

    def test_retained_must_be_positive(self):
        with pytest.raises(ConfigError):
            pipeline_cost_report(OV7B, validate_config({}), 0)


class TestRetainedForRatio:
    def test_full_ratio(self):
        assert retained_for_ratio(OV7B, 1.0) == 6272

    def test_per_frame_ceiling(self):
        assert retained_for_ratio(OV7B, 0.25) == 32 * 49
        assert retained_for_ratio(OV7B, 0.20) == 32 * 40
        assert retained_for_ratio(OV7B, 0.10) == 32 * 20

    def test_frames_override(self):
        assert retained_for_ratio(OV7B, 0.25, frames=8) == 8 * 49
        for frames in (0, -3):
            with pytest.raises(ConfigError, match=f"^frame count must be >= 1, got {frames}$"):
                retained_for_ratio(OV7B, 0.25, frames=frames)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="llava-ov-7b"):
            get_profile("noSuchModel")

    def test_profile_dimensions_must_be_positive(self):
        with pytest.raises(ConfigError, match="^profile tiny: ffn_m must be positive$"):
            ModelProfile("tiny", hidden_d=8, ffn_m=0, layers_T=2, tokens_per_frame_Nv=4,
                         default_frames_B=1)
