"""Tests of the all-integer decode iteration and its PoT shift machinery.

Pins this PR's contracts:

- ``shift_requantize`` is well-defined at the edges: zero and negative
  (left) shifts, all-zero groups whose grid sits at the ``2**-39`` scale
  floor (arbitrarily large exponent gaps), and INT4 saturation-on-shift
  round trips;
- ``QuantizedSSMStep._step_integer`` -- the shift-requantized iteration on
  resident codes -- is *bit-identical* to the fake-quant oracle
  ``_step_oracle`` across bit widths, group sizes, batch shapes and
  compounding steps, and the resident-state ``__call__`` actually dispatches
  to it;
- a non-finite (fault-injected) operand routes the step to the float oracle
  so corruption stays attributable per row;
- the quantized-state memory model accounts for the operand codes resident
  alongside the state codes.
"""

import warnings

import numpy as np
import pytest

from repro.mamba.cache import QuantizedSSMState
from repro.mamba.ssm import SSMParams
from repro.quant import QuantizedSSMStep, SSMQuantConfig
from repro.quant.pot import (
    absmax_requant_exponents,
    pot_exponent,
    requantize_reference,
    shift_requantize,
)


# ----------------------------------------------------------------------
# shift_requantize edge cases
# ----------------------------------------------------------------------
class TestShiftRequantizeEdgeCases:
    def test_zero_shift_is_identity(self):
        values = np.arange(-127, 128)
        for rounding in ("half_away", "half_even"):
            np.testing.assert_array_equal(
                shift_requantize(values, -5, -5, bits=8, rounding=rounding), values
            )

    def test_negative_shift_is_exact_left_shift_with_saturation(self):
        """dst below src: the codes grow by 2**(src-dst), clipped at qmax."""
        values = np.arange(-20, 21)
        out = shift_requantize(values, -3, -6, bits=8)
        np.testing.assert_array_equal(out, np.clip(values * 8, -127, 127))
        # Array exponents with mixed shift directions in one call.
        mixed = shift_requantize(
            np.array([16, 16, 16]),
            np.array([-6, -6, -6]),
            np.array([-8, -6, -4]),
            bits=8,
        )
        np.testing.assert_array_equal(mixed, [64, 16, 4])

    def test_all_zero_group_at_scale_floor(self):
        """An all-zero group's grid sits at the 2**-39 floor; shifting to or
        from it -- across arbitrarily large exponent gaps -- keeps zeros at
        zero and saturates nonzero codes exactly like the reference."""
        assert absmax_requant_exponents(np.array(0.0), bits=8) == -39
        assert absmax_requant_exponents(np.array(0.0), bits=4) == -39
        zeros = np.zeros(16, dtype=np.int64)
        for src, dst in [(-39, 40), (40, -39), (-39, -39), (100, -100)]:
            for rounding in ("half_away", "half_even"):
                np.testing.assert_array_equal(
                    shift_requantize(zeros, src, dst, bits=8, rounding=rounding), 0
                )
        # A huge downward gap rounds every representable code to zero ...
        np.testing.assert_array_equal(
            shift_requantize(np.arange(-127, 128), -39, 40, bits=8), 0
        )
        # ... and a huge upward gap saturates every nonzero code, matching
        # the float reference even though the raw shift count is capped.
        values = np.array([-3, -1, 0, 1, 3])
        out = shift_requantize(values, 30, -39, bits=8)
        np.testing.assert_array_equal(out, np.array([-127, -127, 0, 127, 127]))

    @pytest.mark.parametrize("rounding", ["half_away", "half_even"])
    def test_int4_saturation_on_shift_round_trip(self, rounding):
        """INT4 codes pushed onto a finer grid saturate at +-7; shifting back
        re-quantizes the saturated codes exactly like the float reference."""
        values = np.arange(-7, 8)
        down = shift_requantize(values, 0, -2, bits=4, rounding=rounding)
        np.testing.assert_array_equal(down, np.clip(values * 4, -7, 7))
        back = shift_requantize(down, -2, 0, bits=4, rounding=rounding)
        np.testing.assert_array_equal(
            back, requantize_reference(down, 2.0**-2, 2.0**0, bits=4)
        )
        # |v| >= 2 saturated on the way down, so the round trip contracts
        # them to round(7/4) = 2 -- pin the lossy-but-deterministic shape.
        np.testing.assert_array_equal(
            back, np.clip(np.round(down / 4.0), -7, 7).astype(np.int64)
        )

    def test_half_even_matches_np_round_reference(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-127, 128, size=512)
        for src, dst in [(-8, -5), (-6, -2), (0, 3)]:
            via_shift = shift_requantize(values, src, dst, bits=8, rounding="half_even")
            expected = np.clip(
                np.round(values / 2.0 ** (dst - src)), -127, 127
            ).astype(np.int64)
            np.testing.assert_array_equal(via_shift, expected)

    def test_pot_exponent_validation(self):
        np.testing.assert_array_equal(
            pot_exponent(np.array([2.0**-39, 0.5, 1.0, 2.0])), [-39, -1, 0, 1]
        )
        with pytest.raises(ValueError, match="powers of two"):
            pot_exponent(np.array([3.0]))
        with pytest.raises(ValueError, match="powers of two"):
            pot_exponent(np.array([0.0]))


# ----------------------------------------------------------------------
# The all-integer decode iteration vs the fake-quant oracle
# ----------------------------------------------------------------------
def _step_inputs(rng, h=4, p=8, n=24, lead=()):
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )
    x = rng.normal(size=lead + (h, p))
    B = rng.normal(size=lead + (n,))
    C = rng.normal(size=lead + (n,))
    dt = rng.normal(size=lead + (h,))
    return params, x, B, C, dt


class TestIntegerStepBitIdentity:
    @pytest.mark.parametrize("bits,group", [(8, 8), (8, 32), (4, 8)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_bit_identical_to_oracle_over_compounding_steps(
        self, rng, bits, group, lead
    ):
        step = QuantizedSSMStep(
            SSMQuantConfig(bits=bits, group_size=group)
        )
        params, *_ = _step_inputs(rng, lead=lead)
        state_int = step.quantize_state_codes(rng.normal(size=lead + (4, 8, 24)))
        state_orc = QuantizedSSMState(
            codes=state_int.codes.copy(),
            scales=state_int.scales.copy(),
            group_size=state_int.group_size,
            bits=state_int.bits,
        )
        for _ in range(7):
            _, x, B, C, dt = _step_inputs(rng, lead=lead)
            y_int, state_int = step._step_integer(params, x, B, C, dt, state_int)
            y_orc, state_orc = step._step_oracle(params, x, B, C, dt, state_orc)
            np.testing.assert_array_equal(y_int, y_orc)
            np.testing.assert_array_equal(state_int.codes, state_orc.codes)
            np.testing.assert_array_equal(state_int.scales, state_orc.scales)
        assert np.issubdtype(state_int.codes.dtype, np.integer)

    def test_zero_rows_stay_exactly_zero(self, rng):
        step = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        params, x, B, C, dt = _step_inputs(rng, lead=(2,))
        x[0] = 0.0
        state = step.quantize_state_codes(
            np.concatenate([np.zeros((1, 4, 8, 24)), rng.normal(size=(1, 4, 8, 24))])
        )
        y, out = step._step_integer(params, x, B, C, dt, state)
        y_ref, out_ref = step._step_oracle(params, x, B, C, dt, state)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(out.codes[0], 0)

    def test_resident_call_dispatches_to_integer_path(self, rng, monkeypatch):
        step = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        params, x, B, C, dt = _step_inputs(rng)
        state = step.quantize_state_codes(rng.normal(size=(4, 8, 24)))
        calls = []
        original = type(step)._step_integer
        monkeypatch.setattr(
            type(step),
            "_step_integer",
            lambda self, *a, **k: calls.append(1) or original(self, *a, **k),
        )
        step(params, x, B, C, dt, state)
        assert calls == [1]
        # A float state takes the oracle: the state's type is the only switch.
        step(params, x, B, C, dt, rng.normal(size=(4, 8, 24)))
        assert calls == [1]

    def test_non_finite_operand_falls_back_to_oracle_per_row(self, rng):
        """A poisoned row (fault-injected NaN) must not raise batch-wide;
        the step degrades to the float oracle, which keeps healthy rows
        bit-identical and confines the poison to the corrupted row."""
        step = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        params, x, B, C, dt = _step_inputs(rng, lead=(3,))
        state = step.quantize_state_codes(rng.normal(size=(3, 4, 8, 24)))
        y_clean, _ = step(params, x, B, C, dt, state)
        x_bad = x.copy()
        x_bad[1] = np.nan
        # The poison must be caught before any entry quantization casts it
        # to an integer code (a RuntimeWarning and platform-defined codes).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, out = step(params, x_bad, B, C, dt, state)
        assert np.isnan(y[1]).any()
        np.testing.assert_array_equal(y[0], y_clean[0])
        np.testing.assert_array_equal(y[2], y_clean[2])
        assert isinstance(out, QuantizedSSMState)


# ----------------------------------------------------------------------
# Operand codes in the state memory model
# ----------------------------------------------------------------------
class TestOperandFootprint:
    def test_operand_accounting(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        bare = model.quantized_footprint(tiny_config, batch_size=4)
        with_ops = model.quantized_footprint(
            tiny_config, batch_size=4, include_operands=True
        )
        assert bare.operand_bytes == 0.0
        assert with_ops.operand_bytes > 0
        # State/scale/conv accounting is unchanged; only operands are added.
        assert with_ops.ssm_state_bytes == bare.ssm_state_bytes
        assert with_ops.ssm_scale_bytes == bare.ssm_scale_bytes
        assert with_ops.conv_bytes == bare.conv_bytes
        assert with_ops.total_bytes == bare.total_bytes + with_ops.operand_bytes
        # One ssm_operands buffer per layer joins the allocations.
        assert len(with_ops.allocations) == 3 * tiny_config.n_layer
        names = {a.name.split("[")[0] for a in with_ops.allocations}
        assert names == {"ssm_state_codes", "ssm_operands", "conv_window"}

    def test_operand_bytes_match_hand_count(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        cfg = tiny_config
        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        footprint = model.quantized_footprint(cfg, batch_size=2, include_operands=True)
        group_n = min(32, cfg.d_state)
        n_groups = -(-cfg.d_state // group_n)
        group_p = min(32, cfg.headdim)
        p_groups = -(-cfg.headdim // group_p)
        codes = 2 * (
            cfg.nheads * cfg.headdim + 2 * cfg.d_state + cfg.nheads * cfg.d_state
        )
        scales = 2 * (cfg.nheads * p_groups + 2 * n_groups + cfg.nheads * n_groups)
        expected = (codes * 8 / 8.0 + scales * 1.0) * cfg.n_layer
        assert footprint.operand_bytes == expected
