"""Tests for Hadamard construction, FWHT, and the PoT quantization helpers.

The FWHT has two executors -- the compiled ``fwht`` of ``repro.quant.native``
and the numpy ``_fwht_numpy`` -- which must agree byte for byte
(``TestCompiledFWHT``; skipped, with the reason, where no library loads).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import native
from repro.quant.hadamard import (
    _fwht_numpy,
    apply_hadamard,
    decompose_hadamard_order,
    fast_hadamard_transform,
    hadamard_matrix,
    is_hadamard,
    paley_construction,
    random_hadamard_matrix,
    randomized_hadamard,
    sylvester,
)
from repro.quant.pot import (
    pot_quantize_dequantize,
    pot_quantize_scale,
    requantize_reference,
    shift_requantize,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestConstruction:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 64, 128])
    def test_sylvester_is_hadamard(self, order):
        assert is_hadamard(sylvester(order))

    def test_sylvester_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sylvester(12)

    @pytest.mark.parametrize("order", [4, 8, 12, 20, 24, 28, 44])
    def test_paley_is_hadamard(self, order):
        assert is_hadamard(paley_construction(order))

    def test_paley_rejects_unsupported(self):
        with pytest.raises(ValueError):
            paley_construction(40)  # 39 is not prime; needs Kronecker composition

    @pytest.mark.parametrize(
        "order",
        [2, 4, 12, 20, 40, 64, 128, 768, 1536, 2560, 5120],
    )
    def test_hadamard_matrix_paper_sizes(self, order):
        """All Mamba2-family dimensions (incl. 40 and 5120 from Fig. 5) work."""
        h = hadamard_matrix(order)
        assert is_hadamard(h)

    def test_hadamard_40_decomposition(self):
        """The paper's 40-point HTU: 40 = 2 x 20 with a Paley-20 base."""
        pow2, base = decompose_hadamard_order(40)
        assert pow2 * base == 40
        assert base in (20, 40)

    def test_normalized_is_orthogonal(self):
        h = hadamard_matrix(40, normalized=True)
        np.testing.assert_allclose(h @ h.T, np.eye(40), atol=1e-9)

    def test_unsupported_order_raises(self):
        with pytest.raises(ValueError):
            hadamard_matrix(46)  # odd part 23: 24 does not divide 46

    def test_random_hadamard_is_orthogonal_and_hadamard(self):
        h = random_hadamard_matrix(64, seed=3, normalized=False)
        assert is_hadamard(h)
        hn = random_hadamard_matrix(64, seed=3, normalized=True)
        np.testing.assert_allclose(hn @ hn.T, np.eye(64), atol=1e-9)

    def test_random_hadamard_seed_dependence(self):
        a = random_hadamard_matrix(32, seed=0)
        b = random_hadamard_matrix(32, seed=1)
        assert not np.allclose(a, b)


class TestTransforms:
    @pytest.mark.parametrize("n", [2, 8, 64, 128])
    def test_fwht_matches_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(5, n))
        expected = x @ sylvester(n) / np.sqrt(n)
        np.testing.assert_allclose(fast_hadamard_transform(x), expected, atol=1e-9)

    def test_fwht_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fast_hadamard_transform(np.zeros(12))

    def test_fwht_is_involution(self):
        """The normalised FWHT is its own inverse."""
        x = np.random.default_rng(0).normal(size=(3, 64))
        np.testing.assert_allclose(
            fast_hadamard_transform(fast_hadamard_transform(x)), x, atol=1e-9
        )

    @pytest.mark.parametrize("n", [40, 80, 160, 192])
    def test_apply_hadamard_composite_matches_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(4, n))
        expected = x @ hadamard_matrix(n, normalized=True)
        np.testing.assert_allclose(apply_hadamard(x), expected, atol=1e-8)

    def test_apply_hadamard_preserves_norm(self):
        x = np.random.default_rng(1).normal(size=(6, 128))
        out = apply_hadamard(x)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-9
        )

    def test_apply_hadamard_order_mismatch(self):
        with pytest.raises(ValueError):
            apply_hadamard(np.zeros((2, 16)), order=32)

    def test_randomized_hadamard_preserves_norm(self):
        x = np.random.default_rng(2).normal(size=(3, 64))
        out = randomized_hadamard(x, seed=7)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-9
        )

    def test_rotation_spreads_outliers(self):
        """A single-channel outlier is amortised across channels (Fig. 2)."""
        x = np.zeros((1, 128))
        x[0, 17] = 100.0
        out = apply_hadamard(x)
        assert np.max(np.abs(out)) < np.max(np.abs(x)) / 5
        # Energy is preserved, just spread out.
        assert np.count_nonzero(np.abs(out) > 1.0) > 64

    @given(hnp.arrays(np.float64, (2, 32), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_fwht_linearity(self, x):
        a = fast_hadamard_transform(2.0 * x)
        b = 2.0 * fast_hadamard_transform(x)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def _on_numpy(call, *args, **kwargs):
    """``call`` under the ``no_kernel`` fixture's patch, scoped to the one call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_load", lambda: (None, "numpy: patched out by the test suite"))
        return call(*args, **kwargs)


def _spread(rng, shape):
    """Values over 20 decimal decades, where the order of float additions shows."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-10, 10, size=shape)


#: The library as loaded at collection, before any test patches the loader.
COMPILED = native.kernel()


@pytest.mark.skipif(COMPILED is None, reason=native.status())
class TestCompiledFWHT:
    """The compiled butterfly network is the numpy one, to the bit."""

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 8), (1,), (2,), (4, 1), (4, 2),
                                       (3, 5, 16), (300, 512)])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_compiled_equals_numpy(self, shape, normalized):
        x = _spread(np.random.default_rng(len(shape) + sum(shape)), shape)
        got = COMPILED.fwht(x, normalized)
        assert got.shape == x.shape
        assert got.tobytes() == _fwht_numpy(x, normalized).tobytes()

    def test_non_contiguous_input(self):
        base = _spread(np.random.default_rng(3), (64, 48))
        for x in (base.T, base[:, ::3], base[::2, 16:]):  # strided rows and columns
            assert not x.flags.c_contiguous
            want = _fwht_numpy(np.ascontiguousarray(x), True)
            assert fast_hadamard_transform(x).tobytes() == want.tobytes()
            assert COMPILED.fwht(x, True).tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [12, 24, 48, 96, 20, 40, 80, 160])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_apply_hadamard_kronecker_orders(self, order, normalized):
        """Orders 12 * 2**k and 20 * 2**k: the FWHT runs over a transposed,
        non-contiguous view of the dense factor's output."""
        x = _spread(np.random.default_rng(order), (7, order))
        got = apply_hadamard(x, normalized=normalized)
        assert got.tobytes() == _on_numpy(apply_hadamard, x, normalized=normalized).tobytes()

    def test_no_kernel_fallback(self, request):
        """Once the ``no_kernel`` fixture patches the library out, the
        transform runs numpy -- and returns the compiled one's bytes."""
        x = _spread(np.random.default_rng(4), (9, 256))
        compiled = fast_hadamard_transform(x)
        request.getfixturevalue("no_kernel")
        assert native.kernel() is None and native.status().startswith("numpy: ")
        assert fast_hadamard_transform(x).tobytes() == compiled.tobytes()


class TestPoT:
    def test_scale_snapped_to_power_of_two(self):
        scales = np.array([0.3, 1.0, 5.0])
        snapped = pot_quantize_scale(scales, rounding="ceil")
        np.testing.assert_allclose(snapped, [0.5, 1.0, 8.0])

    def test_nearest_rounding(self):
        snapped = pot_quantize_scale(np.array([0.3, 5.0]), rounding="nearest")
        np.testing.assert_allclose(snapped, [0.25, 4.0])

    def test_zero_scale_is_well_defined(self):
        """An all-zero group's absmax (0) snaps to the tiny floor PoT scale.

        Regression: this used to raise, which made all-zero quantization
        groups an error path instead of the benign zero-codes case.
        """
        snapped = pot_quantize_scale(np.array([0.0, 1.0]))
        assert snapped[0] == 2.0**-39
        assert snapped[1] == 1.0
        # The floor scale still decodes zero codes to exact zeros.
        assert 0.0 * snapped[0] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pot_quantize_scale(np.array([-1.0]))
        with pytest.raises(ValueError):
            pot_quantize_scale(np.array([1.0]), rounding="floor")

    def test_pot_quantize_dequantize_error_bounded(self):
        """PoT (ceil) scales at most double the step size vs exact scales."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 64))
        from repro.quant.rtn import rtn_quantize_activation

        err_pot = np.max(np.abs(x - pot_quantize_dequantize(x, bits=8, group_size=16)))
        err_exact = np.max(np.abs(x - rtn_quantize_activation(x, 8, group_size=16)))
        assert err_pot <= 2.0 * err_exact + 1e-12

    def test_shift_requantize_matches_reference(self):
        """Shift-based re-quantization is exact for power-of-two scales."""
        rng = np.random.default_rng(1)
        values = rng.integers(-127, 128, size=1000)
        for src_exp, dst_exp in [(-6, -3), (-3, -6), (0, 0), (-8, -1)]:
            via_shift = shift_requantize(values, src_exp, dst_exp, bits=8)
            via_reference = requantize_reference(values, 2.0**src_exp, 2.0**dst_exp, bits=8)
            np.testing.assert_array_equal(via_shift, via_reference)

    @given(
        hnp.arrays(np.int64, (64,), elements=st.integers(min_value=-127, max_value=127)),
        st.integers(min_value=-10, max_value=0),
        st.integers(min_value=-10, max_value=0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_requantize_property(self, values, src_exp, dst_exp):
        via_shift = shift_requantize(values, src_exp, dst_exp)
        via_reference = requantize_reference(values, 2.0**src_exp, 2.0**dst_exp)
        np.testing.assert_array_equal(via_shift, via_reference)
