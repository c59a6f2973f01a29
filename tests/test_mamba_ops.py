"""Unit tests for the elementary operators in repro.mamba.ops."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mamba import ops
from repro.mamba.ops import (
    cross_entropy,
    rms_normalize,
    sigmoid,
    silu,
    softmax,
    softplus,
)
from repro.quant import native

#: The library as loaded at collection, before any test patches the loader.
COMPILED = native.kernel()

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSigmoidSilu:
    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)

    def test_sigmoid_extremes_are_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    @given(hnp.arrays(np.float64, (16,), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_bounded(self, x):
        out = sigmoid(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_silu_matches_definition(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(silu(x), x / (1 + np.exp(-x)), rtol=1e-12)

    def test_silu_zero(self):
        assert silu(np.array(0.0)) == pytest.approx(0.0)

    def test_silu_in_place_and_on_views(self):
        """``out`` may be ``x``; a strided view keeps the values between its
        elements; a 0-d input gives a scalar, an empty one an empty array."""
        x = np.linspace(-6.0, 6.0, 24).reshape(4, 6)
        want = silu(x.copy())
        inplace = x.copy()
        assert silu(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()
        wide = np.zeros((4, 9))
        wide[:, 1:7] = x
        assert silu(wide[:, 1:7], out=wide[:, 1:7]).tobytes() == want.tobytes()
        assert not wide[:, [0, 7, 8]].any()
        assert np.ndim(silu(np.array(1.5))) == 0 and silu(np.zeros((0, 3))).shape == (0, 3)


class TestSoftplus:
    def test_matches_naive_for_moderate_inputs(self):
        x = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-10)

    def test_large_input_is_linear(self):
        assert softplus(np.array(100.0)) == pytest.approx(100.0)

    @given(hnp.arrays(np.float64, (8,), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_positive_and_monotone(self, x):
        out = softplus(x)
        assert np.all(out > 0)
        order = np.argsort(x)
        assert np.all(np.diff(out[order]) >= -1e-12)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=1e-12)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-12)

    def test_handles_large_values(self):
        out = softmax(np.array([1e4, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)


class TestRmsNormalize:
    def test_unit_rms(self):
        x = np.random.default_rng(1).normal(size=(3, 64)) * 10
        out = rms_normalize(x, eps=0.0)
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, np.ones(3), rtol=1e-9)

    def test_rotation_invariance(self):
        """RMS normalisation commutes with orthogonal rotation (no scale).

        This is the property the rotation-assisted quantization relies on to
        fuse rotations through RMSNorm layers (Sec. IV-A of the paper).
        """
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 16))
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        left = rms_normalize(x @ q, eps=0.0)
        right = rms_normalize(x, eps=0.0) @ q
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)

    def test_zero_input_is_finite(self):
        out = rms_normalize(np.zeros((2, 8)))
        assert np.all(np.isfinite(out))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        logits = np.full((4, 10), -100.0)
        targets = np.array([1, 3, 5, 7])
        logits[np.arange(4), targets] = 100.0
        assert cross_entropy(logits, targets) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction(self):
        vocab = 32
        logits = np.zeros((6, vocab))
        targets = np.arange(6)
        assert cross_entropy(logits, targets) == pytest.approx(np.log(vocab), rel=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((3, 4, 5)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=int))


#: Edges of ``1 / (1 + exp(-x))``: signed zeros, infinities and NaN, where
#: ``exp(-x)`` overflows (x below about -709.78), goes subnormal (x above
#: about 708.4) and underflows to zero (x above about 745.13), subnormal x.
_SILU_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.78, -709.78, 709.79, -709.79,
               745.13, -745.13, 745.14, -745.14, 5e-324, -5e-324, 2.2250738585072014e-308]
_silu_values = st.one_of(
    st.sampled_from(_SILU_EDGES),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 307)),
    st.floats(-50.0, 50.0),
    st.floats(),  # every class, NaNs with payloads among them
)


def _padded(a):
    """``a`` as a view of rows inside wider rows (zeros around them)."""
    if not a.ndim:
        return a.copy()
    view = np.zeros(a.shape[:-1] + (a.shape[-1] + 3,))[..., 1 : a.shape[-1] + 1]
    view[...] = a
    return view


def _tile(a):
    """``a`` as the leading rows of a taller buffer: at 3-d, rows with no one stride."""
    if a.ndim < 2:
        return _padded(a)
    view = np.zeros(a.shape[:-2] + (a.shape[-2] + 2, a.shape[-1]))[..., : a.shape[-2], :]
    view[...] = a
    return view


@pytest.mark.skipif(COMPILED is None, reason=native.status())
class TestCompiledSilu:
    """``native.c``'s ``silu`` entry is its Python reference, to the bit."""

    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
                     elements=_silu_values),
        gate_only=st.booleans(),
        x_layout=st.sampled_from(["contiguous", "padded", "tile"]),
        out_layout=st.sampled_from(["new", "x", "contiguous", "padded", "tile"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_reference(self, x, gate_only, x_layout, out_layout):
        """Every value class and magnitude, 0-d to 3-d and empty inputs, and
        every layout in and out: contiguous, rows inside wider rows, a
        leading-axis tile of a taller buffer (at 3-d rows with no one
        stride), and ``out`` that is ``x``."""
        want = ops._silu_reference(x.copy(), None, gate_only)
        place = {"contiguous": np.copy, "padded": _padded, "tile": _tile}
        src = place[x_layout](x)
        if out_layout == "new":
            out = None
        elif out_layout == "x":
            out = src
        else:
            out = place[out_layout](np.zeros(x.shape))
        got = COMPILED.silu(src, out, gate_only)
        assert out is None or got is out
        assert np.shape(got) == x.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_public_functions_run_the_entry(self, monkeypatch):
        """``sigmoid`` / ``silu`` go to the loaded entry, not the reference."""
        monkeypatch.setattr(ops, "_silu_reference", None)
        monkeypatch.setattr(native, "_load", lambda: (COMPILED, "compiled"))
        x = np.linspace(-3.0, 3.0, 7)
        assert silu(x).tobytes() == COMPILED.silu(x, None, False).tobytes()
        assert sigmoid(x).tobytes() == COMPILED.silu(x, None, True).tobytes()


_SERVE = """
import os, sys, sysconfig
before = set(sys.modules)
import numpy
from repro.mamba import InitConfig, Mamba2Model, get_preset
from repro.quant import QuantConfig, QuantMethod, native, quantize_model
from repro.serving import InferenceEngine, Request

if sys.argv[1] == "patched":
    native._load = lambda: (None, "numpy: patched out")
model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
model = quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR, group_size=32))
engine = InferenceEngine(model, max_batch_size=2)
done = engine.run([Request(prompt=(1, 2, 3), max_new_tokens=4),
                   Request(prompt=(5,), max_new_tokens=3)])
assert [len(c.result.tokens) for c in done] == [4, 3], done
installed = tuple({sysconfig.get_paths()[key] for key in ("purelib", "platlib")})
numpy_dir = os.path.dirname(numpy.__file__)
loaded = {name: getattr(module, "__file__", None) or "" for name, module in sys.modules.items()}
print(native.status())
print(sorted(name for name, where in loaded.items() if name not in before
             and where.startswith(installed) and not where.startswith(numpy_dir)))
"""


@pytest.mark.parametrize("loader", ["real", "patched"])
def test_serving_imports_nothing_installed_beyond_numpy(loader):
    """Quantizing a lightmamba* model and serving it -- prefill and decode
    through the engine -- loads no installed package but numpy, with the
    library and without (the SiLU's sigmoid once pulled one in for itself)."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _SERVE, loader],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    status, foreign = done.stdout.splitlines()[-2:]
    assert foreign == "[]"
    if loader == "real":
        assert (status == "compiled") == (COMPILED is not None), status
    else:
        assert status == "numpy: patched out"
