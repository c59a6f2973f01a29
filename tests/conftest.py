"""Shared pytest fixtures for the LightMamba reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Model, get_preset
from repro.mamba.cache import InferenceCache, QuantizedSSMState
from repro.quant import native


def pytest_addoption(parser):
    parser.addoption(
        "--no-kernel",
        action="store_true",
        help="run every test with the no_kernel fixture: the integer decode step on the oracle, "
        "the FWHT and the quantizer on numpy, as on a machine without a C compiler",
    )


@pytest.fixture()
def no_kernel(monkeypatch):
    """Patch ``repro.quant.native``'s loader to report no compiled library.

    A test seam, not a switch of the program: the integer decode step then
    runs the fake-quant oracle and the FWHT and the quantizer run numpy,
    exactly as they do where no compiler is found.
    """
    monkeypatch.setattr(native, "_load", lambda: (None, "numpy: patched out by the test suite"))


@pytest.fixture()
def fresh_loader():
    """Let a test re-run the real once-per-process load, and restore it afterwards.

    A test that asks for it tests the loader itself, so ``--no-kernel`` leaves
    the loader unpatched for it.
    """
    native._load.cache_clear()
    yield
    native._load.cache_clear()


@pytest.fixture(autouse=True)
def _kernel_under_test(request):
    if request.config.getoption("--no-kernel") and "fresh_loader" not in request.fixturenames:
        request.getfixturevalue("no_kernel")


@pytest.fixture(scope="session")
def tiny_config():
    """The smallest structurally-complete Mamba2 configuration."""
    return get_preset("mamba2-tiny")


@pytest.fixture(scope="session")
def small_config():
    return get_preset("mamba2-small")


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    """A deterministic tiny model with the default outlier profile."""
    return Mamba2Model.from_config(tiny_config, InitConfig(seed=0))


@pytest.fixture(scope="session")
def small_model(small_config):
    return Mamba2Model.from_config(small_config, InitConfig(seed=1))


@pytest.fixture(scope="session")
def with_chunk_size():
    """``(model, chunk_size) -> model``: a copy that prefills at ``chunk_size``.

    ``Mamba2Config.chunk_size`` is the one way to set the chunk length, so the
    copy's config (and each block's) carries the override.  The copy has the
    original's weights (copied) and its projection transforms and SSM
    implementation (shared).
    """

    def rechunk(model, chunk_size):
        twin = model.copy()
        twin.config = model.config.with_overrides(chunk_size=chunk_size)
        for block in twin.blocks:
            block.config = twin.config
        return twin

    return rechunk


@pytest.fixture(scope="session")
def cache_arrays():
    """``cache -> [arrays]``: every array a layer or model cache holds, layer by layer.

    Per layer the conv window, then the float SSM state or the resident codes
    and scales -- the two state forms compared, and checked for shared
    memory, by one loop.
    """

    def arrays(cache):
        layers = cache.layers if isinstance(cache, InferenceCache) else [cache]
        out = []
        for layer in layers:
            state = layer.ssm_state
            resident = isinstance(state, QuantizedSSMState)
            out += [layer.conv_state, *((state.codes, state.scales) if resident else (state,))]
        return out

    return arrays


@pytest.fixture()
def rng():
    """A per-test deterministic random generator."""
    return np.random.default_rng(1234)
