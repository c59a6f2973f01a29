"""The compiled units of the quantized datapath: find ``cc``, build, cache, load, self-test, report.

``native.c`` beside this file is one library with six entries, each
checked against the code it stands in for:

- ``step`` -- the whole integer SSM decode step of a batch, float ``x`` /
  ``B`` / ``C`` (and the per-head ``Delta`` / ``A_bar``) and the resident
  INT8 codes and ``int8`` PoT exponents in, ``y`` and the new codes and
  exponents out (``repro.quant.ssm_quant._compiled_step``).  Its reference
  and fallback is the fake-quant oracle ``QuantizedSSMStep._step_oracle``,
  which also runs a poisoned state or a new grid past the exponent byte
  (the poison and range contracts of ``repro.mamba.cache.QuantizedSSMState``);
- ``fwht`` -- the HTU's fast Walsh-Hadamard transform (``_compiled_fwht``).
  Its reference and fallback is the textbook butterfly
  ``repro.quant.hadamard._fwht_numpy``;
- ``quantize`` -- the symmetric quantizer's round trip over groups of the
  trailing axis, to fake-quantized values (in place or not) or INT8 codes and
  scales (``repro.quant.quantizer._compiled_quantize``): the activation
  quantizations of decode and prefill, prefill's staged tiles (read where
  their rows lie) and its ``D (.) x`` / ``Delta (.) B`` products (a per-row
  scalar, the product formed in the quantizer's pass), the resident state's
  codes, weight RTN.  Its reference and fallback is
  ``repro.quant.quantizer._quantize_numpy``, the same contract in numpy;
- ``silu`` -- the sigmoid ``1 / (1 + exp(-x))`` with libm's ``exp``, and
  SiLU ``x`` times it, over rows at a stride, in place or not
  (``repro.mamba.ops._compiled_silu``): the gated norm's gate, decode and
  prefill.  Its reference and fallback is
  ``repro.mamba.ops._silu_reference``, the same formula with ``math.exp``;
- ``conv`` -- the causal depthwise conv, prefill and decode step: taps in
  their fixed order, bias and SiLU in one pass
  (``repro.mamba.conv1d._compiled_conv``).  Its reference and fallback is
  ``repro.mamba.conv1d._conv_reference``;
- ``scan`` -- the chunk scan's element-wise stages between its BLAS
  contractions and numpy's ``exp``: ``decay``, ``gate``, ``out`` and
  ``handoff`` (``repro.quant.ssm_quant._compiled_scan_stages``).  Their
  references and fallback are ``repro.quant.ssm_quant._SCAN_STAGES``.

Each reference is the plain math with its entry's signature: nothing in it
is tuned, since it runs only in the self-test, in the tests and where no
library loads.  Every wrapper hands its buffers over through :func:`pointer`.

:func:`kernel` returns the six behind those wrappers, or ``None`` -- the
references then run -- and :func:`status` says which and why.
Nothing selects an executor but what this module observes, once per process:
a C compiler on ``PATH``, a build that succeeds, a load-time self-test in
which every entry is byte-equal to its reference (one mismatch turns the
whole library off).  Built for *this* CPU (``-march=native``: the ISA is
worth 2.4x) into a per-user cache under a name hashed from source, flags,
compiler and CPU, so a binary never loads on a machine it was not built for,
and renamed into place, so concurrent workers never load half a file.  The
flags are fixed here: bit-identity needs ``-ffp-contract=off`` and no
``-ffast-math``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

_SOURCE = Path(__file__).with_name("native.c")
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
#: Set on the thread running the load-time self-test, whose references must run on numpy.
_self_test = threading.local()


def _find_compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_dir() -> Path:
    """The first usable private directory: owned by this user, writable by nobody else."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    choices = [Path(home) / "repro-lightmamba"] if os.path.isabs(home) else []
    choices.append(Path(tempfile.gettempdir()) / f"repro-lightmamba-{os.getuid()}")
    for path in choices:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.stat()
        except OSError:
            continue
        if info.st_uid == os.getuid() and not info.st_mode & 0o022:
            return path
    raise OSError("no private cache directory among " + ", ".join(map(str, choices)))


def _library_name(cc: str) -> str:
    """Hashed from all the binary depends on: source, flags, compiler, CPU."""
    cpuinfo = Path("/proc/cpuinfo")  # first processor's block; absent off Linux
    cpu = cpuinfo.read_text().split("\n\n")[0].splitlines() if cpuinfo.exists() else []
    cpu = [ln for ln in cpu if ln.startswith(("model name", "flags", "Features"))]
    built_by = os.stat(cc)
    parts = (_SOURCE.read_bytes(), _FLAGS, cc, built_by.st_size, built_by.st_mtime_ns,
             os.uname().machine, cpu)
    return "native-" + hashlib.sha256(repr(parts).encode()).hexdigest()[:20] + ".so"


def _build(cc: str, target: Path) -> Optional[str]:
    """Compile beside the target and rename into place; the first stderr line on failure."""
    with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
        partial = os.path.join(scratch, target.name)
        done = subprocess.run(
            [cc, *_FLAGS, str(_SOURCE), "-o", partial, "-lm"], capture_output=True, text=True)
        if done.returncode:
            return (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[0]
        os.replace(partial, target)
    return None


def pointer(a: np.ndarray):
    """``a``'s first byte as a ctypes pointer argument, with or without ``argtypes``.

    A ``c_char`` over a writable C-contiguous buffer costs about a third of
    ``.ctypes.data`` (which builds a ctypes view); a read-only or strided
    array takes that address, wrapped so that no call narrows it to a C int.
    """
    if a.flags.writeable and a.flags.c_contiguous:
        return ctypes.byref(ctypes.c_char.from_buffer(a))
    return ctypes.c_void_p(a.ctypes.data)


def _same_bytes(got, want) -> bool:
    return len(got) == len(want) and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _step_agrees(step) -> bool:
    """The compiled step against the oracle: full and padded state groups, a
    padded x group, an all-zero row, the default layout's tile (64-channel
    heads, 32-long groups), a readout grid past ``2**1000`` (a ``C`` near
    ``1e305``: the libm ``ldexp`` path), and three batches the step must hand
    to the oracle: one whose new state grid passes the exponent byte's
    ``2**127``, one past the exponent range, one holding a poisoned group."""
    from repro.mamba.cache import QuantizedSSMState
    from repro.mamba.ssm import SSMParams
    from repro.quant import ssm_quant

    rng = np.random.default_rng(1)
    for bits, group, heads, dim, n, case in ((8, 32, 2, 64, 64, None), (4, 16, 3, 12, 24, None),
                                             (8, 16, 2, 3, 24, "ldexp"),
                                             (8, 32, 2, 8, 24, "byte"), (8, 32, 2, 8, 24, "range"),
                                             (8, 32, 2, 8, 24, "poison")):
        quant = ssm_quant.QuantizedSSMStep(ssm_quant.SSMQuantConfig(bits=bits, group_size=group))
        params = SSMParams(A_log=rng.normal(size=heads), D=rng.normal(size=heads),
                           dt_bias=rng.normal(size=heads))
        state = quant.quantize_state_codes(rng.normal(size=(3, heads, dim, n)))
        x, B, C = rng.normal(size=(3, heads, dim)), rng.normal(size=(3, n)), rng.normal(size=(3, n))
        x[1], B[1] = 0.0, 0.0
        if case in ("byte", "range"):
            big = 1e25 if case == "byte" else 1e200
            x[0], B[0] = x[0] * big, B[0] * big
        elif case == "poison":
            scales = state.scales.copy()
            scales[0, 0, 0, 0] = np.nan
            state = QuantizedSSMState(state.codes, scales, group, bits)
        elif case == "ldexp":
            C[0] *= 1e305
        dt = rng.normal(size=(3, heads))
        delta, a_bar = ssm_quant.ssm_decay(params, dt)
        got = step(x, B, C, dt, delta, a_bar, params.D, state, group, bits)
        if case in ("byte", "range", "poison"):
            if got is not ssm_quant._ORACLE:
                return False
            continue
        y, want = quant._step_oracle(params, x, B, C, dt, state)
        if not isinstance(got, tuple) or not _same_bytes((got[0], *got[1].storage),
                                                         (y, *want.storage)):
            return False
    return True


def _fwht_agrees(fwht) -> bool:
    """The compiled FWHT against the numpy FWHT, normalized and not."""
    from repro.quant import hadamard

    rng = np.random.default_rng(2)
    return all(
        fwht(x, normalized).tobytes() == hadamard._fwht_numpy(x, normalized).tobytes()
        for x in (rng.normal(size=(3, 64)) * 1e3, rng.normal(size=(5, 1)), rng.normal(size=512))
        for normalized in (True, False)
    )


def _quantize_agrees(quantize) -> bool:
    """The compiled quantizer against the numpy one: every granularity, the
    default 32-long groups and others, a ragged last group, clipping, PoT
    scales, codes and fake-quant values in place, an all-zero group, and the
    declines (a NaN group, a scale past ``2**1023``) the numpy reference then
    runs."""
    from repro.quant import quantizer
    from repro.quant.dtypes import Granularity, IntSpec

    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 72)) * 10.0 ** rng.integers(-5, 6, size=(3, 1))
    x[1, :16] = 0.0
    for gran, group, bits, clip, pot in ((Granularity.PER_GROUP, 16, 4, 1.0, False),
                                         (Granularity.PER_GROUP, 32, 8, 0.9, True),
                                         (Granularity.PER_TOKEN, 16, 8, 1.0, False),
                                         (Granularity.PER_TENSOR, 16, 16, 1.0, True)):
        config = quantizer.QuantizerConfig(IntSpec(bits), gran, group, clip, pot)
        want = quantizer._quantize_numpy(x, config, np.empty(x.shape))
        got = x.copy()
        if quantize(got, config, got) is not got or got.tobytes() != want.tobytes():
            return False
        if bits <= 8:
            found = quantize(x, config)
            if found is None or not _same_bytes(found, quantizer._quantize_numpy(x, config)):
                return False
    # Rows where they lie and per-row scalars (the chunk scan's staging and
    # its D (.) x / Delta (.) B products), PoT and not, full and ragged groups.
    wide = rng.normal(size=(2, 3, 5, 52)) * 10.0 ** rng.integers(-3, 4, size=(2, 3, 5, 1))
    for group, bits, pot in ((32, 8, True), (16, 4, False), (12, 8, True)):
        config = quantizer.QuantizerConfig(IntSpec(bits), Granularity.PER_GROUP, group, 1.0, pot)
        d = rng.normal(size=(3, 1))
        delta = np.abs(rng.normal(size=(2, 3, 8)))[..., 2:7]
        for values, scalar in ((np.swapaxes(wide, 1, 2)[..., 3:43], None),
                               (wide[..., :40], d), (wide[:, :1, :, 5:45], delta)):
            shape = values.shape if scalar is None else np.broadcast_shapes(
                values.shape, scalar.shape + (1,))
            want = quantizer._quantize_numpy(values, config, np.empty(shape), scalar)
            got = np.empty(shape)
            if quantize(values, config, got, scalar) is not got or got.tobytes() != want.tobytes():
                return False
    # Products that land within an ulp of a rounding boundary, where forming
    # them in another order moves a code: 8-bit groups of (k + 0.5) / 127
    # under a 1.0, the group maximum, non-PoT scales.
    half = np.concatenate([np.ones((4, 1)), (rng.integers(0, 126, size=(4, 31)) + 0.5) / 127], 1)
    by = np.array([1.4099536636507697, 0.5041077502552221, 1.7947683835248298, 1.1])
    config = quantizer.QuantizerConfig(IntSpec(8), Granularity.PER_GROUP, 32)
    want = quantizer._quantize_numpy(half, config, np.empty(half.shape), by)
    got = np.empty(half.shape)
    if quantize(half, config, got, by) is not got or got.tobytes() != want.tobytes():
        return False
    # 2-bit codes (qmax 1): a group absmax past 2**1023 is a scale past it;
    # a non-finite scalar declines its product's groups.
    pot = quantizer.QuantizerConfig(IntSpec(2), Granularity.PER_GROUP, 16, pot_scale=True)
    poisoned, huge = x.copy(), x.copy()
    poisoned[2, 20], huge[2, 20] = np.nan, 1.5e308
    if quantize(x, pot, np.empty(x.shape), np.array([1.0, np.inf, 1.0])) is not None:
        return False
    return all(quantize(bad.copy(), pot, np.empty(x.shape)) is None for bad in (poisoned, huge))


def _silu_agrees(silu) -> bool:
    """The compiled sigmoid / SiLU against the Python one: magnitudes from
    ``1e-300`` to ``1e308`` and subnormals of both signs, signed zeros and
    infinities, NaN, the edges where ``exp`` overflows (about ``-709.78``) and
    where the gate's ``exp(-x)`` goes subnormal and to zero (``745``), a
    strided view in and out, ``out`` that is ``x``, and a 0-d input."""
    from repro.mamba import ops

    rng = np.random.default_rng(4)
    wide = rng.normal(size=(6, 40)) * 10.0 ** rng.integers(-300, 309, size=(6, 40))
    wide[0, :12] = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 709.78, -709.78,
                    709.79, -745.14, 745.14)
    strided = np.concatenate([wide, rng.normal(size=(6, 9))], axis=1)[:, :40]
    for gate_only in (True, False):
        want = ops._silu_reference(wide, None, gate_only)
        if silu(strided, None, gate_only).tobytes() != want.tobytes():
            return False
        held = np.empty((6, 47))[:, 3:43]
        if silu(wide, held, gate_only) is not held or held.tobytes() != want.tobytes():
            return False
        inplace = wide.copy()
        if silu(inplace, inplace, gate_only) is not inplace or inplace.tobytes() != want.tobytes():
            return False
        scalar = np.array(-3.25)
        got, ref = silu(scalar, None, gate_only), ops._silu_reference(scalar, None, gate_only)
        if got.tobytes() != ref.tobytes():
            return False
    return True


def _nan(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _conv_agrees(conv) -> bool:
    """The compiled conv against its numpy reference, prefill and decode:
    kernels of 4, 3 and 1 taps, one sequence and a batch, a strided input,
    a zero and a warm window, a segment shorter than the kernel's reach, no
    activation; and the NaN rule -- NaN payloads of both signs in the input,
    the window, a weight and the bias, and the NaN an ``inf - inf`` or
    ``inf * 0`` makes."""
    from repro.mamba import conv1d

    rng = np.random.default_rng(5)
    for k, lead, seq_len, warm, activation in ((4, (), 9, False, True), (4, (3,), 2, True, True),
                                               (3, (2,), 6, True, False), (1, (), 3, True, True)):
        channels = 24
        weight, bias = rng.normal(size=(channels, k)), rng.normal(size=channels)
        x = rng.normal(size=lead + (seq_len, channels + 7))[..., 2 : 2 + channels]
        window = rng.normal(size=lead + (channels, k))
        x_t, weight_nan, bias_nan = x[..., 0, :].copy(), weight.copy(), bias.copy()
        x[..., 0, 1], x[..., -1, 2] = _nan(0x7FF8000000000123), _nan(0xFFF8000000000456)
        x[..., 0, 3], window[..., 3, -1] = np.inf, -np.inf                # inf - inf
        x[..., -1, 4], weight[4, -1] = np.inf, 0.0                        # inf * 0
        window[..., 5, -1], weight_nan[5, 0] = _nan(0x7FF800000000BEEF), _nan(0xFFF8000000000001)
        bias_nan[6] = _nan(0xFFF8000000000777)
        x_t[..., 1], x_t[..., 3] = _nan(0xFFF80000000000AB), np.inf
        for w, b in ((weight, bias), (weight_nan, bias_nan)):
            cases = [(x, window if warm else None, False), (x_t, window, True)]
            for values, held, step in cases:
                want = conv1d._conv_reference(values, held, w, b, activation, step)
                got = conv(values, held, w, b, activation, step)
                if not _same_bytes(got if step else (got,), want if step else (want,)):
                    return False
    return True


def _scan_agrees(scan) -> bool:
    """The compiled chunk-scan stages against their numpy references: a batch
    of two, three heads, a ragged chunk, a difference of zero and a NaN in
    the decay chain, a poisoned state and readout."""
    from repro.quant import ssm_quant

    rng = np.random.default_rng(6)
    ref = ssm_quant._SCAN_STAGES
    lead, heads, q_len, dim, n = (2,), 3, 5, 4, 6
    per_head = lead + (heads, q_len)
    lc = np.cumsum(-np.abs(rng.normal(size=per_head)), axis=-1)
    lc[0, 0, 1:3], lc[1, 2, 4] = lc[0, 0, 0], np.nan
    got, want = np.empty(per_head + (q_len,)), np.empty(per_head + (q_len,))
    scan.decay(lc, got)
    ref.decay(lc, want)
    gate = rng.normal(size=per_head + (q_len,))
    decay = np.exp(want)
    gates = [gate.copy(), gate.copy()]
    scan.gate(gates[0], decay)
    ref.gate(gates[1], decay)
    skip, out, xq = (rng.normal(size=per_head + (dim,)) for _ in range(3))
    readout = rng.normal(size=lead + (heads, dim, q_len))
    readout[1, 0, 2, 3] = np.nan
    exp_l, carry = np.exp(rng.normal(size=per_head)), np.exp(rng.normal(size=per_head))
    ys = [np.empty(lead + (q_len + 2, heads, dim))[:, 1:-1] for _ in range(2)]
    works = [np.empty(per_head + (dim,)) for _ in range(2)]
    scan.out(skip, out.copy(), exp_l, readout, carry, xq, ys[0], works[0])
    ref.out(skip, out.copy(), exp_l, readout, carry, xq, ys[1], works[1])
    state = rng.normal(size=lead + (heads, dim, n))
    state[0, 1, 2, 3] = np.nan
    handoff = rng.normal(size=state.shape)
    handoffs = [handoff.copy(), handoff.copy()]
    exp_last = np.exp(rng.normal(size=lead + (heads,)))
    scan.handoff(state, exp_last, handoffs[0])
    ref.handoff(state, exp_last, handoffs[1])
    return _same_bytes((got, gates[0], ys[0], works[0], handoffs[0]),
                       (want, gates[1], ys[1], works[1], handoffs[1]))


@functools.lru_cache(maxsize=None)
def _load() -> Tuple[Optional[SimpleNamespace], str]:
    """``(entries or None, status)``, decided once per process."""
    cc = _find_compiler()
    if cc is None:
        return None, "numpy: no C compiler"
    try:
        target = _cache_dir() / _library_name(cc)
        error = None if target.exists() else _build(cc, target)
        if error is not None:
            return None, f"numpy: build failed: {error}"
        library = ctypes.CDLL(str(target))
        # The wrappers' modules read kernel() at call time: imported here, not at the top.
        from repro.mamba import conv1d, ops
        from repro.quant import hadamard, quantizer, ssm_quant

        entries = SimpleNamespace(
            step=ssm_quant._compiled_step(library.ssmu_step),
            fwht=hadamard._compiled_fwht(library.fwht),
            quantize=quantizer._compiled_quantize(library.quantize_groups),
            silu=ops._compiled_silu(library.silu),
            conv=conv1d._compiled_conv(library.conv),
            scan=ssm_quant._compiled_scan_stages(library),
        )
    except (OSError, AttributeError) as exc:
        return None, f"numpy: {exc}"
    _self_test.running = True  # the references call kernel(): they run on numpy
    try:
        agree = (_step_agrees(entries.step) and _fwht_agrees(entries.fwht)
                 and _quantize_agrees(entries.quantize) and _silu_agrees(entries.silu)
                 and _conv_agrees(entries.conv) and _scan_agrees(entries.scan))
    finally:
        _self_test.running = False
    return (entries, "compiled") if agree else (None, "numpy: self-test mismatch")


def kernel() -> Optional[SimpleNamespace]:
    """The six compiled entries (``step`` ... ``scan``), or ``None``: references run."""
    return None if getattr(_self_test, "running", False) else _load()[0]


def status() -> str:
    """``"compiled"`` or ``"numpy: <reason>"``."""
    return _load()[1]
