"""The compiled units of the quantized datapath: find ``cc``, build, cache, load, self-test, report.

``native.c`` beside this file is one library with four entries, each
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
  quantizations of decode and prefill, prefill's staged tiles, the resident
  state's codes, weight RTN.  Its reference and fallback is
  ``repro.quant.quantizer._quantize_numpy``, the same contract in numpy;
- ``silu`` -- the sigmoid ``1 / (1 + exp(-x))`` with libm's ``exp``, and
  SiLU ``x`` times it, over rows at a stride, in place or not
  (``repro.mamba.ops._compiled_silu``): the conv's activation and the gated
  norm's gate, decode and prefill.  Its reference and fallback is
  ``repro.mamba.ops._silu_reference``, the same formula with ``math.exp``.

Each reference is the plain math with its entry's signature: nothing in it
is tuned, since it runs only in the self-test, in the tests and where no
library loads.  Every wrapper hands its buffers over through :func:`pointer`.

:func:`kernel` returns the four behind those wrappers, or ``None`` -- the
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

    A ``c_char`` over a writable buffer costs about a third of
    ``.ctypes.data`` (which builds a ctypes view); a read-only buffer takes
    that address, wrapped so that no call narrows it to a C int.
    """
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
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
    # 2-bit codes (qmax 1): a group absmax past 2**1023 is a scale past it.
    pot = quantizer.QuantizerConfig(IntSpec(2), Granularity.PER_GROUP, 16, pot_scale=True)
    poisoned, huge = x.copy(), x.copy()
    poisoned[2, 20], huge[2, 20] = np.nan, 1.5e308
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
        from repro.mamba import ops
        from repro.quant import hadamard, quantizer, ssm_quant

        entries = SimpleNamespace(
            step=ssm_quant._compiled_step(library.ssmu_step),
            fwht=hadamard._compiled_fwht(library.fwht),
            quantize=quantizer._compiled_quantize(library.quantize_groups),
            silu=ops._compiled_silu(library.silu),
        )
    except (OSError, AttributeError) as exc:
        return None, f"numpy: {exc}"
    _self_test.running = True  # the references call kernel(): they run on numpy
    try:
        agree = (_step_agrees(entries.step) and _fwht_agrees(entries.fwht)
                 and _quantize_agrees(entries.quantize) and _silu_agrees(entries.silu))
    finally:
        _self_test.running = False
    return (entries, "compiled") if agree else (None, "numpy: self-test mismatch")


def kernel() -> Optional[SimpleNamespace]:
    """The compiled ``step``, ``fwht``, ``quantize`` and ``silu``, or ``None``: references run."""
    return None if getattr(_self_test, "running", False) else _load()[0]


def status() -> str:
    """``"compiled"`` or ``"numpy: <reason>"``."""
    return _load()[1]
