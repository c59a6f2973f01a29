"""The compiled SSMU tile: find ``cc``, build, cache, load, self-test, report.

``ssmu_tile.c`` beside this file is the fused tile of the integer decode step
(``QuantizedSSMStep._step_integer``).  :func:`kernel` returns it behind the
numpy tile's signature, or ``None`` -- the step then runs the numpy tile -- and
:func:`status` says which and why.  Nothing selects a tile but what this module
observes, once per process: a C compiler on ``PATH``, a build that succeeds, a
load-time self-test byte-equal to the numpy tile.  Built for *this* CPU
(``-march=native``: the ISA is worth 2.4x) into a per-user cache under a name
hashed from source, flags, compiler and CPU, so a binary never loads on a
machine it was not built for, and renamed into place, so concurrent workers
never load half a file.  The flags are fixed here: bit-identity needs
``-ffp-contract=off`` and no ``-ffast-math``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.quant import ssm_quant as reference  # circular: attributes are read at call time

_SOURCE = Path(__file__).with_name("ssmu_tile.c")
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


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
    return "ssmu_tile-" + hashlib.sha256(repr(parts).encode()).hexdigest()[:20] + ".so"


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


def _self_test(tile: Callable) -> bool:
    """The compiled tile against the numpy tile, byte for byte, on fixed operands."""
    rng = np.random.default_rng(0)
    for bits, G, g, n in ((8, 4, 32, 128), (4, 2, 16, 24), (8, 3, 7, 20)):
        qmax, shapes = 2 ** (bits - 1) - 1, reference._tile_shapes((2,), 2, 3, G, g)
        ops = [rng.integers(-qmax, qmax + 1, size).astype(dtype)  # codes and exponents alike
               for size, dtype in zip(shapes, reference._TILE_DTYPES)]
        ops[2] = rng.uniform(0.05, 1.0, shapes[2])  # a_bar
        ops[0][0, 0] = 0  # all-zero groups: destination grids at the 2**-39 floor
        got, want = np.stack([rng.normal(size=shapes[-1])] * 2)  # y, once per tile
        out = (got, *tile(*ops, got, n, bits)), (want, *reference._ssmu_tile(*ops, want, n, bits))
        if any(a.tobytes() != b.tobytes() for a, b in zip(*out)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _load() -> Tuple[Optional[Callable], str]:
    """``(tile or None, status)``, decided once per process."""
    cc = _find_compiler()
    if cc is None:
        return None, "numpy: no C compiler"
    try:
        target = _cache_dir() / _library_name(cc)
        error = None if target.exists() else _build(cc, target)
        if error is not None:
            return None, f"numpy: build failed: {error}"
        entry = ctypes.CDLL(str(target)).ssmu_tile
    except (OSError, AttributeError) as exc:
        return None, f"numpy: {exc}"
    tile = reference._compiled_tile(entry)
    return (tile, "compiled") if _self_test(tile) else (None, "numpy: self-test mismatch")


def kernel() -> Optional[Callable]:
    """The compiled tile, or ``None`` when the numpy tile must run."""
    return _load()[0]


def status() -> str:
    """``"compiled"`` or ``"numpy: <reason>"``."""
    return _load()[1]
