"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (see ``benchmarks/README.md`` and the module docstrings for the
index).  Heavy fixtures are session scoped so the reference evaluation model
and its calibration data are built once.  Each benchmark writes its
formatted table to ``benchmarks/output/`` on every run, for inspection
afterwards; that directory is not committed.

Set the environment variable ``LIGHTMAMBA_BENCH_SCALE`` (default ``1``) to an
integer to multiply the number of task examples / evaluation sequences used
by the algorithm-level benchmarks.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval import build_reference_setup

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale() -> int:
    """User-controlled scale factor for the algorithm-level benchmarks."""
    try:
        return max(1, int(os.environ.get("LIGHTMAMBA_BENCH_SCALE", "1")))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def reference_setup():
    """The shared synthetic evaluation setup (model + calibration + tasks)."""
    scale = bench_scale()
    return build_reference_setup(
        num_calibration_sequences=8,
        calibration_seq_len=32,
        num_eval_sequences=2 * scale,
        eval_seq_len=32,
        num_task_examples=8 * scale,
    )


@pytest.fixture(scope="session")
def save_output():
    """Callable writing a named benchmark artefact to benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
