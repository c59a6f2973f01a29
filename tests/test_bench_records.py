"""The committed deterministic benchmark record replays exactly.

``BENCH_serving_load.json`` holds only iteration-space quantities (latencies
in engine iterations and token time, stall counts, finish reasons, trace
hashes), so given the workload seed it does not depend on the machine.  The
script's smoke modes are re-run in process and must equal the committed
record's smoke modes field for field, with ``==`` and no tolerance; the
committed full modes must keep the script's claims (:func:`check_claims`).
After a deliberate behaviour change, re-record with
``PYTHONPATH=src python benchmarks/bench_serving_load.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    path = ROOT / "benchmarks" / f"bench_{name}.py"
    spec = importlib.util.spec_from_file_location(f"record_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _first_difference(committed, fresh, path="record"):
    """Dotted path and both values of the first field where the two differ."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in [*committed, *(k for k in fresh if k not in committed)]:
            if key not in committed or key not in fresh:
                return f"{path}.{key}: present in only one of committed / fresh"
            found = _first_difference(committed[key], fresh[key], f"{path}.{key}")
            if found:
                return found
        return None
    if committed != fresh:
        return f"{path}: committed {committed!r}, fresh {fresh!r}"
    return None


@pytest.mark.parametrize("name", ["serving_load"])
def test_smoke_modes_equal_committed_record(name):
    script = _load_script(name)
    fresh = json.loads(json.dumps(getattr(script, f"bench_{name}")(script.SMOKE_MODES)))
    committed = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    committed["modes"] = {mode: committed["modes"][mode] for mode in script.SMOKE_MODES}
    assert fresh == committed, _first_difference(committed, fresh)


def test_committed_record_keeps_its_claims():
    """A hand re-record cannot commit numbers that break the policy claims.

    On ``full_mix`` the paged policy never stalls a decode and never takes
    more than its page of prompt tokens in an iteration, FIFO does stall,
    and priority's short-class p99 TTFT is no worse than FIFO's; in every
    mode each policy's finish reasons add up to the request count.
    """
    script = _load_script("serving_load")
    script.check_claims(json.loads(script.RECORD.read_text()))
