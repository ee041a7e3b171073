"""The benchmark's own checks pass on this checkout.

For each in-process workload, ``perfbench/worker.py`` runs its trace slice
in a fresh interpreter, once plain and once with the timing wrappers
installed, and judges every answer with ``perfbench/checks.py``.  The slice
must end cleanly, with no failed operation and no problem, and every traced
function must still exist under its name.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The general scan is now the private ``classifier._scan``; the benchmark
# still traces it under its old public name.
_KNOWN_ABSENT = {"classifier.solve_general"}


@pytest.mark.parametrize("workload", ["maps", "solve-mix", "verify"])
def test_trace_slice_passes_the_benchmark_checks(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--mode", "trace"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["problem_count"] == 0, result["problems"]
    assert set(result["absent"]) <= _KNOWN_ABSENT


def test_every_traced_name_resolves():
    """Each function ``perfbench/tracing.py`` wraps exists in trilat under
    its name, so a rename is caught here, not as a stage the traced run
    reports absent."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = {f"{module}.{name}"
              for module, names in tracing.TARGETS.items() for name in names
              if not hasattr(importlib.import_module("trilat." + module),
                             name)}
    assert absent <= _KNOWN_ABSENT
