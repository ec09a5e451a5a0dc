"""The serving runtime does not load the static analyzers.

Every ``repro.nn`` layer imports ``repro.analysis.spec`` for its shape
contracts.  The ``repro.analysis`` package itself must import nothing
eagerly, or each gateway worker and trainer would also load the linter,
the effect system and the rest of the analyzers.  A fresh interpreter
is used so modules other tests imported cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _analysis_modules_loaded_by(module: str) -> set:
    script = (f"import sys, {module}\n"
              "print('\\n'.join(m for m in sys.modules\n"
              "                 if m.startswith('repro.analysis')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
    return set(completed.stdout.split())


def test_gateway_import_loads_only_the_contract_spec():
    loaded = _analysis_modules_loaded_by("repro.runtime.gateway")
    assert loaded == {"repro.analysis", "repro.analysis.spec"}
