"""The repository benchmark's wrap targets still exist.

``perfbench/tracer.py`` times the program by monkeypatching public
functions of the ``repro`` layers by name.  A refactor that renames or
removes one of them would otherwise only surface inside a benchmark run;
this test resolves every target with a recorder that patches nothing.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class _ResolvingRecorder:
    """Stands in for ``SpanRecorder``: checks each target, wraps none."""

    def __init__(self):
        self.targets = []

    def _resolve(self, owner, attr, *args, **kwargs):
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        self.targets.append(f"{owner.__name__}.{attr}")

    wrap = wrap_iterator = flush_before = flush_after = _resolve


def test_every_wrap_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = _ResolvingRecorder()
    tracer.install_wrappers(recorder)
    assert {"TraceLog.record", "ServingGateway.submit",
            "AdmissionController.admit",
            "repro.runtime.gateway.gateway.read_wal"} <= set(recorder.targets)
