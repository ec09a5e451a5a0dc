"""``repro.analysis`` — correctness tooling for the NumPy autograd stack.

The package imports nothing eagerly: every ``repro.nn`` layer imports
:mod:`repro.analysis.spec` for its shape contracts, so serving workers and
trainers would otherwise load every static analyzer.  Import the
submodule you need (``from repro.analysis.anomaly import detect_anomaly``).
Each layer is usable on its own:

* :func:`repro.analysis.anomaly.detect_anomaly` — autograd anomaly mode.
  Inside the context every op's forward output and backward gradients are
  checked for NaN/Inf and the first offender is reported with per-op
  provenance (op name, parent shapes/dtypes, creation stack).
  Complemented by tape version counters in :class:`repro.nn.Tensor` that
  make in-place mutation of a taped tensor raise instead of silently
  corrupting gradients.
* :func:`repro.analysis.contracts.check_model` — static shape/dtype
  contract checking.  Layers declare ``contract`` methods;
  ``check_model(model, ("N", 40, 3))`` validates an architecture
  symbolically without running any data.
* :mod:`repro.analysis.lint` — AST lint with repo-specific rules
  (``python -m repro.analysis.lint`` or ``repro lint``).
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.gradflow` —
  abstract interpretation of traced autograd graphs (interval × finiteness
  domain, gradient-flow audit).  ``repro analyze`` drives both over every
  shipped model; :mod:`repro.analysis.audit` holds that harness (it
  imports the model zoo lazily) and the baseline-file reader/writer both
  gates share.
* :mod:`repro.analysis.effects` / :mod:`repro.analysis.purity` /
  :mod:`repro.analysis.forksafety` — the determinism analyzer: an
  interprocedural effect system over the ``repro`` package's own AST.
  Every declared determinism root (``MaceTrainer.fit``, serving
  ``update``/``score``, the fleet ``run``, ``run_drill``) is checked
  against the pure-modulo-seed contract (DET5xx findings with provenance
  chains); the multiprocessing layers get a fork-safety pass (FS6xx).
  ``repro analyze --effects`` drives it and gates the audited set against
  ``det_baseline.json``.
"""
