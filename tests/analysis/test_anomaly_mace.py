"""Regression: detect_anomaly() pinpoints the faulty op inside full MACE.

The classic way this model breaks is a root of a negative intermediate: the
time-domain amplifier convolves the γ-powered (zero-mean) signal, so the
pre-root values are routinely negative, and replacing the sign-preserving
``odd_root`` with a naive ``x ** (1/γ)`` silently produces NaN.  These tests
seed exactly that bug and assert the anomaly mode names the injected op —
in the forward pass and, separately, in the backward pass.
"""

import numpy as np
import pytest

import repro.core.dualistic as dualistic
from repro.analysis.anomaly import AnomalyError, detect_anomaly
from repro.core import MaceConfig, MaceModel, PatternExtractor
from repro.nn.tensor import Tensor


@pytest.fixture
def mace_setup(rng):
    config = MaceConfig()
    model = MaceModel(config, rng=np.random.default_rng(0))
    t = np.arange(400)
    series = np.stack(
        [np.sin(2 * np.pi * t / (10 + 3 * f)) for f in range(2)], axis=1
    ) + 0.05 * rng.normal(size=(400, 2))
    extractor = PatternExtractor(config.window, config.num_bases)
    extractor.fit_service("svc", series)
    windows = Tensor(rng.normal(size=(2, config.window, 2)))
    return config, model, extractor, windows


def _naive_root(x, gamma, eps=1e-8):
    """Buggy root: ``x ** (1/γ)`` — NaN for negative intermediates."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    with np.errstate(all="ignore"):
        data = x.data ** (1.0 / gamma)

    def backward(grad):
        if x.requires_grad:
            with np.errstate(all="ignore"):
                x._accumulate(grad * (1.0 / gamma)
                              * x.data ** (1.0 / gamma - 1.0))

    return Tensor._from_op(data, (x,), backward, "naive_root")


def _bad_grad_root(x, gamma, eps=1e-8):
    """Clean forward, poisoned backward: grads come out NaN."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    magnitude = np.abs(x.data)
    data = np.sign(x.data) * magnitude ** (1.0 / gamma)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.full_like(np.asarray(grad, dtype=float), np.nan))

    return Tensor._from_op(data, (x,), backward, "bad_grad_root")


def test_forward_nan_names_injected_op(mace_setup, monkeypatch):
    _, model, extractor, windows = mace_setup
    monkeypatch.setattr(dualistic, "odd_root", _naive_root)
    with detect_anomaly():
        with pytest.raises(AnomalyError) as excinfo:
            model(windows, extractor, "svc")
    message = str(excinfo.value)
    assert "forward of op 'naive_root'" in message
    assert "NaN" in message
    # The parent (the convolution feeding the root) was still finite.
    assert "values finite" in message


def test_backward_nan_names_injected_op(mace_setup, monkeypatch):
    _, model, extractor, windows = mace_setup
    monkeypatch.setattr(dualistic, "odd_root", _bad_grad_root)
    with detect_anomaly():
        output = model(windows, extractor, "svc")
        loss = model.loss(output)
        assert np.isfinite(loss.data).all()
        with pytest.raises(AnomalyError) as excinfo:
            loss.backward()
    assert "backward of op 'bad_grad_root'" in str(excinfo.value)


def test_healthy_mace_is_silent(mace_setup):
    _, model, extractor, windows = mace_setup
    with detect_anomaly():
        loss = model.loss(model(windows, extractor, "svc"))
        loss.backward()
    assert np.isfinite(loss.data).all()
