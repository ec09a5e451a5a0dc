"""detect_anomaly(): op-level NaN/Inf attribution in forward and backward."""

import numpy as np
import pytest

from repro.analysis.anomaly import AnomalyError, detect_anomaly
from repro.nn import autograd
from repro.nn.tensor import Tensor


class TestForward:
    def test_names_the_introducing_op(self):
        a = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(all="ignore"):
                    ((a - 1.0).log() * 2.0).sum()
        message = str(excinfo.value)
        assert "op 'log'" in message
        assert "NaN" in message
        # Provenance: the parent op and its finite status are reported.
        assert "op='sub'" in message
        assert "values finite" in message

    def test_counts_nan_and_inf_separately(self):
        a = Tensor(np.array([0.0, -1.0]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(all="ignore"):
                    a.log()
        assert "1 NaN" in str(excinfo.value)
        assert "1 Inf" in str(excinfo.value)

    def test_creation_stack_points_at_user_code(self):
        a = Tensor(np.array([-1.0]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(all="ignore"):
                    a.log()
        assert __file__ in str(excinfo.value)

    def test_finite_graph_passes_untouched(self):
        a = Tensor(np.linspace(0.1, 1.0, 8), requires_grad=True)
        with detect_anomaly():
            loss = (a.log() * a).sum()
            loss.backward()
        assert np.all(np.isfinite(a.grad))


class TestBackward:
    def test_names_op_with_nonfinite_gradient(self):
        # sqrt is finite at 0 but its derivative is infinite there.
        a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly():
            loss = (a ** 0.5).sum()
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(all="ignore"):
                    loss.backward()
        message = str(excinfo.value)
        assert "backward of op 'pow'" in message
        assert "Inf" in message

    def test_check_backward_false_skips_gradient_checks(self):
        a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly(check_backward=False):
            loss = (a ** 0.5).sum()
            with np.errstate(all="ignore"):
                loss.backward()  # must not raise
        assert np.isinf(a.grad).any()

    def test_preexisting_bad_grad_not_blamed_on_later_op(self):
        # A parent whose .grad is already non-finite before the op's
        # backward runs must not trigger a false attribution.
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with detect_anomaly():
            loss = (a * 3.0).sum()
            a.grad = np.array([np.inf, np.inf])
            loss.backward()  # accumulates into the already-bad grad
        assert np.isinf(a.grad).all()


class TestHookLifecycle:
    def test_hooks_unregistered_on_exit(self):
        assert not autograd.op_hooks()
        with detect_anomaly():
            assert len(autograd.op_hooks()) == 1
        assert not autograd.op_hooks()

    def test_hooks_unregistered_on_exception(self):
        with pytest.raises(AnomalyError):
            with detect_anomaly():
                with np.errstate(all="ignore"):
                    Tensor(np.array([-1.0]), requires_grad=True).log()
        assert not autograd.op_hooks()

    def test_not_reentrant(self):
        context = detect_anomaly()
        with context:
            with pytest.raises(RuntimeError):
                context.__enter__()
        assert not autograd.op_hooks()

    def test_no_overhead_outside_context(self):
        # The engine only pays when hooks are registered.
        assert autograd.op_hooks() == []
        out = Tensor(np.ones(3), requires_grad=True) * 2.0
        assert out._backward is not None
