"""Trainer and detector end-to-end behaviour."""

import numpy as np
import pytest

from repro.core import MaceConfig, MaceDetector, MaceTrainer, timeline_scores
from repro.nn.tensor import Tensor
from repro.obs.tracing import disable_tracing, enable_tracing


def _fast_config(**overrides):
    # window 40 matches the dataset profiles (pattern periods are drawn to
    # be resolvable at that window length).
    defaults = dict(window=40, num_bases=6, channels=4, epochs=2,
                    train_stride=8, gamma_time=5, gamma_freq=5,
                    kernel_freq=4, kernel_time=3)
    defaults.update(overrides)
    return MaceConfig(**defaults)


class TestTrainer:
    def test_fit_records_history(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([s.service_id for s in tiny_dataset],
                    [s.train for s in tiny_dataset])
        assert len(trainer.history.epoch_losses) == 2
        assert np.isfinite(trainer.history.final_loss)

    def test_loss_decreases(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config(epochs=5))
        trainer.fit([s.service_id for s in tiny_dataset],
                    [s.train for s in tiny_dataset])
        losses = trainer.history.epoch_losses
        assert losses[-1] < losses[0]

    def test_mismatched_inputs_rejected(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        with pytest.raises(ValueError):
            trainer.fit(["one"], [s.train for s in tiny_dataset])

    def test_window_errors_requires_known_service(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        with pytest.raises(KeyError):
            trainer.window_errors("unknown", np.zeros((2, 40, 8)))

    def test_prepare_service_enables_unseen_scoring(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        unseen = tiny_dataset[1]
        trainer.prepare_service(unseen.service_id, unseen.train)
        windows = np.stack([unseen.test[i:i + 40] for i in range(4)])
        errors = trainer.window_errors(unseen.service_id, windows)
        assert errors.shape == (4, 40)


PHASES = ["trainer.forward", "trainer.backward", "trainer.clip",
          "trainer.step"]


def _phases_per_batch(spans):
    """The phase-span names recorded inside each ``trainer.batch``.

    A span is recorded when it closes, so a batch's phases precede it.
    """
    batches, pending = [], []
    for record in spans:
        if record.name == "trainer.batch":
            batches.append(pending)
            pending = []
        elif record.name in PHASES:
            assert record.path == f"trainer.epoch/trainer.batch/{record.name}"
            pending.append(record.name)
    assert not pending
    return batches


class TestPhaseSpans:
    """With tracing on, each batch splits into forward/backward/clip/step."""

    def _fit(self, dataset, batch_hook=None):
        trainer = MaceTrainer(_fast_config())
        tracer = enable_tracing()
        try:
            trainer.fit([s.service_id for s in dataset],
                        [s.train for s in dataset], batch_hook=batch_hook)
        finally:
            disable_tracing()
        return trainer, _phases_per_batch(tracer.spans)

    def test_each_finite_batch_records_every_phase_once(self, tiny_dataset):
        trainer, batches = self._fit(tiny_dataset)
        assert not trainer.history.nonfinite_batches
        assert len(batches) > 2
        assert all(phases == PHASES for phases in batches)

    def test_nonfinite_loss_batch_records_forward_only(self, tiny_dataset):
        def poison(epoch, batch_index, loss):
            if (epoch, batch_index) == (0, 1):
                return Tensor(np.array(np.nan))
            return None

        trainer, batches = self._fit(tiny_dataset, batch_hook=poison)
        assert trainer.history.nonfinite_batches == [(0, 1)]
        assert batches[1] == ["trainer.forward"]
        assert all(phases == PHASES
                   for index, phases in enumerate(batches) if index != 1)


class TestDetector:
    def test_fit_score_roundtrip(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        detector.fit([s.service_id for s in tiny_dataset],
                     [s.train for s in tiny_dataset])
        service = tiny_dataset[0]
        scores = detector.score(service.service_id, service.test)
        assert scores.shape == (len(service.test),)
        assert np.all(scores >= 0)

    def test_scores_separate_obvious_anomalies(self, rng):
        """Deterministic case: clean periodic train, spiky + frequency-swapped
        test.  MACE must score the anomalous spans above the normal floor."""
        t = np.arange(1024)
        train = np.stack([np.sin(2 * np.pi * t / 10),
                          np.cos(2 * np.pi * t / 20)], axis=1)
        train += 0.05 * rng.normal(size=train.shape)
        test = train.copy()
        labels = np.zeros(1024, dtype=bool)
        test[200:204] += 5.0                      # strong spikes
        labels[200:204] = True
        swap = np.sin(2 * np.pi * np.arange(64) / 4.0)  # foreign frequency
        test[600:664, 0] = swap
        labels[600:664] = True
        detector = MaceDetector(_fast_config(epochs=5))
        detector.fit(["svc"], [train])
        scores = detector.score("svc", test)
        assert scores[labels].mean() > 1.5 * scores[~labels].mean()

    def test_unfitted_raises(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        with pytest.raises(RuntimeError):
            detector.score("svc", tiny_dataset[0].test)
        with pytest.raises(RuntimeError):
            detector.num_parameters()

    def test_num_parameters_positive(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        detector.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        assert detector.num_parameters() > 0

    def test_default_config(self):
        assert MaceDetector().config.window == 40


class TestTimelineScores:
    def test_validates_error_shape(self, rng):
        series = rng.normal(size=(50, 2))
        with pytest.raises(ValueError):
            timeline_scores(lambda w: np.zeros((w.shape[0], 3)), series, 10)

    def test_univariate_supported(self, rng):
        series = rng.normal(size=60)
        scores = timeline_scores(
            lambda w: np.abs(w).mean(axis=-1), series, 10,
        )
        assert scores.shape == (60,)
