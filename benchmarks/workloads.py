"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, runs
one closed-loop operation per `op` call, and checks that operation's
outputs. Functions of the package are reached through their modules
(`scoring.evaluate`, not a local name) so that the tracer's wrappers are
the ones called during a traced run.

  train_8s    one `train.loop.train_step` at the default 8 s config
  eval_8s     one `scoring.evaluate` over a held-out split, jobs=2
  ingest_44k  one `dataio.load_wav` + `model.pipeline.prepare_input`
              of an 8 s, 44.1 kHz PCM16 WAV
  fit_1s      one `train.loop.fit` of a few epochs at the 1 s
              separation geometry, plus `load_checkpoint`
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from wlann import dataio, scoring
from wlann.dataio import audio, corpus as corpus_mod
from wlann.model import config as config_mod
from wlann.model import network, pipeline
from wlann.train import loop

# Acceptance-criterion-7 geometry: 1 s input, about 1.09M parameters.
SEPARATION_GEOMETRY = dict(
    fixed_input_seconds=1.0,
    cnn=config_mod.CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                   channel_widths=(16, 32, 90, 90)),
    ast=config_mod.AstBranchConfig(embed_dim=32, depth=2, heads=4),
    gru_hidden=128,
)

# The smoke test's geometry: every code path, a few milliseconds per example.
TINY_GEOMETRY = dict(
    fixed_input_seconds=1.0,
    cnn=config_mod.CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                   channel_widths=(8, 8, 15, 15)),
    ast=config_mod.AstBranchConfig(embed_dim=8, depth=1, heads=2),
    gru_hidden=4,
)


@dataclass
class OpResult:
    """What one op did: items of work, and the check of its outputs.

    The run times `op()` alone and calls `check()` after the clock stops;
    it returns one message per failed check.
    """

    items: float
    check: Callable[[], list[str]]


def _finite(array) -> bool:
    return bool(np.all(np.isfinite(array)))


def _checked_optimizer(state, failures: list[str]) -> None:
    """Check every parameter gradient for finiteness before each Adam step.

    The instance attribute calls the class's `step` at call time, so a
    traced run still records the `train.adam.step` span.
    """
    optimizer = state.optimizer

    def step():
        bad = [p.name for p in optimizer.params if p.grad is not None and not _finite(p.grad)]
        if bad:
            failures.append(f"non-finite gradients before Adam.step: {bad[:3]}")
        type(optimizer).step(optimizer)

    optimizer.step = step


class Workload:
    """Base: a seeded input set in a private work directory."""

    name = ""
    rate_metric = ("", "")  # items_per_s under its own name, with its unit
    workers = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.cfg = self.make_config()
        self.dirs_made = 0

    def make_config(self):
        # The config keeps its default seed: the workload seed makes the
        # data, not the model's initialization or augmentation draws.
        return config_mod.WlannConfig(**(TINY_GEOMETRY if self.tiny else {}))

    def fresh_dir(self, name: str) -> Path:
        """A new, empty directory for one set-up's files.

        Nothing is deleted here, so set-up time holds no clean-up; the
        run removes the whole work directory when it ends.
        """
        self.dirs_made += 1
        path = self.workdir / f"{name}-{self.dirs_made}"
        path.mkdir(parents=True)
        return path

    def synth_corpus(self, n_per_class: int):
        root = self.fresh_dir("corpus")
        dataio.generate_synthetic_corpus(n_per_class, self.seed, root)
        return corpus_mod.load_corpus_splits(root)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        """One closed-loop operation, the unit of `op_s_p50`."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks made once, after the timed loop."""
        return []

    def forward_input(self):
        """(waveform, spec, params) for one forward pass, or None without a network."""
        return None

    def details(self) -> dict:
        return {}


class Train8s(Workload):
    """`train_step` on prepared examples at the default 8 s config."""

    name = "train_8s"
    rate_metric = ("train_examples_per_s", "1/s")

    def make_config(self):
        # One example per step keeps several steps inside one run; the
        # per-example forward+backward is the same work at any batch size.
        cfg = super().make_config()
        return replace(cfg, optimizer=replace(cfg.optimizer, batch_size=1))

    def setup(self) -> None:
        corpus, train_split, _, _ = self.synth_corpus(2)
        self.examples = loop.prepare_split(train_split, corpus, self.cfg)
        self.state = loop.TrainState.create(self.cfg)
        self.failures: list[str] = []
        _checked_optimizer(self.state, self.failures)
        self.cursor = 0

    def op(self) -> OpResult:
        batch = [self.examples[self.cursor % len(self.examples)]]
        self.cursor += 1
        self.failures.clear()
        loss, _ = loop.train_step(batch, self.state)
        failures = list(self.failures)

        def check():
            return failures + ([] if math.isfinite(loss) else [f"non-finite loss {loss}"])

        return OpResult(len(batch), check)

    def forward_input(self):
        example = self.examples[0]
        return example.waveform, example.base_spec, self.state.params


class Eval8s(Workload):
    """`scoring.evaluate` with two worker threads over the held-out splits."""

    name = "eval_8s"
    rate_metric = ("eval_clips_per_s", "1/s")
    workers = 2

    def setup(self) -> None:
        self.corpus, _, intra, inter = self.synth_corpus(5)
        self.splits = [intra, inter]
        self.params = network.WlannParams.create(self.cfg)
        self.cursor = 0
        self.first_report = None

    def op(self) -> OpResult:
        split = self.splits[self.cursor % len(self.splits)]
        self.cursor += 1
        scores: list[np.ndarray] = []
        original = network.predict_scores

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            scores.append(result)
            return result

        network.predict_scores = recording  # evaluate imports it at call time
        try:
            report, matrix = scoring.evaluate(self.params, self.cfg, split, self.corpus,
                                              jobs=self.workers)
        finally:
            network.predict_scores = original
        config = self.cfg.to_dict()
        rendered = scoring.render_report(report, matrix, config)  # as `wlann eval` writes it
        if self.first_report is None:
            self.first_report = (split, matrix)

        def check():
            failures = []
            if len(scores) != len(split):
                failures.append(f"{len(scores)} score vectors for {len(split)} clips")
            for vector in scores:
                if not (_finite(vector) and np.all((vector >= 0) & (vector <= 1))):
                    failures.append(f"score vector outside [0, 1] or non-finite: {vector}")
            if rendered != scoring.render_report(report, matrix, config):
                failures.append("report renders differently twice")
            return failures

        return OpResult(len(split), check)

    def finish(self) -> list[str]:
        """The first clips of the first op, predicted again without threads."""
        split, matrix = self.first_report
        failures = []
        for event in split.events[:2]:
            row = matrix.counts[event.label.index]
            if row.sum() != 1:
                failures.append(f"split has {row.sum()} events of class {event.label.value}")
                continue
            waveform, spec = pipeline.prepare_input(self.corpus.event_clip(event), self.cfg)
            single = int(np.argmax(network.predict_scores(waveform, spec, self.params, self.cfg)))
            if single != int(np.argmax(row)):
                failures.append(
                    f"{event.recording_id}: jobs={self.workers} predicted class "
                    f"{int(np.argmax(row))}, a single-threaded pass {single}"
                )
        return failures

    def forward_input(self):
        event = self.splits[0].events[0]
        waveform, spec = pipeline.prepare_input(self.corpus.event_clip(event), self.cfg)
        return waveform, spec, self.params


class Ingest44k(Workload):
    """The `wlann features` path over 8 s, 44.1 kHz PCM16 WAV files."""

    name = "ingest_44k"
    rate_metric = ("ingest_audio_s_per_s", "s/s")  # items are seconds of audio
    rate_hz = 44100
    clip_seconds = 8.0
    files = 4

    def setup(self) -> None:
        root = self.fresh_dir("wavs")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x44100]))
        # The tiny size keeps the rate, and so the resampler's code path.
        n = int(self.rate_hz * (1.0 if self.tiny else self.clip_seconds))
        t = np.arange(n) / self.rate_hz
        self.paths = []
        for index in range(self.files):
            tone = 0.3 * np.sin(2 * np.pi * rng.uniform(100.0, 800.0) * t)
            samples = np.clip(tone + 0.1 * rng.standard_normal(n), -1.0, 1.0)
            path = root / f"clip{index}.wav"
            dataio.write_wav(path, audio.AudioClip(samples, self.rate_hz))
            self.paths.append(path)
        self.cursor = 0

    def op(self) -> OpResult:
        path = self.paths[self.cursor % len(self.paths)]
        self.cursor += 1
        clip = dataio.load_wav(path)
        waveform, spec = pipeline.prepare_input(clip, self.cfg)

        def check():
            failures = []
            expected = {"waveform": (1, self.cfg.fixed_samples),
                        "log-mel": (self.cfg.ast.mel_bins, self.cfg.spec_frames)}
            for label, values in (("waveform", waveform), ("log-mel", spec.values)):
                if values.shape != expected[label]:
                    failures.append(f"{label} shape {values.shape}, expected {expected[label]}")
                if not _finite(values):
                    failures.append(f"{label} has non-finite values")
            if waveform.dtype != self.cfg.numpy_dtype:
                failures.append(f"waveform dtype {waveform.dtype}, config dtype {self.cfg.dtype}")
            # LogMelSpectrogram stores float64 whatever the config says: the
            # config dtype or float64 passes, and the run records which.
            if spec.values.dtype not in (self.cfg.numpy_dtype, np.float64):
                failures.append(f"log-mel dtype {spec.values.dtype}")
            self.logmel_dtype = str(spec.values.dtype)
            return failures

        return OpResult(clip.duration_seconds, check)

    def details(self) -> dict:
        return {"logmel_dtype": getattr(self, "logmel_dtype", None)}


class Fit1s(Workload):
    """`fit` for a few epochs at the separation geometry, then a checkpoint read."""

    name = "fit_1s"
    rate_metric = ("train_examples_per_s", "1/s")  # items are examples x epochs
    epochs = 2

    def make_config(self):
        return config_mod.WlannConfig(**(TINY_GEOMETRY if self.tiny else SEPARATION_GEOMETRY))

    def setup(self) -> None:
        self.corpus, self.train_split, _, _ = self.synth_corpus(6)
        self.checkpoint = self.workdir / "fit.wlann"
        self.final_loss = None

    def op(self) -> OpResult:
        failures: list[str] = []
        state = loop.TrainState.create(self.cfg)
        _checked_optimizer(state, failures)
        state = loop.fit(self.train_split, self.corpus, self.cfg, self.epochs, self.checkpoint,
                         state=state)
        _, restored, _ = loop.load_checkpoint(self.checkpoint)
        self.params = state.params

        def check():
            if not all(math.isfinite(loss) for loss in state.loss_history):
                failures.append("non-finite loss in history")
            loaded = restored.named()
            for name, tensor in state.params.named().items():
                data = loaded[name].data
                if data.dtype != tensor.data.dtype or data.tobytes() != tensor.data.tobytes():
                    failures.append(f"checkpoint round trip changed {name}")
                    break
            # The mean focal loss of the last epoch, as `fit` logs it.
            steps_per_epoch = state.step // self.epochs
            final_loss = float(np.mean(state.loss_history[-steps_per_epoch:]))
            if self.final_loss is None:
                self.final_loss = final_loss
            elif final_loss != self.final_loss:
                failures.append(f"final loss {final_loss!r} differs from the first op's "
                                f"{self.final_loss!r}")
            return failures

        return OpResult(len(self.train_split) * self.epochs, check)

    def forward_input(self):
        event = self.train_split.events[0]
        waveform, spec = pipeline.prepare_input(self.corpus.event_clip(event), self.cfg)
        return waveform, spec, self.params

    def details(self) -> dict:
        return {"final_loss": self.final_loss}


WORKLOADS = {cls.name: cls for cls in (Train8s, Eval8s, Ingest44k, Fit1s)}
