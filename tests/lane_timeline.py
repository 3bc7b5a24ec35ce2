"""Per-lane timeline of `train_step` (not collected by pytest).

Run from the repository root:

    PYTHONPATH=src python tests/lane_timeline.py [steps]

A train step runs on two lanes: the caller's thread and one helper
thread (`F.Job`). For the shipped 8 s config at batch 1 and the 1 s
separation geometry at batch 8, on seeded uniform-noise clips, this
times `steps` steps (default 8) after one warm-up step and prints per
step:

- the wall time, and the wall time before `Adam.step` begins;
- each lane's busy time before Adam: the caller's thread CPU time, and
  the summed wall time of the helper's jobs;
- the helper's idle windows longer than 5 ms before Adam, in ms from
  the step's start;
- the minor page faults of the whole process (`getrusage`).

The last line of each geometry gives the medians. Timings are of one
run on one machine; compare two checkouts in alternating runs.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from pathlib import Path

import wlann  # noqa: F401  (first, so BLAS is pinned to one thread)

import numpy as np

from wlann.dataio import AudioClip
from wlann.model import prepare_input
from wlann.model.config import WlannConfig
from wlann.ndiff import functional as F
from wlann.train import PreparedExample, TrainState, train_step
from wlann.train.adam import Adam

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import separation_config  # noqa: E402

GEOMETRIES = [("default_8s_b1", WlannConfig, 1), ("separation_1s_b8", separation_config, 8)]
IDLE_MS = 5.0


class Recorder:
    """Wall-clock windows of the train step's helper jobs and the start of each Adam step."""

    def __init__(self):
        self.jobs: list[tuple[float, float]] = []
        self.job_faults: list[tuple[str, int]] = []
        self.adam_start = self.adam_cpu = None

    def install(self):
        call_once, step = F._call_once, Adam.step

        def timed_call(call):
            on_helper = threading.current_thread().name.startswith("wlann-train-step")
            name = getattr(call[0], "__name__", "?")
            faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            start = time.perf_counter()
            try:
                return call_once(call)
            finally:
                if on_helper:
                    self.jobs.append((start, time.perf_counter()))
                    self.job_faults.append(
                        (name, resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults))

        def timed_step(optimizer):
            self.adam_start, self.adam_cpu = time.perf_counter(), time.thread_time()
            return step(optimizer)

        F._call_once, Adam.step = timed_call, timed_step


def batch_for(cfg: WlannConfig, size: int) -> list[PreparedExample]:
    rng = np.random.default_rng(7)
    batch = []
    for index in range(size):
        samples = rng.uniform(-0.5, 0.5, cfg.fixed_samples)
        waveform, spec = prepare_input(AudioClip(samples, cfg.sample_rate_hz), cfg)
        batch.append(PreparedExample(f"clip{index}", waveform, spec,
                                     int(rng.integers(cfg.num_classes))))
    return batch


def idle_windows(jobs, start: float, end: float) -> list[tuple[float, float]]:
    windows, cursor = [], start
    for job_start, job_end in sorted(jobs):
        if job_start - cursor > IDLE_MS / 1e3:
            windows.append((cursor, job_start))
        cursor = max(cursor, job_end)
    if end - cursor > IDLE_MS / 1e3:
        windows.append((cursor, end))
    return windows


def profile(name: str, make_config, batch_size: int, steps: int, recorder: Recorder) -> None:
    cfg = make_config()
    batch = batch_for(cfg, batch_size)
    state = TrainState.create(cfg)
    train_step(batch, state)  # first-call imports and caches
    rows = []
    for index in range(steps):
        recorder.jobs.clear()
        recorder.job_faults.clear()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        main_faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        cpu, start = time.thread_time(), time.perf_counter()
        train_step(batch, state)
        end = time.perf_counter()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        main_faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - main_faults
        helper_faults = {}
        for job, count in recorder.job_faults:
            helper_faults[job] = helper_faults.get(job, 0) + count
        adam = recorder.adam_start
        main_cpu = recorder.adam_cpu - cpu
        helper = sum(min(e, adam) - s for s, e in recorder.jobs if s < adam)
        windows = idle_windows([(s, min(e, adam)) for s, e in recorder.jobs if s < adam],
                               start, adam)
        ms = lambda t: 1e3 * (t - start)  # noqa: E731
        gaps = " ".join(f"{ms(a):.0f}-{ms(b):.0f}" for a, b in windows) or "-"
        rows.append((1e3 * (end - start), ms(adam), 1e3 * main_cpu, 1e3 * helper, faults))
        print(f"{name} step {index}: wall {rows[-1][0]:.0f} ms, before Adam {rows[-1][1]:.0f}, "
              f"main busy {rows[-1][2]:.0f} (cpu), helper busy {rows[-1][3]:.0f}, "
              f"faults {faults} (main {main_faults}, helper {helper_faults}); helper idle {gaps}",
              flush=True)
    med = np.median(np.array(rows), axis=0)
    print(f"{name} median: wall {med[0]:.0f} ms (min {min(r[0] for r in rows):.0f}), "
          f"before Adam {med[1]:.0f}, main busy {med[2]:.0f}, helper busy {med[3]:.0f}, "
          f"faults {med[4]:.0f}", flush=True)


if __name__ == "__main__":
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    recorder = Recorder()
    recorder.install()
    for name, make_config, batch_size in GEOMETRIES:
        profile(name, make_config, batch_size, steps, recorder)
