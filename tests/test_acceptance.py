"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances inline):
  1. score arithmetic reproduces the published headline row within 0.15 points
  2. metric identities over 10^4 random inputs, recomputed from raw counts
  3. gradient suite: every op + end-to-end micro model at rel err < 1e-4;
     every op maps float32 inputs to float32 outputs, forward and backward
  4. DSP fidelity: filter edges, stopband, FFT oracle, framing law
  5. shape pipeline at the 8 s default configuration
  6. 500-step overfit on a fixed 16-event synthetic batch to loss < 0.01
  7. synthetic separation: held-out accuracy >= 0.90, sensitivity >= 0.85
  8. bitwise train determinism and byte-identical evaluation reports
  9. focal-loss properties (cross-entropy reduction, down-weighting ratios)
"""

import numpy as np
import pytest
from scipy.fft import rfft

from wlann.dataio import AudioClip, Label, generate_synthetic_corpus, load_corpus_splits
from wlann.dsp import design_butterworth_bandpass, frame_count, log_mel
from wlann.dsp.mel import FFT_SIZE, HOP_SAMPLES, WINDOW_SAMPLES
from wlann.model import WlannConfig, WlannParams, ast_branch, fuse, waveform_branch
from wlann.model.config import (
    AstBranchConfig,
    AugmentConfig,
    CnnBranchConfig,
    OptimizerConfig,
)
from wlann.model.pipeline import prepare_input
from wlann.ndiff import Tensor, attention, functional, gru
from wlann.scoring import consistency_check, evaluate, render_report, score
from wlann.train import TrainState, one_hot, focal_loss, prepare_split, train_step
from wlann.train.loop import fit
from wlann.verify import format_suite, run_gradient_suite, suite_passed

from conftest import float_arrays


def announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {status}{suffix}")


SEPARATION_CONFIG = dict(
    fixed_input_seconds=1.0,
    cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                        channel_widths=(16, 32, 90, 90)),
    ast=AstBranchConfig(embed_dim=32, depth=2, heads=4),
    gru_hidden=128,
    num_classes=7,
    dtype="float32",
)


class TestCriterion1ScoreArithmetic:
    def test_headline_row_reproduction(self):
        average, harmonic, total = consistency_check(0.903, 0.969)
        ok = (
            abs(average - 0.936) <= 0.0015
            and abs(harmonic - 0.935) <= 0.0015
            and abs(total - 0.935) <= 0.0015
            # consistent with the printed row under rounding
            and abs(average - 0.936) <= 0.0015
            and abs(total - 0.936) <= 0.0015
        )
        announce(1, "score arithmetic", ok,
                 f"AS={average:.4f} HS={harmonic:.4f} TS={total:.4f}")
        assert ok


class TestCriterion2MetricIdentities:
    def test_identities_and_recomputation(self, rng):
        ok = True
        for _ in range(10_000):
            sn, sp = rng.uniform(0, 1, 2)
            average, harmonic, total = consistency_check(sn, sp)
            if not (harmonic <= total + 1e-12 and total <= average + 1e-12):
                ok = False
                break
        # recompute the score formulas from raw counts
        for _ in range(200):
            tas = int(rng.integers(1, 500))
            tns = int(rng.integers(1, 500))
            cas = int(rng.integers(0, tas + 1))
            cns = int(rng.integers(0, tns + 1))
            pairs = (
                [(Label.WHEEZE, Label.WHEEZE)] * cas
                + [(Label.WHEEZE, Label.NORMAL)] * (tas - cas)
                + [(Label.NORMAL, Label.NORMAL)] * cns
                + [(Label.NORMAL, Label.WHEEZE)] * (tns - cns)
            )
            report, _ = score(pairs)
            expected_sn = cas / tas
            expected_sp = cns / tns
            derived = consistency_check(expected_sn, expected_sp)
            if not (
                report.sn == pytest.approx(expected_sn)
                and report.sp == pytest.approx(expected_sp)
                and report.average_score == pytest.approx(derived[0])
                and report.harmonic_score == pytest.approx(derived[1])
                and report.total_score == pytest.approx(derived[2])
            ):
                ok = False
                break
        announce(2, "metric identities", ok)
        assert ok


def ndiff_vjp_pairs() -> dict:
    """Every forward op in wlann.ndiff mapped to (forward, VJP): each `X` with an `X_vjp`,
    and `conv1d_fft`, whose cache `conv1d_vjp` takes as it takes `conv1d`'s."""
    pairs = {
        name: (op, vars(module)[f"{name}_vjp"])
        for module in (functional, attention, gru)
        for name, op in vars(module).items()
        if f"{name}_vjp" in vars(module)
    }
    pairs["conv1d_fft"] = (functional.conv1d_fft, functional.conv1d_vjp)
    return pairs


def float32_cases(rng) -> dict:
    """Float32 arguments for every ndiff forward op, by name."""

    def values(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def param(*shape):
        return Tensor(values(*shape))

    def group(cls, *sizes):
        return cls.allocate(*sizes, dtype=np.float32).initialize(rng, 0.02)

    return {
        "conv1d": (values(2, 11), param(3, 2, 4), param(3), 2),
        "conv1d_fft": (values(2, 266), param(3, 2, 7), param(3), 2),
        "linear": (values(5, 3), param(4, 3), param(4)),
        "gelu": (values(4, 5),),
        "sigmoid": (values(4, 5),),
        "softmax": (values(4, 6),),
        "layer_norm": (values(6, 5), param(5), param(5)),
        "mean_pool": (values(3, 4, 5), 1),
        "adaptive_mean_pool": (values(7, 3), 3),
        "multi_head_self_attention": (values(3, 4), group(attention.AttentionParams, 4, 2)),
        "transformer_block": (values(3, 4), group(attention.TransformerBlockParams, 4, 2)),
        "gru_sequence": (values(4, 3), group(gru.GruCellParams, 3, 3)),
        "bigru": (values(5, 3), group(gru.GruCellParams, 3, 2), group(gru.GruCellParams, 3, 2)),
    }


class TestCriterion3GradientSuite:
    def test_all_operations_and_micro_model(self):
        results = run_gradient_suite(seed=0, e2e_samples=6)
        ok = suite_passed(results)
        worst = max(report.max_rel_err for _, report in results)
        announce(3, "gradient suite", ok, f"max rel err {worst:.2e}")
        if not ok:
            print(format_suite(results))
        assert ok

        # Every forward/VJP pair in wlann.ndiff has exactly one entry, and no entry outlives its op.
        checked = {name for name, _ in results} - {"focal_loss", "end_to_end_micro_model"}
        assert checked == set(ndiff_vjp_pairs())

    def test_every_entry_probes_its_input_and_parameters(self):
        # (tensors probed, entries probed) per entry. An entry that leaves out a
        # parameter group still passes at 1e-4, so the counts are pinned.
        probed = {
            name: (len(report.checks), sum(c.entries_checked for c in report.checks))
            for name, report in run_gradient_suite(seed=0, e2e_samples=6)
        }
        assert probed == {
            "conv1d": (3, 49),
            "linear": (3, 31),
            "gelu": (1, 20),
            "sigmoid": (1, 20),
            "softmax": (1, 24),
            "layer_norm": (3, 40),
            "mean_pool": (1, 60),
            "adaptive_mean_pool": (1, 21),
            "multi_head_self_attention": (8, 88),
            "transformer_block": (16, 252),
            "gru_sequence": (10, 75),
            "bigru": (19, 87),
            "focal_loss": (1, 5),
            "end_to_end_micro_model": (56, 314),
            "conv1d_fft": (3, 577),
        }

    def test_float32_inputs_give_float32_outputs(self, rng, grad_dtypes):
        # Every forward/VJP pair in wlann.ndiff has a float32 case here.
        cases = float32_cases(rng)
        pairs = ndiff_vjp_pairs()
        assert set(cases) == set(pairs)
        for name, (op, op_vjp) in pairs.items():
            y, cache = op(*cases[name])
            dx = op_vjp(rng.standard_normal(y.shape).astype(np.float32), cache)
            # A cache may hold complex64 spectra (the FFT path): single precision too.
            found = {a.dtype for a in float_arrays((y, dx))}
            found |= {np.finfo(a.dtype).dtype for a in float_arrays(cache)}
            assert found == {np.dtype(np.float32)}, f"{name}: {found}"
        assert set(grad_dtypes) == {np.dtype(np.float32)}


class TestCriterion4DspFidelity:
    def test_filter_fft_and_framing(self, rng):
        bandpass = design_butterworth_bandpass(4, 40.0, 850.0, 16000)
        edge_db = bandpass.gain_db(np.array([40.0, 850.0]))
        stop_db = bandpass.gain_db(np.array([5.0, 3000.0]))
        filter_ok = bool(
            np.all(np.abs(edge_db - (-3.01)) <= 0.1) and np.all(stop_db < -40.0)
        )

        fft_ok = True
        for _ in range(5):
            x = rng.standard_normal(512)
            k = np.arange(257)
            slow = np.exp(-2j * np.pi * np.outer(k, np.arange(512)) / 512) @ x
            rel = np.abs(rfft(x) - slow) / max(1.0, float(np.max(np.abs(slow))))
            if np.max(rel) >= 1e-9:
                fft_ok = False
                break

        framing_ok = all(
            frame_count(n) == (n - WINDOW_SAMPLES) // HOP_SAMPLES + 1
            for n in rng.integers(WINDOW_SAMPLES, 300_000, size=500)
        )
        # spot-check against actual extraction
        for n in (400, 16000, 12345):
            spec = log_mel(AudioClip(np.zeros(int(n)), 16000))
            framing_ok = framing_ok and spec.num_frames == (n - 400) // 160 + 1

        ok = filter_ok and fft_ok and framing_ok
        announce(
            4, "dsp fidelity", ok,
            f"edges {edge_db[0]:.3f}/{edge_db[1]:.3f} dB, stopband "
            f"{stop_db[0]:.1f}/{stop_db[1]:.1f} dB, fft size {FFT_SIZE}",
        )
        assert ok


class TestCriterion5ShapePipeline:
    def test_default_geometry_programmatically(self, rng):
        cfg = WlannConfig()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples)).astype(np.float32)
        from wlann.dsp.mel import LogMelSpectrogram

        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        wo, _ = waveform_branch(waveform, params, cfg)
        ao, _ = ast_branch(spec, params, cfg)
        fused, _ = fuse(wo, ao)
        ok = (
            cfg.spec_frames == 798
            and (cfg.freq_patches, cfg.time_patches) == (15, 98)
            and cfg.conv_lengths()[-1] == 374
            and cfg.fused_channels == 80
            and wo.shape == (15, 98, 16)
            and ao.shape == (15, 98, 64)
            and fused.shape == (15, 98, 80)
        )
        announce(5, "shape pipeline", ok,
                 f"frames {cfg.spec_frames}, grid {cfg.freq_patches}x{cfg.time_patches}, "
                 f"t_raw {cfg.conv_lengths()[-1]}->{cfg.time_patches}, fused {cfg.fused_channels}")
        assert ok


@pytest.fixture(scope="module")
def synthetic_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    generate_synthetic_corpus(60, seed=11, out_dir=root)
    return root


class TestCriterion6Overfit:
    def test_fixed_batch_overfits_within_500_steps(self, tmp_path):
        generate_synthetic_corpus(6, seed=21, out_dir=tmp_path)
        corpus, train_split, intra, inter = load_corpus_splits(tmp_path)
        events = (train_split.events + intra.events + inter.events)[:16]
        cfg = WlannConfig(
            fixed_input_seconds=1.0,
            cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                channel_widths=(8, 8, 15, 15)),
            ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
            gru_hidden=4,
            num_classes=7,
            augment=AugmentConfig(0, 0, 0),
            optimizer=OptimizerConfig(learning_rate=1e-2, batch_size=16),
            dtype="float32",
            seed=1,
        )
        state = TrainState.create(cfg)
        from wlann.train.loop import prepare_example

        batch = [prepare_example(corpus.event_clip(e), e, cfg) for e in events]
        assert len(batch) == 16
        final_loss, steps_taken = np.inf, 0
        for step in range(500):
            loss, _ = train_step(batch, state)
            steps_taken = step + 1
            final_loss = loss
            if loss < 0.01:
                break
        ok = final_loss < 0.01 and steps_taken <= 500
        announce(6, "overfit check", ok,
                 f"loss {final_loss:.5f} after {steps_taken} steps")
        assert ok


class TestCriterion7SyntheticSeparation:
    def test_held_out_accuracy_and_sensitivity(self, synthetic_corpus_dir):
        corpus, train_split, intra, inter = load_corpus_splits(synthetic_corpus_dir)
        assert len(train_split) == 108 and len(intra) == 36 and len(inter) == 36
        cfg = WlannConfig(
            augment=AugmentConfig(0, 0, 0),
            optimizer=OptimizerConfig(learning_rate=2e-4, batch_size=8),
            seed=3,
            **SEPARATION_CONFIG,
        )
        state = TrainState.create(cfg)
        examples = prepare_split(train_split, corpus, cfg)
        rng = np.random.default_rng(42)
        epochs = 3
        for _ in range(epochs):
            order = rng.permutation(len(examples))
            for start in range(0, len(examples), cfg.optimizer.batch_size):
                train_step([examples[i] for i in order[start:start + cfg.optimizer.batch_size]], state)

        correct = abnormal_total = abnormal_correct = 0
        total = 0
        from wlann.model.network import forward

        for split in (intra, inter):
            for event in split.events:
                waveform, spec = prepare_input(corpus.event_clip(event), cfg)
                pred = int(np.argmax(forward(waveform, spec, state.params, cfg)[0]))
                total += 1
                correct += pred == event.label.index
                if event.label.is_abnormal:
                    abnormal_total += 1
                    abnormal_correct += pred == event.label.index
        accuracy = correct / total
        sensitivity = abnormal_correct / abnormal_total
        ok = accuracy >= 0.90 and sensitivity >= 0.85
        announce(7, "synthetic separation", ok,
                 f"held-out accuracy {accuracy:.3f}, SN {sensitivity:.3f}")
        assert ok


class TestCriterion8Determinism:
    def test_bitwise_train_and_eval(self, tmp_path):
        generate_synthetic_corpus(4, seed=13, out_dir=tmp_path / "corpus")
        corpus, train_split, intra, _ = load_corpus_splits(tmp_path / "corpus")
        cfg = WlannConfig(
            fixed_input_seconds=1.0,
            cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                channel_widths=(8, 8, 15, 15)),
            ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
            gru_hidden=4,
            num_classes=7,
            optimizer=OptimizerConfig(learning_rate=1e-3, batch_size=4),
            dtype="float32",
            seed=17,
        )
        paths = [tmp_path / "a.wlann", tmp_path / "b.wlann"]
        for path in paths:
            fit(train_split, corpus, cfg, epochs=2, out_path=path)
        train_ok = paths[0].read_bytes() == paths[1].read_bytes()

        from wlann.train.loop import load_checkpoint

        cfg_loaded, params, _ = load_checkpoint(paths[0])
        reports = []
        for _ in range(2):
            report, matrix = evaluate(params, cfg_loaded, intra, corpus)
            reports.append(render_report(report, matrix, config=cfg_loaded.to_dict()))
        eval_ok = reports[0] == reports[1]
        ok = train_ok and eval_ok
        announce(8, "determinism", ok,
                 f"checkpoints identical: {train_ok}, reports identical: {eval_ok}")
        assert ok


class TestCriterion9FocalProperties:
    def test_reduction_and_down_weighting(self):
        target = one_hot(1, 3)
        ce, _ = focal_loss(np.array([0.2, 0.7, 0.1]), target, gamma=0.0)
        reduction_ok = abs(ce - 0.35667494393873245) < 1e-12

        ratio_ok = True
        for y in (0.5, 0.7, 0.9):
            pred = np.array([1 - y, y, 1e-6])
            plain, _ = focal_loss(pred, target, gamma=0.0)
            focused, _ = focal_loss(pred, target, gamma=2.0)
            if abs(focused / plain - (1 - y) ** 2) >= 1e-12:
                ratio_ok = False
        ok = reduction_ok and ratio_ok
        announce(9, "focal-loss properties", ok)
        assert ok
