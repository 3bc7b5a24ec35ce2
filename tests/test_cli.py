"""Command-line interface: exit codes, help completeness, full pipeline."""

import json

import numpy as np
import pytest

from wlann.cli import build_parser, main
from wlann.dataio import load_wav
from wlann.dsp import spec_augment
from wlann.model import AugmentConfig, WlannConfig, prepare_input
from wlann.train import load_archive, save_archive

from conftest import raw_wav_bytes, small_train_config


def run_cli(*argv):
    return main(list(argv))


class TestParsing:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert run_cli() == 1
        out = capsys.readouterr().out
        assert "synth" in out and "gradcheck" in out

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("frobnicate")
        assert exit_info.value.code == 1

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("synth", "--out", "/tmp/x", "--bogus")
        assert exit_info.value.code == 1

    def test_help_enumerates_every_flag(self):
        """Each subparser's help text must mention all of its option strings."""
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        seen = 0
        for name, sub in subparsers.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in text, f"{name}: {option} missing from --help"
                    seen += 1
        assert seen > 20


class TestPipeline:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        assert run_cli("synth", "--out", str(root / "corpus"), "--n-per-class", "5",
                       "--seed", "3") == 0
        cfg = small_train_config(seed=9)
        config_path = root / "config.json"
        config_path.write_text(cfg.to_json())
        return root

    def test_synth_wrote_manifest_with_settings_stamp(self, workspace):
        manifest = (workspace / "corpus" / "manifest.tsv").read_text()
        assert manifest.startswith("# generated by `wlann synth`: n_per_class=5 seed=3")

    def test_features_archive(self, workspace, capsys):
        wav = sorted((workspace / "corpus").glob("*.wav"))[0]
        out = workspace / "feat.tns"
        code = run_cli("features", "--wav", str(wav), "--out", str(out),
                       "--config", str(workspace / "config.json"))
        assert code == 0
        from wlann.train import load_archive

        archive = load_archive(out)
        assert archive.kind == "features"
        assert archive.tensors["waveform"].shape == (1, 16000)
        assert archive.tensors["logmel"].shape == (128, 98)
        assert archive.config["fixed_input_seconds"] == 1.0

    def features(self, workspace, name, config, *extra):
        wav = sorted((workspace / "corpus").glob("*.wav"))[0]
        out = workspace / name
        assert run_cli("features", "--wav", str(wav), "--out", str(out),
                       "--config", str(config), *extra) == 0
        return wav, load_archive(out)

    def test_features_augment_applies_spec_augment(self, workspace):
        cfg = small_train_config(augment=AugmentConfig(5, 24, 2))
        config = workspace / "augment.json"
        config.write_text(cfg.to_json())
        wav, augmented = self.features(workspace, "aug.tns", config, "--augment", "--seed", "4")
        _, plain = self.features(workspace, "plain.tns", config, "--seed", "4")

        cfg = WlannConfig.from_dict(augmented.config)
        expected = spec_augment(prepare_input(load_wav(wav), cfg)[1], cfg.augment, 4).values
        np.testing.assert_array_equal(augmented.tensors["logmel"], expected.astype(np.float32))
        assert not np.array_equal(augmented.tensors["logmel"], plain.tensors["logmel"])
        np.testing.assert_array_equal(augmented.tensors["waveform"], plain.tensors["waveform"])

    def test_features_augment_with_zero_strengths_changes_nothing(self, workspace):
        config = workspace / "config.json"  # small_train_config: all strengths 0
        _, augmented = self.features(workspace, "aug0.tns", config, "--augment", "--seed", "4")
        _, plain = self.features(workspace, "plain0.tns", config, "--seed", "4")
        assert augmented.tensors.keys() == plain.tensors.keys()
        for name, values in plain.tensors.items():
            np.testing.assert_array_equal(augmented.tensors[name], values)

    @pytest.mark.parametrize("augment", [(), ("--augment",)], ids=["plain", "augment"])
    def test_features_seed_is_not_the_config_seed(self, workspace, augment):
        _, archive = self.features(workspace, "seeded.tns", workspace / "config.json",
                                   *augment, "--seed", "4")
        assert WlannConfig.from_dict(archive.config).seed == 9
        assert archive.metadata["seed"] == 4

    @pytest.mark.parametrize("seconds", ["NaN", "Infinity", "-Infinity"])
    def test_features_non_finite_input_length_is_validation_error(self, workspace, tmp_path,
                                                                   capsys, seconds):
        wav = sorted((workspace / "corpus").glob("*.wav"))[0]
        config = tmp_path / "nan.json"
        config.write_text(f'{{"fixed_input_seconds": {seconds}}}')
        out = tmp_path / "never.tns"
        assert run_cli("features", "--wav", str(wav), "--out", str(out),
                       "--config", str(config)) == 1
        assert "error: fixed_input_seconds must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_features_partial_sample_wav_is_validation_error(self, workspace, tmp_path, capsys):
        wav = tmp_path / "partial.wav"
        wav.write_bytes(raw_wav_bytes(b"\x00" * 7))
        out = tmp_path / "never.tns"
        assert run_cli("features", "--wav", str(wav), "--out", str(out),
                       "--config", str(workspace / "config.json")) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "partial.wav" in err
        assert not out.exists()

    def test_train_non_finite_learning_rate_is_validation_error(self, workspace, tmp_path,
                                                                capsys):
        data = small_train_config(seed=9).to_dict()
        data["optimizer"]["learning_rate"] = float("nan")
        config = tmp_path / "nan_lr.json"
        config.write_text(json.dumps(data))
        assert '"learning_rate": NaN' in config.read_text()
        out = tmp_path / "never.wlann"
        assert run_cli("train", "--data", str(workspace / "corpus"), "--config", str(config),
                       "--epochs", "1", "--out", str(out)) == 1
        assert "error: optimizer.learning_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_train_eval_predict_cycle(self, workspace, capsys):
        corpus = str(workspace / "corpus")
        model = str(workspace / "model.wlann")
        config = str(workspace / "config.json")
        assert run_cli("train", "--data", corpus, "--config", config,
                       "--epochs", "1", "--out", model) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out

        report_path = workspace / "report.json"
        assert run_cli("eval", "--data", corpus, "--model", model,
                       "--split", "intra", "--report", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["report"]["split"] == "test_intra"
        assert "config" in report
        assert len(report["confusion_matrix"]["rows_true_cols_predicted"]) == 7

        wav = sorted((workspace / "corpus").glob("*wheeze*.wav"))[0]
        assert run_cli("predict", "--wav", str(wav), "--model", model) == 0
        out = capsys.readouterr().out
        assert "prediction:" in out
        assert out.count("0.") >= 7  # per-class scores listed

    def test_eval_report_is_byte_stable(self, workspace):
        corpus = str(workspace / "corpus")
        model = str(workspace / "model.wlann")
        a, b = workspace / "r1.json", workspace / "r2.json"
        assert run_cli("eval", "--data", corpus, "--model", model,
                       "--split", "inter", "--report", str(a)) == 0
        assert run_cli("eval", "--data", corpus, "--model", model,
                       "--split", "inter", "--report", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_jobs_flag_gives_identical_report(self, workspace):
        corpus = str(workspace / "corpus")
        model = str(workspace / "model.wlann")
        a, b = workspace / "rj1.json", workspace / "rj2.json"
        assert run_cli("eval", "--data", corpus, "--model", model,
                       "--split", "intra", "--report", str(a)) == 0
        assert run_cli("eval", "--data", corpus, "--model", model,
                       "--split", "intra", "--report", str(b), "--jobs", "4") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_epochs_is_validation_error(self, workspace, capsys):
        out = workspace / "never.wlann"
        assert run_cli("train", "--data", str(workspace / "corpus"), "--config",
                       str(workspace / "config.json"), "--epochs", "-1", "--out", str(out)) == 1
        assert "epochs must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_batch_size_is_validation_error(self, workspace, capsys):
        out = workspace / "never.wlann"
        assert run_cli("train", "--data", str(workspace / "corpus"), "--config",
                       str(workspace / "config.json"), "--batch-size", "0", "--out", str(out)) == 1
        assert "batch size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_validation_error(self, workspace, capsys, jobs):
        report = workspace / "never.json"
        assert run_cli("eval", "--data", str(workspace / "corpus"), "--model",
                       str(workspace / "model.wlann"), "--split", "intra",
                       "--report", str(report), "--jobs", jobs) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not report.exists()

    def test_wrongly_typed_config_header_is_io_error(self, workspace, tmp_path, capsys):
        model = tmp_path / "bad-config.wlann"
        save_archive(model, "checkpoint", 5, {})
        assert run_cli("eval", "--data", str(workspace / "corpus"), "--model", str(model),
                       "--split", "intra", "--report", str(tmp_path / "r.json")) == 2
        assert "corrupt header" in capsys.readouterr().err

    def test_missing_model_is_io_error(self, workspace, capsys):
        assert run_cli("predict", "--wav", "nope.wav", "--model",
                       str(workspace / "absent.wlann")) == 2

    def test_bad_wav_is_validation_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"junk data, not a wav")
        model = str(workspace / "model.wlann")
        assert run_cli("predict", "--wav", str(bad), "--model", model) == 1


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        assert run_cli("gradcheck", "--e2e-samples", "2") == 0
        out = capsys.readouterr().out
        for op in ("conv1d", "bigru", "transformer_block", "end_to_end_micro_model"):
            assert op in out
        assert "PASS" in out

    def test_zero_e2e_samples_is_validation_error(self, capsys):
        assert run_cli("gradcheck", "--e2e-samples", "0") == 1
        assert "samples_per_tensor must be >= 1" in capsys.readouterr().err
