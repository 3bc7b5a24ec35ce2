"""Challenge scoring: counting rules, derived scores, and report stability."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlann.dataio import Label
from wlann.errors import ValidationError
from wlann.scoring import consistency_check, evaluate, render_report, score

from conftest import small_train_config

N, W, FC = Label.NORMAL, Label.WHEEZE, Label.FINE_CRACKLE


def constructed_pairs(cas, tas, cns, tns):
    """Build (true, predicted) pairs realizing the four counts exactly."""
    pairs = []
    pairs += [(W, W)] * cas
    pairs += [(W, N)] * (tas - cas)
    pairs += [(N, N)] * cns
    pairs += [(N, W)] * (tns - cns)
    return pairs


class TestScoreCounting:
    def test_perfect_predictions(self):
        pairs = [(N, N), (W, W), (FC, FC)] * 5
        report, _ = score(pairs)
        assert report.sn == 1.0 and report.sp == 1.0
        assert report.average_score == 1.0
        assert report.harmonic_score == 1.0
        assert report.total_score == 1.0

    def test_published_headline_row(self):
        """Counts giving SN=0.903, SP=0.969 must reproduce the derived scores
        93.6 / 93.5 / 93.5 within 0.15 percentage points."""
        report, _ = score(constructed_pairs(903, 1000, 969, 1000))
        assert report.sn == pytest.approx(0.903)
        assert report.sp == pytest.approx(0.969)
        assert abs(report.average_score - 0.936) <= 0.0015
        assert abs(report.harmonic_score - 0.935) <= 0.0015
        assert abs(report.total_score - 0.935) <= 0.0015

    def test_exact_class_match_required_for_abnormal(self):
        """An abnormal event predicted as a different abnormal class counts
        for detection but not for sensitivity."""
        pairs = [(W, FC), (FC, W), (N, N)]
        report, _ = score(pairs)
        assert report.sn == 0.0
        assert report.sn_detection == 1.0
        assert report.sp == 1.0

    def test_zero_sensitivity_degenerate_scores(self):
        report, _ = score(constructed_pairs(0, 10, 8, 10))
        assert report.sn == 0.0
        assert report.harmonic_score == 0.0
        assert report.average_score == pytest.approx(report.sp / 2)
        assert report.total_score == pytest.approx(report.sp / 4)

    def test_all_normal_split_flags_sn_undefined(self):
        report, _ = score([(N, N), (N, N)])
        assert report.sp == 1.0
        assert report.sn is None
        assert "SN" in report.undefined_ratios
        assert report.total_score is None

    def test_all_abnormal_split_flags_sp_undefined(self):
        report, _ = score([(W, W)])
        assert report.sn == 1.0
        assert report.sp is None
        assert "SP" in report.undefined_ratios

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            score([])

    def test_order_invariance(self, rng):
        pairs = constructed_pairs(50, 80, 60, 70)
        report_a, _ = score(pairs)
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        report_b, _ = score(shuffled)
        assert report_a.to_dict() == {**report_b.to_dict(), "split": report_a.split_name}


class TestConfusionMatrix:
    def test_row_sums_are_true_counts(self):
        pairs = [(N, N), (N, W), (W, W), (FC, N), (FC, FC), (FC, W)]
        _, matrix = score(pairs)
        sums = matrix.row_sums()
        assert sums[N.index] == 2
        assert sums[W.index] == 1
        assert sums[FC.index] == 3
        assert matrix.total == len(pairs)

    def test_cas_equals_abnormal_diagonal(self):
        pairs = constructed_pairs(7, 12, 5, 9)
        report, matrix = score(pairs)
        diagonal = np.diag(matrix.counts)
        abnormal_diag = sum(diagonal[lab.index] for lab in Label if lab.is_abnormal)
        assert report.cas == abnormal_diag

    def test_per_class_recall(self):
        pairs = [(W, W), (W, N), (N, N)]
        report, _ = score(pairs)
        assert report.per_class_recall["Wheeze"] == 0.5
        assert report.per_class_recall["Normal"] == 1.0
        assert report.per_class_recall["Stridor"] is None


class TestConsistencyCheck:
    def test_headline_row(self):
        average, harmonic, total = consistency_check(0.903, 0.969)
        assert average == pytest.approx(0.936)
        assert harmonic == pytest.approx(0.9348365384615385)
        assert total == pytest.approx(0.9354182692307693)
        # agreement with the printed row at rounding tolerance
        assert abs(average - 0.936) <= 0.0015
        assert abs(harmonic - 0.935) <= 0.0015
        assert abs(total - 0.936) <= 0.0015

    def test_inconsistent_published_row_tolerance(self):
        """SN=0.84, SP=0.98 derives 91.0/90.5/90.7; the published 90.0/90.0
        only matches to half a point, which is the documented discrepancy."""
        average, harmonic, total = consistency_check(0.84, 0.98)
        assert average == pytest.approx(0.91)
        assert harmonic == pytest.approx(0.9046153846153846)
        assert total == pytest.approx(0.9073076923076923)
        assert abs(harmonic - 0.900) > 0.0015  # not consistent at rounding precision
        assert abs(harmonic - 0.900) <= 0.005
        assert abs(total - 0.900) <= 0.0075

    def test_perfect_scores(self):
        assert consistency_check(1.0, 1.0) == (1.0, 1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            consistency_check(1.2, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(sn=st.floats(0, 1), sp=st.floats(0, 1))
    def test_harmonic_below_total_below_average(self, sn, sp):
        average, harmonic, total = consistency_check(sn, sp)
        assert harmonic <= total + 1e-12
        assert total <= average + 1e-12


class TestReportRendering:
    def test_rendering_is_deterministic(self):
        report, matrix = score(constructed_pairs(3, 5, 4, 6), split_name="test_intra")
        first = render_report(report, matrix, config={"b": 2, "a": 1})
        second = render_report(report, matrix, config={"a": 1, "b": 2})
        assert first == second

    def test_undefined_serialized_as_string(self):
        report, matrix = score([(N, N)])
        text = render_report(report, matrix)
        assert '"sensitivity": "undefined"' in text


class TestEvaluateThreads:
    """`evaluate` lends its pool to each clip's forward (a 3-clip split)."""

    def test_same_report_at_any_worker_count_and_no_thread_left(self, tiny_corpus):
        from wlann.model import WlannParams

        corpus, _, intra, _ = tiny_corpus
        assert len(intra) == 3
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        before = set(threading.enumerate())
        reports = []
        for jobs in (1, 2, 3, 4):
            reports.append(render_report(*evaluate(params, cfg, intra, corpus, jobs=jobs)))
            assert not set(threading.enumerate()) - before, jobs
        assert reports[1:] == reports[:1] * 3

    def test_idle_worker_runs_the_branch_of_a_clip_in_flight(self, monkeypatch, tiny_corpus):
        """Two workers, three clips: the first two clips' spectrogram branches run on their
        own workers; the third's runs on the worker that found no clip left."""
        from wlann.model import WlannParams, network

        corpus, _, intra, _ = tiny_corpus
        cfg = small_train_config()
        clip_threads, branch_threads = {}, {}
        predict, ast, waveform = network.predict_scores, network.ast_branch, network.waveform_branch

        def recording_predict(wave, spec, *args, **kwargs):
            clip_threads[id(spec)] = (spec, threading.current_thread())  # keeps the id unique
            return predict(wave, spec, *args, **kwargs)

        def recording_ast(spec, *args, **kwargs):
            branch_threads[id(spec)] = (spec, threading.current_thread())
            return ast(spec, *args, **kwargs)

        def slow_waveform(*args, **kwargs):
            result = waveform(*args, **kwargs)  # the spectrogram branch is queued by now
            time.sleep(0.3)
            return result

        monkeypatch.setattr(network, "predict_scores", recording_predict)
        monkeypatch.setattr(network, "ast_branch", recording_ast)
        monkeypatch.setattr(network, "waveform_branch", slow_waveform)
        evaluate(WlannParams.create(cfg), cfg, intra, corpus, jobs=2)
        assert clip_threads.keys() == branch_threads.keys() and len(clip_threads) == 3
        lent = [key for key in clip_threads if clip_threads[key][1] is not branch_threads[key][1]]
        assert len(lent) == 1
