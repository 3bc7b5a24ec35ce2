"""Annotation parsing, label aliases, and event slicing."""

import json

import numpy as np
import pytest

from wlann.dataio import AudioClip, Label, RespiratoryEvent, load_annotations, parse_label, slice_event
from wlann.errors import FormatError, ValidationError


def write_annotation(path, entries):
    path.write_text(json.dumps({"event_annotation": entries}))


class TestLoadAnnotations:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "p12_rec_0001.json"
        write_annotation(path, [{"start": 120, "end": 840, "type": "Fine Crackle"}])
        (event,) = load_annotations(path)
        assert event.onset_ms == 120
        assert event.offset_ms == 840
        assert event.label is Label.FINE_CRACKLE
        assert event.recording_id == "p12_rec_0001"
        assert event.patient_id == "p12"

    def test_plus_alias_maps_to_combined_class(self, tmp_path):
        path = tmp_path / "p1_r.json"
        write_annotation(path, [{"start": 0, "end": 100, "type": "Wheeze+Crackle"}])
        (event,) = load_annotations(path)
        assert event.label is Label.WHEEZE_AND_CRACKLE

    def test_string_valued_timestamps_accepted(self, tmp_path):
        path = tmp_path / "p1_r.json"
        write_annotation(path, [{"start": "250", "end": "700", "type": "Wheeze"}])
        (event,) = load_annotations(path)
        assert (event.onset_ms, event.offset_ms) == (250, 700)

    def test_zero_duration_rejected(self, tmp_path):
        path = tmp_path / "p1_r.json"
        write_annotation(path, [{"start": 500, "end": 500, "type": "Normal"}])
        with pytest.raises(ValidationError, match="offset"):
            load_annotations(path)

    def test_unknown_label_names_the_offender(self, tmp_path):
        path = tmp_path / "p1_r.json"
        write_annotation(path, [{"start": 0, "end": 10, "type": "Snore"}])
        with pytest.raises(ValidationError, match="Snore"):
            load_annotations(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "p1_r.json"
        write_annotation(path, [{"start": 0, "type": "Normal"}])
        with pytest.raises(FormatError, match="end"):
            load_annotations(path)

    @pytest.mark.parametrize("text, value", [
        ('{"start": 1e400, "end": 900, "type": "Normal"}', "inf"),
        ('{"start": 0, "end": -1e400, "type": "Normal"}', "-inf"),
        ('{"start": "nan", "end": 900, "type": "Normal"}', "'nan'"),
        ('{"start": 0, "end": "Infinity", "type": "Normal"}', "'Infinity'"),
        ('{"start": true, "end": 900, "type": "Normal"}', "True"),
        ('{"start": 0, "end": false, "type": "Normal"}', "False"),
    ], ids=["overflow_start", "overflow_end", "nan_string", "infinity_string", "true", "false"])
    def test_non_finite_or_boolean_timestamp_rejected(self, tmp_path, text, value):
        path = tmp_path / "p1_r.json"
        path.write_text(f'{{"event_annotation": [{text}]}}')
        with pytest.raises(FormatError, match=rf"p1_r\.json event 0: \w+ value {value} is not a finite"):
            load_annotations(path)

    def test_non_utf8_document_rejected(self, tmp_path):
        path = tmp_path / "p1_r.json"
        path.write_bytes(b'{"event_annotation": []}\xff')
        with pytest.raises(FormatError, match="not valid UTF-8 JSON"):
            load_annotations(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "p1_r.json"
        path.write_text("<xml/>")
        with pytest.raises(FormatError):
            load_annotations(path)


class TestParseLabel:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Normal", Label.NORMAL),
            ("Rhonchi", Label.RHONCHI),
            ("Wheeze", Label.WHEEZE),
            ("Stridor", Label.STRIDOR),
            ("Coarse Crackle", Label.COARSE_CRACKLE),
            ("Fine Crackle", Label.FINE_CRACKLE),
            ("Wheeze & Crackle", Label.WHEEZE_AND_CRACKLE),
            ("Both", Label.WHEEZE_AND_CRACKLE),
            ("fine crackle", Label.FINE_CRACKLE),
        ],
    )
    def test_aliases(self, text, expected):
        assert parse_label(text) is expected

    def test_seven_classes_in_canonical_order(self):
        assert [label.value for label in Label] == [
            "Normal", "Rhonchi", "Wheeze", "Stridor",
            "CoarseCrackle", "FineCrackle", "WheezeAndCrackle",
        ]


class TestSliceEvent:
    def make_event(self, onset, offset):
        return RespiratoryEvent("p1_r", onset, offset, Label.WHEEZE, "p1")

    def test_one_second_slice_at_8khz(self):
        """[1000, 2000) ms at 8 kHz is (2000-1000)/1000 * 8000 = 8000 samples."""
        clip = AudioClip(np.arange(80000) / 80000, 8000)
        sliced = slice_event(clip, self.make_event(1000, 2000))
        assert len(sliced) == 8000
        np.testing.assert_array_equal(sliced.samples, clip.samples[8000:16000])
        assert sliced.sample_rate_hz == 8000

    def test_full_duration_is_identity(self):
        clip = AudioClip(np.linspace(-0.5, 0.5, 4000), 8000)
        sliced = slice_event(clip, self.make_event(0, 500))
        np.testing.assert_array_equal(sliced.samples, clip.samples)

    def test_offset_beyond_clip_rejected(self):
        clip = AudioClip(np.zeros(4000), 8000)  # 500 ms
        with pytest.raises(ValidationError, match="exceeds"):
            slice_event(clip, self.make_event(100, 501))

    def test_negative_onset_rejected(self):
        with pytest.raises(ValidationError):
            self.make_event(-1, 100)
