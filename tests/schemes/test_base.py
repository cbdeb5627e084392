"""Tests for the scheme interface and the default line-up."""

import numpy as np
import pytest

from repro.schemes import BatchRead, LineReadResult, default_schemes


class TestDefaultSchemes:
    def test_lineup_matches_paper(self):
        names = [s.name for s in default_schemes()]
        assert names == ["no-ecc", "iecc-sec", "xed", "duo", "pair"]

    def test_descriptions_have_uniform_keys(self):
        rows = [s.description() for s in default_schemes()]
        keys = {tuple(sorted(r)) for r in rows}
        assert len(keys) == 1

    def test_all_lines_are_64_bytes(self):
        for scheme in default_schemes():
            chips, pins, bl = scheme.line_shape
            assert chips * pins * bl == 512

    def test_make_devices_counts(self):
        for scheme in default_schemes():
            assert len(scheme.make_devices()) == scheme.rank.chips

    def test_make_devices_overlay_count_checked(self):
        scheme = default_schemes()[0]
        with pytest.raises(ValueError):
            scheme.make_devices(overlays=[None])

    def test_write_line_validates_shape(self):
        for scheme in default_schemes():
            chips = scheme.make_devices()
            with pytest.raises(ValueError):
                scheme.write_line(chips, 0, 0, 0, np.zeros((1, 1, 1), dtype=np.uint8))


class TestLineReadResult:
    def test_detected_flag(self):
        good = LineReadResult(data=np.zeros(1), believed_good=True)
        bad = LineReadResult(data=np.zeros(1), believed_good=False)
        assert not good.detected_uncorrectable
        assert bad.detected_uncorrectable


class TestBatchRead:
    def test_clean_batch(self):
        batch = BatchRead.clean(3, (4, 8, 16))
        assert len(batch) == 3
        assert batch.data.shape == (3, 4, 8, 16) and batch.data.dtype == np.uint8
        assert not batch.data.any()
        assert batch.believed_good.all()
        assert batch.corrections.dtype == np.int64 and not batch.corrections.any()

    def test_rows_are_copies_with_python_scalars(self):
        batch = BatchRead.clean(2, (1, 2, 2))
        batch.believed_good[1] = False
        batch.corrections[0] = 3
        first, second = batch
        assert first.believed_good is True and first.corrections == 3
        assert second.detected_uncorrectable
        first.data[0, 0, 0] = 1
        assert not batch.data.any()
