"""Batched face scanning on HD levels must match the scalar reference.

``FDScanning.execute_batch`` builds window histograms from per-cell counts
and computes contrast only for windows that pass the score test; the
scalar ``execute`` path counts every window and every contrast directly.
``tests/test_batch_equivalence.py`` covers the quick 320x240 params; this
covers a default-size frame and every pyramid level it produces.
"""

import numpy as np
import pytest

from repro.workloads import face_detection as fd
from repro.workloads import images


class _Ctx:
    def __init__(self):
        self.outputs = []

    def emit_output(self, payload):
        self.outputs.append(payload)


def _hd_levels():
    """(gray, codes) of every pyramid level of one default-size image."""
    params = fd.FaceDetectionParams()
    rgb = images.synthetic_rgb_image(params.seed, params.width, params.height)
    rgb = images.plant_faces(rgb, params.face_positions(0))
    gray = images.equalize_histogram(images.to_grayscale(rgb))
    levels = [gray]
    while levels[-1].shape[0] // 2 >= params.min_height:
        levels.append(images.downsample2x(levels[-1]))
    return [(level, images.lbp_codes(level)) for level in levels]


LEVELS = _hd_levels()


def _bands(level: int) -> list:
    gray, codes = LEVELS[level]
    band_rows = fd.FaceDetectionParams().band_rows
    window_rows = (codes.shape[0] - fd.WINDOW) // fd.STRIDE + 1
    return [
        fd._BandItem(
            image_id=0,
            level=level,
            row_start=start,
            num_rows=min(band_rows, window_rows - start),
            codes=codes,
            pixels=gray,
        )
        for start in range(0, window_rows, band_rows)
    ]


def _band_sets(bands: list) -> dict:
    return {
        "all": bands,
        "single": [bands[len(bands) // 2]],
        # Non-contiguous, and ending in the last (partial) band.
        "sparse": bands[:1] + bands[2:-1:3] + bands[-1:],
    }


def test_levels_cover_the_pyramid():
    assert [gray.shape for gray, _ in LEVELS] == [
        (720, 1280), (360, 640), (180, 320), (90, 160),
    ]
    # "sparse" ends in the last band, which is partial on levels 0, 1, 3.
    band_rows = fd.FaceDetectionParams().band_rows
    assert [_bands(level)[-1].num_rows for level in range(4)] == [
        3, 2, band_rows, 1,
    ]


@pytest.mark.parametrize("subset", ["all", "single", "sparse"])
@pytest.mark.parametrize("level", range(len(LEVELS)))
def test_batch_detections_match_scalar(level, subset):
    stage = fd.FDScanning()
    bands = _band_sets(_bands(level))[subset]
    scalar = [_Ctx() for _ in bands]
    for band, ctx in zip(bands, scalar):
        stage.execute(band, ctx)
    batched = [_Ctx() for _ in bands]
    costs = stage.execute_batch(bands, batched)
    assert costs == [stage.cost(band) for band in bands]
    for want, got in zip(scalar, batched):
        assert got.outputs == want.outputs
    if level == 0 and subset == "all":
        # The planted faces at window scale are found on level 0.
        assert sum(len(ctx.outputs) for ctx in batched) > 0


@pytest.mark.parametrize("level", range(len(LEVELS)))
def test_cell_histograms_match_window_histograms(level):
    _, codes = LEVELS[level]
    window_rows = (codes.shape[0] - fd.WINDOW) // fd.STRIDE + 1
    rows = range(0, window_rows)
    spans = fd._span_histograms(codes, rows)
    reference = fd._window_histograms(codes, rows)
    assert spans.dtype == reference.dtype == np.float64
    np.testing.assert_array_equal(
        spans.reshape(-1, fd.HIST_BINS), reference
    )


@pytest.mark.parametrize("level", range(len(LEVELS)))
def test_gathered_contrast_matches_window_contrast(level):
    gray, codes = LEVELS[level]
    cols = (codes.shape[1] - fd.WINDOW) // fd.STRIDE + 1
    for band in _bands(level):
        rows = range(band.row_start, band.row_start + band.num_rows)
        grid_rows = np.repeat(np.arange(rows.start, rows.stop), cols)
        grid_cols = np.tile(np.arange(cols), len(rows))
        gathered = fd._gathered_contrast(gray, grid_rows, grid_cols)
        reference = fd._window_contrast(gray, rows)
        assert gathered.dtype == reference.dtype
        np.testing.assert_array_equal(
            gathered.view(np.uint32), reference.view(np.uint32)
        )
