"""Synthetic image generation and image-processing primitives.

The paper's Image Pyramid and Face Detection experiments run on 1280x720
(HD) photographs; without the original inputs we generate deterministic
synthetic scenes — a smooth luminance gradient with textured rectangles,
plus (for face detection) planted bright elliptical "faces" whose positions
are known, so detector recall is testable.

All routines are pure numpy and deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

#: Luminance weights (ITU-R BT.601), as used by virtually every grayscale
#: conversion kernel.
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)

#: Per-channel scale of the base gradient (R, G, B).
_CHANNEL_SCALE = np.array([1.0, 0.9, 1.1], dtype=np.float32)

#: Rows of noise drawn and composited per step of
#: :func:`synthetic_rgb_image`; a 1280-wide chunk's float64 draw is 480 KB.
NOISE_CHUNK_ROWS = 16


def synthetic_rgb_image(
    seed: int, width: int = 1280, height: int = 720
) -> np.ndarray:
    """A deterministic RGB uint8 test image (H, W, 3).

    A base gradient, six tinted rectangles and N(0, 3) pixel noise,
    composited ``NOISE_CHUNK_ROWS`` rows at a time into reused buffers
    rather than through full-frame float64/float32 temporaries.  The bytes
    equal those of the one-shot form ``clip(image + rng.normal(0.0, 3.0,
    image.shape).astype(float32))``: the generator fills C order from one
    stream, so chunked draws return the same values, and ``0.0 + 3.0 * z``
    equals ``3.0 * z``.
    """
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, 1.0, height, dtype=np.float32)[:, None]
    x = np.linspace(0.0, 1.0, width, dtype=np.float32)[None, :]
    half_x = 0.5 * x
    half_y = 0.5 * y
    # A handful of textured rectangles for histogram structure; every draw
    # precedes the noise, as in the stream order of the one-shot form.
    rects = []
    for _ in range(6):
        x0 = int(rng.integers(0, width - width // 5))
        y0 = int(rng.integers(0, height - height // 5))
        w = int(rng.integers(width // 10, width // 5))
        h = int(rng.integers(height // 10, height // 5))
        tint = rng.uniform(-50.0, 50.0, size=3).astype(np.float32)
        rects.append((y0, y0 + h, x0, x0 + w, tint))
    out = np.empty((height, width, 3), dtype=np.uint8)
    rows = min(NOISE_CHUNK_ROWS, height)
    noise64 = np.empty((rows, width, 3), dtype=np.float64)
    noise32 = np.empty((rows, width, 3), dtype=np.float32)
    chunk = np.empty((rows, width, 3), dtype=np.float32)
    for top in range(0, height, rows):
        bottom = min(top + rows, height)
        n = bottom - top
        base = 60.0 + 120.0 * (half_x + half_y[top:bottom])
        pixels = chunk[:n]
        # Per channel: a broadcast over a length-3 inner axis is ~6x slower.
        for channel, scale in enumerate(_CHANNEL_SCALE):
            np.multiply(base, scale, out=pixels[:, :, channel])
        for y0, y1, x0, x1, tint in rects:
            if y0 < bottom and y1 > top:
                pixels[max(y0, top) - top : min(y1, bottom) - top, x0:x1] += tint
        rng.standard_normal(out=noise64[:n])
        noise64[:n] *= 3.0
        noise32[:n] = noise64[:n]
        pixels += noise32[:n]
        np.clip(pixels, 0, 255, out=pixels)
        out[top:bottom] = pixels
    return out


def plant_faces(
    image: np.ndarray, positions: list[tuple[int, int, int]]
) -> np.ndarray:
    """Stamp bright elliptical 'faces' (x, y, size) onto a copy of image.

    The pattern — a bright oval with two dark eye dots and a dark mouth
    bar — is what the synthetic LBP classifier is templated on.
    """
    out = image.copy()
    for x, y, size in positions:
        if out[y : y + size, x : x + size].shape[:2] != (size, size):
            raise ValueError(f"face at ({x},{y},{size}) exceeds image bounds")
        yy, xx = np.mgrid[0:size, 0:size]
        cy = cx = (size - 1) / 2.0
        ellipse = ((xx - cx) / (0.42 * size)) ** 2 + (
            (yy - cy) / (0.48 * size)
        ) ** 2 <= 1.0
        patch = out[y : y + size, x : x + size].astype(np.float32)
        patch[ellipse] = 225.0
        eye = max(1, size // 10)
        for ex in (int(0.32 * size), int(0.62 * size)):
            patch[
                int(0.32 * size) : int(0.32 * size) + eye, ex : ex + eye
            ] = 40.0
        patch[
            int(0.70 * size) : int(0.70 * size) + eye,
            int(0.35 * size) : int(0.65 * size),
        ] = 60.0
        out[y : y + size, x : x + size] = patch.astype(np.uint8)
    return out


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """RGB (H, W, 3) uint8 -> grayscale (H, W) uint8."""
    if image.ndim == 2:
        return image
    gray = image.astype(np.float32) @ _LUMA
    return np.clip(gray + 0.5, 0, 255).astype(np.uint8)


def to_grayscale_batch(stack: np.ndarray) -> np.ndarray:
    """Batched :func:`to_grayscale`: (B, H, W, 3) -> (B, H, W).

    Bit-identical per item to the scalar routine — the luma matmul is a
    gufunc over the last axis, so leading batch dimensions do not change
    the per-pixel float reduction.
    """
    gray = stack.astype(np.float32) @ _LUMA
    return np.clip(gray + 0.5, 0, 255).astype(np.uint8)


def equalize_histogram(gray: np.ndarray) -> np.ndarray:
    """Classic 256-bin histogram equalisation (the paper's serial-CDF
    bottleneck stage)."""
    hist = np.bincount(gray.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    total = cdf[-1]
    if total == 0:
        return gray.copy()
    cdf_min = cdf[np.nonzero(cdf)[0][0]]
    denom = max(1, total - cdf_min)
    lut = np.clip(
        np.round((cdf - cdf_min) * 255.0 / denom), 0, 255
    ).astype(np.uint8)
    return lut[gray]


def equalize_histogram_batch(stack: np.ndarray) -> np.ndarray:
    """Batched :func:`equalize_histogram`: (B, H, W) -> (B, H, W).

    Histograms for the whole batch come from one offset ``bincount``; all
    arithmetic (integer cumsum, the float LUT expression) matches the
    scalar routine element for element.
    """
    batch = stack.shape[0]
    flat = stack.reshape(batch, -1).astype(np.int64)
    offsets = 256 * np.arange(batch, dtype=np.int64)[:, None]
    hist = np.bincount(
        (flat + offsets).ravel(), minlength=batch * 256
    ).reshape(batch, 256)
    cdf = np.cumsum(hist, axis=1)
    total = cdf[:, -1]
    if not total.all():
        # Degenerate zero-pixel images: keep the scalar early-return path.
        return np.stack([equalize_histogram(gray) for gray in stack])
    first_nonzero = np.argmax(cdf > 0, axis=1)
    cdf_min = np.take_along_axis(cdf, first_nonzero[:, None], axis=1)[:, 0]
    denom = np.maximum(1, total - cdf_min)
    lut = np.clip(
        np.round((cdf - cdf_min[:, None]) * 255.0 / denom[:, None]), 0, 255
    ).astype(np.uint8)
    return np.take_along_axis(lut, flat, axis=1).reshape(stack.shape)


def downsample2x(gray: np.ndarray) -> np.ndarray:
    """2x2 box-filter downsampling (one pyramid level)."""
    height, width = gray.shape
    height -= height % 2
    width -= width % 2
    cropped = gray[:height, :width].astype(np.uint16)
    pooled = (
        cropped[0::2, 0::2]
        + cropped[0::2, 1::2]
        + cropped[1::2, 0::2]
        + cropped[1::2, 1::2]
        + 2
    ) // 4
    return pooled.astype(np.uint8)


#: 8-neighbour offsets of the LBP code, clockwise from the top-left.
_LBP_OFFSETS = (
    (0, 0), (0, 1), (0, 2),
    (1, 2), (2, 2), (2, 1),
    (2, 0), (1, 0),
)


def lbp_codes(gray: np.ndarray) -> np.ndarray:
    """8-neighbour local binary patterns (codes for interior pixels).

    Returns an (H-2, W-2) uint8 array: bit k set when neighbour k is >= the
    centre pixel, neighbours enumerated clockwise from the top-left.
    """
    center = gray[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    height, width = center.shape
    for bit, (dy, dx) in enumerate(_LBP_OFFSETS):
        neighbour = gray[dy : dy + height, dx : dx + width]
        codes |= ((neighbour >= center).astype(np.uint8)) << bit
    return codes


def downsample2x_batch(stack: np.ndarray) -> np.ndarray:
    """Batched :func:`downsample2x`: (B, H, W) -> (B, H//2, W//2).

    Pure integer arithmetic, so batching is trivially exact.
    """
    height, width = stack.shape[1:]
    height -= height % 2
    width -= width % 2
    cropped = stack[:, :height, :width].astype(np.uint16)
    pooled = (
        cropped[:, 0::2, 0::2]
        + cropped[:, 0::2, 1::2]
        + cropped[:, 1::2, 0::2]
        + cropped[:, 1::2, 1::2]
        + 2
    ) // 4
    return pooled.astype(np.uint8)


def lbp_codes_batch(stack: np.ndarray) -> np.ndarray:
    """Batched :func:`lbp_codes`: (B, H, W) -> (B, H-2, W-2).

    Integer comparisons and shifts — trivially exact under batching.
    """
    center = stack[:, 1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    height, width = center.shape[1:]
    for bit, (dy, dx) in enumerate(_LBP_OFFSETS):
        neighbour = stack[:, dy : dy + height, dx : dx + width]
        codes |= ((neighbour >= center).astype(np.uint8)) << bit
    return codes


def lbp_histogram(codes: np.ndarray, bins: int = 16) -> np.ndarray:
    """Coarse (folded) LBP histogram, L1-normalised."""
    folded = codes // (256 // bins)
    hist = np.bincount(folded.ravel(), minlength=bins).astype(np.float64)
    total = hist.sum()
    return hist / total if total else hist
