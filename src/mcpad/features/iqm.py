"""Image-quality measures for the color channel.

Each measure compares the luminance image I against its Gaussian-smoothed
reference R (sigma 1.2, 5x5 kernel, mirrored borders). The 18-measure set
spans pixel-difference, correlation, spectral, gradient, and edge families
(Galbally et al., *Image Quality Assessment for Fake Biometric Detection*,
IEEE TIP 2014).

``iqm_features`` always returns all 18 measures, in ``IQM_NAMES`` order.
It works on stacks: frames ``(..., H, W, 3)`` give measure vectors
``(..., 18)``, and a single frame is the stack with no batch axes. I and R
are stacked as one pair, and each intermediate (the Laplacians, one 2-D
FFT, one gradient) is computed once for the whole pair and shared by every
measure that reads it. The Harris corners of I and of R are counted in two
calls, so the smoothed gradient products, the largest temporary, cover one
image of the pair at a time. Every per-frame sum adds one contiguous
``H*W`` run (``_framesum``), the order ``np.sum`` uses on that frame alone,
so each frame's vector is bit-identical to the one it gets on its own.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..preprocess import to_gray

GAUSS_SIGMA = 1.2
GAUSS_SIZE = 5

PSNR_CAP = 100.0
EDGE_THRESHOLD = 25.5  # 10% of the 8-bit range on the gradient magnitude
HARRIS_K = 0.04
HARRIS_REL_THRESHOLD = 0.01
_LOW_FREQ_RADIUS = 0.125
_EPS = 1e-12


def gaussian_kernel(size: int = GAUSS_SIZE, sigma: float = GAUSS_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    xs = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(xs**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def smooth(image: np.ndarray) -> np.ndarray:
    """2-D correlation with ``gaussian_kernel()`` over the last two axes of
    ``(..., H, W)``, with mirrored (edge-inclusive) borders."""
    img = np.asarray(image, dtype=np.float64)
    k = gaussian_kernel()
    kh, kw = k.shape
    py, px = kh // 2, kw // 2
    h, w = img.shape[-2:]
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(py, py), (px, px)], mode="symmetric")
    out = np.zeros_like(img)
    term = np.empty_like(img)
    for i in range(kh):
        for j in range(kw):
            np.multiply(padded[..., i : i + h, j : j + w], k[i, j], out=term)
            out += term
    return out


def _laplacian(img: np.ndarray) -> np.ndarray:
    return (
        img[..., 1:-1, 2:] + img[..., 1:-1, :-2] + img[..., 2:, 1:-1] + img[..., :-2, 1:-1]
        - 4.0 * img[..., 1:-1, 1:-1]
    )


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def _framesum(x: np.ndarray) -> np.ndarray:
    """Sum of each ``(h, w)`` frame of ``(..., h, w)`` as one contiguous run."""
    x = np.ascontiguousarray(x)
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]).sum(axis=-1)


def _ratio(num: np.ndarray, den: np.ndarray, degenerate: float) -> np.ndarray:
    """``num / den`` per frame, ``degenerate`` where ``den <= _EPS``."""
    flat = den <= _EPS
    return np.where(flat, degenerate, num / np.where(flat, 1.0, den))


class _Pair:
    """Shared intermediates of a luminance stack I ``(F, H, W)`` and its
    reference R, stacked as ``pair = (I, R)``; each is computed on first
    use."""

    def __init__(self, lum: np.ndarray):
        self.pair = np.stack([lum, smooth(lum)])
        self.size = lum.shape[-2] * lum.shape[-1]

    def mean(self, x: np.ndarray) -> np.ndarray:
        return _framesum(x) / self.size

    @cached_property
    def diff(self) -> np.ndarray:
        return self.pair[0] - self.pair[1]

    @cached_property
    def mse(self) -> np.ndarray:
        return self.mean(self.diff**2)

    @cached_property
    def energy(self) -> np.ndarray:
        return _framesum(self.pair**2)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.fft.fft2(self.pair)

    @cached_property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.spectrum)

    @cached_property
    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        gy, gx = np.gradient(self.pair, axis=(-2, -1))
        return gx, gy

    @cached_property
    def grad_norm(self) -> np.ndarray:
        return np.hypot(*self.gradients)

    @cached_property
    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        (gxi, gxr), (gyi, gyr) = self.gradients
        ni, nr = self.grad_norm
        dot = gxi * gxr + gyi * gyr
        denom = ni * nr
        cos = np.where(denom > _EPS, dot / np.maximum(denom, _EPS), 1.0)
        alpha = np.arccos(np.clip(cos, -1.0, 1.0))
        dist = np.hypot(gxi - gxr, gyi - gyr)
        return alpha, dist


def _harris_corner_count(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Harris corner count of each image of gradient stacks ``(..., H, W)``:
    3x3 local maxima (edge-padded with -inf) above a fraction of the
    image's peak response, 0 where the peak is not positive."""
    ixx, iyy, ixy = smooth(np.stack([gx * gx, gy * gy, gx * gy]))
    resp = ixx * iyy - ixy**2 - HARRIS_K * (ixx + iyy) ** 2
    h, w = resp.shape[-2:]
    peak = resp.max(axis=(-2, -1), keepdims=True)
    padded = np.pad(resp, [(0, 0)] * (resp.ndim - 2) + [(1, 1), (1, 1)], constant_values=-np.inf)
    hits = resp > HARRIS_REL_THRESHOLD * peak
    for dy in range(3):
        for dx in range(3):
            hits &= resp >= padded[..., dy : dy + h, dx : dx + w]
    return np.where(peak[..., 0, 0] <= 0, 0, np.count_nonzero(hits, axis=(-2, -1)))


def _hlfi(mag: np.ndarray) -> np.ndarray:
    """High-low frequency index of each spectrum magnitude ``(..., H, W)``;
    the masked low-frequency entries are copied contiguous so that each
    image's are summed as one run."""
    total = _framesum(mag)
    fy = np.fft.fftfreq(mag.shape[-2])[:, None]
    fx = np.fft.fftfreq(mag.shape[-1])[None, :]
    low = np.sqrt(fy**2 + fx**2) <= _LOW_FREQ_RADIUS
    low_sum = np.ascontiguousarray(mag[..., low]).sum(axis=-1)
    return _ratio(low_sum - (total - low_sum), total, 0.0)


def _mse(s: _Pair) -> np.ndarray:
    return s.mse


def _capped_db(signal, mse: np.ndarray) -> np.ndarray:
    """``10 log10(signal / mse)`` capped at ``PSNR_CAP``, the cap where
    ``mse <= _EPS``."""
    db = 10.0 * np.log10(_ratio(signal, mse, 1.0))
    return np.where(mse <= _EPS, PSNR_CAP, np.minimum(PSNR_CAP, db))


def _psnr(s: _Pair) -> np.ndarray:
    return _capped_db(255.0**2, s.mse)


def _snr(s: _Pair) -> np.ndarray:
    return _capped_db(np.maximum(s.energy[0] / s.size, _EPS), s.mse)


def _structural_content(s: _Pair) -> np.ndarray:
    return _ratio(s.energy[0], s.energy[1], 1.0)


def _ncc(s: _Pair) -> np.ndarray:
    return _ratio(_framesum(s.pair[0] * s.pair[1]), s.energy[0], 1.0)


def _avg_diff(s: _Pair) -> np.ndarray:
    return s.mean(s.diff)


def _max_diff(s: _Pair) -> np.ndarray:
    return np.abs(s.diff).max(axis=(-2, -1))


def _nae(s: _Pair) -> np.ndarray:
    return _ratio(_framesum(np.abs(s.diff)), _framesum(np.abs(s.pair[0])), 0.0)


def _lmse(s: _Pair) -> np.ndarray:
    li, lr = _laplacian(s.pair)
    return _ratio(_framesum((li - lr) ** 2), _framesum(li**2), 0.0)


def _spectral_magnitude(s: _Pair) -> np.ndarray:
    return s.mean((s.magnitude[0] - s.magnitude[1]) ** 2)


def _spectral_phase(s: _Pair) -> np.ndarray:
    phase = np.angle(s.spectrum)
    return s.mean(_wrap_angle(phase[0] - phase[1]) ** 2)


def _gradient_magnitude_error(s: _Pair) -> np.ndarray:
    return s.mean((s.grad_norm[0] - s.grad_norm[1]) ** 2)


def _mean_angle_similarity(s: _Pair) -> np.ndarray:
    alpha, _ = s.angles
    return 1.0 - s.mean(2.0 * alpha / np.pi)


def _mean_angle_magnitude_similarity(s: _Pair) -> np.ndarray:
    alpha, dist = s.angles
    chi = 1.0 - (1.0 - 2.0 * alpha / np.pi) * (1.0 - np.minimum(dist, 255.0) / 255.0)
    return 1.0 - s.mean(chi)


def _total_edge_difference(s: _Pair) -> np.ndarray:
    edges = s.grad_norm >= EDGE_THRESHOLD
    return np.count_nonzero(edges[0] != edges[1], axis=(-2, -1)) / s.size


def _total_corner_difference(s: _Pair) -> np.ndarray:
    ni, nr = (_harris_corner_count(gx, gy) for gx, gy in zip(*s.gradients))
    return np.abs(ni - nr) / np.maximum(1.0, np.maximum(ni, nr))


def _hist_chi_square(s: _Pair) -> np.ndarray:
    levels = np.clip(np.rint(s.pair), 0, 255).astype(np.int64)
    n = levels.shape[0] * levels.shape[1]
    codes = levels.reshape(n, s.size) + 256 * np.arange(n)[:, None]
    hist = np.bincount(codes.ravel(), minlength=256 * n).reshape(levels.shape[:2] + (256,))
    num = (hist[0] - hist[1]).astype(np.float64) ** 2
    den = (hist[0] + hist[1]).astype(np.float64)
    # the masked bins of each frame are summed on their own, as one run
    return np.array([np.sum(nf[df > 0] / df[df > 0]) / s.size for nf, df in zip(num, den)])


def _hlfi_delta(s: _Pair) -> np.ndarray:
    hi, hr = _hlfi(s.magnitude)
    return hi - hr


IQM_MEASURES: tuple[tuple[str, callable], ...] = (
    ("mse", _mse),
    ("psnr", _psnr),
    ("snr", _snr),
    ("structural_content", _structural_content),
    ("ncc", _ncc),
    ("avg_diff", _avg_diff),
    ("max_diff", _max_diff),
    ("nae", _nae),
    ("laplacian_mse", _lmse),
    ("spectral_magnitude", _spectral_magnitude),
    ("spectral_phase", _spectral_phase),
    ("gradient_magnitude", _gradient_magnitude_error),
    ("mean_angle_similarity", _mean_angle_similarity),
    ("mean_angle_magnitude", _mean_angle_magnitude_similarity),
    ("total_edge_diff", _total_edge_difference),
    ("total_corner_diff", _total_corner_difference),
    ("hist_chi_square", _hist_chi_square),
    ("hlfi", _hlfi_delta),
)

IQM_NAMES = tuple(name for name, _ in IQM_MEASURES)


def iqm_features(rgb: np.ndarray) -> np.ndarray:
    """The 18 measures of RGB frames ``(..., H, W, 3)``, returned as
    ``(..., 18)`` in ``IQM_NAMES`` order."""
    rgb = np.asarray(rgb)
    if rgb.ndim < 3 or rgb.shape[-1] != 3:
        raise ValueError("expected (..., H, W, 3) frames")
    *batch, h, w, _ = rgb.shape
    stack = _Pair(to_gray(rgb).astype(np.float64).reshape(-1, h, w))
    values = np.stack([measure(stack) for _, measure in IQM_MEASURES], axis=-1)
    return values.reshape(*batch, len(IQM_MEASURES))
