"""Image-quality measures for the color channel.

Each measure compares the luminance image I against its Gaussian-smoothed
reference (sigma 1.2, 5x5 kernel, mirrored borders). The 18-measure set
spans pixel-difference, correlation, spectral, gradient, and edge families.
"""

from __future__ import annotations

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


def smooth(image: np.ndarray, kernel: np.ndarray | None = None) -> np.ndarray:
    """2-D correlation with mirrored (edge-inclusive) borders."""
    img = np.asarray(image, dtype=np.float64)
    k = gaussian_kernel() if kernel is None else kernel
    kh, kw = k.shape
    py, px = kh // 2, kw // 2
    padded = np.pad(img, ((py, py), (px, px)), mode="symmetric")
    out = np.zeros_like(img)
    for i in range(kh):
        for j in range(kw):
            out += k[i, j] * padded[i : i + img.shape[0], j : j + img.shape[1]]
    return out


def _gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gy, gx = np.gradient(img)
    return gx, gy


def _laplacian(img: np.ndarray) -> np.ndarray:
    return (
        img[1:-1, 2:] + img[1:-1, :-2] + img[2:, 1:-1] + img[:-2, 1:-1] - 4.0 * img[1:-1, 1:-1]
    )


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def _harris_corner_count(img: np.ndarray) -> int:
    gx, gy = _gradients(img)
    k = gaussian_kernel()
    ixx = smooth(gx * gx, k)
    iyy = smooth(gy * gy, k)
    ixy = smooth(gx * gy, k)
    resp = ixx * iyy - ixy**2 - HARRIS_K * (ixx + iyy) ** 2
    peak = resp.max()
    if peak <= 0:
        return 0
    # local maxima over a 3x3 neighborhood (edge-padded with -inf)
    padded = np.pad(resp, 1, mode="constant", constant_values=-np.inf)
    local_max = np.full(resp.shape, True)
    for dy in range(3):
        for dx in range(3):
            local_max &= resp >= padded[dy : dy + resp.shape[0], dx : dx + resp.shape[1]]
    return int(np.sum(local_max & (resp > HARRIS_REL_THRESHOLD * peak)))


def _hlfi(img: np.ndarray) -> float:
    mag = np.abs(np.fft.fft2(img))
    total = mag.sum()
    if total <= _EPS:
        return 0.0
    fy = np.fft.fftfreq(img.shape[0])[:, None]
    fx = np.fft.fftfreq(img.shape[1])[None, :]
    low = np.sqrt(fy**2 + fx**2) <= _LOW_FREQ_RADIUS
    low_sum = mag[low].sum()
    return float((low_sum - (total - low_sum)) / total)


def _mse(i, r):
    return float(np.mean((i - r) ** 2))


def _psnr(i, r):
    mse = _mse(i, r)
    if mse <= _EPS:
        return PSNR_CAP
    return float(min(PSNR_CAP, 10.0 * np.log10(255.0**2 / mse)))


def _snr(i, r):
    mse = _mse(i, r)
    if mse <= _EPS:
        return PSNR_CAP
    return float(min(PSNR_CAP, 10.0 * np.log10(max(np.mean(i**2), _EPS) / mse)))


def _structural_content(i, r):
    denom = float(np.sum(r**2))
    if denom <= _EPS:
        return 1.0
    return float(np.sum(i**2) / denom)


def _ncc(i, r):
    denom = float(np.sum(i**2))
    if denom <= _EPS:
        return 1.0
    return float(np.sum(i * r) / denom)


def _avg_diff(i, r):
    return float(np.mean(i - r))


def _max_diff(i, r):
    return float(np.max(np.abs(i - r)))


def _nae(i, r):
    denom = float(np.sum(np.abs(i)))
    if denom <= _EPS:
        return 0.0
    return float(np.sum(np.abs(i - r)) / denom)


def _lmse(i, r):
    li = _laplacian(i)
    lr = _laplacian(r)
    denom = float(np.sum(li**2))
    if denom <= _EPS:
        return 0.0
    return float(np.sum((li - lr) ** 2) / denom)


def _spectral_magnitude(i, r):
    return float(np.mean((np.abs(np.fft.fft2(i)) - np.abs(np.fft.fft2(r))) ** 2))


def _spectral_phase(i, r):
    d = _wrap_angle(np.angle(np.fft.fft2(i)) - np.angle(np.fft.fft2(r)))
    return float(np.mean(d**2))


def _gradient_magnitude_error(i, r):
    gi = np.hypot(*_gradients(i))
    gr = np.hypot(*_gradients(r))
    return float(np.mean((gi - gr) ** 2))


def _grad_angles(i, r):
    gxi, gyi = _gradients(i)
    gxr, gyr = _gradients(r)
    ni = np.hypot(gxi, gyi)
    nr = np.hypot(gxr, gyr)
    dot = gxi * gxr + gyi * gyr
    denom = ni * nr
    cos = np.where(denom > _EPS, dot / np.maximum(denom, _EPS), 1.0)
    alpha = np.arccos(np.clip(cos, -1.0, 1.0))
    dist = np.hypot(gxi - gxr, gyi - gyr)
    return alpha, dist


def _mean_angle_similarity(i, r):
    alpha, _ = _grad_angles(i, r)
    return float(1.0 - np.mean(2.0 * alpha / np.pi))


def _mean_angle_magnitude_similarity(i, r):
    alpha, dist = _grad_angles(i, r)
    chi = 1.0 - (1.0 - 2.0 * alpha / np.pi) * (1.0 - np.minimum(dist, 255.0) / 255.0)
    return float(1.0 - np.mean(chi))


def _total_edge_difference(i, r):
    ei = np.hypot(*_gradients(i)) >= EDGE_THRESHOLD
    er = np.hypot(*_gradients(r)) >= EDGE_THRESHOLD
    return float(np.mean(ei != er))


def _total_corner_difference(i, r):
    ni = _harris_corner_count(i)
    nr = _harris_corner_count(r)
    return float(abs(ni - nr) / max(1.0, ni, nr))


def _hist_chi_square(i, r):
    hi = np.bincount(np.clip(np.rint(i), 0, 255).astype(np.int64).ravel(), minlength=256)
    hr = np.bincount(np.clip(np.rint(r), 0, 255).astype(np.int64).ravel(), minlength=256)
    num = (hi - hr).astype(np.float64) ** 2
    den = (hi + hr).astype(np.float64)
    mask = den > 0
    return float(np.sum(num[mask] / den[mask]) / i.size)


def _hlfi_delta(i, r):
    return _hlfi(i) - _hlfi(r)


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


def iqm_features(rgb: np.ndarray, measures: tuple[str, ...] | None = None) -> np.ndarray:
    """Measure vector for one RGB frame (canonical measure order)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[-1] != 3:
        raise ValueError("expected an (H,W,3) frame")
    selected = IQM_NAMES if measures is None else tuple(measures)
    unknown = set(selected) - set(IQM_NAMES)
    if unknown:
        raise ValueError(f"unknown IQM measures: {sorted(unknown)}")
    lum = to_gray(rgb).astype(np.float64)
    ref = smooth(lum)
    table = dict(IQM_MEASURES)
    return np.array([table[name](lum, ref) for name in selected], dtype=np.float64)
