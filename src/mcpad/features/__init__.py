"""Classical feature extractors, each with one fixed definition and no
config or argument but its frames: ``lbp_histogram``, uniform LBP at P = 8,
R = 1 with 59 u2 bins on a 3x3 grid (``lbp.GRID``, 531 values a frame);
``iqm_features``, the 18 image-quality measures in ``IQM_NAMES`` order;
``rdwt_haralick_features``, 13 Haralick statistics of an 8-level symmetric
GLCM pooled over the offsets (0, 1), (1, 0), (1, 1), (1, -1), per redundant
Haar subband and cell of a 4x4 grid (``haralick.GRID``, 832 values a
frame)."""

from .haralick import glcm, haralick13, rdwt_haralick_features
from .io import read_feature_table, write_feature_table
from .iqm import IQM_NAMES, iqm_features
from .lbp import lbp_code_map, lbp_histogram
from .wavelet import rdwt_haar

__all__ = [
    "IQM_NAMES",
    "glcm",
    "haralick13",
    "iqm_features",
    "lbp_code_map",
    "lbp_histogram",
    "rdwt_haar",
    "rdwt_haralick_features",
    "read_feature_table",
    "write_feature_table",
]
