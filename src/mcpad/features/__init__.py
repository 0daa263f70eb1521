"""Classical feature extractors: LBP histograms, image-quality measures, and
Haralick statistics over redundant Haar subbands."""

from .haralick import GlcmConfig, glcm, haralick13, rdwt_haralick_features
from .io import read_feature_table, write_feature_table
from .iqm import IQM_NAMES, iqm_features
from .lbp import LbpConfig, lbp_code_map, lbp_histogram, uniform_table
from .wavelet import rdwt_haar

__all__ = [
    "GlcmConfig",
    "IQM_NAMES",
    "LbpConfig",
    "glcm",
    "haralick13",
    "iqm_features",
    "lbp_code_map",
    "lbp_histogram",
    "rdwt_haar",
    "rdwt_haralick_features",
    "read_feature_table",
    "uniform_table",
    "write_feature_table",
]
