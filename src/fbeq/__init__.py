"""fbeq: low-latency subband speech enhancement via a filter-bank equalizer.

Subband analysis at high spectral resolution, per-frame gain estimation,
mapping of the gains to a short time-domain filter, and overlap-save
filtering that emits ``hop`` new samples per frame — so the signal-path
latency is the short filter's group delay, not a long synthesis window.
"""

from .audio_io import AudioBuffer, mix_at_snr, read_wav, write_wav
from .config import Config, build_config, load_config_file
from .equalizer import (
    EngineState,
    LatencyReport,
    direct_filter_block,
    filter_to_freq,
    gains_to_taps,
    ols_filter_frame,
    process_stream,
    shorten_filter,
    subband_to_time,
)
from .errors import ConfigError, DataError, FbeqError, FormatError, NumericError
from .fbeg import (
    TYPE_DFT_RESPONSES,
    TYPE_SUBBAND_GAINS,
    StreamHeader,
    load_gain_stream,
    write_gain_stream,
)
from .filterbank import (
    AnalysisFrameSeq,
    PolyphaseAnalyzer,
    analyze_polyphase,
    design_prototype,
    expand_hermitian,
)
from .gains import (
    GainFrame,
    NoiseTrackerState,
    estimate_gains,
    exp_integral_e1,
    mmse_lsa_gain,
    update_noise_psd,
)
from .metrics import (
    MetricReport,
    compute_report,
    ri_mag_loss,
    seg_na,
    seg_snr,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisFrameSeq",
    "AudioBuffer",
    "Config",
    "ConfigError",
    "DataError",
    "EngineState",
    "FbeqError",
    "FormatError",
    "GainFrame",
    "LatencyReport",
    "MetricReport",
    "NoiseTrackerState",
    "NumericError",
    "PolyphaseAnalyzer",
    "StreamHeader",
    "TYPE_DFT_RESPONSES",
    "TYPE_SUBBAND_GAINS",
    "analyze_polyphase",
    "build_config",
    "compute_report",
    "design_prototype",
    "direct_filter_block",
    "estimate_gains",
    "exp_integral_e1",
    "expand_hermitian",
    "filter_to_freq",
    "gains_to_taps",
    "load_config_file",
    "load_gain_stream",
    "mix_at_snr",
    "mmse_lsa_gain",
    "ols_filter_frame",
    "process_stream",
    "read_wav",
    "ri_mag_loss",
    "seg_na",
    "seg_snr",
    "shorten_filter",
    "subband_to_time",
    "update_noise_psd",
    "write_gain_stream",
    "write_wav",
]
