"""Feature-tensor codec for split inference, with pixel-domain tools and
rate-distortion evaluation utilities."""

from .bitstream import TRANSFORMS, UnitHeader, parse_stream, serialize_stream
from .channels import PruneDecision, prune_channels, score_channels, select_pruned
from .codec import CodecId, codec_decode, codec_encode, qstep
from .conversion import dequantize_frame, quantize_frame
from .errors import DomainError, FcmError, FormatError
from .lcr import ChannelIndexSet, LcrCode, binomial, lcr_decode, lcr_encode
from .metrics import RdCurve, bd_rate, psnr
from .packing import PackingLayout, pack
from .pipeline import EncoderConfig, fcm_decode, fcm_encode
from .tensor import (
    FeatureTensor,
    GlobalStats,
    TensorGroup,
    compute_global_stats,
    read_tensor_file,
    write_tensor_file,
)
from .vcm import (
    PixelSequence,
    TemporalSideInfo,
    bitdepth_restore,
    bitdepth_truncate,
    temporal_resample_scalar,
    temporal_restore,
)

__version__ = "0.1.0"
