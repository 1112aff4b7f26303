"""Neural-field video codec with meta-learned sine networks.

Videos are compressed into one video-level latent vector plus one small
vector per frame; both condition a shared coordinate network through
per-layer shifts. Training alternates a zero-initialized inner
adaptation of the latents with a first-order outer update of the shared
weights.
"""

from .codec import (
    EncodeSettings,
    VideoEncoding,
    compression_rate,
    decode_static_summary,
    decode_video,
    encode_video,
    load_encoding,
    load_model,
    model_fingerprint,
    save_encoding,
    save_model,
)
from .data import (
    CorpusItem,
    Labels,
    SynthSpec,
    VideoTensor,
    build_corpus,
    gen_synthetic,
    load_video,
    read_corpus_manifest,
    save_video,
)
from .errors import VfunctaError
from .gradcheck import run_gradcheck
from .heads import (
    HeadConfig,
    MlpHead,
    evaluate_head,
    extract_features,
    load_head,
    save_head,
    train_head,
)
from .metrics import (
    ClassificationReport,
    QualityReport,
    RegressionReport,
    auroc,
    classification_metrics,
    psnr,
    quality_report,
    regression_metrics,
    ssim3d,
)
from .model import (
    CoordinateGrid,
    FrameModulationSeq,
    MetaModel,
    VideoModulation,
    sample_coords,
)
from .tensor import Tensor
from .training import Batch, TrainConfig, TrainLog, meta_step, train

__version__ = "0.1.0"

__all__ = [
    "Batch", "ClassificationReport", "CoordinateGrid", "CorpusItem",
    "EncodeSettings", "FrameModulationSeq", "HeadConfig", "Labels",
    "MetaModel", "MlpHead", "QualityReport", "RegressionReport",
    "SynthSpec", "Tensor", "TrainConfig", "TrainLog", "VideoEncoding",
    "VideoModulation", "VideoTensor", "VfunctaError", "auroc",
    "build_corpus", "classification_metrics", "compression_rate",
    "decode_static_summary", "decode_video", "encode_video",
    "evaluate_head", "extract_features", "gen_synthetic",
    "load_encoding", "load_head", "load_model", "load_video", "meta_step",
    "model_fingerprint", "psnr", "quality_report", "read_corpus_manifest",
    "regression_metrics", "run_gradcheck", "sample_coords",
    "save_encoding", "save_head", "save_model", "save_video", "ssim3d",
    "train", "train_head",
]
