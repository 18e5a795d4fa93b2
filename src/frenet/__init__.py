"""Frequency-enhanced RAW deblurring network on a self-contained numpy autodiff core."""

from .afpm import (
    Afpm,
    KernelBiasGenerator,
    PatchGrid,
    make_patch_grid,
)
from .arch import (
    FrENet,
    NetworkConfig,
    build_frenet,
    tiny_config,
)
from .gradcheck import GradCheckReport, grad_check
from .metrics import psnr
from .rawdata import (
    BlurKernel,
    PreprocessSpec,
    apply_blur,
    bayer_pack,
    bayer_unpack,
    gen_dataset,
    gen_kernel,
    gen_sharp,
    preprocess_raw,
)
from .spectral import (
    ComplexTensor,
    channels_to_complex,
    complex_to_channels,
    fft2d,
    fft_shift,
    ifft2d,
)
from .tensor import (
    ConfigurationError,
    ConvSpec,
    EvaluationError,
    Parameter,
    Tensor,
    conv2d,
    gelu,
    global_avg_pool,
    layer_norm_channels,
    simple_gate,
)
from .train import TrainConfig, adam_step, cosine_lr, loss_total, sliding_window_infer, train

__version__ = "0.1.0"
