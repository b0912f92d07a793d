"""Oblivious cloud-device hybrid latent-diffusion generation, desk scale."""

from .accel import (
    AccelConfig,
    never,
    should_recompute_attention,
    should_skip_blocks,
)
from .costmodel import (
    estimate_device_flops,
    estimate_server_flops,
    transmission_bytes,
)
from .denoiser import (
    ModelConfig,
    ModelWeights,
    decode_latent,
    embed_prompt,
    unet_forward,
)
from .oblivious import (
    AttributeLexicon,
    CandidateSet,
    Detection,
    default_lexicon,
    detect_attributes,
    expand_candidates,
    extract_latent,
)
from .protocol import (
    ChannelModel,
    GenerateRequest,
    GenerateResponse,
    Server,
    SessionConfig,
    SimulatedTransport,
    SocketTransport,
    client_run_session,
    decode_frame,
    encode_frame,
    simulate_transfer,
)
from .schedule import (
    NoiseSchedule,
    StepIndexMap,
    build_schedule,
    ddim_step,
    forward_diffuse,
    map_timestep,
    reverse_step_eq1,
)
from .security import (
    ObliviousnessVerdict,
    Transcript,
    check_indistinguishability,
    distinguisher_experiment,
    server_view,
)
from .tensor import FlopsCounter, Rng, fp16_roundtrip, matmul, softmax_rows

__version__ = "0.1.0"
