"""Decoder-only autoencoding with gradient-flow latent optimization."""

from .diffcore import (GradError, NonFiniteError, ShapeError, Tape, Tensor,
                       grad, hvp, mixed_vjp, recording)
from .models import (DecoderParams, EncoderParams, LossKind, decode,
                     decode_logits, encode, init_decoder, init_encoder,
                     load_checkpoint, loss, reconstruction_loss,
                     save_checkpoint)
from .flow import (AlphaSchedule, FlowConfig, FlowDivergedError, FlowState,
                   FlowTrace, SolverKind, encode_batch, encode_sample,
                   log_time_grid, solve_amd, solve_nesterov, solve_rk4_fixed)
from .training import (AdjointMode, EvalMode, OptimizerKind, OptimizerState,
                       TrainReport, TrainSchedule, adam_state, evaluate,
                       grad_theta_approximate, grad_theta_full_adjoint,
                       optimizer_step, rmsprop_state, train_ae, train_gfe)
from .data import (Dataset, SamplerState, load_idx, make_linear_oracle,
                   seg_split, synth_digits, write_idx)

__version__ = "0.1.0"
