"""Quantized skill tokens: a two-stage latent-variable policy at desk scale.

Stage I compresses action windows into discrete skill tokens with a causal
autoencoder around a finite scalar quantizer; stage II models those tokens
autoregressively, conditioned on observations and a task embedding; the
controller decodes sampled tokens into action plans and executes them in a
receding horizon loop on a synthetic 2D multitask benchmark.
"""

from .autoencoder import SkillAutoencoder, train_stage1
from .checkpoint import Checkpoint
from .config import RunConfig
from .controller import ControlConfig, Policy, RolloutResult, evaluate_suite, rollout
from .data import Episode, TrajectoryDataset, read_dataset, write_dataset
from .fsq import FsqSpec, bound, code_to_index, index_to_code, quantize, utilization
from .gradcheck import grad_check, grad_check_params
from .optim import Adam
from .prior import SkillPrior, finetune_fewshot, train_stage2
from .tasks import PointEnv, TaskSpec, generate_suite
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Checkpoint",
    "ControlConfig",
    "Episode",
    "FsqSpec",
    "PointEnv",
    "Policy",
    "RolloutResult",
    "RunConfig",
    "SkillAutoencoder",
    "SkillPrior",
    "TaskSpec",
    "Tensor",
    "TrajectoryDataset",
    "bound",
    "code_to_index",
    "evaluate_suite",
    "finetune_fewshot",
    "generate_suite",
    "grad_check",
    "grad_check_params",
    "index_to_code",
    "no_grad",
    "quantize",
    "read_dataset",
    "rollout",
    "train_stage1",
    "train_stage2",
    "utilization",
    "write_dataset",
]
