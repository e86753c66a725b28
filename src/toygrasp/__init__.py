"""Composite-toy generation, grasp analysis, and an object-centric policy reference."""

from .analysis import (
    FeasibilityReport,
    GripperModel,
    directional_width,
    min_caliper_width,
)
from .assembler import (
    Color,
    GenerationConfig,
    SetComposition,
    ToySpec,
    assemble_toy,
    connectivity_check,
    generate_set,
)
from .detpool import (
    EncoderConfig,
    EncoderState,
    PoolingMode,
    build_attention_mask,
    encode,
    encode_grad,
    init_encoder,
    mask_to_flags,
)
from .evalharness import Protocol, TrialSchedule, aggregate, make_schedule, scaling_report
from .io import read_manifest
from .mesh import Tessellation, TriMesh, mesh_primitive, mesh_toy, mesh_volume
from .policy import (
    OptimizerConfig,
    PolicyConfig,
    PolicyState,
    StepObservation,
    bc_l1_loss,
    init_policy,
    policy_forward,
    train_step,
)
from .primitives import (
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
    contains,
    sample_point_in,
    sample_primitive,
    sample_rotation,
)

__version__ = "0.1.0"
