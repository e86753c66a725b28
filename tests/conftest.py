"""Shared test helpers: independent geometry and file-format oracles, and
probes into the package.

The oracles are deliberately written against the math or the published
file-format layout, not against the package implementation, so tests
exercise two independent routes to the same answer. The probes below them
read package internals that no command needs.
"""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace

import numpy as np

from toygrasp import _nn, policy
from toygrasp.analysis import GripperModel, min_caliper_width
from toygrasp.detpool import _forward
from toygrasp.errors import ShapeMismatch
from toygrasp.policy import BETA1, BETA2, EPS, WEIGHT_DECAY, OptimizerConfig, concat_observation
from toygrasp.primitives import (
    DimensionRanges,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
    quat_normalize,
    quat_rotate,
)


#: Unit roundoff of float64, and the constant of the reordered-sum bound:
#: two evaluations of one n-term sum or dot product, in any two orders,
#: differ by at most REORDER_C * n * U * sum|terms| (derived in
#: `test_nn.py::TestLeadingBatchAxis::test_batch_equals_per_sample`).
U = 2.0**-53
REORDER_C = 2.01


def ray_parity_inside(mesh_vertices, mesh_triangles, point, direction):
    """Point-in-solid test by ray-crossing parity (Moller-Trumbore)."""
    v0 = mesh_vertices[mesh_triangles[:, 0]]
    v1 = mesh_vertices[mesh_triangles[:, 1]]
    v2 = mesh_vertices[mesh_triangles[:, 2]]
    e1 = v1 - v0
    e2 = v2 - v0
    h = np.cross(direction, e2)
    a = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(a) > 1e-12
    f = np.zeros_like(a)
    f[ok] = 1.0 / a[ok]
    s = point - v0
    u = f * np.einsum("ij,ij->i", s, h)
    q = np.cross(s, e1)
    v = f * (q @ direction)
    t = f * np.einsum("ij,ij->i", e2, q)
    hits = ok & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-12)
    return int(hits.sum()) % 2 == 1


def analytic_boundary_distance(spec: PrimitiveSpec, point) -> float:
    """Signed distance proxy: positive inside, negative outside.

    Magnitudes are conservative (never larger than the true distance), which
    is all the margin filtering in tests needs.
    """
    x, y, z = point
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return min(
            d["width"] / 2 - abs(x), d["length"] / 2 - abs(y), d["height"] / 2 - abs(z)
        )
    if spec.kind is PrimitiveKind.SPHERE:
        return d["diameter"] / 2 - float(np.linalg.norm(point))
    radial = float(np.hypot(x, y))
    if spec.kind is PrimitiveKind.CYLINDER:
        return min(d["diameter"] / 2 - radial, d["height"] / 2 - abs(z))
    r_outer = d["outer_diameter"] / 2
    r_inner = r_outer - d["wall_thickness"]
    return min(r_outer - radial, radial - r_inner, d["height"] / 2 - abs(z))


def analytic_min_width(spec: PrimitiveSpec) -> float:
    """Closed-form minimal caliper width of a single primitive."""
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return min(d["width"], d["height"], d["length"])
    if spec.kind is PrimitiveKind.SPHERE:
        return d["diameter"]
    if spec.kind is PrimitiveKind.CYLINDER:
        return min(d["diameter"], d["height"])
    return min(d["outer_diameter"], d["height"])


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic near-uniform unit directions (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        ]
    )


def compose(outer: Pose, inner: Pose) -> Pose:
    """The pose mapping x -> outer(inner(x)); `Pose` canonicalizes the sign."""
    q = quat_normalize(quat_multiply(outer.rotation, inner.rotation))
    t = quat_rotate(outer.rotation, inner.translation) + outer.translation
    return Pose(q, t)


def parse_binary_stl(data: bytes):
    """Independent binary STL reader: returns (normals, triangles) float32.

    Layout per the format spec: 80-byte header, uint32 count, then 50-byte
    records of 12 little-endian floats plus a uint16 attribute.
    """
    assert len(data) >= 84, "file shorter than header + count"
    (count,) = struct.unpack_from("<I", data, 80)
    assert len(data) == 84 + 50 * count, "file size does not match triangle count"
    normals = np.zeros((count, 3), dtype=np.float32)
    triangles = np.zeros((count, 3, 3), dtype=np.float32)
    for i in range(count):
        values = struct.unpack_from("<12fH", data, 84 + 50 * i)
        normals[i] = values[0:3]
        triangles[i] = np.array(values[3:12], dtype=np.float32).reshape(3, 3)
    return normals, triangles


def parse_obj(text: str):
    """Independent OBJ reader: returns (vertices, faces, group_of_face)."""
    vertices = []
    faces = []
    groups = []
    current_group = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append([float(p) for p in parts[1:4]])
        elif parts[0] == "g":
            current_group = parts[1]
        elif parts[0] == "f":
            faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
            groups.append(current_group)
    return np.array(vertices), np.array(faces, dtype=int), groups


def random_spec(kind: PrimitiveKind, rng: np.random.Generator) -> PrimitiveSpec:
    """Random spec within the default production ranges (independent draw)."""
    from toygrasp.primitives import DimensionRanges, sample_primitive

    return sample_primitive(kind, DimensionRanges.default(), rng)


def identity_pose() -> Pose:
    return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def within_ranges(spec: PrimitiveSpec, ranges: DimensionRanges) -> bool:
    """True iff every dimension of `spec` lies in its closed interval of `ranges`."""
    return all(
        ranges.interval(spec.kind, name)[0] <= value <= ranges.interval(spec.kind, name)[1]
        for name, value in spec.dims.items()
    )


def grasp_feasibility(mesh, gripper: GripperModel | None = None) -> bool:
    """True iff the minimal caliper width fits inside the gripper's stroke."""
    gripper = gripper or GripperModel()
    width, _ = min_caliper_width(mesh)
    return gripper.min_opening <= width <= gripper.max_opening


def attention_weights(image, state, mode, flags=None) -> list[np.ndarray]:
    """Per-layer attention matrices (heads, T, T) of the encoder's full
    sequence (Det under its flag mask)."""
    _, cache = _forward(image, state, mode, flags, masked_reference=True, keep=True)
    attention_caches = cache[3][::2]
    return [c_att[7] for (_, _, c_att) in attention_caches]


def assemble_token(obs, state) -> np.ndarray:
    """One step's inputs concatenated and projected into the policy's width."""
    x = concat_observation(obs, state.config)[None, :]
    out, _ = _nn.mlp_fwd(x, state.params, "proj.")
    return out[0]


def policy_grad(history, state, upstream) -> dict[str, np.ndarray]:
    """Exact gradients of <upstream, policy_forward(history, state)> for every
    parameter: `train_step`'s forward and backward passes on one history."""
    stacked = policy._stack_histories([history], state.config)[0]
    _, cache = policy._forward(stacked, state, keep=True)
    return policy._backward(np.asarray(upstream, dtype=np.float64), cache, state)


def reference_train_step(batch, state, opt=None):
    """`policy.train_step` as it was before the flat parameter layout, kept
    as the reference the flat update must match bit for bit: the same
    forward and backward passes, then AdamW one tensor at a time, each
    result written into the state's arrays."""
    if not batch:
        raise ValueError("train_step requires a nonempty batch")
    opt = opt or OptimizerConfig()
    config = state.config
    chunk_shape = (config.chunk_len, config.action_dim)
    stacked = policy._stack_histories([history for history, _ in batch], config)
    targets = [np.asarray(target, dtype=np.float64) for _, target in batch]
    for target in targets:
        if target.shape != chunk_shape:
            raise ShapeMismatch(f"target shape {target.shape} != chunk {chunk_shape}")
    targets = np.stack(targets)

    chunks, cache = policy._forward(stacked, state, keep=True)
    total_loss = sum(policy.bc_l1_loss(chunks, targets).tolist())  # in batch order
    scale = 1.0 / (len(batch) * config.chunk_len * config.action_dim)
    grads = policy._backward(np.sign(chunks - targets) * scale, cache, state)

    state.opt_step += 1
    t = state.opt_step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, param in state.params.items():
        g = grads[name]
        state.opt_m[name][...] = BETA1 * state.opt_m[name] + (1.0 - BETA1) * g
        state.opt_v[name][...] = BETA2 * state.opt_v[name] + (1.0 - BETA2) * g * g
        m_hat = state.opt_m[name] / bias1
        v_hat = state.opt_v[name] / bias2
        param -= opt.learning_rate * (m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * param)
    return state, total_loss / len(batch)


def policy_fd_losses(history, state, upstream):
    """The pair (loss, batched_loss) of <upstream, policy_forward(history,
    state)> for `_nn.finite_difference_check`. The zero-argument loss reads
    the parameters in place; the batched loss runs a (B, *shape) stack of
    copies of one parameter in one forward pass, over a stand-in state whose
    table holds the stack, and returns the B losses, each summed elementwise
    as the zero-argument loss is."""
    stacked = policy._stack_histories([history], state.config)[0]

    def loss() -> float:
        return float((upstream * policy.policy_forward(history, state)).sum())

    def batched_loss(name, stack):
        if stack.ndim == 2:
            stack = stack[:, None, :]  # vectors as (B, 1, d)
        variant = SimpleNamespace(config=state.config, params={**state.params, name: stack})
        return (policy._forward(stacked, variant, keep=False)[0] * upstream).sum(axis=(-2, -1))

    return loss, batched_loss


def record_forward_keeps(monkeypatch) -> list[bool]:
    """Patch `_nn.transformer_fwd` to record the `keep` of every call, in
    order, into the returned list; the calls still run."""
    keeps = []
    original = _nn.transformer_fwd

    def recording(*args, keep=True, **kwargs):
        keeps.append(keep)
        return original(*args, keep=keep, **kwargs)

    monkeypatch.setattr(_nn, "transformer_fwd", recording)
    return keeps


def record_sublayer_rows(monkeypatch) -> list:
    """Patch `_nn.sublayer_fwd` to record the `rows` of every call, in order
    and as a list (None for every row), into the returned list; the calls
    still run."""
    seen = []
    original = _nn.sublayer_fwd

    def recording(s, x, params, heads, allowed, keep=True, rows=None):
        seen.append(None if rows is None else list(rows))
        return original(s, x, params, heads, allowed, keep=keep, rows=rows)

    monkeypatch.setattr(_nn, "sublayer_fwd", recording)
    return seen
