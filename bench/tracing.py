"""In-memory span recorder that wraps toygrasp's public functions from outside.

Every wrapped name is rebound at each toygrasp module that holds the original
function object (for example both `toygrasp.io.mesh_toy` and
`toygrasp.cli.mesh_toy`), so no file under `src/` changes. A span is
(name, start, end, parent index); spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: Layer boundaries, as (module under `toygrasp`, function name).
LAYERS: tuple[tuple[str, str], ...] = (
    ("cli", "cmd_generate"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_detpool_check"),
    ("cli", "cmd_schedule"),
    ("cli", "cmd_aggregate"),
    ("config", "load_config"),
    ("assembler", "generate_set"),
    ("assembler", "connectivity_check"),
    ("mesh", "mesh_toy"),
    ("mesh", "mesh_volume"),
    ("mesh", "is_watertight"),
    ("analysis", "min_caliper_width"),
    ("analysis", "analyze_toy"),
    ("analysis", "write_feasibility_csv"),
    ("io", "build_manifest"),
    ("io", "manifest_json_bytes"),
    ("io", "stl_bytes"),
    ("io", "obj_bytes"),
    ("io", "read_manifest"),
    ("io", "record_to_toy"),
    ("detpool", "encode"),
    ("detpool", "encode_grad"),
    ("checks", "check_background_invariance"),
    ("checks", "check_single_token_oracle"),
    ("checks", "check_gradients"),
    ("checks", "check_pooling_contrast"),
    ("_nn", "transformer_fwd"),
    ("_nn", "transformer_bwd"),
    ("_nn", "finite_difference_check"),
    ("policy", "train_step"),
    ("policy", "policy_forward"),
    ("evalharness", "make_schedule"),
    ("evalharness", "write_schedule"),
    ("evalharness", "read_outcomes_csv"),
    ("evalharness", "aggregate"),
)

#: Write and hash boundaries inside the CLI commands. They are spans so that
#: a command's remaining self time is what no named boundary accounts for.
WRITE_HASH = ("cli._sha256", "fs.write_bytes", "fs.write_text", "fs.read_bytes")

#: Share of each `cli.cmd_*` span that its child spans must cover.
COVERAGE_TARGET = 0.95


def layer_name(module: str, func: str) -> str:
    """Span and metric name of a layer; metric names may not start with `_`."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.topologies: set[bytes] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._enabled = True

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def paused(self):
        """Let the benchmark's own checks call toygrasp without spans."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed layer that exists; record the ones that do not."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "toygrasp"]
        for module_name, func in LAYERS + (("cli", "_sha256"),):
            name = layer_name(module_name, func)
            module = sys.modules.get(f"toygrasp.{module_name}")
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            before, after = _OBSERVERS.get(name, (None, None))
            wrapped = self.wrap(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        for method in ("write_bytes", "write_text", "read_bytes"):
            original = getattr(pathlib.Path, method)
            setattr(pathlib.Path, method, self.wrap(f"fs.{method}", original))

    def summary(self) -> dict:
        """Per-layer calls, busy and self time, plus the CLI coverage check."""
        n = len(self.spans)
        children: list[list[int]] = [[] for _ in range(n)]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        layers: dict[str, dict[str, float]] = {}
        commands = []
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = _covered([(self.spans[c][1], self.spans[c][2]) for c in children[i]])
            entry = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered
            if name.startswith("cli.cmd_"):
                commands.append(
                    {
                        "command": name,
                        "busy_s": end - start,
                        "covered_s": covered,
                        "share": covered / (end - start) if end > start else 1.0,
                    }
                )
        write_hash_s = sum(e - s for name, s, e, _ in self.spans if name in WRITE_HASH)
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "distinct_topologies": len(self.topologies),
            "absent": list(self.absent),
            "commands": commands,
            "write_hash_s": write_hash_s,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _count_bytes(key):
    def after(tracer, args, kwargs, result):
        tracer.add(key, len(result))

    return after


def _note_topology(tracer, args, kwargs, result):
    mesh = args[0] if args else kwargs["mesh"]
    tracer.topologies.add(hashlib.sha1(mesh.triangles.tobytes()).digest())


def _count_loss_evals(tracer, args, kwargs):
    def counted(loss_fn):
        def loss():
            tracer.add("nn.finite_difference_check.loss_evals", 1)
            return loss_fn()

        return loss

    if args:
        args = (counted(args[0]),) + tuple(args[1:])
    else:
        kwargs = {**kwargs, "loss_fn": counted(kwargs["loss_fn"])}
    return args, kwargs


def _count_entries(tracer, args, kwargs, result):
    tracer.add("nn.finite_difference_check.entries", result[0])


_OBSERVERS = {
    "io.stl_bytes": (None, _count_bytes("io.stl_bytes.bytes")),
    "io.obj_bytes": (None, _count_bytes("io.obj_bytes.bytes")),
    "io.manifest_json_bytes": (None, _count_bytes("io.manifest_json_bytes.bytes")),
    "mesh.is_watertight": (None, _note_topology),
    "nn.finite_difference_check": (_count_loss_evals, _count_entries),
}
