"""Inputs, passes and output checks of the three benchmark workloads.

Each workload is a closed loop: one caller in one process, no `--jobs` and
no worker threads. Its inputs come only from the seed (`make_inputs`), which
needs numpy alone; the pass functions run inside a child process that has
imported toygrasp from the checkout's `src/`.

- toyset: `generate` on the default 250-toy config, `analyze` on that
  manifest, `schedule` for all three protocols, `aggregate` on seeded 0/1
  outcomes. Geometry, io, analysis and evalharness do the work; `_nn` none.
- encoder_verify: `detpool-check` at the default config (8 finite-difference
  entries per tensor). `_nn` forward passes do the work; no geometry runs.
- policy_loop: train `PolicyConfig.tiny()` to 10% of its initial loss, then
  a closed control loop of Det-mode `encode` x2 plus `policy_forward` at
  library defaults. `_nn` runs with backward passes and parameter writes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOADS = ("toyset", "encoder_verify", "policy_loop")

N_TOYS = 250  # the default composition's total
TRIALS_PER_OBJECT = 16  # outcomes per object fed to `aggregate`
PROTOCOL_TRIALS = {"sim_maniskill": 4000, "franka_real": 4000, "h12_humanoid": 1250}
DETPOOL_CHECKS = 4
TRAIN_SAMPLES = 16
TRAIN_TARGET = 0.10  # stop when the loss is at most this share of the first
TRAIN_STEP_CAP = 500
TRAIN_STEPS_UNIT = 100  # policy_loop's pass_s counts training time per this many steps
CONTROL_STEPS = 250
IMAGE_POOL = 8  # distinct images per camera, cycled by the control loop

#: Operations one pass attempts; a crashed pass counts all of them as failed.
OPS_PER_PASS = {
    "toyset": 2 + len(PROTOCOL_TRIALS) + 1,
    "encoder_verify": DETPOOL_CHECKS,
    "policy_loop": 1 + CONTROL_STEPS,
}


# ---------------------------------------------------------------------------
# inputs (numpy only)
# ---------------------------------------------------------------------------

def toy_ids() -> list[str]:
    return [f"toy_{i:04d}" for i in range(N_TOYS)]


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of a workload, as file bytes or arrays, from the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "toyset":
        config = {"generation": {"master_seed": seed}}
        lines = ["object,trial_index,success"]
        for object_id in toy_ids():
            p = rng.uniform(0.0, 1.0)
            lines += [f"{object_id},{t},{int(rng.random() < p)}" for t in range(TRIALS_PER_OBJECT)]
        return {
            "config.json": json.dumps(config).encode(),
            "objects.txt": ("\n".join(toy_ids()) + "\n").encode(),
            "outcomes.csv": ("\n".join(lines) + "\n").encode(),
        }
    if workload == "encoder_verify":
        return {"config.json": json.dumps({"encoder": {"seed": seed}}).encode()}
    # policy_loop; shapes follow PolicyConfig.tiny() and the library defaults
    tiny_h, tiny_cams, tiny_e, tiny_p, tiny_out = 4, 1, 8, 4, 16
    cams, history, embed, proprio = 2, 16, 64, 8
    return {
        "train_matrix": rng.normal(size=(tiny_p, tiny_out)) * 0.5,
        "train_embeddings": rng.normal(size=(TRAIN_SAMPLES, tiny_h, tiny_cams, tiny_e)),
        "train_proprio": rng.uniform(-1.0, 1.0, (TRAIN_SAMPLES, tiny_h, tiny_p)),
        "images": rng.uniform(0.0, 1.0, (IMAGE_POOL, cams, 32, 32, 3)),
        "mask_corner": rng.integers(0, 16, 2),
        "history_embeddings": rng.normal(size=(history, cams, embed)),
        "history_proprio": rng.uniform(-1.0, 1.0, (history, proprio)),
    }


def inputs_digest(inputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(inputs):
        value = inputs[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            value = value.tobytes()
        h.update(value)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# passes (run in a child process with toygrasp imported)
# ---------------------------------------------------------------------------

class Pass:
    """One pass's timings, operation counts, checks and informational data."""

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.info: dict = {}

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        if not ok or detail:
            self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def as_dict(self) -> dict:
        return {
            "stages": self.stages,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "info": self.info,
        }


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    from toygrasp import cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed operation, not a crash
        code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    return code, out.getvalue() + err.getvalue(), elapsed


def _round_half_up(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def setup(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files and build what the pass needs."""
    inputs = make_inputs(workload, seed)
    if workload != "policy_loop":
        for name, data in inputs.items():
            (work / name).write_bytes(data)
        return {"seed": seed, "work": work}

    from toygrasp import (
        EncoderConfig,
        PolicyConfig,
        StepObservation,
        init_encoder,
        init_policy,
        mask_to_flags,
    )

    tiny = PolicyConfig.tiny()
    data = []
    for emb, prop in zip(inputs["train_embeddings"], inputs["train_proprio"]):
        history = [StepObservation(e, p) for e, p in zip(emb, prop)]
        target = (history[-1].proprio @ inputs["train_matrix"]).reshape(
            tiny.chunk_len, tiny.action_dim
        )
        data.append((history, target))
    encoder_config = EncoderConfig()
    mask = np.zeros((encoder_config.image_height, encoder_config.image_width), dtype=bool)
    top, left = (int(v) for v in inputs["mask_corner"])
    mask[top : top + 9, left : left + 9] = True
    return {
        "train_data": data,
        "train_state": init_policy(tiny, seed),
        "encoder": init_encoder(encoder_config, seed),
        "policy": init_policy(PolicyConfig(), seed),
        "flags": mask_to_flags(mask, encoder_config),
        "images": inputs["images"],
        "history": [
            StepObservation(e, p)
            for e, p in zip(inputs["history_embeddings"], inputs["history_proprio"])
        ],
    }


def run_pass(workload: str, ready: dict, paused) -> Pass:
    """One pass of the workload. `paused()` is a context in which the
    benchmark's own checks run untraced and untimed."""
    return {"toyset": _toyset, "encoder_verify": _encoder_verify, "policy_loop": _policy_loop}[
        workload
    ](ready, paused)


def _toyset(ready: dict, paused) -> Pass:
    result = Pass()
    work, seed = ready["work"], ready["seed"]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = str(work / "config.json")

    code, text, result.stages["generate_s"] = _run_cli(
        ["generate", "--config", config, "--out", str(out)]
    )
    with paused():
        ok = code == 0
        ok &= result.check("connectivity failures 0", "connectivity failures: 0" in text)
        ok &= _check_generate_outputs(result, out)
        result.op("generate", ok, "" if code == 0 else f"exit {code}: {text[-300:]}")

    csv_path = work / "analysis.csv"
    code, text, result.stages["analyze_s"] = _run_cli(
        ["analyze", "--manifest", str(out / "manifest.json"), "--config", config,
         "--out", str(csv_path)]
    )
    with paused():
        ok = code == 0 and csv_path.is_file()
        if ok:
            with open(csv_path, newline="") as handle:
                rows = len(list(csv.reader(handle))) - 1
            ok = result.check("analysis csv has 250 rows", rows == N_TOYS, f"{rows} rows")
            result.info["analysis_csv_sha256"] = _sha256_file(csv_path)
        result.op("analyze", ok, "" if code == 0 else f"exit {code}: {text[-300:]}")

    evaluate_s = 0.0
    for protocol, expected in PROTOCOL_TRIALS.items():
        path = work / f"schedule_{protocol}.json"
        code, text, elapsed = _run_cli(
            ["schedule", "--protocol", protocol, "--objects", str(work / "objects.txt"),
             "--seed", str(seed), "--out", str(path)]
        )
        evaluate_s += elapsed
        with paused():
            ok = code == 0 and path.is_file()
            if ok:
                trials = len(json.loads(path.read_text())["trials"])
                ok = result.check(
                    f"{protocol} schedule has {expected} trials", trials == expected,
                    f"{trials} trials",
                )
                result.info[f"schedule_{protocol}_sha256"] = _sha256_file(path)
            result.op(f"schedule {protocol}", ok, "" if code == 0 else f"exit {code}: {text[-300:]}")

    code, text, elapsed = _run_cli(["aggregate", "--outcomes", str(work / "outcomes.csv")])
    evaluate_s += elapsed
    with paused():
        expected = _round_half_up(_own_mean(work / "outcomes.csv"))
        match = re.search(r"^overall: (\S+)$", text, re.MULTILINE)
        got = match.group(1) if match else None
        ok = code == 0 and result.check(
            "aggregate overall equals own mean", got == expected, f"cli {got}, own {expected}"
        )
        result.op("aggregate", ok, "" if code == 0 else f"exit {code}: {text[-300:]}")
    result.stages["evaluate_s"] = evaluate_s
    return result


def _check_generate_outputs(result: Pass, out: Path) -> bool:
    from toygrasp.io import read_manifest

    manifest_path, digests_path = out / "manifest.json", out / "digests.txt"
    if not (manifest_path.is_file() and digests_path.is_file()):
        return result.check("generate wrote manifest and digests", False)
    manifest = read_manifest(manifest_path)
    ids = [t.id for t in manifest.toys]
    ok = result.check("manifest reads back 250 toys", ids == toy_ids(), f"{len(ids)} toys")
    lines = digests_path.read_text().splitlines()
    mismatched = [
        name for sha, name in (line.split("  ", 1) for line in lines)
        if not (out / name).is_file() or _sha256_file(out / name) != sha
    ]
    ok &= result.check("digests list 501 files", len(lines) == 2 * N_TOYS + 1, f"{len(lines)} files")
    ok &= result.check(
        "every digest matches its file", not mismatched, f"mismatched: {mismatched[:3]}"
    )
    result.info["manifest_sha256"] = _sha256_file(manifest_path)
    result.info["digests_sha256"] = _sha256_file(digests_path)
    return ok


def _own_mean(path: Path) -> float:
    outcomes: dict[str, list[int]] = {}
    with open(path, newline="") as handle:
        for row in list(csv.reader(handle))[1:]:
            outcomes.setdefault(row[0], []).append(int(row[2]))
    rates = [100.0 * sum(v) / len(v) for v in outcomes.values()]
    return sum(rates) / len(rates)


def _encoder_verify(ready: dict, paused) -> Pass:
    from toygrasp import checks

    result = Pass()
    gradient_s = []
    check_gradients = checks.check_gradients

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return check_gradients(*args, **kwargs)
        finally:
            gradient_s.append(perf_counter() - start)

    checks.check_gradients = timed
    try:
        code, text, verify_s = _run_cli(
            ["detpool-check", "--config", str(ready["work"] / "config.json")]
        )
    finally:
        checks.check_gradients = check_gradients
    passed = [line for line in text.splitlines() if line.startswith("PASS")]
    for i in range(DETPOOL_CHECKS):
        detail = passed[i] if i < len(passed) else f"exit {code}: {text[-300:]}"
        result.op(f"detpool check {i + 1}", i < len(passed), detail)
    match = re.search(r"(\d+) entries checked", text)
    result.info["fd_entries"] = int(match.group(1)) if match else 0
    result.stages["verify_s"] = verify_s
    result.stages["gradient_s"] = sum(gradient_s)
    return result


def _policy_loop(ready: dict, paused) -> Pass:
    from toygrasp import OptimizerConfig, PoolingMode, StepObservation, encode, policy_forward
    from toygrasp import train_step

    result = Pass()
    state, data = ready["train_state"], ready["train_data"]
    opt = OptimizerConfig(learning_rate=1e-3)
    start = perf_counter()
    initial = loss = None
    steps = 0
    while steps < TRAIN_STEP_CAP:
        _, loss = train_step(data, state, opt)
        steps += 1
        initial = loss if initial is None else initial
        if loss <= TRAIN_TARGET * initial:
            break
    result.stages["train_s"] = perf_counter() - start
    reached = loss <= TRAIN_TARGET * initial
    result.op(
        "train to target", reached,
        f"{steps} steps, loss {initial:.4f} -> {loss:.4f}",
    )
    result.info["steps_to_target"] = steps

    encoder, policy, flags = ready["encoder"], ready["policy"], ready["flags"]
    history, images = list(ready["history"]), ready["images"]
    proprio = history[-1].proprio
    act_ms = []
    start = perf_counter()
    for t in range(CONTROL_STEPS):
        step_start = perf_counter()
        try:
            embeddings = np.stack(
                [encode(image, encoder, PoolingMode.DET, flags) for image in images[t % IMAGE_POOL]]
            )
            history = history[1:] + [StepObservation(embeddings, proprio)]
            chunk = policy_forward(history, policy)
            ok, detail = bool(np.isfinite(chunk).all()), ""
        except Exception as exc:  # a raising step is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        act_ms.append(1e3 * (perf_counter() - step_start))
        result.op(f"act step {t}", ok, detail)
        if ok:
            proprio = chunk[0, : proprio.shape[0]]
    result.stages["act_s"] = perf_counter() - start
    result.info["act_ms"] = act_ms
    return result
