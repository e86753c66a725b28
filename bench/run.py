"""toygrasp benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload toyset --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Every pass runs in a fresh child process
(bench/child.py) that imports toygrasp from `src/`, so set-up time and peak
memory are per workload. Passes run one after another (a closed loop with
one caller) until the next would end after `--seconds`.

With `--trace 0` the result holds the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` the per-layer metrics, from passes in which
tracing.Tracer wraps each layer, and the tracing overhead against untraced
passes alternating with them. Human-readable lines come first; the last stdout line is the
JSON result. Everything else a run records goes to
`.bench_work/<workload>/results.json`. See bench/README.md for what each
metric means and which layer is expected to move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import COVERAGE_TARGET, LAYERS, layer_name

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # pinned for every child; at most nproc
SETUP_ONLY_CHILDREN = 5  # extra set-ups so setup_s is a median of at least 7
MIN_PASSES = 2  # toyset compares digests.txt across repeats
HARD_LIMIT_S = 170.0  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # exit through the `finally` blocks that stop the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "toygrasp" / "__init__.py").is_file():
        print(f"bench: no toygrasp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            record = runner.traced(args.seconds)
        else:
            record = runner.untraced(args.seconds)
    except ChildStartFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    values = record["metrics"]
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        print(f"bench: BENCHMARK.json names metrics this run lacks: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    record.update(environment(), workload=args.workload, seed=args.seed, trace=args.trace)
    (work / "results.json").write_text(json.dumps(record, indent=2) + "\n")
    print(record["report"][0])
    for name, metric in metrics.items():
        if metric["value"] or not args.trace:  # a layer the workload never calls reads 0
            print(f"  {name:<50} {metric['value']:>12.6g} {metric['unit']}")
    for line in record["report"][1:]:
        print(line)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


class ChildStartFailure(RuntimeError):
    """A child exited before its workload was ready: nothing can be measured."""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.children = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def remaining(self) -> float:
        return max(5.0, HARD_LIMIT_S - self.elapsed())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A check made across passes; it counts as one operation."""
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def child(self, *, trace: int = 0, setup_only: bool = False):
        """Start one child; returns (setup seconds, pass result or None)."""
        index = self.children
        self.children += 1
        cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(self.work), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(self.work / f"spans_{index}.json")]
        with open(self.work / f"child_{index}.stderr", "w") as stderr:
            begin = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                    stderr=stderr, text=True)
            try:
                started, _, _ = select.select([proc.stdout], [], [], self.remaining())
                line = proc.stdout.readline() if started else ""
                setup_s = perf_counter() - begin
                if line.strip() != "ready":
                    raise ChildStartFailure(
                        f"child {index} stopped before its workload was ready; see {stderr.name}"
                    )
                try:
                    out, _ = proc.communicate(timeout=self.remaining())
                except subprocess.TimeoutExpired:
                    out = ""
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if setup_only:
            return setup_s, None
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ops = workloads.OPS_PER_PASS[self.workload]
        if result is None:
            self.attempted += ops
            self.failed += ops
            self.checks.append({"name": f"pass in child {index}", "ok": False,
                                "detail": f"exit {proc.returncode}; see {stderr.name}"})
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.checks += [dict(c, child=index) for c in result["checks"]]
        return setup_s, result

    def passes(self, seconds: float, *, traces: tuple[int, ...], minimum: int) -> list[dict]:
        """Passes, one child each and cycling through `traces`, until the next
        would end after `seconds`."""
        results, failures, longest = [], 0, 0.0
        attempt = 0
        while failures <= 2 and (len(results) < minimum or self.elapsed() + longest <= seconds):
            if self.elapsed() + longest > HARD_LIMIT_S:
                break
            trace = traces[attempt % len(traces)]
            attempt += 1
            begin = self.elapsed()
            setup_s, result = self.child(trace=trace)
            longest = max(longest, self.elapsed() - begin)
            if result is None:
                failures += 1
            else:
                results.append(dict(result, setup_s=setup_s, traced=bool(trace)))
        return results

    def common_checks(self, results: list[dict]) -> None:
        inputs = [workloads.inputs_digest(workloads.make_inputs(self.workload, s))
                  for s in (self.seed, self.seed, self.seed + 1)]
        self.check("same seed gives identical inputs", inputs[0] == inputs[1], inputs[0])
        self.check("another seed gives different inputs", inputs[0] != inputs[2], inputs[2])
        if self.workload == "toyset":
            digests = {r["info"].get("digests_sha256") for r in results}
            self.check("digests.txt identical across repeats",
                       len(results) >= 2 and len(digests) == 1 and None not in digests,
                       f"{len(results)} passes, {len(digests)} distinct")

    def untraced(self, seconds: float) -> dict:
        setups = [self.child(setup_only=True)[0] for _ in range(SETUP_ONLY_CHILDREN)]
        results = self.passes(seconds, traces=(0,), minimum=MIN_PASSES)
        self.common_checks(results)
        setups += [r["setup_s"] for r in results]
        metrics = {"setup_s": statistics.median(setups)}
        if results:
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
            metrics["pass_s"] = statistics.median(pass_seconds(self.workload, r) for r in results)
        detail = workload_metrics(self.workload, results)
        report = [f"{self.workload} seed {self.seed}: {len(results)} passes, "
                  f"{len(setups)} set-ups, {BLAS_THREADS} BLAS thread(s)"]
        report += [f"  {name:<50} {value:>12.6g} {unit}"
                   for name, (value, unit) in detail.items()]
        report += self.failure_lines()
        return self.record(metrics, report, results, detail=detail, setups=setups)

    def traced(self, seconds: float) -> dict:
        # traced and untraced passes alternate, so drift in machine speed
        # affects both sides of the overhead alike
        passes = self.passes(seconds, traces=(1, 0), minimum=2)
        self.common_checks(passes)
        results = [r for r in passes if r["traced"]]
        untraced = [r for r in passes if not r["traced"]]
        metrics = layer_metrics(self.workload, results)
        traced_pass = [pass_seconds(self.workload, r) for r in results]
        plain_pass = [pass_seconds(self.workload, r) for r in untraced]
        if traced_pass and plain_pass:
            plain = statistics.median(plain_pass)
            metrics["trace.overhead_s"] = statistics.median(traced_pass) - plain
        gaps = [c for r in results for c in r["trace"]["commands"]
                if c["share"] < COVERAGE_TARGET]
        absent = sorted({name for r in results for name in r["trace"]["absent"]})
        report = [f"{self.workload} seed {self.seed}: {len(results)} traced passes, "
                  f"{len(untraced)} untraced"]
        if "trace.overhead_s" in metrics:
            report.append(f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s on a "
                          f"{plain:.4f} s untraced pass (medians)")
        report += [f"  coverage gap: {g['command']} spans {g['busy_s']:.4f} s, child spans "
                   f"cover {g['share']:.1%}" for g in gaps]
        report += [f"  absent layer: {name}" for name in absent]
        report += self.failure_lines()
        return self.record(metrics, report, passes, coverage_gaps=gaps, absent=absent)

    def failure_lines(self) -> list[str]:
        ratio = self.failed / self.attempted
        lines = [f"  {'fail_ratio':<50} {ratio:>12.6g} ({self.failed}/{self.attempted})"]
        lines += [f"  FAILED {c['name']}: {c['detail']}" for c in self.checks if not c["ok"]]
        return lines

    def record(self, metrics: dict, report: list[str], results: list[dict], **extra) -> dict:
        for r in results:
            r["info"].pop("act_ms", None)
        return {
            "correct": self.failed == 0 and bool(results),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "report": report,
            "checks": self.checks,
            "passes": results,
            **extra,
        }


def pass_seconds(workload: str, result: dict) -> float:
    """The time a user waits for one pass (see README)."""
    s = result["stages"]
    if workload == "toyset":
        return s["generate_s"] + s["analyze_s"] + s["evaluate_s"]
    if workload == "encoder_verify":
        return s["verify_s"]
    # steps to target vary by seed; time per TRAIN_STEPS_UNIT steps does not
    steps = result["info"]["steps_to_target"]
    return s["train_s"] * workloads.TRAIN_STEPS_UNIT / steps + s["act_s"]


def workload_metrics(workload: str, results: list[dict]) -> dict:
    """The workload's own end-to-end figures, printed beside the common ones."""
    if not results:
        return {}
    stages = [r["stages"] for r in results]
    if workload == "toyset":
        return {name: (statistics.median(s[name] for s in stages), "s")
                for name in ("generate_s", "analyze_s", "evaluate_s")}
    if workload == "encoder_verify":
        return {
            "verify_s": (statistics.median(s["verify_s"] for s in stages), "s"),
            "fd_entries_per_s": (statistics.median(r["info"]["fd_entries"] / r["stages"]["gradient_s"]
                                     for r in results), "1/s"),
        }
    act = sorted(ms for r in results for ms in r["info"]["act_ms"])
    q = statistics.quantiles(act, n=10, method="inclusive")
    return {
        "train_to_target_s": (statistics.median(s["train_s"] for s in stages), "s"),
        "train_steps_per_s": (statistics.median(r["info"]["steps_to_target"] / r["stages"]["train_s"]
                                  for r in results), "1/s"),
        "act_p50_ms": (statistics.median(act), "ms"),
        "act_p90_ms": (q[8], "ms"),
        "act_samples": (len(act), "count"),
    }


def layer_metrics(workload: str, results: list[dict]) -> dict:
    """Per-pass layer figures from the traced passes, median over passes."""
    per_pass = []
    for r in results:
        t = r["trace"]
        layers, counts = t["layers"], t["counts"]
        values = {}
        for module, func in LAYERS:
            name = layer_name(module, func)
            entry = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in ("calls", "busy_s", "self_s"):
                values[f"{name}.{key}"] = entry[key]
        toys = workloads.N_TOYS if workload == "toyset" else 0
        values["mesh.mesh_toy.calls_per_toy"] = (
            values["mesh.mesh_toy.calls"] / toys if toys else 0.0)
        values["analysis.min_caliper_width.calls_per_toy"] = (
            values["analysis.min_caliper_width.calls"] / toys if toys else 0.0)
        topologies = t["distinct_topologies"]
        values["mesh.is_watertight.calls_per_topology"] = (
            values["mesh.is_watertight.calls"] / topologies if topologies else 0.0)
        entries = counts.get("nn.finite_difference_check.entries", 0)
        values["nn.finite_difference_check.entries"] = entries
        values["nn.finite_difference_check.loss_evals_per_entry"] = (
            counts.get("nn.finite_difference_check.loss_evals", 0) / entries if entries else 0.0)
        for key in ("io.stl_bytes.bytes", "io.obj_bytes.bytes", "io.manifest_json_bytes.bytes"):
            values[key] = counts.get(key, 0)
        values["policy.steps_to_target"] = r["info"].get("steps_to_target", 0)
        values["cli.write_hash_s"] = t["write_hash_s"]
        values["cli.coverage"] = min((c["share"] for c in t["commands"]), default=1.0)
        per_pass.append(values)
    if not per_pass:
        return {}
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "toygrasp_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


if __name__ == "__main__":
    sys.exit(main())
