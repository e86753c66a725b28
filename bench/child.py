"""One benchmark child process: set up one workload, then run one pass.

Started by run.py. Prints `ready` on stdout once the workload is set up
(run.py times process start to that line as `setup_s`), then one JSON line
with the pass result. With `--setup-only` it exits after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="write the recorded spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import toygrasp
    import toygrasp.cli  # noqa: F401  (imports every module the tracer wraps)

    if Path(toygrasp.__file__).resolve().parent != ROOT / "src" / "toygrasp":
        print(f"toygrasp imported from {toygrasp.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    ready = workloads.setup(args.workload, args.seed, Path(args.work))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    paused = contextlib.nullcontext
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        paused = tracer.paused
    result = workloads.run_pass(args.workload, ready, paused).as_dict()
    if tracer is not None:
        with tracer.paused():
            result["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
