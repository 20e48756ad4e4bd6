"""One fresh interpreter: time ``import weaksgd``, optionally run one pass.

    python3 perfbench/child.py --root ROOT [--workload NAME --seed N --workdir DIR]

Prints one JSON line with ``import_s`` and, when a workload is given, the
process's peak resident memory after one untimed pass (``peak_mem_mb``).
Nothing but the standard library is imported before the timed import.
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import weaksgd
    import_s = time.perf_counter() - start
    if not os.path.abspath(weaksgd.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported weaksgd from {weaksgd.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s}
    if args.workload:
        import workloads  # beside this file, so on sys.path

        wl = workloads.make(args.workload)
        wl.prepare(args.seed, args.workdir)
        workloads.run_pass(wl)
        result["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
