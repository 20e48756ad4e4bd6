"""weaksgd benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the benchmark imports ``src/weaksgd``
and nothing else). ``--trace 0`` times whole passes of the workload with no
wrappers installed and prints the end-to-end metrics; ``--trace 1`` times a
few passes untraced, then more with a wrapper at every layer boundary, and
prints the per-layer metrics. Pass times are scaled by a reference loop run
between configurations (see ``workloads.reference_s``), because the machine's
speed drifts. Every pass goes through the output gate. The
last line of standard output is the JSON result; the exit code is 0 only
when every output check passed. Details land in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5  # fresh interpreters timed per run; one of them also runs the memory pass
MIN_PASSES = 3  # timed passes per run, whatever --seconds says
MIN_TRACED = 2  # traced and untraced passes each, in a --trace 1 run
CHILD_TIMEOUT_S = 150

END_TO_END = {  # name -> unit, in the order BENCHMARK.json lists them
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "final_risk": "risk",
    "ok_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_passes(run, seconds: float, minimum: int) -> list:
    """Call ``run`` for passes until ``seconds`` would run out before the next ends."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or (
            time.perf_counter() + statistics.median(p.wall for p in passes) <= deadline):
        passes.append(run())
    return passes


class Gate:
    """Output checks over every pass of a run; counts trials that failed."""

    def __init__(self, wl):
        self.wl = wl
        self.reference: dict[str, str] = {}  # config label -> first pass's fingerprint
        self.outputs: dict = {}  # config label -> Output of the first passing pass
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, p, problems=()):
        """Check one pass right after it ran (its files are read, then removed).

        ``problems`` are failures of the whole pass found by the caller.
        """
        from workloads import Failure, finite

        wl = self.wl
        self.attempted += wl.pass_trials
        outputs, failed, messages = {}, 0, []
        for cfg, raw in zip(wl.configs, p.results):
            try:
                if isinstance(raw, Failure):
                    raise RuntimeError(raw)
                out = cfg.collect(raw)
                if not finite(out.risks):
                    raise ValueError("non-finite risk")
                first = self.reference.setdefault(cfg.label, out.fingerprint)
                if out.fingerprint != first:
                    raise ValueError("output bytes differ from the first pass of this seed")
            except Exception as exc:  # any defect in one configuration fails its trials
                failed += cfg.trials
                messages.append(f"{cfg.label}: {exc}")
                continue
            outputs[cfg.label] = out
        whole = list(problems)
        if p.queries != wl.pass_queries:
            whole.append(f"oracle ledger counts {p.queries} queries, expected {wl.pass_queries}")
        if len(outputs) == len(wl.configs):
            whole += wl.quality(outputs)
            self.outputs = self.outputs or outputs
        if whole:
            failed = wl.pass_trials
        self.failed += failed
        self.messages += messages + whole
        return p


def child(args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT]
                          + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, seed: int, seconds: float, gate: Gate):
    from workloads import run_pass

    children = [child([]) for _ in range(SETUP_SAMPLES - 1)]
    children.append(child(["--workload", wl.name, "--seed", str(seed),
                           "--workdir", os.path.join(OUT, "work", wl.name + "-child")]))
    passes = timed_passes(lambda: gate.check(run_pass(wl)), seconds, MIN_PASSES)
    values = {
        "steps_per_s": statistics.median(wl.pass_steps / p.scaled_wall for p in passes),
        "setup_s": statistics.median(c["import_s"] for c in children),
        "peak_mem_mb": children[-1]["peak_mem_mb"],
        "final_risk": wl.final_risk(gate.outputs) if gate.outputs else None,
        "ok_frac": 1.0 - gate.failed / gate.attempted,
    }
    samples = {"steps_per_s": len(passes), "setup_s": len(children), "peak_mem_mb": 1,
               "final_risk": 1, "ok_frac": gate.attempted}
    unscaled = {"steps_per_s": statistics.median(wl.pass_steps / p.wall for p in passes)}
    return values, samples, {"unscaled": unscaled}


def per_layer(wl, seconds: float, gate: Gate, spans_path: str):
    import layers
    from spans import Tracer
    from workloads import run_pass

    plain = timed_passes(lambda: gate.check(run_pass(wl)), seconds / 3.0, MIN_TRACED)
    tracer = Tracer()
    per_pass = []

    def traced_pass():
        first, before = tracer.mark(), dict(tracer.counts)
        p = run_pass(wl)
        view = tracer.view(first)
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        values = layers.layer_metrics(view, counts)
        per_pass.append(values)
        problems = []
        if values["oracle.queries"] != wl.pass_queries:
            problems.append(f"trace counts {values['oracle.queries']} queries, "
                            f"expected {wl.pass_queries}")
        missing = layers.missing_spans(view, counts, wl.spans, wl.strategies)
        if missing:
            problems.append("trace recorded no calls for: " + ", ".join(missing))
        problems += [f"{name} differs from the first traced pass"
                     for name in layers.EXACT_COUNTS if values[name] != per_pass[0][name]]
        return gate.check(p, problems)

    layers.install(tracer)
    try:
        traced = timed_passes(traced_pass, seconds * 2.0 / 3.0, MIN_TRACED)
    finally:
        tracer.restore()
    tracer.write_csv(spans_path)
    values = {}
    for name, first in per_pass[0].items():  # counts stay whole numbers
        middle = statistics.median_low if isinstance(first, int) else statistics.median
        values[name] = middle(v[name] for v in per_pass)
    values["trace.overhead_frac"] = (statistics.median(p.scaled_wall for p in traced)
                                     / statistics.median(p.scaled_wall for p in plain) - 1.0)
    samples = {name: len(traced) for name in values}
    samples["trace.overhead_frac"] = [len(traced), len(plain)]
    return values, samples, {}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` at the root, if there is one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weaksgd", "__init__.py")):
        print(f"perfbench: no weaksgd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import weaksgd

    if not os.path.abspath(weaksgd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported weaksgd from {weaksgd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import check_metric_name

    try:
        wl = workloads.make(args.workload)
    except KeyError as exc:
        print(f"perfbench: {exc.args[0]}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, "work", wl.name)
    shutil.rmtree(workdir, ignore_errors=True)
    wl.prepare(args.seed, workdir)
    gate = Gate(wl)
    stem = os.path.join(OUT, f"{wl.name}-trace{args.trace}")
    if args.trace:
        values, samples, extra = per_layer(wl, args.seconds, gate, stem + "-spans.csv")
        units = layers.METRICS
    else:
        values, samples, extra = end_to_end(wl, args.seed, args.seconds, gate)
        units = END_TO_END
    metrics = {check_metric_name(name): {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not gate.messages, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "samples": samples,
              **extra, "problems": gate.messages, "result": result}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in gate.messages:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("perfbench " + json.dumps({k: record[k] for k in ("env", "samples")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
