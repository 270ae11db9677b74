"""Benchmark of ``uncerteq verify``: fresh-process passes, checked and timed.

    python3 perfbench/run.py --workload grid3d|grid1d|gridfree|all \
        --seed 0 --seconds 40 --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  One client, closed loop: passes run one after another, each a
fresh interpreter (passproc.py) that imports ``uncerteq.cli`` and calls
``run_suite`` for every suite config of the workload, as the CLI would.
BLAS and OpenMP thread counts are set to 1 in the pass process.

``--trace 0`` runs passes for ``--seconds`` and prints the end-to-end
metrics, each the median over the passes.  Pass k uses the suite seed
``seed * 1000003 + k``, so a run averages over many optimizer starts.
Times are reported in seconds at reference speed: the pass process times
a reference kernel (reference.py) just before and just after its suites,
and run.py scales the pass's times by the kernel's nominal time over its
measured time.  On a shared host the speed of a core changes by up to
twofold within seconds, and the ratio cancels most of that.  The raw
seconds are printed beside.
``--trace 1`` alternates untraced and traced passes at the single suite
seed ``seed * 1000003``, asserts their report bodies are identical, and
prints the per-layer metrics (medians over the traced passes) and the
tracing overhead.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("pass_s", "s"), ("pass_cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("accuracy_digits", "digits"),
    ("passed_frac", "fraction"))


def pass_seed(seed: int, k: int) -> int:
    return seed * 1000003 + k


class Runner:
    """Starts pass processes for one checkout and checks what they return."""

    def __init__(self, root: str, spec: dict):
        self.root = root
        self.spec = spec
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.out_dir = os.path.join(HERE, "_out")
        os.makedirs(self.out_dir, exist_ok=True)

    def warm_up(self) -> None:
        """Compile the program's bytecode once, as an install would."""
        subprocess.run([sys.executable, "-c", "import uncerteq.cli"],
                       env=self.env, cwd=self.root, timeout=PASS_TIMEOUT_S)

    def run_pass(self, workload: str, seed: int, trace: bool) -> dict:
        """One pass process; returns its measurements and checked configs.

        An untraced pass also returns its times at reference speed.
        """
        expected = self.spec["workloads"][workload]["configs"]
        spans_file = os.path.join(self.out_dir, f"{workload}.spans.json")
        cmd = [sys.executable, os.path.join(HERE, "passproc.py"), workload,
               str(seed), "1" if trace else "0", spans_file]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            raw = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            error = None if raw else f"pass process failed: {proc.stderr[-2000:]}"
        except subprocess.TimeoutExpired:
            raw, error = None, f"pass process exceeded {PASS_TIMEOUT_S} s"
        if raw is None:
            return {"seed": seed, "problems": [], "checked": [
                checks.check_config(e, {"error": error}) for e in expected]}

        checked = [checks.check_config(e, r)
                   for e, r in zip(expected, raw["configs"])]
        problems = [c["problem"] for c in checked if c["problem"]]
        src = os.path.join(self.root, "src", "")
        if not os.path.abspath(raw["uncerteq_file"]).startswith(src):
            problems.append(f"imported {raw['uncerteq_file']}, not {src}")
        if raw["wrappers"]:
            problems.append(f"timed pass carries wrappers: {raw['wrappers']}")
        rows = [row for cfg in raw["configs"] for row in cfg.get("reports", ())]
        out = {
            "seed": seed,
            "problems": problems,
            "checked": checked,
            "bodies": [cfg.get("body_sha256") for cfg in raw["configs"]],
            "setup_raw_s": raw["t_import"] - t_spawn,
            "pass_raw_s": raw["pass_s"],
            "pass_cpu_raw_s": raw["cpu_s"],
            "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
            "accuracy_digits": checks.accuracy_digits(rows),
            "max_rel_residual": max((row[2] for row in rows), default=0.0),
        }
        if raw["ref_s"]:
            out["ref_s"] = statistics.fmean(raw["ref_s"])
            for name in ("setup_s", "pass_s", "pass_cpu_s"):
                out[name] = reference.at_reference_speed(
                    out[name.replace("_s", "_raw_s")], raw["ref_s"])
        if trace:
            with open(spans_file) as fh:
                recorded = json.load(fh)
            out["layers"] = spans.layer_metrics(recorded)
            out["top"] = spans.top_self_times(recorded)
        return out


def _run_loop(seconds: float, next_pass) -> list[dict]:
    """Start passes until the next one would end past ``seconds``."""
    t_start = time.monotonic()
    passes: list[dict] = []
    while True:
        t0 = time.monotonic()
        passes.append(next_pass(len(passes)))
        last = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and time.monotonic() - t_start + last > seconds:
            return passes


def _median(passes: list[dict], key: str) -> float:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else math.nan


def _outcome(passes: list[dict], metrics: dict, problems: list[str]) -> dict:
    """Print failed suite calls and wrong outputs; build the result object.

    A suite call that raised is a failed operation; a wrong output, from any
    pass, makes the run incorrect.
    """
    failures = [(p["seed"], c["error"].strip().splitlines()[-1])
                for p in passes for c in p["checked"] if c["error"]]
    problems = sorted({q for p in passes for q in p["problems"]}) + problems
    for seed, error in failures:
        print(f"  FAILED at suite seed {seed}: {error}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {"correct": not problems,
            "attempted": sum(len(p["checked"]) for p in passes),
            "failed": len(failures), "metrics": metrics}


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    passes = _run_loop(seconds, lambda k: runner.run_pass(
        workload, pass_seed(seed, k), trace=False))
    good = [p for p in passes if "pass_s" in p]
    metrics = {name: {"value": _median(good, name), "unit": unit}
               for name, unit in END_TO_END}
    failing, expected = checks.failure_counts(
        [c for p in passes for c in p["checked"]])
    metrics["passed_frac"]["value"] = 1.0 - failing / expected
    failing_seeds: dict[str, list[int]] = {}
    for p in good:
        for c in p["checked"]:
            for identity in c["failing_ids"]:
                failing_seeds.setdefault(identity, []).append(p["seed"])

    print(f"{workload}: {len(passes)} passes, suite seeds "
          f"{pass_seed(seed, 0)}..{pass_seed(seed, len(passes) - 1)}, "
          "one client, closed loop; reference kernel median "
          f"{1e3 * _median(good, 'ref_s'):.4g} ms")
    for name, unit in END_TO_END:
        line = f"  {name:<16} {metrics[name]['value']:.6g} {unit}"
        if name in ("setup_s", "pass_s", "pass_cpu_s"):
            raw = _median(good, name.replace("_s", "_raw_s"))
            line += f"  (median of {len(good)}; raw median {raw:.6g} s"
            if name == "pass_s":
                tail = checks.tail_percentile([p["pass_s"] for p in good])
                line += (f"; p{tail[0]} {tail[1]:.6g} s with >=10 beyond" if tail
                         else "; no percentile has 10 samples beyond it")
            line += ")"
        elif name == "accuracy_digits":
            line += f"  (max_rel_residual median {_median(good, 'max_rel_residual'):.3g})"
        elif name == "passed_frac":
            line += f"  (failed_frac {failing}/{expected} identity reports)"
        print(line)
    for identity, seeds in sorted(failing_seeds.items()):
        where = ("" if len(seeds) == len(good)
                 else f", suite seeds {' '.join(map(str, seeds))}")
        print(f"  failing {identity}: {len(seeds)} of {len(good)} passes{where}")
    return _outcome(passes, metrics,
                    [] if good else ["no pass process returned a result"])


def traced_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    suite_seed = pass_seed(seed, 0)
    passes = _run_loop(seconds, lambda k: runner.run_pass(
        workload, suite_seed, trace=bool(k % 2)))
    if len(passes) % 2:
        passes.append(runner.run_pass(workload, suite_seed, trace=True))
    bodies = {json.dumps(p.get("bodies")) for p in passes}
    problems = [] if len(bodies) == 1 else [
        "report bodies differ between traced and untraced passes at one seed"]
    plain = [p for p in passes[0::2] if "pass_raw_s" in p]
    traced = [p for p in passes[1::2] if "layers" in p]
    metrics = {}
    for name in (traced[0]["layers"] if traced else ()):
        metrics[name] = {"value": statistics.median(
            p["layers"][name] for p in traced), "unit": spans.unit_of(name)}
    metrics["trace.overhead_s"] = {
        "value": _median(traced, "pass_raw_s") - _median(plain, "pass_raw_s"),
        "unit": "s"}

    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced passes "
          f"at suite seed {suite_seed}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    if traced:
        print("  largest self times in the last traced pass:")
        for name, calls, own in traced[-1]["top"]:
            print(f"    {name:<44} {calls:>8} calls {own:9.4f} s")
    return _outcome(passes, metrics, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uncerteq", "cli.py")):
        print(f"error: no uncerteq source under {root}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if not set(names) <= set(spec["workloads"]):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    runner = Runner(root, spec)
    runner.warm_up()
    run = traced_run if args.trace else timed_run
    results = {name: run(runner, name, args.seed, args.seconds) for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
