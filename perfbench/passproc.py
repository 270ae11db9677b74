"""One pass: a fresh interpreter that runs a workload as ``uncerteq verify`` would.

    python3 perfbench/passproc.py <workload> <seed> <trace 0|1> [<spans file>]

The process imports ``uncerteq.cli`` (the import the console script makes),
then calls ``run_suite`` once per suite config of the workload, each with
``SuiteConfig.seed = <seed>``.  It prints one JSON line: the wall-clock
moment the import returned, the pass wall and CPU time, peak RSS, and per
config either the error or the report rows plus a hash of the report body.
An untraced pass also times the reference kernel (reference.py) just
before and just after the suites, outside the timed interval.
With trace 1 the FFT entry points are wrapped before the import, the
program after it, and the spans are written to the spans file at exit.
run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _summarize(payload: dict) -> dict:
    body = {k: v for k, v in payload.items() if k != "header"}
    text = json.dumps(body, sort_keys=True)
    return {"error": None,
            "reports": [[r["identity_id"], r["passed"], r["rel_residual"],
                         r["tol"]] for r in payload["reports"]],
            "body_sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        spans.install_fft_wrappers(recorder)

    import uncerteq.cli
    t_import = time.monotonic()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "workloads.json")) as fh:
        configs = json.load(fh)["workloads"][workload]["configs"]
    cli = uncerteq.cli
    if recorder is not None:
        spans.install_uncerteq_wrappers(recorder)

    if not trace:
        import reference
        reference.reference_s(reps=1)  # warm-up
        ref_before = reference.reference_s()
    outcomes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for entry in configs:
        cfg = cli.SuiteConfig(seed=seed, **entry["config"])
        try:
            outcomes.append(cli.run_suite(cfg)[1])
        except Exception:  # a raising suite is counted, not fatal
            outcomes.append(traceback.format_exc(limit=3))
    t1 = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    ref_s = [] if trace else [ref_before, reference.reference_s()]

    import spans
    result = {
        "uncerteq_file": uncerteq.__file__,
        "t_import": t_import,
        "pass_s": t1 - t0,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime
                  - usage0.ru_utime - usage0.ru_stime),
        "ref_s": ref_s,
        "maxrss_kb": usage1.ru_maxrss,
        "configs": [_summarize(o) if isinstance(o, dict) else {"error": o}
                    for o in outcomes],
        "wrappers": [] if trace else spans.find_wrappers(),
    }
    if recorder is not None:
        with open(argv[3], "w") as fh:
            json.dump(recorder.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
