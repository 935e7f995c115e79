"""The benchmark's in-process tasks: those that import numpy or timecent.

run.py stays a lean process, because the peak RSS the kernel reports for
a child starts from its parent's high-water mark; measured children must
therefore start from a small parent. run.py calls this script for the work
that needs the package:

    python3 perfbench/helper.py TASK WORKLOAD SEED TINY WORKDIR

TASK is `prepare` (write the workload's own inputs, report the numpy
version), `check` (oracle check of the artifacts in WORKDIR) or `trace`
(the traced in-process run, with its check). TINY is 0 or 1. The reply
is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from workloads import BUILDERS, Workload

ORACLE_SAMPLES = 2  # instants checked against the oracle per sweep artifact


def prepare(wl: Workload, work: Path, seed: int) -> dict:
    import numpy

    if wl.log_sizes is not None:
        from contactlog import write_contact_log

        write_contact_log(str(work / "contacts.csv"), seed, **wl.log_sizes)
    return {"numpy": numpy.__version__}


def check(wl: Workload, work: Path, seed: int) -> dict:
    from oraclecheck import check_workload

    return check_workload(wl, work, seed, ORACLE_SAMPLES)


def trace(wl: Workload, work: Path, seed: int) -> dict:
    import traced

    untraced_runs, untraced_s = traced.cli_pass(wl, work, seed, None)
    tracer = traced.Tracer()
    layers = traced.Layers(tracer)
    traced_runs, traced_s = traced.cli_pass(wl, work, seed, layers)
    print(f"# untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s")
    start = perf_counter()
    reply = check(wl, work, seed)
    reply["check_s"] = perf_counter() - start
    overhead_s = traced_s - untraced_s
    reply["metrics"] = traced.layer_metrics(tracer, layers, work / wl.setup.artifact, overhead_s)
    reply["runs"] = [[[r.exit_code, r.digest] for r in p] for p in (untraced_runs, traced_runs)]
    return reply


def main(argv: list[str]) -> int:
    task, name, seed, tiny, work = argv
    wl = BUILDERS[name](tiny=tiny == "1")
    reply = {"prepare": prepare, "check": check, "trace": trace}[task](wl, Path(work), int(seed))
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
