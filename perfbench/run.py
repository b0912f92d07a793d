#!/usr/bin/env python3
"""Wall-clock benchmark of oblix: one command, three workloads.

    python3 perfbench/run.py --workload interactive-gated --seed 1 \\
        --seconds 30 --trace 0

Builds its inputs from --seed, measures for --seconds, checks every
output, prints a human-readable report and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
exit code is 0 only when every check passed; it is 2, with no result
line, when the benchmark cannot set itself up (for example when the
oblix sources are missing).
"""

import os
import sys

# One BLAS thread per process, set before numpy is first imported, so the
# daemon and the load generator each fit one of two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oblix", "__init__.py")):
        print(f"error: oblix sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oblix
    if os.path.dirname(os.path.abspath(oblix.__file__)) != \
            os.path.join(SRC, "oblix"):
        print(f"error: imported oblix from {oblix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from loadgen import BenchError, run_attest, run_sessions
    from metrics import END_TO_END, PER_LAYER, provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_LIMIT_S)
    run = run_sessions if w.kind == "session" else run_attest
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), SRC, OUT)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    prov = provenance(ROOT)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {w.name}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in result["report"]:
        print(line)
    if args.trace:
        spans = os.path.join(OUT, f"spans-{tag}.jsonl.gz")
        result.pop("tracer").write(spans)
        print(f"spans -> {spans}")
        units = PER_LAYER
        labels = {name: name for name in PER_LAYER}
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        labels = {name: alias[w.kind] for name, (_, alias) in END_TO_END.items()}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        label = name if labels[name] == name else f"{name} ({labels[name]})"
        print(f"metric {label:<44} {m['value']:>16.6f} {m['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"metric {'failed_share':<44} {share:>16.6f} ratio")
    for reason in result["failures"][:20]:
        print(f"FAIL {reason}")
    correct = result["failed"] == 0 and not result["failures"] \
        and result["attempted"] > 0
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump({**line, "provenance": prov, "report": result["report"]},
                  f, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
