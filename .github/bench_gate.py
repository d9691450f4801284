"""Checks one workload's benchmark run against the committed gate values.

usage: python3 .github/bench_gate.py WORKLOAD RUN.jsonl BENCH_micro.json

RUN.jsonl is the output of BENCHMARK.json's command run with
`--workload WORKLOAD --seconds 0 --trace 1`; BENCH_micro.json is
`microbench`'s output from the same machine. The run passes when:

* its result line says correct, with no failed operation;
* its digest equals the workload's entry in benchmark/reference.json;
* every deterministic work counter of the result line equals the value
  committed in .github/bench_gate.json exactly (these do not depend on
  the machine, so a change that does more work per tick fails here even
  when the digest is unchanged);
* ticks_per_s times microbench's `yardstick_ns_per_step` -- ticks per
  10^9 yardstick steps, a throughput in units of the machine's own speed
  -- is at least the workload's committed floor.

Prints each checked value next to its committed one and exits 1 on any
mismatch. Each floor is half the median normalised value over ten or
more gate runs on a 2-core 2.1 GHz Xeon VM; changing the yardstick loop
in `microbench` re-bases every floor.
"""

import json
import sys

COUNTERS = [
    "sample.events_per_tick",
    "ppm.plans",
    "migrate.calls_per_tick",
    "migration.failed_pages",
    "migration.retried_pages",
    "ckpt.saves",
    "ckpt.restores",
    "health.rollbacks",
    "health.repairs",
    "scenario.phases",
]


def main():
    workload, run_path, micro_path = sys.argv[1:4]
    with open(run_path) as f:
        detail, result = [json.loads(line) for line in f][-2:]
    with open("benchmark/reference.json") as f:
        want_digest = json.load(f)[workload]["digest"]
    with open(".github/bench_gate.json") as f:
        gate = json.load(f)[workload]
    with open(micro_path) as f:
        yardstick = json.load(f)["yardstick_ns_per_step"]

    rows = [
        ("correct", result["correct"], True, result["correct"]),
        ("failed", result["failed"], 0, result["failed"] == 0),
    ]
    digest = detail["detail"]["digest"]
    rows.append(("digest", digest, want_digest, digest == want_digest))
    for name in COUNTERS:
        got = result["metrics"][name]["value"]
        want = gate["counters"][name]
        rows.append((name, got, want, got == want))
    tps = detail["detail"]["distributions"]["ticks_per_s"]["value"]
    norm = tps * yardstick
    rows.append(("ticks_per_s", round(tps, 1), "-", True))
    rows.append(("yardstick_ns_per_step", yardstick, "-", True))
    rows.append(("ticks_per_1e9_yardstick_steps", round(norm), gate["floor"], norm >= gate["floor"]))

    for name, got, want, ok in rows:
        print(f"{workload:<13} {name:<30} {got!s:>20} {want!s:>20}  {'ok' if ok else 'FAIL'}")
    sys.exit(0 if all(ok for *_, ok in rows) else 1)


if __name__ == "__main__":
    main()
