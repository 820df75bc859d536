#!/usr/bin/env python3
"""The benchmark's own test.

Run from the root of the repository:

    python3 perfbench/test_bench.py

Builds the harness (as run.py does), then for every workload at a tiny
size and both --trace modes checks that the run passes its correctness
checks, that the result line has exactly the keys the contract names,
and that every metric BENCHMARK.json lists is printed, with a name
matching [A-Za-z0-9_.-]+ and its unit, and that a --trace 1 run
prints its span summary with the set-up, run and replay spans.
Finally checks that each workload's correctness checks trip on a
deliberately broken expectation (--break-check): non-zero exit and
"correct": false.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step is shared with run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def result_of(binary, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds",
           "0.3", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    binary = run.build(os.path.abspath(build_dir))
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL:", what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, proc = result_of(binary, name, trace)
            tag = "%s --trace %d" % (name, trace)
            expect(code == 0, "%s exited %d: %s" % (tag, code, proc.stderr))
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys %s" % (tag, sorted(res)))
            expect(res.get("correct") is True, tag + " not correct")
            expect(isinstance(res.get("attempted"), int)
                   and res["attempted"] >= 1, tag + " attempted < 1")
            expect(res.get("failed") == 0, tag + " has failed requests")
            metrics = res.get("metrics", {})
            for m in metrics:
                expect(NAME.match(m) is not None, "%s bad name %r" % (tag, m))
                expect(isinstance(metrics[m].get("unit"), str)
                       and metrics[m]["unit"] != "",
                       "%s: %s has no unit" % (tag, m))
                expect(isinstance(metrics[m].get("value"), (int, float)),
                       "%s: %s has no value" % (tag, m))
            for m in spec[key]:
                got = metrics.get(m["name"])
                expect(got is not None, "%s lacks %s" % (tag, m["name"]))
                if got is not None:
                    expect(got["unit"] == m["unit"], "%s: %s unit %s != %s" % (
                        tag, m["name"], got["unit"], m["unit"]))
            if trace == 1:
                lines = [ln for ln in proc.stdout.splitlines()
                         if ln.startswith("spans: ")]
                spans = json.loads(lines[-1][7:]) if lines else []
                names = {sp["span"] for sp in spans}
                for want in ("setup", "run", "replay.event_core"):
                    expect(want in names, "%s: no %s span" % (tag, want))
            print("ok:", tag, len(metrics), "metrics")

        code, res, proc = result_of(binary, name, 0, ["--break-check"])
        expect(code != 0, name + " --break-check exited 0")
        expect(res.get("correct") is False,
               name + " --break-check reported correct")
        expect(res.get("failed") == res.get("attempted"),
               name + " --break-check did not fail every request")
        expect("CORRECTNESS CHECK FAILED" in proc.stderr,
               name + " --break-check failed quietly")
        print("ok:", name, "--break-check trips the checks")

    if failures:
        print("%d failure(s)" % len(failures))
        return 1
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
