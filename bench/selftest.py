"""Self-test of the benchmark's own checks; exits 0 when all of them pass.

    python3 bench/selftest.py

1. Every workload config reparses through ``cli.parse_config``, which
   rejects unknown keys, and builds.
2. Two traced runs of ``hbl_spline`` at the default seed match the
   recorded digests and each other, repeat every deterministic count
   exactly, and have self times that sum to no more than their traced wall
   time; these are the checks of every traced benchmark run.
3. The digest gate flags a copy of those outputs with one byte flipped,
   for each compared file in turn.
"""

from __future__ import annotations

import shutil
import sys
import time

import run
from worker import SRC, read_outputs
from workloads import DEFAULT_SEED, OUTPUT_FILES, WORKLOADS, config_text

WORKLOAD = "hbl_spline"


def check_configs() -> list[str]:
    sys.path.insert(0, str(SRC))
    from cdasim import cli

    problems = []
    for name in WORKLOADS:
        try:
            cli.build_config(cli.parse_config(config_text(name, DEFAULT_SEED)))
        except cli.ConfigError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def check_traced_runs() -> list[str]:
    problems = []
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    config = base / "config.ini"
    config.write_text(config_text(WORKLOAD, DEFAULT_SEED), encoding="utf-8")
    deadline = time.monotonic() + 2 * run.DEADLINE_S
    a, b = [run.run_worker(config, base / name, "trace", deadline) for name in "ab"]
    a["master_seed"] = b["master_seed"] = DEFAULT_SEED
    # Each run is checked as the traced run against the other: same outputs,
    # self times within wall time, and counts equal to the recorded ones.
    run.check_trace(WORKLOAD, a, b)
    run.check_trace(WORKLOAD, b, a)
    for name, report in (("a", a), ("b", b)):
        problems += [f"run {name}: {p}" for p in report["problems"]]
        problems += [f"run {name}: {p}" for p in
                     run.gate_digests(WORKLOAD, DEFAULT_SEED, report["digests"])]

    flipped = base / "flipped"
    shutil.copytree(base / "a", flipped)
    (flipped / "spans.npz").unlink()
    for name in OUTPUT_FILES:
        path = flipped / name
        original = path.read_bytes()
        data = bytearray(original)
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        caught = run.gate_digests(WORKLOAD, DEFAULT_SEED, read_outputs(str(flipped))["digests"])
        if len(caught) != 1 or not caught[0].startswith(name):
            problems.append(f"one flipped byte in {name} was not caught: {caught}")
        path.write_bytes(original)
    return problems


def main() -> int:
    problems = check_configs() + check_traced_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
