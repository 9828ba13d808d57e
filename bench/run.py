"""cdasim benchmark: run one workload in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's fixed number of untraced
simulations for S seconds, one master seed each, with ``setup_s`` probes in
fresh interpreters between them, and reports the end-to-end metrics of
BENCHMARK.json as medians. Times are in reference seconds: each measured
time is scaled by CAL_REF_S over the time the same process took for a
calibration chunk (see ``worker.calibration_chunk``), which cancels most of
the host's changes of speed; the unscaled medians are printed too. With
``--trace 1`` it runs one untraced and one traced simulation of the first
master seed and reports the per-layer metrics. Every simulation's outputs are checked; at the default seed they
must match the recorded digests. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (DEFAULT_SEED, DIGESTS, WORKLOADS, config_text, master_seed,
                       sims_per_run)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
# About the median time of one calibration chunk on the reference host, a
# 2-core x86-64 Xeon container (Python 3.11, numpy 2.4), so that reference
# and host seconds nearly agree there. It is fixed so that runs compare
# across commits.
CAL_REF_S = 0.035
DEADLINE_S = 170.0

# Per-layer counts that depend only on the config; they must repeat exactly.
DETERMINISTIC_COUNTS = (
    "kernel.wakes", "orderbook.events", "orderbook.trades",
    "orderbook.cancel.hits", "orderbook.cancel.attempts",
    "agents.hbl_memory.calls", "agents.hbl_memory.rows",
    "agents.hbl_candidates.prices", "agents.hbl_decide.calls",
    "agents.zi_decide.calls", "fundamental.value_at.calls",
    "prices.to_ticks.calls", "prices.format.calls",
    "cli.emit_outputs.rows", "cli.emit_outputs.bytes",
)


class WorkerError(Exception):
    pass


def run_worker(config: Path, out: Path, mode: str, deadline: float) -> dict:
    """Run bench/worker.py in a fresh single-threaded interpreter."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(config),
           "--out", str(out), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def gate_digests(workload: str, master_seed: int, digests: dict) -> list[str]:
    """Mismatches against the recorded digests; none for unrecorded seeds."""
    if master_seed != DEFAULT_SEED:
        return []
    expected = DIGESTS[workload]
    return [f"{name} digest {digests.get(name)} != recorded {sha}"
            for name, sha in expected.items() if digests.get(name) != sha]


def simulate(workload: str, master_seed: int, mode: str, deadline: float) -> dict:
    """One simulation; returns the worker's report with a ``problems`` list."""
    run_dir = OUT / workload / f"{mode}-{master_seed}"
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    config.write_text(config_text(workload, master_seed), encoding="utf-8")
    try:
        report = run_worker(config, run_dir / "out", mode, deadline)
    except WorkerError as exc:
        return {"master_seed": master_seed, "problems": [str(exc)]}
    report["master_seed"] = master_seed
    if not report["invariants_ok"]:
        report["problems"].append("kernel reported invariants_ok=false")
    report["problems"] += gate_digests(workload, master_seed, report["digests"])
    print(f"sim {workload} seed={master_seed} {mode} wall_s={report['wall_s']} "
          f"run_s={report['run_s']} wakes={report['wakes']} cal_s={report['cal_s']}")
    gated = "gated" if master_seed == DEFAULT_SEED else "not gated"
    for name, sha in sorted(report["digests"].items()):
        print(f"digest {workload} seed={master_seed} {mode} {name} {sha} ({gated})")
    return report


def program_digest(config: str) -> str:
    """Short sha256 of a config and the simulator's sources, so counts are
    compared only between runs of the same program on the same input."""
    digest = hashlib.sha256(config.encode())
    for path in sorted((ROOT / "src" / "cdasim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_trace(workload: str, plain: dict, traced: dict) -> None:
    """Problems of a traced simulation, appended to its report."""
    problems, layers, seed = traced["problems"], traced["layers"], traced["master_seed"]
    if traced["digests"] != plain["digests"]:
        problems.append("traced outputs differ from untraced outputs")
    for key, plain_key in (("kernel.wakes", "wakes"), ("orderbook.events", "events"),
                           ("orderbook.trades", "trades")):
        if layers[key] != plain[plain_key]:
            problems.append(f"{key}={layers[key]} but the untraced run had "
                            f"{plain[plain_key]}")
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if self_total > traced["wall_s"]:
        problems.append(f"self times sum to {self_total} s, more than the traced "
                        f"wall time {traced['wall_s']} s")
    counts = {k: layers[k] for k in DETERMINISTIC_COUNTS}
    key = program_digest(config_text(workload, seed))
    record = OUT / "counts" / f"{workload}-{seed}-{key}.json"
    if record.is_file():
        before = json.loads(record.read_text(encoding="utf-8"))
        changed = sorted(k for k in counts if before.get(k) != counts[k])
        if changed:
            problems.append(f"counts differ from an earlier traced run of this "
                            f"config and source: {changed}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, indent=1), encoding="utf-8")
    for key in DETERMINISTIC_COUNTS:
        print(f"count {workload} seed={seed} {key} {counts[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cdasim" / "__init__.py").is_file():
        print(f"cdasim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    probe_dir = OUT / args.workload / "setup"
    probe_dir.mkdir(parents=True)
    probe_config = probe_dir / "config.ini"
    probe_config.write_text(config_text(args.workload, args.seed), encoding="utf-8")

    n_sims = 1 if args.trace else sims_per_run(args.workload, args.seconds,
                                               spec["run_seconds"])
    probes_per_sim = 0 if args.trace else -(-SETUP_PROBES // n_sims)
    setup, sims = [], []
    try:
        # The first probe fills the bytecode cache and is not counted. The
        # rest are spread between the simulations, which samples setup time
        # over the whole run.
        run_worker(probe_config, probe_dir, "setup", deadline)
        for index in range(n_sims):
            setup += [run_worker(probe_config, probe_dir, "setup", deadline)
                      for _ in range(probes_per_sim)]
            sims.append(simulate(args.workload, master_seed(args.seed, index), "sim",
                                 deadline))
    except WorkerError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        sims.append(simulate(args.workload, sims[0]["master_seed"], "trace", deadline))
    timed = [s for s in sims if "wall_s" in s]
    if not timed or (args.trace and len(timed) < 2):
        print("no simulation completed", file=sys.stderr)
        return 1
    if args.trace:
        check_trace(args.workload, *sims)
    failed = sum(1 for s in sims if s["problems"])
    for s in sims:
        for problem in s["problems"]:
            print(f"FAILED {args.workload} seed={s['master_seed']}: {problem}")

    if args.trace:
        plain, traced = sims
        values = dict(traced["layers"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        wanted = spec["per_layer"]
    else:
        def ref_s(seconds: float, report: dict) -> float:
            return seconds * CAL_REF_S / report["cal_s"]

        values = {
            "wall_s": statistics.median(ref_s(s["wall_s"], s) for s in timed),
            "wakes_per_s": statistics.median(s["wakes"] / ref_s(s["run_s"], s)
                                             for s in timed),
            "setup_s": statistics.median(ref_s(p["setup_s"], p) for p in setup),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        }
        raw = {
            "wall_s": statistics.median(s["wall_s"] for s in timed),
            "wakes_per_s": statistics.median(s["wakes"] / s["run_s"] for s in timed),
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "cal_s": statistics.median(r["cal_s"] for r in timed + setup),
        }
        for name, value in raw.items():
            print(f"{args.workload} raw {name} = {value} (unscaled)")
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]} {m['unit']}")
    print(f"{args.workload} failed_runs = {failed} of {len(sims)} count")
    print(json.dumps({"correct": failed == 0, "attempted": len(sims),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
