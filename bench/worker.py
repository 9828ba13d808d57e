"""Run one cdasim simulation in this fresh process and print what it measured.

    python3 bench/worker.py --config FILE --out DIR --mode {setup,sim,trace}

``setup`` times ``import cdasim`` + ``cli.parse_config`` + ``cli.build_config``.
``sim`` times ``cli.build_config`` through the last byte written by
``cli.emit_outputs``, then digests and checks the outputs. ``trace`` does the
same with the span tracer installed and writes the spans to DIR/spans.npz.
``setup`` and ``sim`` also time a fixed calibration loop in the same process
(after the setup; before and after the simulation), which the benchmark uses
to scale their times to a reference host speed. The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import OUTPUT_FILES

SRC = Path(__file__).resolve().parent.parent / "src"

# A simulation is bracketed by CALIBRATION_CHUNKS calibration chunks before
# it and, after it, by as many chunks as take CALIBRATION_SHARE of its wall
# time (at least CALIBRATION_CHUNKS), so a long simulation gets a longer and
# less noisy sample of the host's speed.
CALIBRATION_CHUNKS = 4
CALIBRATION_SHARE = 0.1


def calibration_records(n: int = 4000) -> list[tuple[bool, int, float]]:
    """Fixed (is_bid, price, weight) rows for the calibration's array part."""
    rows, x = [], 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        rows.append((x & 1 == 1, 90000 + x % 20000, (x % 1000) / 1000.0))
    return rows


def calibration_chunk(np, records: list[tuple[bool, int, float]]) -> float:
    """Seconds for a fixed piece of work shaped like the simulator's. One part
    is interpreter work (small objects, a heap, a dict, float arithmetic,
    formatting, small numpy calls), like a ZI wake and the emit; the other
    builds, sorts and searches arrays from Python rows, like the HBL memory.
    The host's slow phases slow the two parts by different shares, so the
    chunk holds both. It does not touch cdasim, so no change to the
    simulator moves it."""
    t = time.perf_counter()
    heap, index, rows = [], {}, []
    x, acc = 12345, 0.0
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        price = x % 1000
        heapq.heappush(heap, (price, i, [i, price, x / 7.0]))
        if len(heap) > 300:
            acc += heapq.heappop(heap)[2][2]
        index[x & 4095] = price
        if i % 4 == 0:
            rows.append("%d,%d,%.4f\n" % (i, price, acc))
        if i % 64 == 0:
            grid = np.arange(price, price + 64, dtype=np.int64)
            acc += float(np.cumsum(grid)[np.searchsorted(grid, price + 32)])
    n = len(records)
    for _ in range(6):
        is_bid = np.fromiter((r[0] for r in records), dtype=bool, count=n)
        prices = np.fromiter((r[1] for r in records), dtype=np.int64, count=n)
        weight = np.fromiter((r[2] for r in records), dtype=np.float64, count=n)
        order = np.argsort(prices[is_bid], kind="stable")
        asks = np.sort(prices[~is_bid])
        prefix = np.cumsum(weight[is_bid][order])
        merged = np.union1d(prices[is_bid], asks)
        at = np.searchsorted(asks, merged, side="right")
        acc += float(prefix[np.minimum(at, len(prefix) - 1)].sum())
    return time.perf_counter() - t


def calibrate(seconds: float = 0.0) -> list[float]:
    """Times of calibration chunks after one untimed warm-up: at least
    CALIBRATION_CHUNKS of them, and more until they take ``seconds``.

    numpy is imported here, not at the top, so that ``setup`` times its
    import as part of ``import cdasim``. The cyclic garbage collector is off
    meanwhile, so the size of the simulator's heap does not change the times.
    """
    import numpy as np

    records = calibration_records()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        calibration_chunk(np, records)
        times = [calibration_chunk(np, records) for _ in range(CALIBRATION_CHUNKS)]
        while sum(times) < seconds:
            times.append(calibration_chunk(np, records))
        return times
    finally:
        if gc_was_enabled:
            gc.enable()


def read_outputs(outdir: str) -> dict:
    """sha256 of each compared output, data rows of every CSV and total bytes."""
    digests, rows, size = {}, 0, 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        if name.endswith(".csv"):
            rows += data.count(b"\n") - 1
        if name in OUTPUT_FILES:
            digests[name] = hashlib.sha256(data).hexdigest()
    return {"digests": digests, "rows": rows, "bytes": size}


def check_outputs(outdir: str) -> list[str]:
    """Consistency of the written outputs, read back from the files alone."""
    problems = []
    manifest = configparser.ConfigParser()
    manifest.read(os.path.join(outdir, "manifest.ini"), encoding="utf-8")
    meta = manifest["meta"]
    if meta["invariants_ok"] != "true":
        problems.append(f"manifest reports invariants_ok={meta['invariants_ok']}")
    q_max = int(manifest["agents"]["q_max"])

    def data_lines(name: str) -> list[str]:
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            return fh.read().splitlines()[1:]

    events = data_lines("events.csv")
    executed = sum(1 for line in events if ",EXECUTED," in line)
    trades = data_lines("trades.csv")
    if len(events) != int(meta["events"]):
        problems.append(f"events.csv has {len(events)} rows, manifest says {meta['events']}")
    if len(trades) != int(meta["trades"]) or executed != 2 * len(trades):
        problems.append(f"trades.csv has {len(trades)} rows, manifest says "
                        f"{meta['trades']}, events.csv has {executed} executions")
    cash, held = 0.0, 0
    for line in data_lines("agents.csv"):
        _, _, agent_cash, q_held, _ = line.split(",")
        cash += float(agent_cash)
        held += int(q_held)
        if abs(int(q_held)) > q_max:
            problems.append(f"agents.csv holding {q_held} exceeds q_max={q_max}")
    if abs(cash) > 1e-6 or held != 0:
        problems.append(f"agents.csv not zero-sum: cash={cash!r} holdings={held}")
    fundamental = data_lines("fundamental.csv")
    if int(fundamental[-1].split(",")[0]) != int(manifest["market"]["horizon"]):
        problems.append("fundamental.csv does not end at the horizon")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "sim", "trace"), required=True)
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from cdasim import cli, kernel

    resolved = cli.parse_config(text)
    if args.mode == "setup":
        cli.build_config(resolved)
        setup_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "cal_s": statistics.median(calibrate())}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cal = calibrate() if tracer is None else []
    start = time.perf_counter()
    config = cli.build_config(resolved)
    run_start = time.perf_counter()
    result = kernel.run(config)
    run_s = time.perf_counter() - run_start
    cli.emit_outputs(result, resolved, args.out)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    else:
        cal += calibrate(CALIBRATION_SHARE * wall_s)

    outputs = read_outputs(args.out)
    report = {
        "wall_s": wall_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": statistics.median(cal) if cal else None,
        "wakes": result.invariant_summary["wakes"],
        "events": len(result.events),
        "trades": len(result.trades),
        "invariants_ok": result.invariants_ok,
        "digests": outputs["digests"],
        "problems": check_outputs(args.out),
    }
    if tracer is not None:
        spans = tracer.arrays()
        tracer.write(os.path.join(args.out, "spans.npz"), spans)
        layers = tracer.summary(spans)
        layers["orderbook.events"] = len(result.events)
        layers["orderbook.trades"] = len(result.trades)
        layers["cli.emit_outputs.rows"] = outputs["rows"]
        layers["cli.emit_outputs.bytes"] = outputs["bytes"]
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
