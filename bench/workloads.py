"""The benchmark's workloads: INI configs for cdasim and their recorded digests.

Each workload is a config the simulator's own CLI would accept. Every key
not set here keeps its default from ``cdasim.cli.DEFAULTS``; the master seed
is filled in per simulation from the benchmark's ``--seed`` argument.
"""

from __future__ import annotations

DEFAULT_SEED = 11

# A run with --seed N simulates master seeds N, N + SEED_STRIDE, ...; the
# stride keeps the seed sets of nearby --seed values from overlapping.
SEED_STRIDE = 1_000_003

OUTPUT_FILES = ("events.csv", "trades.csv", "agents.csv", "fundamental.csv")

# ``sims`` is how many simulations a run makes at the run_seconds of
# BENCHMARK.json; other --seconds values scale it, so every commit does the
# same work for the same arguments. On a 2-core x86-64 Xeon container
# (Python 3.11, numpy 2.4) one untraced simulation takes about 3 s (desk),
# 2 s (zi_crowd) and 3 s (hbl_spline), so a run takes 30-45 s there.
# Why each workload was chosen is in BENCHMARK.json and bench/README.md.
WORKLOADS: dict[str, dict] = {
    "desk": {
        "sims": 8,
        "ini": """\
[fundamental]
variant = dmr

[market]
horizon = 30000

[agents]
zi_count = 25
hbl_count = 5
success_mode = binary
grid_mode = observed
""",
    },
    "zi_crowd": {
        "sims": 10,
        "ini": """\
[fundamental]
variant = dmr

[market]
horizon = 20000

[agents]
zi_count = 300
hbl_count = 0
arrival_rate = 0.005
""",
    },
    "hbl_spline": {
        "sims": 10,
        "ini": """\
[fundamental]
variant = megashock

[market]
horizon = 10000

[agents]
zi_count = 25
hbl_count = 5
success_mode = fractional
grid_mode = spline
""",
    },
}

# sha256 of each output file for every workload at master seed DEFAULT_SEED.
DIGESTS: dict[str, dict[str, str]] = {
    "desk": {
        "events.csv": "efb487ef81da1a4fe26a0d9601825ff25606db939d72b1a4d76ad9acfcc98e4a",
        "trades.csv": "c8c81d8f2b120008ef7a0cd7b262ee0906df61bc87974f5e497d93c8ee28d0ca",
        "agents.csv": "9437fd982bd69ac6536f7e8d79a7928402e33165ee907dbfadf12153b7202b22",
        "fundamental.csv": "d62f6ca69665f31f8191482c03a535f72afa6310935b1b6476cb7077356bd465",
    },
    "zi_crowd": {
        "events.csv": "c8bbcc0af0448dc8e22b23e871a7988f24e80f0d74f7e3cffe161089eabf06ac",
        "trades.csv": "68082a65a9c595f23166351cb94cfde74cc8f2422601fdb7efe1e7bdf67d9c43",
        "agents.csv": "653b83db7871f3e439de5e7ff3bead61cf30409355e5aa459307fcbc38d25de4",
        "fundamental.csv": "fda6b0e178b491ba800625f692799c24bd0c960ccd405cd854d282c05800e755",
    },
    "hbl_spline": {
        "events.csv": "d9d294367199eec9537c5ad5a989b07415f737081b57ea7f5bd36d9ef72bf045",
        "trades.csv": "57649939a8821ace339b3ce0f5971fb9be746523be123248a8b7446c0b7b403e",
        "agents.csv": "c06de7856c6348ef67a041d5af3e0dc4050f5853b3d2fa5366d7d76e412ff06c",
        "fundamental.csv": "fb4bb0fbc0fc2b5a8a4e78cabebd662b383f73c358c2471fbbb338e5319af87f",
    },
}


def master_seed(seed: int, index: int) -> int:
    """Master seed of a run's simulation number ``index``, counted from 0."""
    return seed + index * SEED_STRIDE


def sims_per_run(workload: str, seconds: float, run_seconds: float) -> int:
    return max(1, round(WORKLOADS[workload]["sims"] * seconds / run_seconds))


def config_text(workload: str, master_seed: int) -> str:
    """The INI config the simulator receives for one simulation."""
    ini = WORKLOADS[workload]["ini"]
    return ini.replace("[market]\n", f"[market]\nseed = {master_seed}\n", 1)
