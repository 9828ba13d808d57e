"""Golden output bytes: short runs whose output files must never change.

Each config runs through the CLI's own parse/build/run/emit path and every
output file listed in ``GOLDEN_FILES`` is checked against a sha256 digest
recorded before the per-wake optimisations of the kernel, book, estimator
and DMR fundamental, or, for the longer fractional run whose memory window
start moves back several times, before the fractional memory was kept
across wakes, or, for the unit-tick run, before the output CSVs were
streamed from a tick-string cache, or, for the large-price run, before
cash was settled from the trade log. Together the configs cover every
fundamental variant, both HBL success modes, both candidate grids, a cent
tick, a unit tick (whose prices have no decimal point), prices near 1.2e10
and a ZI-only population. A digest may change only with a stated behaviour
change.
"""

from __future__ import annotations

import hashlib

import pytest

from cdasim.cli import build_config, emit_outputs, main, parse_config
from cdasim.kernel import run

from conftest import load_bench

GOLDEN_FILES = ("events.csv", "trades.csv", "agents.csv", "fundamental.csv",
                "decisions.csv", "estimator_trace.csv")

# A step series for the file variant: 100.0 moving by a fixed walk every 37 steps.
FILE_SERIES = "timestamp,value\n" + "".join(
    f"{t},{100.0 + ((t * 7919) % 23 - 11) * 0.3:.1f}\n" for t in range(0, 3001, 37))

CONFIGS: dict[str, str] = {
    "dmr-binary-observed": """
[fundamental]
variant = dmr
[market]
horizon = 3000
seed = 11
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
success_mode = binary
grid_mode = observed
""",
    "dmr-fractional-spline": """
[fundamental]
variant = dmr
kappa = 0.0
sigma_s_sq = 0.5
[market]
horizon = 3000
seed = 23
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
success_mode = fractional
grid_mode = spline
grace_period = 30
""",
    "ou-binary-spline": """
[fundamental]
variant = ou
[market]
horizon = 3000
seed = 401
[agents]
zi_count = 15
hbl_count = 10
arrival_rate = 0.02
success_mode = binary
grid_mode = spline
""",
    "megashock-fractional-observed": """
[fundamental]
variant = megashock
shock_arrival_rate = 0.005
[market]
horizon = 3000
seed = 11
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
success_mode = fractional
grid_mode = observed
""",
    "file-binary-observed": """
[fundamental]
variant = file
path = {file}
[market]
horizon = 3000
seed = 5
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
""",
    "dmr-cent-tick-fractional-spline": """
[fundamental]
variant = dmr
kappa = 1.0
[market]
horizon = 3000
tick_size = 0.01
seed = 7
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
success_mode = fractional
grid_mode = spline
memory_length = 2
""",
    "dmr-zi-only": """
[fundamental]
variant = dmr
sigma_s_sq = 0.0
[market]
horizon = 3000
seed = 1000014
[agents]
zi_count = 120
hbl_count = 0
arrival_rate = 0.005
q_max = 3
""",
    "ou-all-hbl-cent-tick-binary-observed": """
[fundamental]
variant = ou
[market]
horizon = 3000
tick_size = 0.01
seed = 3
[agents]
zi_count = 0
hbl_count = 20
arrival_rate = 0.02
success_mode = binary
grid_mode = observed
grace_period = 7
""",
    "megashock-binary-spline-eta-zero": """
[fundamental]
variant = megashock
[market]
horizon = 3000
seed = 29
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
eta = 0.0
success_mode = binary
grid_mode = spline
""",
    "megashock-fractional-spline-window-back": """
[fundamental]
variant = megashock
shock_arrival_rate = 0.002
[market]
horizon = 4000
seed = 1000014
[agents]
zi_count = 30
hbl_count = 8
arrival_rate = 0.03
success_mode = fractional
grid_mode = spline
memory_length = 1
grace_period = 40
""",
    # prices near 1.2e10 in cents: a float cash sum misses zero by about 2e-6
    "dmr-large-price-zi-only": """
[fundamental]
variant = dmr
r_bar = 12345678901.23
[market]
horizon = 300
tick_size = 0.01
seed = 3
[agents]
zi_count = 60
hbl_count = 0
arrival_rate = 0.02
eta = 0.0
r_max = 1.0
sigma_n_sq = 0.0
""",
    "dmr-unit-tick-dump": """
[fundamental]
variant = dmr
sigma_s_sq = 4.0
[market]
horizon = 3000
tick_size = 1
seed = 17
[agents]
zi_count = 20
hbl_count = 6
arrival_rate = 0.02
r_max = 2.0
sigma_pv_sq = 9.0
""",
}

# sha256 of each GOLDEN_FILES entry, recorded from the code before the
# tuple-backed records, the side-split book and the batched DMR shocks
# (the window-back run: before the fractional memory was kept across wakes;
# the unit-tick run: before the CSVs were streamed from a tick-string cache;
# the large-price run: before cash was settled from the trade log; the
# estimator_trace.csv of the OU and megashock runs: from the code that
# computes 1 - exp(-x) as -expm1(-x)).
DIGESTS: dict[str, dict[str, str]] = {
    "dmr-binary-observed": {
        "events.csv":
            "ac40191a4d789494c200f6cd20818fbac712d09cf8f1f10d9e5e25475a0f5fe2",
        "trades.csv":
            "8e75231aa08e42aea16c8498ec9cb00fcb0e14a1fa9c2ab740ec6b843ceb1e9e",
        "agents.csv":
            "6d6292c5a551f1a470b96c4ef00da86a2c8a1a3a86826dcf43790653318d38b3",
        "fundamental.csv":
            "6f04f3e1362fea59d8b4cb106109e2a3562c0c97535ab2ce3618d282071b5d30",
        "decisions.csv":
            "9dcff97bf8eef41ac2c29b03736262804396e35f013123fd8bbd2a8158503eca",
        "estimator_trace.csv":
            "57e76fa46028b7c991f1d13044d31fca4c039239a1a01c7347babacea031b87b",
    },
    "dmr-cent-tick-fractional-spline": {
        "events.csv":
            "a823095a894270fb479afba3ce2a0ea1e9b15cfefaec7aec5d1f04d3f30a4e0d",
        "trades.csv":
            "42ca38e224e82bb1a684618906bf6375fbe8ec10e828c1f4fcfae617c4dd1cb6",
        "agents.csv":
            "6e8c683ea523fe4ae51b9e9fccdfdd27d4d11ee4cf89e5c0f76048407b228f13",
        "fundamental.csv":
            "795484a52b19ab5c8be1278c7fc2d5d9a78c3dd388680a40870dc92293cc55cd",
        "decisions.csv":
            "6ecc75023e6edf9b68818d6fbfd50b276ec8920afde59f40940e3e81e9ad8fd9",
        "estimator_trace.csv":
            "e89af4d4b98ca7654c40bcba703fcc8d5c66971e645fe6e707aa5fe233b4cea6",
    },
    "dmr-fractional-spline": {
        "events.csv":
            "645adac9f08a6c88cb7095034bcc766a93a48fa85b63fa9ac8d3ba18b79b6c60",
        "trades.csv":
            "a9b73bd36d3998aa3272547c556c2121b150600a30b0e63c2e2d7d1abf3a3a03",
        "agents.csv":
            "e08290fc2ce917b36dcdb6c9b9031286224fa09b69cc2fc582f65b91a65c1c25",
        "fundamental.csv":
            "7568033a5d607054d1e8249b6091d0dc0c99e1bb590a1890fb61f3b8b612ecc5",
        "decisions.csv":
            "66166b2ed177b6111d8178fdbd3cd22f602452b7d752320d8d7b81a82b7c40e6",
        "estimator_trace.csv":
            "1a52cd4d712e940d599756341f934c304bb5164ac8b83dc92bbdec81d2d779ef",
    },
    "dmr-zi-only": {
        "events.csv":
            "cffc2dd1b660b75ce41d3757b67703aa9af2468cd3abf90577bcdbd4b8883762",
        "trades.csv":
            "378fc8d45f8669e75d2af00818f8dd34f8e53eceaeaf5ad59f22b628b1c3f0b5",
        "agents.csv":
            "9cefd9acd345e2fad552fdac7ae776edcc3d1162e5be19efbfbc92cd0abdd581",
        "fundamental.csv":
            "87ac097aa91e75e744cfdbc2f0ce13191b48017226eaaf5cf7bdcd67cee6c104",
        "decisions.csv":
            "c53a35197bfa3fa1638fbafc319ab0af0c57e2c552d029633646b205882f9fbc",
        "estimator_trace.csv":
            "67e958048a31994fe259f235f29b422d903d2106beab24f96e3f97ddad2c7a04",
    },
    "file-binary-observed": {
        "events.csv":
            "62a5cdf3a0c3602ee2d1f97203a38ae9e9f2f5280c76e0d07eb039e51c8c1f7a",
        "trades.csv":
            "b3890dee6a0015d96fd01c4c455f223bf916781f35f0e94dcefe54fb9682d798",
        "agents.csv":
            "6dd97b85b281867fb6c0ecfc8d2695f6641e37122ab648481252d04c4871ab34",
        "fundamental.csv":
            "72296899e3a64308a0c6564deb52bf352f282cef3bf4c1b4d0007f1ea6cd483c",
        "decisions.csv":
            "d86644b36fa4bed3cb9713dada1ac800e821b080f08f7dbd7f7ab40d39d6e661",
        "estimator_trace.csv":
            "d092208e7093ea3f0f5248ec7fd8de495ac8e352bce9e568fbbbd98f975e3765",
    },
    "megashock-binary-spline-eta-zero": {
        "events.csv":
            "d6888318a6a2b4c5173c9c6d1fe371694c040ad7f2dee6a6fe58e44dde5d11c2",
        "trades.csv":
            "608241c4712bd38c061b3ee50a3b6c4f7115f31bfcd9eb44b13877455be5f698",
        "agents.csv":
            "05f955ef65c027b7a6dda96b6869837771c8e0d768d11728fb4a777129c2d3d7",
        "fundamental.csv":
            "4e0c77d1a0973bc432b5efae6f4c5c55a06398c8bf32ab3f90b38fd902b1c59b",
        "decisions.csv":
            "dd0b4f41ac4a6187ee1d2834458cf3d8d4c359aa9b54aa9d903cfdaed4d9371b",
        "estimator_trace.csv":
            "bf4f22f010741bacebdb979e8b6b0b49de455cd3f7c849b13c134a2ce674cbf9",
    },
    "megashock-fractional-spline-window-back": {
        "events.csv":
            "fafbea5b4735928ccc4e531567f78e123aeac6bb197c0057d5b29ae8abf7e7f0",
        "trades.csv":
            "5d902c83a4c70880d1938c09b9f97f6480754d0d3a6177a5c2726e5d497d5295",
        "agents.csv":
            "58429d85701ecc2101b59ecef8b71d3a6fb3c9b353045b1a4b2106946ab8c3e4",
        "fundamental.csv":
            "38dd5a6f5a6288c9d7b7c3481fa764c9755640679647ddfe214245e18aaa51fc",
        "decisions.csv":
            "36e5550789f6b4fb22dfdf01204aeb81f14b3c7cc7b2436088de664cfd976276",
        "estimator_trace.csv":
            "f8750edf2ac2979d723eee122e74aeb8a892e780ac66fbdee3da3b45be04ed68",
    },
    "megashock-fractional-observed": {
        "events.csv":
            "d3dc8bda891eb6c255b39d4d51eabe2f67946a18f5697cfca3573f54ecaf9bdc",
        "trades.csv":
            "307676625c993c09fb8a08df80f9489a2ece62331680ccdbf05f157802dad9c6",
        "agents.csv":
            "336bfbeb72abf1808d0de5ac2b925679b20584540d9783f07b8629fb6c9dec85",
        "fundamental.csv":
            "95f74a3205a94672bc33fe8451f802995673bc2c41b3b043765d70b875b67c97",
        "decisions.csv":
            "79a210e146b8db6bddaa35ffdbedbf938d30dffe72797e029eb6a735eeb074bb",
        "estimator_trace.csv":
            "91705ad3dd6f96d1a89a65f42b251a9c969a91569062120f330e98ebfdfcfd1e",
    },
    "ou-all-hbl-cent-tick-binary-observed": {
        "events.csv":
            "11223a61d38f7c8198a54c23a9744861dbe611acb322ed812621f83509d61544",
        "trades.csv":
            "0be815683300f1132706534bde45c7b34611873ab500b5e9e343cf25680380d0",
        "agents.csv":
            "4745d8618bcf81018bdb36d6e0c53f3fe9adc0e1510dfc8e711ad8f33175afc6",
        "fundamental.csv":
            "b9d3f7ca7a44239fb1133c3f7dff8243f44eba4d11540a2cb6d106300e2bb930",
        "decisions.csv":
            "b2135cb154eb912dd08ddb93860fb2c671084134f77f510e6702b41c639da99e",
        "estimator_trace.csv":
            "3ec1d62b8d0148c96ae1e1c31c4753eeef47a6e3fcc6e3f0af62bc102d4c2fef",
    },
    "dmr-large-price-zi-only": {
        "events.csv":
            "59639f8f303154c0c68364d6e49c7b3025ed243ddb01829b026f886c94af33c4",
        "trades.csv":
            "f855997c76990297f9a606d0e04d5f821d88b7b0ba0fcceb4494087581a53222",
        "agents.csv":
            "2c1f3bd3404c336157b232f5b521c34e8042c264caf4256a306e4e7cbe9fcbc7",
        "fundamental.csv":
            "a59adb03bf1a095928003f904d0e75497252fab765f404e4039b0e2802c068fa",
        "decisions.csv":
            "0220a86cbc9b336f478e6aa4afa0fb059b5f8801c5409a79fc1917a8781854e8",
        "estimator_trace.csv":
            "80cb2e1dd0d9f9b19e51c4d70947857d668ccc148366046250e3356d30bfef56",
    },
    "dmr-unit-tick-dump": {
        "events.csv":
            "5cf5f7a1a5c04a09106e62a75d408048a9cd9c9d3cfa4ac58cb799af51d24de9",
        "trades.csv":
            "3833915abc84162d483bbb5bbc8f66bc397042631389da301481fec152eb337f",
        "agents.csv":
            "f8ee8d14e5fb694b99c5cd035fc200554961fb47f7fa26ea4e1659f4f31f1328",
        "fundamental.csv":
            "f68522051a6978c25eebe23e08e3a4e520357e0fe75f130e103ac4a9f50bcfb7",
        "decisions.csv":
            "18447d5016059e4bfb7bf6450b05abe90dca2bc7e9e6a14fadd3f09fc15b6a36",
        "estimator_trace.csv":
            "3a9245a2e8c01a9e4b9fd3a7746b9d1beee9bc805fa807f7bfcddde3a7b6061e",
    },
    "ou-binary-spline": {
        "events.csv":
            "9655750020728a7cd2e31fe1db2f5cb7b026e7e82110b20e107f511586f41b4a",
        "trades.csv":
            "af33846711d05a7f048dd9c92fb4b27e492c3f38d6dc1322a711e62bc0882daa",
        "agents.csv":
            "fe6e02f3de2e4ca15d49c622bfc8c3473875680d61eac3bf96eb77be09506744",
        "fundamental.csv":
            "a15b5cc7eb4a53e0430b71bac59405c7640bb78246db237f452b143625eced67",
        "decisions.csv":
            "4d0932b008766543f0b7bd0d49d3f2cec0d36ad6ffb5e44f53f8b720c43149e5",
        "estimator_trace.csv":
            "3042df4c57364ae94808abcd57d0d7745163af5792ed14538471b8ac72cdf33e",
    },
}


def run_config(name: str, outdir) -> None:
    """Run one golden config and write its outputs into ``outdir``."""
    fundamental = outdir / "series.csv"
    fundamental.write_text(FILE_SERIES, encoding="utf-8")
    resolved = parse_config(CONFIGS[name].format(file=fundamental))
    resolved["output"].update(trace_decisions="true", trace_estimator="true")
    result = run(build_config(resolved))
    assert result.invariants_ok
    emit_outputs(result, resolved, str(outdir))


def digests(outdir, files) -> dict[str, str]:
    return {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_output_bytes(name, tmp_path):
    assert set(GOLDEN_FILES) <= set(DIGESTS[name])
    run_config(name, tmp_path)
    assert digests(tmp_path, DIGESTS[name]) == DIGESTS[name]


BENCH_WORKLOADS = load_bench("workloads")


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS.WORKLOADS))
def test_bench_workload_bytes(workload, tmp_path):
    # the benchmark checks its workloads' outputs against these digests; a
    # byte break fails here, before the benchmark runs
    bench = BENCH_WORKLOADS
    config = tmp_path / "config.ini"
    config.write_text(bench.config_text(workload, bench.DEFAULT_SEED), encoding="utf-8")
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert digests(tmp_path / "out", bench.OUTPUT_FILES) == bench.DIGESTS[workload]
