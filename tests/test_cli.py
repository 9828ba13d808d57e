import ast
import configparser
import io
import itertools
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdasim.cli import (
    DEFAULTS,
    VARIANT_KEYS,
    ConfigError,
    _parse_sweep,
    build_config,
    emit_outputs,
    main,
    parse_config,
    run_one,
)
from cdasim import fundamental
from cdasim.kernel import run
from cdasim.preferences import PrivateValues
from cdasim.prices import PriceGrid

from conftest import greedy_buyer, settled_payoff


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = """\
[market]
horizon = 600
seed = 3

[agents]
zi_count = 8
hbl_count = 2
arrival_rate = 0.02
"""


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_empty_config_resolves_to_documented_defaults():
    resolved = parse_config("")
    assert resolved["fundamental"]["variant"] == "dmr"
    assert resolved["fundamental"]["kappa"] == "0.05"
    assert resolved["market"]["horizon"] == "1000"
    assert resolved["agents"]["zi_count"] == "25"
    assert resolved["agents"]["hbl_count"] == "5"
    assert resolved["output"]["trace_estimator"] == "false"


def documented_keys():
    """Key -> default of each key table in docs/config.md, by the section
    (``[market]``) or variant (``variant = ou``) heading it sits under."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config.md")
    tables, heading = {}, None
    for line in read(path).splitlines():
        if line.startswith("#"):
            match = re.match(r"#+ (?:\[(\w+)\]|variant = (\w+)\b)", line)
            heading = match and (match[1] or match[2])
            continue
        row = re.match(r"\| `(\w+)` \| (?:`([^`]*)`|\(none\)) \|", line)
        if row:
            tables.setdefault(heading, {})[row[1]] = row[2] or ""
    return tables


def test_config_docs_list_every_key_and_default():
    tables = documented_keys()
    assert {section: tables.get(section) for section in DEFAULTS} == DEFAULTS
    # the megashock table lists its own keys and takes the four OU keys
    tables["megashock"] = {**tables["ou"], **tables["megashock"]}
    assert {variant: tables.get(variant) for variant in VARIANT_KEYS} == VARIANT_KEYS
    assert tables.keys() == DEFAULTS.keys() | VARIANT_KEYS.keys()


def test_config_docs_say_every_float_key_is_finite():
    # every float rule rejects NaN and both infinities; "in [0, 1]" says so
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config.md")
    rows = re.findall(r"^\| `(\w+)` \| `\d+\.\d+` \| ([^|]*) \|", read(path), re.MULTILINE)
    assert {key for key, _ in rows} == {
        key for defaults in (*DEFAULTS.values(), *VARIANT_KEYS.values())
        for key, default in defaults.items() if re.fullmatch(r"\d+\.\d+", default)}
    for key, constraint in rows:
        assert "finite" in constraint or constraint == "in [0, 1]", key


def test_partial_config_merges_with_defaults():
    resolved = parse_config(SMALL)
    assert resolved["market"]["horizon"] == "600"
    assert resolved["market"]["tick_size"] == "0.1"  # default kept
    assert resolved["agents"]["zi_count"] == "8"
    assert resolved["agents"]["eta"] == "1.0"


def test_variant_selects_its_own_keys():
    resolved = parse_config("[fundamental]\nvariant = ou\ngamma = 0.1\n")
    assert resolved["fundamental"]["gamma"] == "0.1"
    assert resolved["fundamental"]["mu"] == "100.0"
    assert "r_bar" not in resolved["fundamental"]
    with pytest.raises(ConfigError, match="unknown key fundamental.gamma"):
        parse_config("[fundamental]\nvariant = dmr\ngamma = 0.1\n")


def test_unknown_section_and_key_are_named():
    with pytest.raises(ConfigError, match="unknown config section: trading"):
        parse_config("[trading]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key agents.speed"):
        parse_config("[agents]\nspeed = 9\n")


def test_invalid_variant():
    with pytest.raises(ConfigError, match="variant"):
        parse_config("[fundamental]\nvariant = brownian\n")


def test_non_ini_input():
    with pytest.raises(ConfigError, match="not valid INI"):
        parse_config("just some words\n")


def test_constraint_errors_name_key_and_rule():
    resolved = parse_config("[fundamental]\nkappa = 1.5\n")
    with pytest.raises(ConfigError, match=r"fundamental.kappa: kappa must lie in \[0, 1\]"):
        build_config(resolved)
    resolved = parse_config("[agents]\narrival_rate = 0\n")
    with pytest.raises(ConfigError,
                       match="agents.arrival_rate: arrival_rate must be > 0 and finite"):
        build_config(resolved)
    resolved = parse_config("[market]\nhorizon = soon\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        build_config(resolved)
    resolved = parse_config("[output]\ntrace_estimator = maybe\n")
    with pytest.raises(ConfigError, match="expected true/false"):
        build_config(resolved)


@pytest.mark.parametrize("agents, message", [
    ("hbl_count = 2\nsuccess_mode = exact",
     "agents.success_mode: success_mode must be 'binary' or 'fractional'"),
    ("hbl_count = 2\ngrid_mode = linear",
     "agents.grid_mode: grid_mode must be 'observed' or 'spline'"),
    ("hbl_count = 2\nr_min = 2.0\nr_max = 1.0",
     "agents.r_max: r_max must be >= r_min and finite"),
    ("hbl_count = 0\nr_min = 2.0\nr_max = 1.0",
     "agents.r_max: r_max must be >= r_min and finite"),
], ids=["success_mode", "grid_mode", "r_max", "r_max-zi-only"])
def test_agent_constraint_errors_name_key(agents, message):
    resolved = parse_config(f"[agents]\n{agents}\n")
    with pytest.raises(ConfigError) as raised:
        build_config(resolved)
    assert str(raised.value) == message


def test_hbl_modes_are_not_checked_without_hbl_agents():
    resolved = parse_config("[agents]\nhbl_count = 0\nsuccess_mode = exact\n")
    assert build_config(resolved).hbl_params is None


def test_build_config_defaults():
    config = build_config(parse_config(""))
    assert config.horizon_T == 1000
    assert config.n_zi == 25
    assert config.n_hbl == 5
    assert config.master_seed == 1
    assert config.tick_size == 0.1
    assert config.hbl_params.memory_length == 4


def test_file_variant_requires_path():
    resolved = parse_config("[fundamental]\nvariant = file\n")
    with pytest.raises(ConfigError, match="fundamental.path"):
        build_config(resolved)


def test_parse_sweep():
    assert _parse_sweep("3..5") == [3, 4, 5]
    assert _parse_sweep("7..7") == [7]
    with pytest.raises(ConfigError, match="a..b"):
        _parse_sweep("3-5")
    with pytest.raises(ConfigError, match="empty"):
        _parse_sweep("5..3")
    with pytest.raises(ConfigError, match="seeds must be >= 0"):
        _parse_sweep("-3..-1")


# ---------------------------------------------------------------------------
# outputs and reproducibility
# ---------------------------------------------------------------------------


def test_outputs_and_manifest_round_trip(tmp_path):
    resolved = parse_config(SMALL)
    outdir = tmp_path / "run"
    assert run_one(resolved, str(outdir))

    for name in ("events.csv", "trades.csv", "fundamental.csv", "agents.csv",
                 "manifest.ini"):
        assert (outdir / name).exists(), name
    assert read(outdir / "events.csv").splitlines()[0] == \
        "time,kind,order_id,agent_id,side,price,qty,counterparty"

    # the manifest reparses to the identical resolved config
    reparsed = parse_config(read(outdir / "manifest.ini"))
    assert reparsed == resolved

    # rerunning from the manifest reproduces every output byte for byte
    outdir2 = tmp_path / "rerun"
    assert run_one(reparsed, str(outdir2))
    for name in ("events.csv", "trades.csv", "fundamental.csv", "agents.csv"):
        assert read(outdir / name) == read(outdir2 / name), name


def test_manifest_echoes_defaulted_keys(tmp_path):
    run_one(parse_config(SMALL), str(tmp_path / "run"))
    manifest = read(tmp_path / "run" / "manifest.ini")
    # keys the config never mentioned still appear with their values
    assert "tick_size = 0.1" in manifest
    assert "eta = 1.0" in manifest
    assert "invariants_ok = true" in manifest
    assert "[private_values]" in manifest


def test_manifest_records_the_numpy_and_python_versions(tmp_path):
    # the bytes depend on them, so the manifest names them; a reparse skips [meta]
    run_one(parse_config(SMALL), str(tmp_path / "run"))
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(tmp_path / "run" / "manifest.ini")
    assert manifest["meta"]["numpy"] == np.__version__
    assert manifest["meta"]["python"] == platform.python_version()


def test_different_seeds_differ(tmp_path):
    resolved = parse_config(SMALL)
    run_one(resolved, str(tmp_path / "a"))
    other = parse_config(SMALL)
    other["market"]["seed"] = "4"
    run_one(other, str(tmp_path / "b"))
    assert read(tmp_path / "a" / "events.csv") != read(tmp_path / "b" / "events.csv")


def test_fundamental_dump_is_loadable(tmp_path):
    # fundamental.csv is the file variant's input format
    resolved = parse_config(SMALL)
    run_one(resolved, str(tmp_path / "run"))
    dump = tmp_path / "run" / "fundamental.csv"
    reloaded = fundamental.read_series(read(dump), PriceGrid(0.1))
    assert reloaded == list(run(build_config(resolved)).fundamental_trace)
    assert reloaded[0][0] == 0 and reloaded[-1][0] == 600


def test_removed_fundamental_dump_key_and_flag(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key output.dump_fundamental"):
        parse_config("[output]\ndump_fundamental = false\n")
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "out"), "--fundamental-dump"])
    assert exc.value.code == 2
    assert "--fundamental-dump" in capsys.readouterr().err


def test_emit_streams_rows(tmp_path):
    # 300 ZI traders at seed 5 log 8542 events, a 292 KB events.csv. Writing
    # the outputs row by row peaks near 85 KB, most of it the text layer's
    # pending rows while the 3001-row fundamental.csv is written; joining the
    # rows of any CSV into one string would allocate well past the bound.
    resolved = parse_config("[market]\nhorizon = 3000\nseed = 5\n"
                            "[agents]\nzi_count = 300\nhbl_count = 0\n"
                            "arrival_rate = 0.005\n")
    result = run(build_config(resolved))
    tracemalloc.start()
    try:
        emit_outputs(result, resolved, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "events.csv").stat().st_size
    assert size > 250_000
    assert peak < size / 2


def test_trace_outputs(tmp_path):
    resolved = parse_config(SMALL)
    resolved["output"]["trace_estimator"] = "true"
    resolved["output"]["trace_decisions"] = "true"
    run_one(resolved, str(tmp_path / "run"))
    est_lines = read(tmp_path / "run" / "estimator_trace.csv").splitlines()
    dec_lines = read(tmp_path / "run" / "decisions.csv").splitlines()
    assert est_lines[0] == "time,agent_id,delta,observation,r_tilde,sigma_tilde_sq,r_hat"
    assert len(est_lines) == len(dec_lines)  # one row per wake in both


def test_trace_outputs_without_wakes(tmp_path):
    # a trace that is on writes its file even when no agent ever wakes
    resolved = parse_config("[market]\nhorizon = 1\n[agents]\nzi_count = 1\n"
                            "hbl_count = 0\narrival_rate = 0.0001\n"
                            "[output]\ntrace_estimator = true\ntrace_decisions = true\n")
    run_one(resolved, str(tmp_path))
    assert "wakes = 0" in read(tmp_path / "manifest.ini")
    assert read(tmp_path / "estimator_trace.csv") == (
        "time,agent_id,delta,observation,r_tilde,sigma_tilde_sq,r_hat\n")
    assert read(tmp_path / "decisions.csv") == (
        "time,agent_id,strategy,action,side,limit_price\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_default_run(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "out"), "--seed", "9"])
    assert code == 0
    manifest = read(tmp_path / "out" / "manifest.ini")
    assert "master_seed = 9" in manifest


def test_main_breach_exit_code(tmp_path, monkeypatch):
    # the first ZI agent to wake takes every ask, past q_max and up to the
    # horizon: the run still writes every file, the manifest names each
    # breach, each payoff values only the first q_max units, and main exits 2
    greedy_buyer(monkeypatch)
    config = tmp_path / "c.ini"
    config.write_text("[market]\nhorizon = 2000\nseed = 3\n"
                      "[agents]\nzi_count = 8\nhbl_count = 0\nq_max = 1\n"
                      "arrival_rate = 0.05\n")
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["agents.csv", "events.csv", "fundamental.csv",
                                       "manifest.ini", "trades.csv"]
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(out / "manifest.ini")
    assert manifest["meta"]["invariants_ok"] == "false"
    breaches = ast.literal_eval(manifest["meta"]["breaches"])
    assert breaches
    assert all(re.fullmatch(r"t=\d+: agent \d+ holds q=\d+ beyond q_max=1", b)
               for b in breaches), breaches
    grid = PriceGrid(0.1)
    final = grid.to_value(grid.to_ticks(
        float(read(out / "fundamental.csv").splitlines()[-1].split(",")[1])))
    rows = [line.split(",") for line in read(out / "agents.csv").splitlines()[1:]]
    assert max(int(q_held) for _, _, _, q_held, _ in rows) > 1  # held to the horizon
    for agent_id, _, cash, q_held, payoff in rows:
        values = [float(v) for v in manifest["private_values"][f"agent-{agent_id}"].split()]
        assert float(payoff) == settled_payoff(float(cash), int(q_held), final, values)


LARGE_PRICES = """
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
"""


def test_main_large_prices_conserve_cash_exactly(tmp_path):
    # near 1.2e10 a float sum of the agents' cash misses zero by about 2e-6,
    # which a tolerance of 1e-6 once reported as a breach from t=45; the
    # settlement checks conservation in whole ticks instead
    config = tmp_path / "c.ini"
    config.write_text(LARGE_PRICES)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    manifest = read(tmp_path / "out" / "manifest.ini")
    assert "invariants_ok = true" in manifest
    assert "breaches = []" in manifest
    assert "trades = 84" in manifest


@pytest.mark.parametrize("tick", ["inf", "-inf", "nan", "0", "-0.1"])
def test_non_finite_or_non_positive_tick_size_rejected(tick):
    resolved = parse_config(f"[market]\ntick_size = {tick}\n")
    with pytest.raises(ConfigError, match="market.tick_size: tick_size must be > 0 and finite"):
        build_config(resolved)


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[fundamental]\nkappa = 1.5\n")
    code = main(["--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


def numeric_keys(kind):
    """(variant, section, key) of every key whose default is an integer
    (``kind`` int) or a decimal number (``kind`` float)."""
    pattern = r"\d+" if kind is int else r"\d+\.\d+"
    keys = [("dmr", section, key, default) for section, defaults in DEFAULTS.items()
            for key, default in defaults.items()]
    keys += [(variant, "fundamental", key, default) for variant, defaults in VARIANT_KEYS.items()
             for key, default in defaults.items()]
    return [(variant, section, key) for variant, section, key, default in keys
            if re.fullmatch(pattern, default)]


def test_numeric_keys_cover_every_key():
    numeric = {(section, key) for kind in (int, float) for _, section, key in numeric_keys(kind)}
    strings = {("fundamental", "variant"), ("fundamental", "path"), ("agents", "success_mode"),
               ("agents", "grid_mode"), ("output", "trace_estimator"),
               ("output", "trace_decisions")}
    every = {(s, k) for s, d in DEFAULTS.items() for k in d}
    every |= {("fundamental", k) for d in VARIANT_KEYS.values() for k in d}
    assert numeric == every - strings


def assert_main_rejects_key(variant, section, key, value, tmp_path, capsys, rule=""):
    # the params type names the field it rejects; the message names its INI
    # key and then gives the rule, which starts with ``rule``
    sections = {"fundamental": {"variant": variant}, "market": {"horizon": "200"}}
    sections.setdefault(section, {})[key] = value
    if variant == "file":
        sections["fundamental"]["path"] = str(tmp_path / "series.csv")
    bad = tmp_path / "bad.ini"
    bad.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()))
    code = main(["--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: {rule}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("variant, section, key", numeric_keys(float))
def test_main_non_finite_value_exit_code(variant, section, key, value, tmp_path, capsys):
    assert_main_rejects_key(variant, section, key, value, tmp_path, capsys)


@pytest.mark.parametrize("variant, section, key", numeric_keys(int))
def test_main_negative_integer_exit_code(variant, section, key, tmp_path, capsys):
    assert_main_rejects_key(variant, section, key, "-1", tmp_path, capsys)


# Each key is read from the name of its params field (or its rename), so
# each key pins its own parse error.
@pytest.mark.parametrize("variant, section, key", numeric_keys(float))
def test_main_unparseable_number_exit_code(variant, section, key, tmp_path, capsys):
    assert_main_rejects_key(variant, section, key, "abc", tmp_path, capsys,
                            "expected a number, got 'abc'")


@pytest.mark.parametrize("variant, section, key", numeric_keys(int))
def test_main_unparseable_integer_exit_code(variant, section, key, tmp_path, capsys):
    assert_main_rejects_key(variant, section, key, "1.5", tmp_path, capsys,
                            "expected an integer, got '1.5'")


@pytest.mark.parametrize("key", sorted(DEFAULTS["output"]))
def test_main_unparseable_bool_exit_code(key, tmp_path, capsys):
    assert_main_rejects_key("dmr", "output", key, "maybe", tmp_path, capsys,
                            "expected true/false, got 'maybe'")


@pytest.mark.parametrize("ini, args", [
    ("[market]\nseed = -5\n", []),
    ("", ["--seed", "-1"]),
    ("", ["--sweep-seeds=-3..-1", "--jobs", "1"]),
], ids=["ini", "flag", "sweep"])
def test_main_negative_seed_exit_code(ini, args, tmp_path, capsys):
    # numpy's seed sequence takes no negative entropy: refused before any run
    config = tmp_path / "c.ini"
    config.write_text(ini)
    code = main(["--config", str(config), "--out", str(tmp_path / "out"), *args])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", ["ou", "megashock"])
@pytest.mark.parametrize("gamma", ["1e-310", "1e-200"])
def test_main_tiny_gamma_exit_code(variant, gamma, tmp_path, capsys):
    # 1 - exp(-gamma) is 0: 1e-310 used to crash on a NaN variance and 1e-200
    # to run with a frozen series and a belief model with kappa 0
    config = tmp_path / "c.ini"
    config.write_text(f"[fundamental]\nvariant = {variant}\ngamma = {gamma}\n"
                      "[market]\nhorizon = 200\nseed = 3\n"
                      "[agents]\nzi_count = 5\nhbl_count = 0\narrival_rate = 0.1\n")
    code = main(["--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and "gamma" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant, key", [("dmr", "kappa"), ("file", "est_kappa")])
def test_main_tiny_kappa_exit_code(variant, key, tmp_path, capsys):
    # 1 - kappa is 1.0 up to 2**-54: 5e-17 used to crash mid-run on a
    # division by 0 in the estimator's variance weight; 5.6e-17 and 0 run
    series = tmp_path / "series.csv"
    series.write_text("0,100.0\n")
    path = f"path = {series}\n" if variant == "file" else ""
    for value, code in (("5e-17", 1), ("5.6e-17", 0), ("0", 0)):
        config = tmp_path / "c.ini"
        config.write_text(f"[fundamental]\nvariant = {variant}\n{key} = {value}\n{path}"
                          "[market]\nhorizon = 200\nseed = 3\n"
                          "[agents]\nzi_count = 5\nhbl_count = 0\narrival_rate = 0.1\n")
        out = tmp_path / f"out-{value}"
        assert main(["--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"config error: fundamental.{key}: kappa = {value} is too small")
            assert "Traceback" not in err and not out.exists()


def test_main_rejects_a_megashock_rate_above_one(tmp_path, capsys):
    # 1e9 jumps a step used to keep the run building its series past 60 s
    assert_main_rejects_key("megashock", "fundamental", "shock_arrival_rate", "1e9",
                            tmp_path, capsys, "arrival_rate must be > 0 and at most 1 per step")


@pytest.mark.parametrize("fundamental, market, key", [
    ("variant = dmr\n", "tick_size = 1e-300\n", "r_bar"),
    ("variant = dmr\nr_bar = 1e19\nsigma_s_sq = 0\n", "", "r_bar"),
    ("variant = ou\nq0 = 1e16\n", "", "q0"),
    ("variant = megashock\nmu = -1e16\n", "", "mu"),
    ("variant = file\nest_r_bar = 1e16\n", "", "est_r_bar"),
    ("variant = file\n", "", "path"),
], ids=["tiny-tick", "dmr-r_bar", "ou-q0", "megashock-mu", "file-est_r_bar", "file-value"])
def test_main_rejects_a_fundamental_past_2_53_ticks(fundamental, market, key, tmp_path, capsys):
    # tick_size 1e-300 and r_bar 1e19 used to die mid-run with an
    # OverflowError in the int64 HBL ledger; every price is below 2**53 ticks
    series = tmp_path / "series.csv"
    series.write_text("0,100.0\n5,1e15\n" if key == "path" else "0,100.0\n")
    path = f"path = {series}\n" if "file" in fundamental else ""
    config = tmp_path / "c.ini"
    config.write_text(f"[fundamental]\n{fundamental}{path}"
                      f"[market]\nhorizon = 300\nseed = 3\n{market}"
                      "[agents]\nzi_count = 20\nhbl_count = 5\narrival_rate = 0.1\n")
    code = main(["--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: fundamental.{key}: ")
    assert "2**53" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_rejects_private_values_past_their_bound(tmp_path, capsys, monkeypatch):
    # q_max = 3000000 used to die in PrivateValues.draw with a MemoryError;
    # a run draws at most 2**22 private values, checked before any draw
    def draw(*args):
        raise AssertionError("a private value was drawn")

    monkeypatch.setattr(PrivateValues, "draw", draw)
    config = tmp_path / "c.ini"
    config.write_text("[market]\nhorizon = 200\n[agents]\nq_max = 3000000\n")
    code = main(["--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: agents.q_max: q_max = 3000000 draws ")
    assert "above 2**22" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the bound counts every agent's 2 * q_max values, and holds at 2**22
    for n_zi, n_hbl in ((1, 0), (3, 1)):
        q_max = (1 << 21) // (n_zi + n_hbl)
        resolved = parse_config(f"[agents]\nzi_count = {n_zi}\nhbl_count = {n_hbl}\n"
                                f"q_max = {q_max}\n")
        assert build_config(resolved).zi_params.q_max == q_max
        resolved["agents"]["q_max"] = str(q_max + 1)
        with pytest.raises(ConfigError, match=r"^agents\.q_max: .* above 2\*\*22$"):
            build_config(resolved)


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("sweep", [[], ["--sweep-seeds", "1..2", "--jobs", "1"]],
                         ids=["single", "sweep"])
@pytest.mark.parametrize("series, message", [
    ("timestamp,value\n0,100.0\n5,abc\n", "malformed fundamental file at line 3"),
    ("timestamp,value\n5,100.0\n9,101.0\n", "starts at timestamp 5, not 0"),
    ("", "contains no data rows"),
    ("timestamp,value\n0,100.0\n5,inf\n", "malformed fundamental file at line 3"),
], ids=["malformed-row", "late-start", "empty", "infinite-value"])
def test_main_bad_fundamental_file_exit_code(series, message, sweep, tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    series_path.write_text(series)
    config = tmp_path / "c.ini"
    config.write_text(f"[fundamental]\nvariant = file\npath = {series_path}\n" + SMALL)
    code = main(["--config", str(config), "--out", str(tmp_path / "out"), *sweep])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: fundamental.path: ")
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # no run started


def test_file_series_is_parsed_once(tmp_path, monkeypatch):
    # the config check parses the series, and every run of that config,
    # a sweep's too, replays it without reading the file again
    series_path = tmp_path / "series.csv"
    series_path.write_text("timestamp,value\n0,100.0\n150,101.5\n400,99.2\n")
    config = tmp_path / "c.ini"
    config.write_text(f"[fundamental]\nvariant = file\npath = {series_path}\n"
                      + SMALL.replace("horizon = 600", "horizon = 300"))
    parsed = []
    read_series = fundamental.read_series

    def counting(text, grid):
        parsed.append(text)
        return read_series(text, grid)

    monkeypatch.setattr(fundamental, "read_series", counting)
    assert run_one(parse_config(config.read_text()), str(tmp_path / "one"))
    assert len(parsed) == 1
    for label, extra in (("main", []), ("sweep", ["--sweep-seeds", "3..5", "--jobs", "1"])):
        parsed.clear()
        assert main(["--config", str(config), "--out", str(tmp_path / label), *extra]) == 0
        assert len(parsed) == 1, label
    for out in (tmp_path / "main", tmp_path / "sweep" / "seed-3"):
        for fname in ("events.csv", "trades.csv", "agents.csv", "fundamental.csv"):
            assert (out / fname).read_bytes() == (tmp_path / "one" / fname).read_bytes()
    rows = [line.split(",") for line in read(tmp_path / "one" / "fundamental.csv").split()[1:]]
    assert rows[-1][0] == "300"  # the series' step values at the evaluated times
    assert all(value == ("100.0" if int(t) < 150 else "101.5") for t, value in rows)


def test_main_trace_flags(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text(SMALL)
    code = main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "--trace-estimator"])
    assert code == 0
    assert (tmp_path / "out" / "estimator_trace.csv").exists()
    assert not (tmp_path / "out" / "decisions.csv").exists()


def test_main_sweep(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text(SMALL.replace("horizon = 600", "horizon = 300"))
    code = main(["--config", str(config), "--out", str(tmp_path / "sweep"),
                 "--sweep-seeds", "1..3", "--jobs", "2"])
    assert code == 0
    for seed in (1, 2, 3):
        manifest = read(tmp_path / "sweep" / f"seed-{seed}" / "manifest.ini")
        assert f"master_seed = {seed}" in manifest
        # the pool writes the bytes a serial run of the same seed writes
        resolved = parse_config(config.read_text())
        resolved["market"]["seed"] = str(seed)
        assert run_one(resolved, str(tmp_path / f"serial-{seed}"))
        for fname in ("events.csv", "trades.csv", "agents.csv", "fundamental.csv"):
            assert ((tmp_path / "sweep" / f"seed-{seed}" / fname).read_bytes()
                    == (tmp_path / f"serial-{seed}" / fname).read_bytes()), (seed, fname)


def test_sweep_jobs_write_identical_bytes(tmp_path):
    # a serial sweep and a pooled one write the same files, byte for byte
    config = tmp_path / "c.ini"
    config.write_text(SMALL.replace("horizon = 600", "horizon = 300"))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["--config", str(config), "--out", str(out), "--sweep-seeds", "4..6",
                     "--jobs", jobs, "--trace-decisions"]) == 0
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 3 * 6  # events, trades, fundamental, agents, decisions, manifest
    assert trees[0] == trees[1]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(tmp_path, jobs, capsys):
    code = main(["--out", str(tmp_path / "out"), "--sweep-seeds", "1..2", "--jobs", jobs])
    assert code == 1
    assert "config error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_process_pool_unloaded():
    # the pool's module is imported only when a sweep runs in parallel
    code = ("import sys, cdasim.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


PRICE_JUMP_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cdasim.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("success_mode, grid_mode", [
    ("binary", "observed"), ("fractional", "observed"), ("fractional", "spline")])
def test_price_jump_runs_in_a_gigabyte(tmp_path, success_mode, grid_mode):
    # the fundamental jumps from 100 to 1e12, 10^13 ticks: the HBL memory and
    # the candidate grid must grow with the orders, not with the price span
    (tmp_path / "series.csv").write_text("0,100.0\n50,1e12\n")
    config = tmp_path / "jump.ini"
    config.write_text(f"""\
[fundamental]
variant = file
path = {tmp_path / "series.csv"}

[market]
horizon = 300
tick_size = 0.1

[agents]
zi_count = 5
hbl_count = 3
arrival_rate = 0.3
success_mode = {success_mode}
grid_mode = {grid_mode}
""")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", PRICE_JUMP_RUN, "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    assert "invariants_ok = true" in read(out / "manifest.ini")
    for name in ("events.csv", "trades.csv", "agents.csv", "fundamental.csv"):
        assert (out / name).stat().st_size > 0, name
    prices = [float(line.split(",")[1]) for line in read(out / "trades.csv").splitlines()[1:]]
    assert min(prices) < 1e3 and max(prices) > 1e11  # trades before and after the jump


def test_sample_config_smoke():
    start = time.monotonic()
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["--config", os.path.join(REPO_ROOT, "configs", "sample.ini"),
                     "--out", tmp])
        assert code == 0
        assert os.path.exists(os.path.join(tmp, "trades.csv"))
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# generated configs
# ---------------------------------------------------------------------------

# Edge values for each variant's keys: zero variances, kappa at both ends.
VARIANT_VALUES = {
    "dmr": {"kappa": ("0.0", "0.05", "1.0"), "sigma_s_sq": ("0.0", "1.0")},
    "ou": {"gamma": ("0.05", "1.0"), "sigma_sq": ("0.0", "1.0")},
    "megashock": {"sigma_sq": ("0.0", "1.0"), "shock_arrival_rate": ("0.001", "0.05")},
    "file": {"est_kappa": ("0.0", "0.05", "1.0"), "est_sigma_s_sq": ("0.0", "1.0")},
}

# Ways to spoil a series file, each of which the file variant must reject.
SERIES_FAULTS = (None, "late", "text", "one-column", "repeat", "fraction", "inf", "negative",
                 "empty")


@st.composite
def series_files(draw):
    """The text of a step series from timestamp 0, sometimes malformed."""
    times = [0, *itertools.accumulate(draw(st.lists(st.integers(1, 80), max_size=6)))]
    values = [f"{v / 100}" for v in draw(st.lists(st.integers(0, 20_000),
                                                   min_size=len(times),
                                                   max_size=len(times)))]
    fault = draw(st.sampled_from(SERIES_FAULTS))
    if fault == "late":
        times = [t + 5 for t in times]
    rows = [f"{t},{v}" for t, v in zip(times, values)]
    end = times[-1]
    spoiled = {"text": f"{end + 1},abc", "one-column": f"{end + 1}",
               "repeat": rows[-1], "fraction": f"{end}.5,100.0", "inf": f"{end + 1},inf",
               "negative": f"{end + 1},-3.0"}
    if fault in spoiled:
        rows.insert(draw(st.integers(1, len(rows))), spoiled[fault])
    if fault == "empty":
        rows = []
    header = draw(st.sampled_from(["", "timestamp,value\n"]))
    return header + "".join(row + "\n" for row in rows)


@st.composite
def generated_configs(draw):
    """INI sections of a small run at edge parameters, and a series file's text."""
    variant = draw(st.sampled_from(sorted(VARIANT_VALUES)))
    fundamental = {"variant": variant}
    fundamental.update({key: draw(st.sampled_from(values))
                        for key, values in VARIANT_VALUES[variant].items()})
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    sections = {
        "fundamental": fundamental,
        "market": {"horizon": str(draw(st.integers(1, 300))),
                   "tick_size": pick("0.01", "1"),
                   "seed": str(draw(st.integers(-2**31, 2**31)))},
        "agents": {"zi_count": str(draw(st.integers(0, 5))),
                   "hbl_count": str(draw(st.integers(0, 4))),
                   "arrival_rate": pick("0.02", "0.1", "0.5"),
                   "eta": pick("0.0", "0.5", "1.0"),
                   "q_max": pick("1", "3"),
                   "sigma_n_sq": pick("0.0", "10.0"),
                   "sigma_pv_sq": pick("0.0", "25.0"),
                   "memory_length": str(draw(st.integers(1, 4))),
                   "grace_period": str(draw(st.integers(1, 50))),
                   "success_mode": pick("binary", "fractional"),
                   "grid_mode": pick("observed", "spline")},
        "output": {"trace_estimator": pick("false", "true"),
                   "trace_decisions": pick("false", "true")},
    }
    return sections, draw(series_files()) if variant == "file" else None


@settings(max_examples=150)
@given(generated_configs())
def test_main_exits_cleanly_on_generated_configs(case):
    # every config the parser accepts either runs or fails with a one-line
    # error; nothing raises
    sections, series = case
    with tempfile.TemporaryDirectory() as tmp:
        if series is not None:
            sections["fundamental"]["path"] = os.path.join(tmp, "series.csv")
            with open(sections["fundamental"]["path"], "w", encoding="utf-8") as fh:
                fh.write(series)
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in sections.items())
        parse_config(text)  # accepted
        config = os.path.join(tmp, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["--config", config, "--out", os.path.join(tmp, "out")])
    message = err.getvalue()
    assert code == 0 or (code == 1 and message.startswith(("config error:", "i/o error:"))), \
        (code, message, text, series)
