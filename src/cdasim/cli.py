"""Configuration parsing, experiment orchestration and output emission.

Configs are INI files with four sections (fundamental, agents, market,
output); every key has a documented default and the resolved value of
every key, defaulted or not, is echoed into the run manifest so no default
is ever silent.  The manifest's config sections reparse to an identical
simulation config.  ``build_config`` only parses the strings: the INI key
of a params field is ``<section>.<field>`` unless its call renames it, and
the field's annotation (float, int, str or bool) is its parse type.  Each
params type checks its own values, and a value it rejects is a config
error that names the value's ``section.key``.

Exit codes: 0 success, 1 configuration error, 2 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np

from . import __version__
from .agents import HblParams, ZiParams
from .fundamental import DmrParams, FileParams, MegashockParams, OuParams
from .kernel import OutputOptions, SimConfig, SimResult, run
from .prices import PriceGrid, TickStrings


class ConfigError(Exception):
    pass


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

DEFAULTS: dict[str, dict[str, str]] = {
    "fundamental": {"variant": "dmr"},
    "market": {"horizon": "1000", "tick_size": "0.1", "seed": "1"},
    "agents": {
        "zi_count": "25",
        "hbl_count": "5",
        "arrival_rate": "0.01",
        "r_min": "0.0",
        "r_max": "1.0",
        "eta": "1.0",
        "sigma_n_sq": "10.0",
        "q_max": "10",
        "sigma_pv_sq": "25.0",
        "memory_length": "4",
        "grace_period": "100",
        "success_mode": "binary",
        "grid_mode": "observed",
    },
    "output": {
        "trace_estimator": "false",
        "trace_decisions": "false",
    },
}

VARIANT_KEYS: dict[str, dict[str, str]] = {
    "dmr": {"r_bar": "100.0", "kappa": "0.05", "sigma_s_sq": "1.0"},
    "ou": {"mu": "100.0", "gamma": "0.05", "sigma_sq": "1.0", "q0": "100.0"},
    "megashock": {
        "mu": "100.0", "gamma": "0.05", "sigma_sq": "1.0", "q0": "100.0",
        "shock_arrival_rate": "0.001", "shock_mean": "40.0", "shock_var": "50.0",
    },
    "file": {"path": "", "est_r_bar": "100.0", "est_kappa": "0.05",
             "est_sigma_s_sq": "1.0"},
}

_MANIFEST_ONLY_SECTIONS = ("meta", "private_values")


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse INI text into a fully-defaulted resolved mapping.

    Unknown sections or keys are errors naming the offender; sections only
    found in manifests (meta, private values) are skipped so a manifest
    reparses cleanly.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc

    given = {s: dict(parser.items(s)) for s in parser.sections()
             if s not in _MANIFEST_ONLY_SECTIONS}
    unknown_sections = set(given) - set(DEFAULTS)
    if unknown_sections:
        raise ConfigError(f"unknown config section: {sorted(unknown_sections)[0]}")

    variant = given.get("fundamental", {}).get("variant", DEFAULTS["fundamental"]["variant"])
    if variant not in VARIANT_KEYS:
        raise ConfigError(f"fundamental.variant: must be one of {sorted(VARIANT_KEYS)}")

    resolved: dict[str, dict[str, str]] = {}
    for section, defaults in DEFAULTS.items():
        allowed = dict(defaults)
        if section == "fundamental":
            allowed.update(VARIANT_KEYS[variant])
        supplied = given.get(section, {})
        unknown = set(supplied) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown key {section}.{sorted(unknown)[0]}")
        merged = dict(allowed)
        merged.update(supplied)
        resolved[section] = merged
    return resolved


# A field's annotation: how its INI string parses, and what a string that
# does not parse was expected to be.
_PARSE = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "str": (str, None),
    "bool": (lambda raw: _BOOL[raw.lower()], "true/false"),
}


def _value(resolved, key, field):
    """The string at INI ``key`` (``section.name``), parsed by ``field``'s
    annotation."""
    section, name = key.split(".")
    raw = resolved[section][name]
    parse, expected = _PARSE[field.type]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


def _params(resolved, params_type, section, renamed=None, **given):
    """``params_type`` built from ``given`` and, for each other init field,
    the value at its INI key: ``<section>.<field>``, or the key that
    ``renamed`` names for it.  The type checks every value; its
    ``ValueError`` starts with the field it rejects, and becomes a config
    error that names the field's INI key."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(params_type)}
    keys.update(renamed or {})
    for f in fields(params_type):
        if f.init and f.name not in given:
            given[f.name] = _value(resolved, keys[f.name], f)
    try:
        return params_type(**given)
    except ValueError as exc:
        raise ConfigError(f"{keys[str(exc).split(maxsplit=1)[0]]}: {exc}") from None


def build_config(resolved: dict[str, dict[str, str]]) -> SimConfig:
    """Parse the resolved mapping into the simulation config."""
    params = partial(_params, resolved)
    variant = resolved["fundamental"]["variant"]
    if variant == "dmr":
        fundamental = params(DmrParams, "fundamental")
    elif variant == "file":
        model_keys = {"r_bar": "fundamental.est_r_bar", "kappa": "fundamental.est_kappa",
                      "sigma_s_sq": "fundamental.est_sigma_s_sq"}
        fundamental = params(FileParams, "fundamental",
                             model=params(DmrParams, "fundamental", model_keys))
    else:
        fundamental = params(OuParams, "fundamental")
        if variant == "megashock":
            fundamental = params(MegashockParams, "fundamental",
                                 {"arrival_rate": "fundamental.shock_arrival_rate"},
                                 ou=fundamental)

    zi = params(ZiParams, "agents")
    renamed = {"horizon_T": "market.horizon", "master_seed": "market.seed",
               "n_zi": "agents.zi_count", "n_hbl": "agents.hbl_count",
               "arrival_rate": "agents.arrival_rate", "q_max": "agents.q_max"}
    for name in fundamental.levels():  # SimConfig checks the fundamental's levels in ticks
        renamed[name] = model_keys[name] if variant == "file" else f"fundamental.{name}"
    n_hbl = _value(resolved, renamed["n_hbl"], SimConfig.__dataclass_fields__["n_hbl"])
    config = params(SimConfig, "market", renamed, fundamental=fundamental, n_hbl=n_hbl,
                    zi_params=zi, hbl_params=params(HblParams, "agents") if n_hbl > 0 else None,
                    output=params(OutputOptions, "output"))
    if variant == "file":
        try:  # a bad file fails here, before any run starts; the runs replay it
            fundamental.source(PriceGrid(config.tick_size), config.master_seed,
                               config.horizon_T, ())
        except ValueError as exc:
            raise ConfigError(f"fundamental.path: {exc}") from None
    return config


def emit_outputs(result: SimResult, resolved: dict[str, dict[str, str]], outdir: str) -> None:
    """Write every output file.  Each distinct tick is formatted once per run,
    and the CSV rows are streamed, never joined in memory."""
    os.makedirs(outdir, exist_ok=True)
    prices = TickStrings(result.grid)

    def path(name: str) -> str:
        return os.path.join(outdir, name)

    def write_csv(name: str, header: str, lines) -> None:
        with open(path(name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)

    write_csv("events.csv", "time,kind,order_id,agent_id,side,price,qty,counterparty", (
        f"{time},{kind._value_},{order_id},{agent_id},{side._value_},{prices[price]},"
        f"1,{'' if cp is None else cp}\n"
        for kind, time, order_id, agent_id, side, price, cp in result.events))
    write_csv("trades.csv", "time,price,qty,buy_order,sell_order", (
        f"{time},{prices[price]},1,{buy_order},{sell_order}\n"
        for time, price, buy_order, sell_order, _, _ in result.trades))
    # the format the file variant loads
    write_csv("fundamental.csv", "timestamp,value", (
        f"{t},{prices[ticks]}\n" for t, ticks in result.fundamental_trace))
    write_csv("agents.csv", "agent_id,strategy,cash,q_held,payoff", (
        f"{a.agent_id},{a.strategy},{a.cash!r},{a.q_held},{a.payoff!r}\n"
        for a in result.agents))
    if result.estimator_trace is not None:
        write_csv("estimator_trace.csv",
                  "time,agent_id,delta,observation,r_tilde,sigma_tilde_sq,r_hat", (
                      f"{t},{agent_id},{delta},{prices[o]},{r_tilde},{var},{r_hat}\n"
                      for t, agent_id, delta, o, r_tilde, var, r_hat
                      in result.estimator_trace))
    if result.decision_trace is not None:
        write_csv("decisions.csv", "time,agent_id,strategy,action,side,limit_price", (
            f"{t},{agent_id},{strategy},{kind._value_},"
            f"{'' if side is None else side._value_},"
            f"{'' if limit is None else prices[limit]}\n"
            for t, agent_id, strategy, kind, side, limit in result.decision_trace))

    with open(path("manifest.ini"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[meta]\n")
        fh.write(f"version = {__version__}\n")
        # the output bytes depend on numpy's streams and CPython's float repr
        fh.write(f"numpy = {np.__version__}\n")
        fh.write(f"python = {'.'.join(map(str, sys.version_info[:3]))}\n")
        fh.write(f"master_seed = {resolved['market']['seed']}\n")
        fh.write(f"invariants_ok = {str(result.invariants_ok).lower()}\n")
        fh.writelines(f"{key} = {value}\n"
                      for key, value in sorted(result.invariant_summary.items()))
        fh.write("\n")
        for section, keys in resolved.items():
            fh.write(f"[{section}]\n")
            fh.writelines(f"{key} = {value}\n" for key, value in keys.items())
            fh.write("\n")
        fh.write("[private_values]\n")
        fh.writelines(f"agent-{agent_id} = {' '.join(map(repr, theta))}\n"
                      for agent_id, theta in sorted(result.private_values.items()))


def run_one(resolved: dict[str, dict[str, str]], outdir: str,
            config: SimConfig | None = None) -> bool:
    """Run a single simulation and write all outputs; True if invariants held.
    ``config`` is ``build_config(resolved)``, when that is built already."""
    result = run(build_config(resolved) if config is None else config)
    emit_outputs(result, resolved, outdir)
    return result.invariants_ok


def _parse_sweep(spec: str) -> list[int]:
    try:
        lo, hi = spec.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--sweep-seeds expects 'a..b', got {spec!r}") from None
    if lo_i < 0:
        raise ConfigError("--sweep-seeds: seeds must be >= 0")
    if hi_i < lo_i:
        raise ConfigError("--sweep-seeds range is empty")
    return list(range(lo_i, hi_i + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdasim",
        description="Seed-reproducible continuous double auction simulator",
    )
    parser.add_argument("--config", help="INI config file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, help="override market.seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--sweep-seeds", metavar="A..B",
                        help="run one simulation per seed in [A, B]")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes for --sweep-seeds (default: one per "
                             "CPU; 1 runs the seeds in this process)")
    parser.add_argument("--trace-estimator", action="store_true",
                        help="write per-wake belief rows to estimator_trace.csv")
    parser.add_argument("--trace-decisions", action="store_true",
                        help="write per-wake decision rows to decisions.csv")
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        resolved = parse_config(text)
        if args.seed is not None:
            resolved["market"]["seed"] = str(args.seed)
        if args.trace_estimator:
            resolved["output"]["trace_estimator"] = "true"
        if args.trace_decisions:
            resolved["output"]["trace_decisions"] = "true"
        config = build_config(resolved)  # fail fast before any run starts
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")

        if args.sweep_seeds:
            seeds = _parse_sweep(args.sweep_seeds)
            jobs = []
            for seed in seeds:
                per_seed = {s: dict(k) for s, k in resolved.items()}
                per_seed["market"]["seed"] = str(seed)
                jobs.append((per_seed, os.path.join(args.out, f"seed-{seed}"),
                             replace(config, master_seed=seed)))
            if args.jobs == 1:
                oks = [run_one(*job) for job in jobs]
            else:
                # imported here: it is a sizeable share of the cdasim import
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                workers = None if args.jobs is None else min(args.jobs, len(jobs))
                with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
                    oks = list(pool.map(run_one, *zip(*jobs)))
            return 0 if all(oks) else 2
        ok = run_one(resolved, args.out, config)
        return 0 if ok else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
