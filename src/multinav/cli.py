"""Command-line interface.

Subcommands: `run` (seeded benchmark trials of one scenario cell), `train`
(PPO training from a JSON config), `replay` (trajectory log to SVG) and
`grid` (the full evaluation sweep). Exit codes: 0 success, 2 configuration
error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .bench import ConfigError, LogFlags, replay_svg, report, run_trials
from .observations import AblationConfig, NoiseConfig
from .policy import NumericalDivergence, PolicyConfig
from .ppo import TrainConfig, train
from .rollout import EnvConfig
from .scenarios import (EVAL_AGENT_GRID, Kind, Overconstrained, ScenarioSpec,
                        eval_suite)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _spec_for(name: str, agents: int, scale: float | None, seed: int,
              obstacles: int) -> ScenarioSpec:
    kind = Kind(name)
    if scale is None:
        scale = 15.0 if kind in EVAL_AGENT_GRID else 10.0
    return ScenarioSpec(kind=kind, scale=scale, num_agents=agents,
                        num_obstacles=obstacles, rng_seed=seed)


RUN_DEFAULTS = {
    "scenario": None, "agents": None, "controller": None, "checkpoint": None,
    "trials": 50, "seed": 0, "scale": None, "obstacles": 8, "noise": False,
    "ablation": "none", "workers": 1, "out": "metrics.csv", "log": None,
    "log_obs": False, "log_rewards": False, "log_scans": False,
    "log_paths": False, "log_tracks": False, "scenario_file": None,
}


def _check_keys(doc: dict, allowed, what: str) -> None:
    """A key outside `allowed` is a configuration error, so a typo fails
    instead of falling back to a default."""
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _resolve_run_options(args) -> dict:
    """Layer options: hard defaults, then the JSON config file, then any
    flag the user actually passed."""
    opts = dict(RUN_DEFAULTS)
    if args.config:
        with open(args.config) as f:
            doc = json.load(f)
        _check_keys(doc, RUN_DEFAULTS, "config")
        opts.update(doc)
    for key in RUN_DEFAULTS:
        v = getattr(args, key)
        if v is not None and v is not False:
            opts[key] = v
    if opts["controller"] is None:
        raise ConfigError("--controller is required (flag or config file)")
    if opts["scenario_file"] is None:
        for key in ("scenario", "agents"):
            if opts[key] is None:
                raise ConfigError(f"--{key} is required (flag or config file)")
    return opts


def cmd_run(args) -> int:
    o = _resolve_run_options(args)
    AblationConfig.from_name(o["ablation"])  # validate early
    fixed = None
    label = None
    if o["scenario_file"]:
        from .scenarios import GeneratedScenario
        with open(o["scenario_file"]) as f:
            fixed = GeneratedScenario.from_json(f.read())
        o["agents"] = len(fixed.starts)
        o["scenario"] = o["scenario"] or "random"
        label = f"file:{os.path.basename(o['scenario_file'])}"
    spec = _spec_for(o["scenario"], o["agents"], o["scale"], o["seed"],
                     o["obstacles"])
    flags = LogFlags(observations=o["log_obs"], rewards=o["log_rewards"],
                     scans=o["log_scans"], paths=o["log_paths"],
                     tracks=o["log_tracks"])
    metrics = run_trials(
        spec, o["controller"], o["trials"], noise_on=o["noise"],
        ablation=o["ablation"], base_seed=o["seed"],
        checkpoint=o["checkpoint"], workers=o["workers"],
        log_path=o["log"], log_flags=flags if o["log"] else None,
        fixed_scenario=fixed, label=label)
    summary = report([metrics], o["out"])
    print(summary)
    print(f"wrote {o['out']}")
    return EXIT_OK


def cmd_grid(args) -> int:
    rows = []
    for kind, counts in EVAL_AGENT_GRID.items():
        for agents in counts:
            spec = eval_suite(kind, agents, rng_seed=args.seed)
            for controller in args.controllers:
                rows.append(run_trials(
                    spec, controller, args.trials, noise_on=args.noise,
                    base_seed=args.seed, checkpoint=args.checkpoint,
                    workers=args.workers))
                print(f"done {kind.value}/{agents} {controller}: "
                      f"success {rows[-1].success_rate:.1%}")
    summary = report(rows, args.out)
    print(summary)
    print(f"wrote {args.out}")
    return EXIT_OK


TRAIN_KEYS = ("scenarios", "train", "policy", "env")
# keys of a training config's "env" object; "noise": true trains under the
# evaluation noise protocol
TRAIN_ENV_KEYS = ("horizon", "ablation", "noise")


def load_train_config(path: str) -> tuple[list[ScenarioSpec], TrainConfig,
                                          PolicyConfig | None, EnvConfig]:
    """Parse and validate a training config file into (scenario specs,
    TrainConfig, PolicyConfig or None, EnvConfig). An unknown or missing key
    raises ConfigError, an unknown policy key or a value out of range
    ValueError."""
    with open(path) as f:
        doc = json.load(f)
    _check_keys(doc, TRAIN_KEYS, "config")
    if not doc.get("scenarios"):
        raise ConfigError("a training config needs a non-empty scenarios list")
    for d in doc["scenarios"]:
        _check_keys(d, _field_names(ScenarioSpec), "scenario")
        if "kind" not in d:
            raise ConfigError("every scenario needs a kind")
    specs = [ScenarioSpec.from_dict(d) for d in doc["scenarios"]]
    train_doc = doc.get("train", {})
    _check_keys(train_doc, _field_names(TrainConfig), "train")
    train_cfg = TrainConfig(**train_doc)
    policy_doc = doc.get("policy")
    policy_cfg = PolicyConfig.from_dict(policy_doc) if policy_doc else None
    env_doc = doc.get("env", {})
    _check_keys(env_doc, TRAIN_ENV_KEYS, "env")
    noise = env_doc.get("noise", False)
    if not isinstance(noise, bool):
        raise ConfigError(f"env noise must be true or false, not {noise!r}")
    env_cfg = EnvConfig(horizon=env_doc.get("horizon", 5),
                        noise=NoiseConfig(enabled=noise))
    if "ablation" in env_doc:
        env_cfg.ablation = AblationConfig.from_name(env_doc["ablation"])
    return specs, train_cfg, policy_cfg, env_cfg


def cmd_train(args) -> int:
    specs, train_cfg, policy_cfg, env_cfg = load_train_config(args.config)
    result = train(specs, train_cfg, args.out, policy_cfg=policy_cfg,
                   env_cfg=env_cfg)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"curve: {result.curve_path}")
    print(f"final deterministic success rate: {result.final_success_rate:.1%}")
    return EXIT_OK


def cmd_replay(args) -> int:
    replay_svg(args.log, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multinav")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmark trials of one scenario")
    run.add_argument("--config", help="JSON file with run options; flags override")
    run.add_argument("--scenario", choices=[k.value for k in Kind])
    run.add_argument("--scenario-file", dest="scenario_file",
                     help="replay trials on a saved scenario JSON")
    run.add_argument("--agents", type=int)
    run.add_argument("--controller", choices=["policy", "orca", "straight"])
    run.add_argument("--checkpoint")
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--scale", type=float)
    run.add_argument("--obstacles", type=int)
    run.add_argument("--noise", action="store_true")
    run.add_argument("--ablation",
                     choices=["none", "no-gp", "no-gnn", "drl-nav"])
    run.add_argument("--workers", type=int)
    run.add_argument("--out")
    run.add_argument("--log", help="trajectory JSONL path")
    run.add_argument("--log-obs", action="store_true")
    run.add_argument("--log-rewards", action="store_true")
    run.add_argument("--log-scans", action="store_true")
    run.add_argument("--log-paths", action="store_true")
    run.add_argument("--log-tracks", action="store_true")
    run.set_defaults(fn=cmd_run)

    grid = sub.add_parser("grid", help="full evaluation sweep")
    grid.add_argument("--controllers", nargs="+", default=["orca", "straight"],
                      choices=["policy", "orca", "straight"])
    grid.add_argument("--checkpoint")
    grid.add_argument("--trials", type=int, default=50)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--noise", action="store_true")
    grid.add_argument("--workers", type=int, default=1)
    grid.add_argument("--out", default="grid.csv")
    grid.set_defaults(fn=cmd_grid)

    tr = sub.add_parser("train", help="PPO training from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", default="train_out")
    tr.set_defaults(fn=cmd_train)

    rp = sub.add_parser("replay", help="trajectory log to SVG")
    rp.add_argument("--log", required=True)
    rp.add_argument("--out", default="replay.svg")
    rp.set_defaults(fn=cmd_replay)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalDivergence as e:
        print(f"numerical divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ConfigError, Overconstrained, FileNotFoundError,
            json.JSONDecodeError, ValueError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
