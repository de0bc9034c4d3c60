"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one short round, untraced and traced, with every
correctness check on, and requires zero failed operations and the metric
names and units `BENCHMARK.json` declares. Then feeds each check a broken
output and requires it to report a problem, so a check that can never fail
shows up here. Writes `perfbench/results/selftest.json`; exits 1 on any
failure.
"""

from __future__ import annotations

import json
import math
import sys
import traceback

import run as bench_run


def small(name: str):
    """The named workload with its rounds cut to a few steps."""
    from workloads import WORKLOADS, EvalWorkload

    w = WORKLOADS[name]()
    if isinstance(w, EvalWorkload):
        w.steps_per_round = 2
        w.setups_per_round = 1
    else:
        w.env_steps = 2048
        w.setups_per_round = 1
    return w


def test_declaration() -> None:
    """BENCHMARK.json names the workloads and metrics the code reports."""
    import layers
    from workloads import WORKLOADS

    with open(bench_run.ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    assert doc["command"] == ["python3", "perfbench/run.py"], doc["command"]
    assert doc["paths"] == ["perfbench"], doc["paths"]
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(bench_run.WORKLOAD_NAMES) == list(WORKLOADS), names
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == layers.PER_LAYER


def test_workload(name: str, trace: int) -> dict:
    import layers

    result, _ = bench_run.measure(small(name), name, seed=0, seconds=0,
                                  trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    declared = ({n: u for n, u, _ in layers.PER_LAYER} if trace else
                {n: u for n, u, _, _ in bench_run.END_TO_END})
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == declared, set(got) ^ set(declared)
    for k, m in result["metrics"].items():
        assert math.isfinite(m["value"]), (k, m)
        if not trace:
            assert m["value"] > 0, (k, m)
    return result


def test_checks_catch_faults() -> None:
    """Every check reports a problem on an output broken on purpose."""
    import numpy as np

    import checks
    from multinav import policy, ppo, rollout, scenarios
    from multinav.planner import GlobalPath
    from multinav.scenarios import Kind

    spec = scenarios.eval_suite(Kind.DOORWAY, 10, rng_seed=0)
    env = rollout.NavEnv(spec, rollout.EnvConfig(), seed=0)
    scenario = scenarios.generate(spec)
    obs = env.reset(scenario)
    world = env.world
    assert checks.check_outcomes(env) == []
    assert checks.check_clearance(world) == []
    assert checks.check_clean_perception(env) == []
    plan = (env.grid, world.config.bounds, scenario.starts, scenario.goals,
            env.paths)
    assert checks.check_plans([plan]) == []

    # a detour that steps off the path and back costs more than the optimum
    wp = env.paths[0].waypoints
    detour = np.vstack([wp[:1], wp[1:2], wp[:1], wp])
    bad = list(env.paths)
    bad[0] = GlobalPath.from_waypoints(detour)
    assert checks.check_plans([plan[:4] + (bad,)]), "detour not caught"

    net = policy.ActorCritic(policy.PolicyConfig.reduced(), seed=0)
    live = list(range(len(obs)))
    mean, _, _ = net.forward_batch(policy.batch_obs(obs))
    raws = [(min(max(m[0], 0.0), 1.0), min(max(m[1], -1.0), 1.0)) for m in mean]
    assert checks.check_policy_rows(net, policy.batch_obs, obs, raws, live) == []
    raws[3] = (raws[3][0] + 0.5, raws[3][1])
    assert checks.check_policy_rows(net, policy.batch_obs, obs, raws, live)

    assert checks.check_orca_calls([np.array([0.6, 0.8])], 1) == []
    assert checks.check_orca_calls([np.array([np.nan, 0.8])], 1)
    assert checks.check_orca_calls([], 1)

    before = checks.snapshot(world)
    world.robots[0].position = world.robots[0].position + np.array([0.2, 0.0])
    assert checks.check_motion(before, world), "fast move not caught"
    world.robots[0].position = before[0][0].copy()
    hit = int(np.flatnonzero(env.histories[0].frames[-1].ranges < 3.0)[0])
    env.histories[0].frames[-1].ranges[hit] *= 0.9
    assert checks.check_clean_perception(env), "phantom return not caught"
    world.robots[1].position = world.robots[0].position + np.array([0.3, 0.0])
    assert checks.check_clearance(world), "overlap not caught"
    env.records[2].outcome = "collided"
    assert checks.check_outcomes(env), "record mismatch not caught"

    # a tiny training run, then a step count and a loader that are wrong
    work = bench_run.HERE / "results" / "selftest-train"
    cfg = ppo.TrainConfig(rollout_length=16, minibatch_size=16, ppo_epochs=1,
                          num_parallel_envs=2, total_env_steps=32,
                          eval_episodes=1, seed=0)
    desk = scenarios.ScenarioSpec(Kind.RANDOM, scale=5.0, num_agents=1,
                                  num_obstacles=0, max_episode_time=2.0)
    pcfg = policy.PolicyConfig.reduced()
    result = ppo.train([desk], cfg, str(work), policy_cfg=pcfg)
    batch = policy.batch_obs(obs)
    assert checks.check_training(result, 32, 2, policy.ActorCritic.load, batch,
                                 str(work / "again.json")) == []
    assert checks.check_training(result, 64, 2, policy.ActorCritic.load, batch,
                                 str(work / "again.json")), "short run not caught"

    def lossy_load(path):
        # a loader that rounds one parameter through float32
        net = policy.ActorCritic.load(path)
        p = next(iter(net.named_params().values()))
        p[...] = p.astype(np.float32)
        return net

    assert checks.check_training(result, 32, 2, lossy_load, batch,
                                 str(work / "again.json")), "lossy load not caught"


def main() -> int:
    bench_run.use_checkout_source()
    tests = [("declaration", test_declaration),
             ("checks catch faults", test_checks_catch_faults)]
    for name in bench_run.WORKLOAD_NAMES:
        for trace in (0, 1):
            tests.append((f"{name} trace {trace}",
                          lambda n=name, t=trace: test_workload(n, t)))
    report, failures = {}, 0
    for label, fn in tests:
        try:
            out = fn()
            report[label] = {"ok": True, "result": out}
            print(f"PASS {label}", flush=True)
        except Exception:
            failures += 1
            report[label] = {"ok": False, "error": traceback.format_exc()}
            print(f"FAIL {label}\n{traceback.format_exc()}", flush=True)
    (bench_run.HERE / "results").mkdir(exist_ok=True)
    with open(bench_run.HERE / "results" / "selftest.json", "w") as f:
        json.dump(report, f, indent=1)
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    bench_run.pin_blas()
    sys.exit(main())
