"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line each (run with `pytest -s tests/test_acceptance.py`).

The heavyweight entries (baseline reproduction, desk-scale training) live
here rather than in the unit suites; expect a few minutes of wall time.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from multinav.bench import run_trials
from multinav.cli import main as cli_main
from multinav.geometry import Circle, dist_circle_surface
from multinav.lidar import BEAM_OFFSETS, MAX_RANGE, N_BEAMS, raycast
from multinav.planner import Unreachable, astar, path_cost_counts
from multinav.planner import OccupancyGrid
from multinav.policy import ActorCritic, PolicyConfig, batch_obs
from multinav.ppo import TrainConfig, compute_gae, train
from multinav.reward import R_P, progress_reward, reward_terms, social_penalty
from multinav.scenarios import Kind, ScenarioSpec, eval_suite
from multinav.sim import Action, Status, World, WorldConfig
from multinav.tracker import Tracker

from test_lidar import march_ray
from test_obs import bundle_of
from test_planner import dijkstra_cost
from test_ppo import mc_advantages


def _report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_criterion_01_orca_circle():
    t0 = time.time()
    rates = {}
    for agents in (10, 20):
        m = run_trials(eval_suite(Kind.CIRCLE, agents), "orca", trials=50,
                       noise_on=True, base_seed=0)
        rates[agents] = m.success_rate
    elapsed = time.time() - t0
    ok = all(r >= 0.95 for r in rates.values()) and elapsed < 300.0
    _report(1, "NH-ORCA circle 7.5 m, 10/20 agents, 50 trials: success >= 95%",
            ok, f"success {rates[10]:.1%}/{rates[20]:.1%}, {elapsed:.0f}s")


def test_criterion_02_orca_doorway_hard():
    m = run_trials(eval_suite(Kind.DOORWAY, 5), "orca", trials=50,
                   noise_on=True, base_seed=0)
    ok = 0.10 <= m.success_rate <= 0.60
    _report(2, "NH-ORCA doorway 5 agents: success in [10%, 60%]", ok,
            f"success {m.success_rate:.1%}, stuck {m.stuck_rate:.1%}, "
            f"collision {m.collision_rate:.1%}")


def test_criterion_03_straight_controller_sanity():
    spec = ScenarioSpec(kind=Kind.RANDOM, scale=15.0, num_agents=1,
                        num_obstacles=0, rng_seed=0)
    m = run_trials(spec, "straight", trials=10, base_seed=10)
    ok = (m.success_rate == 1.0 and abs(m.extra_time_ratio) < 0.02
          and m.average_speed > 0.95)
    _report(3, "straight controller: extra time < 2%, speed > 0.95 m/s", ok,
            f"ratio {m.extra_time_ratio:+.3%}, speed {m.average_speed:.3f}")


def test_criterion_04_astar_equals_dijkstra():
    rng = np.random.default_rng(int(1e6))
    checked = mismatches = 0
    while checked < 500:
        cells = rng.random((20, 20)) < 0.2
        cells[0, 0] = cells[19, 19] = False
        grid = OccupancyGrid(resolution=1.0, origin=(0.0, 0.0), cells=cells,
                             inflation_radius=0.25)
        oracle = dijkstra_cost(cells, (0, 0), (19, 19), 1.0)
        try:
            path = astar(grid, (0.5, 0.5), (19.5, 19.5))
        except Unreachable:
            assert oracle is None
            continue
        if oracle != path_cost_counts(path, 1.0):
            mismatches += 1
        checked += 1
    _report(4, "A* cost == Dijkstra cost on 500 random 20x20 grids (exact)",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_05_raycast_vs_ray_march():
    rng = np.random.default_rng(13)
    worst = 0.0
    scenes = 0
    while scenes < 1000:
        circles = [Circle(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 0.7))
                   for _ in range(rng.integers(1, 4))]
        origin = rng.uniform(-1, 1, 2)
        if any(float(dist_circle_surface(origin[None], c)[0]) < 0.05
               for c in circles):
            continue
        cfg = WorldConfig(bounds=(-20, -20, 20, 20), circles=circles)
        world = World(cfg, [(*origin, rng.uniform(-3, 3))], [(9.0, 9.0)])
        scan = raycast(world, 0)
        for k in rng.integers(0, N_BEAMS, size=2):
            angle = world.robots[0].heading + BEAM_OFFSETS[k]
            t = march_ray(origin, angle, circles, [], [])
            if t >= MAX_RANGE:
                assert scan.ranges[k] == MAX_RANGE
            else:
                worst = max(worst, abs(float(scan.ranges[k]) - t))
        scenes += 1
    _report(5, "raycast vs fine ray-march oracle < 1e-6 m over 1000 scenes",
            worst < 1e-6, f"max error {worst:.2e}")


def test_criterion_06_tracker_fidelity():
    # two-robot crossing, noise off: velocity RMS < 0.15 m/s past warm-up
    cfg = WorldConfig(bounds=(-10, -10, 10, 10))
    world = World(cfg, [(-1.5, 0.0, 0.0), (1.0, -1.5, math.pi / 2)],
                  [(9.0, 9.0)] * 2)
    from multinav.planner import rasterize
    grid = rasterize(cfg)
    trackers = [Tracker(), Tracker()]
    truths = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
    sq = []
    for step in range(50):
        for i in range(2):
            pose = (*world.robots[i].position, world.robots[i].heading)
            trackers[i].update(raycast(world, i), pose, grid, 0.1)
            if step >= 5:
                dyn = trackers[i].dynamic_tracks()
                assert len(dyn) == 1
                err = dyn[0].velocity_estimate - truths[1 - i]
                sq.append(float(err @ err))
        world.step([Action(0.5, 0.0), Action(0.5, 0.0)])
    rms = math.sqrt(np.mean(sq))

    # single smoothly moving disc keeps one id for the whole episode
    world2 = World(cfg, [(0.0, 0.0, 0.0), (2.0, -1.5, 0.0)], [(9.0, 9.0)] * 2)
    tracker = Tracker()
    ids = set()
    for step in range(80):
        world2.robots[1].position = np.array([2.0, -1.5 + 0.35 * 0.1 * step])
        tracker.update(raycast(world2, 0), (0, 0, 0), grid, 0.1)
        ids.update(t.id for t in tracker.dynamic_tracks())
    ok = rms < 0.15 and len(ids) == 1
    _report(6, "tracker: crossing velocity RMS < 0.15 m/s, stable track id",
            ok, f"rms {rms:.3f} m/s, {len(ids)} id(s)")


def test_criterion_07_reward_unit_suite():
    ok = social_penalty(0.15) == pytest.approx(-0.125)

    # branch exclusivity over random inputs
    rng = np.random.default_rng(7)
    for _ in range(300):
        d_min = rng.uniform(-0.5, 1.0)
        status = rng.choice(list(Status))
        if status == Status.REACHED_GOAL and d_min < 0:
            continue
        t = reward_terms(status, d_min, rng.uniform(-2, 2, 2),
                         rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
        fired = [t.goal != 0, t.collision != 0,
                 t.social != 0 or t.progress != 0]
        ok = ok and sum(fired) <= 1

    # telescoping under a fixed target within 1e-9
    target = np.array([3.0, -2.0])
    pts = [rng.uniform(-5, 5, 2) for _ in range(60)]
    total = sum(progress_reward(a, b, target)
                for a, b in zip(pts[:-1], pts[1:]))
    expect = R_P * (np.hypot(*(pts[0] - target))
                    - np.hypot(*(pts[-1] - target)))
    ok = ok and abs(total - expect) < 1e-9
    _report(7, "reward suite: branch exclusivity, -0.125 case, telescoping",
            ok)


def test_criterion_08_gae_oracles():
    rng = np.random.default_rng(8)
    worst_mc = worst_td = 0.0
    for _ in range(30):
        t_len = int(rng.integers(2, 40))
        rewards = rng.normal(0, 1, t_len)
        values = rng.normal(0, 1, t_len)
        dones = np.zeros(t_len)
        dones[-1] = 1.0
        adv1, _ = compute_gae(rewards, values, dones, 0.0, 0.99, 1.0)
        worst_mc = max(worst_mc, float(np.max(np.abs(
            adv1 - mc_advantages(rewards, values, 0.99)))))
        adv0, _ = compute_gae(rewards, values, dones, 0.0, 0.99, 0.0)
        next_v = np.concatenate([values[1:], [0.0]])
        td = rewards + 0.99 * next_v * (1.0 - dones) - values
        worst_td = max(worst_td, float(np.max(np.abs(adv0 - td))))
    hand, _ = compute_gae([1.0, 1.0], [0.0, 0.0], [False, True], 0.0,
                          0.99, 0.95)
    exact = hand[0] == 1.0 + 0.99 * 0.95 and hand[0] == pytest.approx(1.9405)
    ok = worst_mc < 1e-10 and worst_td < 1e-10 and exact
    _report(8, "GAE: lambda=1 == MC, lambda=0 == TD (<1e-10), A0 = 1.9405",
            ok, f"mc {worst_mc:.1e}, td {worst_td:.1e}")


def test_criterion_09_gradient_and_permutation():
    tiny = PolicyConfig(n_beams=12, conv_channels=(3, 4), conv_kernel=3,
                        node_hidden=6, attention_heads=2, attention_head_dim=3,
                        score_dim=5, trunk=(12, 12))
    rng = np.random.default_rng(90)
    net = ActorCritic(tiny, seed=12)
    obs = [bundle_of(z3=rng.uniform(0.1, 1, (3, 12)),
                     extras=rng.uniform(-1, 1, 7),
                     nodes=rng.uniform(-1, 1, (3, 4))),
           bundle_of(z3=rng.uniform(0.1, 1, (3, 12)),
                     extras=rng.uniform(-1, 1, 7),
                     nodes=np.zeros((0, 4)))]
    batch = batch_obs(obs)
    actions = rng.normal(0.3, 0.5, (2, 2))

    def loss():
        mean, std, value = net.forward_batch(batch)
        z = (actions - mean) / std
        return (float(np.sum(-0.5 * z * z - np.log(std)) + value.sum()),
                mean, std, value)

    net.zero_grad()
    _, mean, std, value = loss()
    z = (actions - mean) / std
    net.backward_batch(z / std, (z * z - 1.0) / std, np.ones_like(value))
    analytic = {k: g.copy() for k, g in net.named_grads().items()}

    flat = net.get_flat()
    eps = 1e-6
    worst = 0.0
    offset = 0
    for name, arr in net.named_params().items():
        g = analytic[name].ravel()
        for j in range(arr.size):
            i = offset + j
            saved = flat[i]
            flat[i] = saved + eps
            net.set_flat(flat)
            up = loss()[0]
            flat[i] = saved - eps
            net.set_flat(flat)
            dn = loss()[0]
            flat[i] = saved
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(g[j] - fd) / max(1.0, abs(g[j]), abs(fd)))
        offset += arr.size
    net.set_flat(flat)

    # permutation invariance of the graph encoder
    big = ActorCritic(seed=5)
    nodes = rng.uniform(-1, 1, (1, 7, 4))
    mask = np.ones((1, 7), bool)
    base = big.actor.encode_graph(nodes, mask)
    perm_err = 0.0
    for _ in range(10):
        perm = rng.permutation(7)
        out = big.actor.encode_graph(nodes[:, perm], mask)
        perm_err = max(perm_err, float(np.max(np.abs(out - base))))
    ok = worst < 1e-4 and perm_err < 1e-6
    _report(9, "gradients vs central differences < 1e-4; permutation < 1e-6",
            ok, f"grad {worst:.2e}, perm {perm_err:.2e}")


def test_criterion_10_desk_scale_training(tmp_path):
    spec = ScenarioSpec(kind=Kind.RANDOM, scale=5.0, num_agents=1,
                        num_obstacles=0, max_episode_time=15.0, rng_seed=0)
    cfg = TrainConfig(lr_actor=3e-4, lr_critic=4e-4, rollout_length=256,
                      minibatch_size=512, num_parallel_envs=8, seed=1,
                      total_env_steps=100_000, eval_every=10_000,
                      eval_episodes=10)
    t0 = time.time()
    result = train([spec], cfg, str(tmp_path),
                   policy_cfg=PolicyConfig.reduced())
    elapsed = time.time() - t0
    best = max(r[2] for r in result.rows)
    ok = (best >= 0.9 and result.final_success_rate >= 0.9
          and cfg.total_env_steps <= 300_000 and elapsed < 1800.0)
    _report(10, "single-agent training >= 90% eval success within 300k steps",
            ok, f"final {result.final_success_rate:.0%} in "
                f"{cfg.total_env_steps} steps, {elapsed:.0f}s wall")


def test_criterion_11_ablation_plumbing(tmp_path):
    log_gnn = str(tmp_path / "nognn.jsonl")
    code = cli_main(["run", "--scenario", "random", "--agents", "2",
                     "--obstacles", "0", "--scale", "6", "--controller",
                     "straight", "--trials", "1", "--seed", "4",
                     "--ablation", "no-gnn", "--log", log_gnn, "--log-obs",
                     "--out", str(tmp_path / "a.csv")])
    recs = [json.loads(l) for l in open(log_gnn)]
    obs = [r for r in recs if r["type"] == "observation"]
    gnn_ok = code == 0 and obs and all(r["node_count"] == 0 for r in obs)

    log_gp = str(tmp_path / "nogp.jsonl")
    code = cli_main(["run", "--scenario", "random", "--agents", "2",
                     "--obstacles", "0", "--scale", "6", "--controller",
                     "straight", "--trials", "1", "--seed", "4",
                     "--ablation", "no-gp", "--log", log_gp, "--log-obs",
                     "--log-rewards", "--out", str(tmp_path / "b.csv")])
    recs = [json.loads(l) for l in open(log_gp)]
    obs = [r for r in recs if r["type"] == "observation"]
    header = next(r for r in recs if r["type"] == "header")
    goals = [r["goal"] for r in header["scenario"]["robots"]]
    rewards = [r for r in recs if r["type"] == "reward"]
    gp_ok = (code == 0 and obs
             and all(r["o_gp"] == [0.0, 0.0, 0.0] for r in obs)
             and rewards
             and all(np.allclose(r["target"], goals[r["agent"]])
                     for r in rewards))
    _report(11, "ablations: no-gnn empties graph, no-gp zeroes o_gp and "
                "re-targets rewards at the goal", gnn_ok and gp_ok)


def test_criterion_12_run_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["run", "--scenario", "doorway", "--agents", "4", "--controller",
            "orca", "--trials", "3", "--seed", "11", "--noise"]
    assert cli_main(argv + ["--out", a]) == 0
    assert cli_main(argv + ["--out", b]) == 0
    same = open(a, "rb").read() == open(b, "rb").read()
    _report(12, "identical seeds twice: byte-identical CSV", same)
