"""Deterministic 2D multi-robot navigation.

A seedable disc-robot simulator with differential-drive kinematics, a
simulated 360-degree LiDAR, model-free dynamic-obstacle tracking, A* global
paths with a running-target lookahead, a graph-attentive PPO navigation
policy, an ORCA baseline for nonholonomic robots, parametric training and
evaluation scenarios, and a four-metric benchmark harness.
"""

import os

# One BLAS thread unless the user says otherwise: the policy's matrices are
# small, so threading them only adds overhead, and `run --workers N` would
# oversubscribe the cores. This takes effect only if numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .geometry import Circle, Wall, wrap_angle
from .sim import (Action, ActionArity, NonFiniteAction, RobotState, Status,
                  StepReport, World, WorldConfig, clamp_action, integrate)
from .lidar import LidarScan, ScanHistory, apply_lidar_noise, raycast
from .planner import (EmptyPath, GlobalPath, InvalidEndpoint, OccupancyGrid,
                      TargetPoint, Unreachable, astar, rasterize, running_target)
from .tracker import Cluster, ClusterTrack, Tracker
from .observations import (AblationConfig, NeighborGraph, NoiseConfig,
                           ObservationBundle, apply_state_noise,
                           build_observation, normalize)
from .reward import progress_reward, reward_terms, social_penalty
from .policy import (ActionDistribution, ActorCritic, NumericalDivergence,
                     PolicyConfig, deterministic_action)

__version__ = "0.1.0"
