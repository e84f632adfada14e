"""Bundled scenario presets: trajectory, object constellation, and episode
schedule. Ten scenes at desk scale with diverse motion, object counts,
distances and viewing angles; presets 9 and 10 carry ambiguity-episode
schedules that inflate the true rotation noise over ~30% / ~25% of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom3 import quat_exp
from .sim import TrajectorySpec
from .state import ObjectState


@dataclass
class ScenarioPreset:
    trajectory: TrajectorySpec
    world: list                                    # ObjectState; id = index
    episodes: list = field(default_factory=list)  # (t_start, t_end, factor)


def _obj(obj_class, p, rotvec=(0.0, 0.0, 0.0)):
    return ObjectState(obj_class, np.asarray(p, dtype=float),
                       quat_exp(np.asarray(rotvec, dtype=float)))


def _traj(pos_amp, pos_freq, pos_phase, eul_amp, eul_freq, eul_phase):
    return TrajectorySpec(pos_amp=pos_amp, pos_freq=pos_freq,
                          pos_phase=pos_phase, eul_amp=eul_amp,
                          eul_freq=eul_freq, eul_phase=eul_phase)


def _build_presets():
    presets = {}

    presets["preset01"] = ScenarioPreset(
        _traj([0.30, 0.20, 0.10], [0.20, 0.30, 0.25], [0.0, 1.0, 2.0],
              [0.15, 0.10, 0.08], [0.15, 0.10, 0.20], [0.5, 1.5, 2.5]),
        [_obj("box", [1.5, 0.0, 0.0]),
         _obj("mug", [1.2, 0.4, 0.1], [0.0, 0.0, 0.5])])

    presets["preset02"] = ScenarioPreset(
        _traj([0.25, 0.30, 0.12], [0.22, 0.18, 0.30], [1.2, 0.3, 2.1],
              [0.12, 0.08, 0.10], [0.12, 0.17, 0.09], [0.0, 2.0, 4.0]),
        [_obj("box", [3.0, 0.0, 0.0], [0.2, 0.0, -0.3])])

    presets["preset03"] = ScenarioPreset(
        _traj([0.20, 0.25, 0.15], [0.30, 0.21, 0.17], [0.7, 1.9, 0.2],
              [0.18, 0.07, 0.12], [0.10, 0.22, 0.14], [1.0, 0.0, 3.0]),
        [_obj("box", [1.0, -0.3, 0.0]),
         _obj("can", [1.8, 0.3, -0.1], [0.0, 0.3, 0.0]),
         _obj("drill", [2.2, -0.2, 0.2], [1.0, 0.0, 0.0])])

    presets["preset04"] = ScenarioPreset(
        _traj([0.35, 0.30, 0.18], [0.33, 0.27, 0.35], [0.0, 0.8, 1.6],
              [0.20, 0.12, 0.15], [0.20, 0.15, 0.25], [2.0, 1.0, 0.0]),
        [_obj("mug", [0.8, 0.1, -0.1], [0.0, 0.0, 1.2])])

    presets["preset05"] = ScenarioPreset(
        _traj([0.30, 0.40, 0.10], [0.15, 0.12, 0.20], [0.4, 2.2, 1.1],
              [0.22, 0.06, 0.05], [0.08, 0.12, 0.10], [0.0, 1.0, 2.0]),
        [_obj("box", [2.0, 0.5, 0.0]),
         _obj("bottle", [2.3, -0.4, 0.15], [0.0, 0.0, -0.8])])

    presets["preset06"] = ScenarioPreset(
        _traj([0.22, 0.28, 0.14], [0.25, 0.19, 0.28], [1.5, 0.5, 2.8],
              [0.14, 0.09, 0.11], [0.14, 0.11, 0.18], [0.3, 2.4, 1.2]),
        [_obj("box", [1.4, -0.2, 0.0]),
         _obj("mug", [1.1, 0.35, 0.05], [0.0, 0.0, 2.0]),
         _obj("can", [1.9, 0.1, -0.2]),
         _obj("drill", [2.4, -0.45, 0.25], [0.0, 0.5, 0.0])])

    presets["preset07"] = ScenarioPreset(
        _traj([0.26, 0.22, 0.20], [0.18, 0.26, 0.22], [0.1, 1.3, 2.6],
              [0.10, 0.16, 0.08], [0.11, 0.16, 0.12], [1.8, 0.0, 0.9]),
        [_obj("bottle", [1.4, 0.2, 0.35], [0.4, 0.0, 0.0]),
         _obj("box", [1.3, -0.25, -0.30])])

    presets["preset08"] = ScenarioPreset(
        _traj([0.40, 0.35, 0.22], [0.35, 0.30, 0.40], [0.0, 1.1, 2.2],
              [0.18, 0.14, 0.16], [0.25, 0.20, 0.30], [0.6, 1.7, 2.9]),
        [_obj("box", [1.6, 0.0, 0.1]),
         _obj("can", [1.2, -0.4, -0.1], [0.0, 0.0, 0.7]),
         _obj("mug", [2.0, 0.45, 0.2], [0.0, 0.0, -1.5])])

    presets["preset09"] = ScenarioPreset(
        _traj([0.28, 0.24, 0.12], [0.20, 0.24, 0.27], [0.9, 0.0, 1.8],
              [0.12, 0.09, 0.10], [0.13, 0.18, 0.11], [0.0, 1.2, 2.4]),
        [_obj("mug", [1.0, 0.0, 0.0], [0.0, 0.0, 0.9])],
        episodes=[(4.0, 7.0, 6.0), (12.0, 15.0, 6.0)])

    presets["preset10"] = ScenarioPreset(
        _traj([0.24, 0.30, 0.16], [0.24, 0.17, 0.29], [2.0, 0.6, 0.0],
              [0.16, 0.10, 0.12], [0.16, 0.13, 0.21], [1.1, 0.0, 1.9]),
        [_obj("mug", [1.1, 0.2, 0.0], [0.0, 0.0, 1.8]),
         _obj("box", [1.7, -0.3, 0.1])],
        episodes=[(5.0, 8.0, 4.5), (14.0, 16.0, 4.5)])

    return presets


PRESETS = _build_presets()


def get_preset(name: str) -> ScenarioPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: "
                       f"{', '.join(sorted(PRESETS))}") from None
