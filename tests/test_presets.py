import numpy as np
import pytest

from orekf.presets import PRESETS, get_preset
from orekf.sim import SensorSpec, gen_measurements


def test_ten_presets_exist():
    assert len(PRESETS) == 10
    assert sorted(PRESETS) == [f"preset{k:02d}" for k in range(1, 11)]


def test_unknown_preset_raises():
    with pytest.raises(KeyError, match="preset99"):
        get_preset("preset99")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_objects_visible_throughout(name):
    preset = get_preset(name)
    meas = gen_measurements(preset.trajectory, preset.world,
                            SensorSpec(sigma_p=0.0, sigma_theta=0.0), seed=0)
    n_obj = len(preset.world)
    # every object seen at the first tick (anchor exists from t = 0) and
    # visibility stays high across the run
    assert len(meas.ticks[0]) == n_obj
    frac = np.mean([len(f) for f in meas.ticks]) / n_obj
    assert frac > 0.9


def test_episode_presets_cross_rejection_thresholds():
    for name in ("preset09", "preset10"):
        preset = get_preset(name)
        assert preset.episodes
        total = sum(t1 - t0 for t0, t1, _ in preset.episodes)
        assert total / preset.trajectory.duration >= 0.2
        # reported sigma inside a window crosses the partial threshold for
        # the default base sigma_theta of the campaign configs
        for _, _, factor in preset.episodes:
            assert 0.0875 * factor > 0.175


def test_episode_windows_cover_30_percent_on_preset09():
    preset = get_preset("preset09")
    total = sum(t1 - t0 for t0, t1, _ in preset.episodes)
    assert abs(total / preset.trajectory.duration - 0.3) < 1e-9
