from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from orekf.cli import (
    build_parser,
    child_seed,
    cmd_run,
    cmd_sweep,
    execute_run,
    main,
)
from orekf.config import ConfigError, RunConfig, parse_config, write_config
from orekf.gating import METHODS
from orekf.metrics import rmse_position
from orekf.presets import PRESETS, get_preset
from orekf.replay import ReplayLogError, read_log, write_log
from orekf.runner import MODELS, run_filter
from orekf.sim import SIGMA_MODES
from tests.test_runner import SETUPS


BASE_CONFIG = """\
config_version = 1
preset = preset01
duration = 3.0
seed = 5
filter = direct
gating = chi2
sigma_mode = exact
sigma_p = 0.02
sigma_theta = 0.05
"""


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


positive = hs.floats(1e-6, 1e3, allow_subnormal=False)
triples = hs.tuples(positive, positive, positive)


@hs.composite
def configs(draw):
    ftype, method = draw(hs.sampled_from(SETUPS))
    episodes = draw(hs.none() | hs.lists(triples, max_size=3))
    return RunConfig(
        preset=draw(hs.sampled_from(sorted(PRESETS))),
        duration=draw(positive),
        seed=draw(hs.integers(0, 2**32 - 1)),
        filter=ftype,
        gating=method,
        sigma_mode=draw(hs.sampled_from(SIGMA_MODES)),
        sigma_p=draw(triples),
        sigma_theta=draw(triples),
        cam_rate=draw(hs.sampled_from([1.0, 10.0, 20.0, 40.0, 200.0])),
        chi2_alpha=draw(hs.floats(1e-6, 0.999, allow_subnormal=False)),
        match_gate=draw(positive),
        runs_per_cell=draw(hs.integers(1, 1000)),
        sweep_sigma_p=tuple(draw(hs.lists(positive, min_size=1,
                                          max_size=5))),
        episodes=None if episodes is None
        else tuple(v for triple in episodes for v in triple))


class TestConfigParsing:
    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_write_parse_round_trip(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
        write_config(path, cfg.validate())
        assert parse_config(path) == cfg

    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        assert cfg.preset == "preset01"
        assert cfg.seed == 5
        assert cfg.sigma_p == (0.02, 0.02, 0.02)
        out = tmp_path / "echo.txt"
        write_config(out, cfg)
        cfg2 = parse_config(out)
        assert cfg2 == cfg

    def test_missing_version(self, tmp_path):
        with pytest.raises(ConfigError, match="config_version"):
            parse_config(write(tmp_path, "preset = preset01\n"))

    def test_version_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="not supported"):
            parse_config(write(tmp_path,
                               "config_version = 9\npreset = preset01\n"))

    def test_missing_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(write(tmp_path, "config_version = 1\nseed = 3\n"))

    def test_unknown_field_with_line_number(self, tmp_path):
        text = "config_version = 1\npreset = preset01\nbogus_field = 3\n"
        with pytest.raises(ConfigError, match="line 3.*bogus_field"):
            parse_config(write(tmp_path, text))

    def test_bad_value_with_line_number(self, tmp_path):
        text = "config_version = 1\npreset = preset01\nseed = abc\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(write(tmp_path, text))

    def test_short_episode_list_with_line_number(self, tmp_path):
        text = BASE_CONFIG + "episodes = 1, 2\n"
        with pytest.raises(ConfigError, match="line 10.*episodes"):
            parse_config(write(tmp_path, text))

    def test_repeated_key_with_line_number(self, tmp_path):
        text = BASE_CONFIG + "seed = 4\n"
        with pytest.raises(ConfigError, match="line 10.*'seed'"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("body, message", [
        ("filter = ukf\nseed = 2\n", "line 3: unknown filter type 'ukf'"),
        ("sigma_mode = bogus\nseed = 2\n",
         "line 3: unknown sigma mode 'bogus'"),
        ("duration = -1\nseed = 2\n", "line 3: duration must be positive"),
        ("sweep_sigma_p =\nseed = 2\n", "line 3: the sweep grid needs"),
        # a conflict is complete only at the later of its two lines
        ("filter = inverse\nseed = 2\ngating = chi2p\nduration = 1\n",
         "line 5: the inverse filter"),
        ("gating = chi2p\nseed = 2\nfilter = inverse\nduration = 1\n",
         "line 5: the inverse filter"),
    ], ids=["filter", "sigma_mode", "duration", "empty_sweep_grid",
            "gating_completes_conflict", "filter_completes_conflict"])
    def test_invalid_value_names_its_line(self, tmp_path, body, message):
        text = "config_version = 1\npreset = preset01\n" + body
        with pytest.raises(ConfigError, match="^" + message):
            parse_config(write(tmp_path, text))

    def test_inconsistent_filter_gating(self, tmp_path):
        text = BASE_CONFIG.replace("filter = direct", "filter = inverse") \
                          .replace("gating = chi2", "gating = aorp")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))

    def test_unknown_preset(self, tmp_path, capsys):
        path = write(tmp_path, BASE_CONFIG.replace("preset01", "presetXX"))
        with pytest.raises(ConfigError, match="line 2: unknown preset "
                                              "'presetXX'"):
            parse_config(path)
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: line 2: unknown preset 'presetXX'; available: preset01")

    def test_trajectory_leaves_the_preset_unchanged(self):
        before = get_preset("preset01").trajectory.duration
        traj = RunConfig(preset="preset01", duration=3).trajectory()
        assert traj.duration == 3.0
        assert get_preset("preset01").trajectory.duration == before

    def test_scalar_expands_to_triple(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        assert len(cfg.sigma_theta) == 3


class TestRunCommand:
    def test_byte_identical_outputs(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("run.csv", "summary.csv", "replay.log"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CONFIG)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "c"),
              "--seed", "99"])
        assert (tmp_path / "a" / "run.csv").read_bytes() \
            != (tmp_path / "c" / "run.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "config_version = 1\nbogus = 1\n", "bad.txt")
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_camera_rate_not_dividing_imu_rate(self, tmp_path, capsys):
        bad = write(tmp_path, BASE_CONFIG + "cam_rate = 7\n", "bad.txt")
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "camera rate" in err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x")]) == 2


class TestReplay:
    def test_replay_is_bit_exact(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, record = execute_run(cfg, cfg.seed)
        log_path = tmp_path / "r.log"
        write_log(log_path, imu, meas)
        imu2, meas2 = read_log(log_path)
        assert np.array_equal(imu.acc, imu2.acc)
        assert np.array_equal(imu.gyro, imu2.gyro)
        record2 = run_filter(imu2, meas2, cfg.filter_setup())
        assert np.array_equal(record.p_est, record2.p_est)
        assert np.array_equal(record.q_est, record2.q_est)
        assert np.array_equal(record.cov_pos, record2.cov_pos)

    def test_cross_filter_replay(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG.replace(
            "gating = chi2", "gating = none")))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        log_path = tmp_path / "r.log"
        write_log(log_path, imu, meas)
        imu2, meas2 = read_log(log_path)
        cfg.filter = "inverse"
        rec_inv = run_filter(imu2, meas2, cfg.filter_setup())
        assert rmse_position(rec_inv) < 1.0  # consumes the same stream fine

    def test_truncated_log_raises(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        log_path = tmp_path / "r.log"
        write_log(log_path, imu, meas)
        data = log_path.read_text()
        (tmp_path / "trunc.log").write_text(data[: len(data) // 2])
        with pytest.raises(ReplayLogError):
            read_log(tmp_path / "trunc.log")

    def test_record_cut_inside_its_last_field_raises_with_line_number(
            self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        write_log(tmp_path / "r.log", imu, meas)
        data = (tmp_path / "r.log").read_text()
        last_line = data.count("\n")
        (tmp_path / "cut.log").write_text(data[:-3])
        with pytest.raises(ReplayLogError,
                           match=f"^line {last_line}: .*newline"):
            read_log(tmp_path / "cut.log")

    def test_log_cut_between_camera_ticks_exits_2_with_line_number(
            self, tmp_path, capsys):
        cfg_path = write(tmp_path, BASE_CONFIG)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        lines = (tmp_path / "a" / "replay.log").read_text() \
            .splitlines(keepends=True)
        truth = [i for i, line in enumerate(lines) if ",TRUTH," in line]
        (tmp_path / "cut.log").write_text("".join(lines[:truth[5] - 3]))
        first_imu = next(i for i in range(truth[4], truth[5])
                         if ",IMU," in lines[i])
        assert main(["replay", "--config", str(cfg_path),
                     "--log", str(tmp_path / "cut.log"),
                     "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line {first_imu + 1}: IMU records continue past the "
            f"last TRUTH tick")

    def test_truth_without_imu_sample_at_its_time_raises_with_line_number(
            self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        write_log(tmp_path / "r.log", imu, meas)
        lines = (tmp_path / "r.log").read_text().splitlines(keepends=True)
        idx = [i for i, line in enumerate(lines) if ",TRUTH," in line][5]
        del lines[idx - 1]  # the IMU sample at the tick's own time
        (tmp_path / "gap.log").write_text("".join(lines))
        with pytest.raises(ReplayLogError, match=f"^line {idx}: TRUTH"):
            read_log(tmp_path / "gap.log")

    @staticmethod
    def _short_log(tmp_path):
        """A 1 s preset01 run: its config path and its replay log's lines."""
        cfg_path = write(tmp_path, "config_version = 1\npreset = preset01\n"
                                   "duration = 1.0\nseed = 0\n")
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        lines = (tmp_path / "a" / "replay.log").read_text() \
            .splitlines(keepends=True)
        return cfg_path, lines

    @staticmethod
    def _replay_lines(tmp_path, cfg_path, lines):
        (tmp_path / "bad.log").write_text("".join(lines))
        return main(["replay", "--config", str(cfg_path),
                     "--log", str(tmp_path / "bad.log"),
                     "--out", str(tmp_path / "rep")])

    def test_uneven_imu_spacing_exits_2_with_line_number(self, tmp_path,
                                                         capsys):
        cfg_path, lines = self._short_log(tmp_path)
        idx = [i for i, line in enumerate(lines) if ",IMU," in line][13]
        t, rest = lines[idx].split(",", 1)
        lines[idx] = format(float(t) + 1e-4, ".17g") + "," + rest
        capsys.readouterr()
        assert self._replay_lines(tmp_path, cfg_path, lines) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line {idx + 1}: IMU samples are not evenly spaced")

    def test_swapped_imu_timestamps_exit_2_with_line_number(self, tmp_path,
                                                            capsys):
        cfg_path, lines = self._short_log(tmp_path)
        idx = [i for i, line in enumerate(lines) if ",IMU," in line][13]
        assert ",IMU," in lines[idx + 1] and ",IMU," in lines[idx + 2]
        lines[idx], lines[idx + 1] = lines[idx + 1], lines[idx]
        capsys.readouterr()
        assert self._replay_lines(tmp_path, cfg_path, lines) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line {idx + 2}: timestamps are not strictly increasing")

    def test_missing_camera_tick_exits_2_with_line_number(self, tmp_path,
                                                          capsys):
        cfg_path, lines = self._short_log(tmp_path)
        truth = [i for i, line in enumerate(lines) if ",TRUTH," in line]
        # drop tick 5's TRUTH and MEAS records; tick 6 becomes the fifth
        nxt = next(i for i in range(truth[5], truth[6]) if ",IMU," in lines[i])
        del lines[truth[5]:nxt]
        capsys.readouterr()
        assert self._replay_lines(tmp_path, cfg_path, lines) == 2
        line = truth[6] - (nxt - truth[5]) + 1
        assert capsys.readouterr().err.startswith(
            f"error: line {line}: camera tick 5 at t=0.3 s does not fall on "
            f"IMU sample 50")

    def test_misaligned_measurement_raises_with_line_number(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        log_path = tmp_path / "r.log"
        write_log(log_path, imu, meas)
        lines = log_path.read_text().splitlines(keepends=True)
        idx = [i for i, line in enumerate(lines) if ",MEAS," in line][5]
        t, rest = lines[idx].split(",", 1)
        lines[idx] = format(float(t) + 1e-6, ".17g") + "," + rest
        (tmp_path / "shifted.log").write_text("".join(lines))
        with pytest.raises(ReplayLogError, match=f"^line {idx + 1}: MEAS"):
            read_log(tmp_path / "shifted.log")

    def test_measurements_land_on_their_ticks(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        imu, meas, _ = execute_run(cfg, cfg.seed)
        write_log(tmp_path / "r.log", imu, meas)
        _, meas2 = read_log(tmp_path / "r.log")
        assert [[m.p_co.tolist() for m in f] for f in meas2.ticks] \
            == [[m.p_co.tolist() for m in f] for f in meas.ticks]

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("replay-log 99\n0,IMU,0,0,9.81,0,0,0\n")
        with pytest.raises(ReplayLogError, match="header"):
            read_log(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [2, 5], ids=["acc", "gyro"])
    def test_extreme_imu_value_replays_as_diverged(self, tmp_path, capsys,
                                                   column):
        cfg_path, lines = self._short_log(tmp_path)
        capsys.readouterr()
        imu = [i for i, line in enumerate(lines) if ",IMU," in line]
        for n in (0, 1, 100, len(imu) - 1):
            parts = lines[imu[n]].split(",")
            parts[column] = "1e300"
            bad = lines[:imu[n]] + [",".join(parts)] + lines[imu[n] + 1:]
            assert self._replay_lines(tmp_path, cfg_path, bad) == 0, n
            out = capsys.readouterr()
            assert out.out.startswith("DIVERGED"), n
            assert out.err == "", n

    def test_replay_cli_matches_run_cli(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CONFIG)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["replay", "--config", str(cfg_path),
              "--log", str(tmp_path / "a" / "replay.log"),
              "--out", str(tmp_path / "rep")])
        assert (tmp_path / "a" / "run.csv").read_bytes() \
            == (tmp_path / "rep" / "run.csv").read_bytes()


SWEEP_CONFIG = """\
config_version = 1
preset = preset02
duration = 2.0
seed = 4
filter = direct
gating = none
sigma_mode = exact
runs_per_cell = 2
sweep_sigma_p = 0.02
sweep_sigma_theta = 0.05
"""


class TestSweep:
    def test_single_cell_matches_two_single_runs(self, tmp_path):
        cfg = parse_config(write(tmp_path, SWEEP_CONFIG))
        results = cmd_sweep(cfg, tmp_path / "sw", parallel=1)
        for k in range(2):
            seed, met = results[(0, 0, k)]
            assert seed == child_seed(cfg.seed, 0, 0, k)
            _, _, record = execute_run(
                replace(cfg, sigma_p=(0.02,) * 3, sigma_theta=(0.05,) * 3),
                seed)
            assert abs(met["rmse_position_m"] - rmse_position(record)) < 1e-15

    def test_parallel_equals_serial(self, tmp_path):
        cfg_path = write(tmp_path, SWEEP_CONFIG)
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s1"), "--parallel", "1"]) == 0
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s2"), "--parallel", "2"]) == 0
        for name in ("sweep_cells.csv", "sweep_table.csv", "sweep_table.md"):
            assert (tmp_path / "s1" / name).read_bytes() \
                == (tmp_path / "s2" / name).read_bytes()

    def test_table_shape_default_grid(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE_CONFIG))
        assert len(cfg.sweep_sigma_p) == 5
        assert len(cfg.sweep_sigma_theta) == 4


def test_parser_choices_come_from_their_owners():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name, cmd in sub.choices.items():
        choices = {a.dest: tuple(a.choices) for a in cmd._actions
                   if a.choices is not None}
        assert choices["filter"] == tuple(MODELS)
        assert choices["gating"] == METHODS
        if name != "replay":
            assert choices["sigma_mode"] == SIGMA_MODES

