"""The per-frame measurement pass against the per-match chain it replaced.

The reference below evaluates every match on its own with the per-block
residual, Jacobian and gating functions, then updates with a dense
innovation covariance H P H^T built from the kept rows and np.linalg.solve.
When gating keeps every row, the frame pass does the same arithmetic and
must agree bit for bit; otherwise it reads S and H P from the frame's
matrices, and BLAS may round those rows differently.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from orekf import gating as gt
from orekf import state as st
from orekf import update_direct as ud
from orekf import update_inverse as ui
from orekf.geom3 import exp_so3, quat_mul, quat_of
from orekf.runner import MODELS, FilterSetup, _Frame, _update_frames
from orekf.state import inject_error, symmetrize
from tests.test_update_direct import consistent_measurement, random_state

METHODS = {"direct": ("none", "chi2", "chi2p", "aor", "aorp"),
           "inverse": ("none", "chi2", "aor")}
COUNT_KEYS = ("accepted", "rejected_all", "rejected_position",
              "rejected_rotation", "degenerate", "updates", "skipped_updates")
FLIP = quat_of(exp_so3([0.0, 0.0, np.pi - 1e-9]))


def update_frame(state, cov, frame, pairs, setup, counts):
    """The run loop's update of one run's frame: (state, cov) after it."""
    objects = state.objects
    f = _Frame(state, cov, counts,
               [(oi, objects[oi], frame[mi]) for mi, oi in pairs],
               MODELS[setup.filter_type])
    _update_frames([f], setup.gating)
    return f.state, f.cov


def reference_block(state, obj_index, meas, direct):
    """(payload, z_p, z_r or None, h_p, h_r, noise_p, noise_r) of one match."""
    mod = ud if direct else ui
    payload = meas if direct else ui.invert_measurement(meas)
    obj = state.objects[obj_index]
    h_p, h_r = mod.jacobians(state, obj_index)
    z_p = mod.residual_position(state, obj, payload)
    if direct:
        noise_p, noise_r = np.diag(meas.var_p), np.diag(meas.var_theta)
    else:
        noise_p, noise_r = payload.cov_p, payload.cov_theta
    try:
        z_r = mod.residual_rotation(state, obj, payload)
    except ud.DegenerateRotationError:
        z_r = None
    return z_p, z_r, h_p, h_r, noise_p, noise_r


def reference_decision(cov, meas, block, cfg, direct):
    z_p, z_r, h_p, h_r, noise_p, noise_r = block
    degenerate = z_r is None
    if cfg.method == "none":
        decision = gt.GatingDecision(gt.Verdict.ACCEPT_ALL, 0.0)
    elif cfg.method in ("aor", "aorp"):
        decision = getattr(gt, cfg.method)(meas)
    elif cfg.method == "chi2":
        if degenerate:
            return gt.GatingDecision(gt.Verdict.REJECT_ALL, float("inf"))
        noise = np.zeros((6, 6))
        noise[:3, :3], noise[3:, 3:] = noise_p, noise_r
        decision = gt.chi2_full(np.concatenate([z_p, z_r]),
                                np.vstack([h_p, h_r]), cov, noise,
                                cfg.chi2_alpha)
    elif degenerate:  # chi2p: the position block is tested on its own
        d_pos = gt.chi2_full(z_p, h_p, cov, noise_p, cfg.chi2_alpha)
        verdict = (gt.Verdict.REJECT_ROTATION if d_pos.keeps_position()
                   else gt.Verdict.REJECT_ALL)
        return gt.GatingDecision(verdict, d_pos.statistic)
    else:
        decision = gt.chi2_partial(z_p, z_r, h_p, h_r, cov, noise_p, noise_r,
                                   cfg.chi2_alpha)
    if degenerate and decision.keeps_rotation():
        verdict = (gt.Verdict.REJECT_ROTATION
                   if decision.keeps_position() and direct
                   else gt.Verdict.REJECT_ALL)
        decision = gt.GatingDecision(verdict, decision.statistic)
    return decision


def reference_update(state, cov, blocks, decisions):
    rows_z, rows_h, noise = [], [], []
    for (z_p, z_r, h_p, h_r, noise_p, noise_r), d in zip(blocks, decisions):
        if d.keeps_position():
            rows_z.append(z_p), rows_h.append(h_p), noise.append(noise_p)
        if d.keeps_rotation():
            rows_z.append(z_r), rows_h.append(h_r), noise.append(noise_r)
    if not rows_z:
        return state, cov
    z, h = np.concatenate(rows_z), np.vstack(rows_h)
    r = np.zeros((z.size, z.size))
    for k, block in enumerate(noise):
        r[3 * k:3 * k + 3, 3 * k:3 * k + 3] = block
    s = symmetrize(h @ cov @ h.T + r)
    gain = np.linalg.solve(s, h @ cov).T
    gain[st.ANCHOR] = 0.0
    i_kh = np.eye(cov.shape[0]) - gain @ h
    return (inject_error(state, gain @ z),
            symmetrize(i_kh @ cov @ i_kh.T + gain @ r @ gain.T))


def assert_rel_close(got, want, rtol=1e-12):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


def random_frame(seed, n_objects, n_matches, spread, n_degenerate):
    """State, covariance, and measurements of n_matches of the objects.

    Reported standard deviations straddle the aor/aorp thresholds; each
    block is perturbed by its spread (position, rotation) times them.
    """
    rng = np.random.default_rng(seed)
    state = random_state(rng, n_objects)
    dim = state.error_dim
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T * 1e-4 / dim + np.eye(dim) * 1e-5
    obj_indices = rng.permutation(n_objects)[:n_matches]
    frame, pairs = [], []
    for j, oi in enumerate(obj_indices):
        meas = consistent_measurement(state, int(oi))
        sig_p = 10.0 ** rng.uniform(-2.3, -0.7, 3)
        sig_r = 10.0 ** rng.uniform(-2.0, -0.3, 3)
        meas.var_p, meas.var_theta = sig_p ** 2, sig_r ** 2
        meas.p_co = meas.p_co + spread[0] * sig_p * rng.normal(size=3)
        meas.q_co = quat_mul(meas.q_co, quat_of(exp_so3(
            spread[1] * sig_r * rng.normal(size=3))))
        if j < n_degenerate:
            meas.q_co = quat_mul(meas.q_co, FLIP)
        frame.append(meas)
        pairs.append((j, int(oi)))
    return state, cov, frame, pairs


def near_threshold(cov, frame, pairs, blocks, cfg):
    """True when a chi-square statistic of the reference sits within 1e-6
    (relative) of its bound, where rounding may flip the verdict."""
    if cfg.method not in ("chi2", "chi2p"):
        return False
    for (_, oi), block in zip(pairs, blocks):
        z_p, z_r, h_p, h_r, noise_p, noise_r = block
        tests = [(z_p, h_p, noise_p)]
        if z_r is not None:
            tests.append((z_r, h_r, noise_r))
        if cfg.method == "chi2" and z_r is not None:
            noise = np.zeros((6, 6))
            noise[:3, :3], noise[3:, 3:] = noise_p, noise_r
            tests = [(np.concatenate([z_p, z_r]), np.vstack([h_p, h_r]),
                      noise)]
        for z, h, noise in tests:
            d2 = gt.chi2_full(z, h, cov, noise, cfg.chi2_alpha).statistic
            bound = gt.chi2_quantile(z.size, 1.0 - cfg.chi2_alpha)
            if abs(d2 - bound) <= 1e-6 * bound:
                return True
    return False


frames = hs.tuples(
    hs.integers(0, 2**32 - 1),                    # seed
    hs.integers(1, 4),                            # objects
    hs.integers(1, 4),                            # matches (capped)
    hs.tuples(*[hs.sampled_from([0.0, 1.0, 3.0, 10.0])] * 2),  # spreads
    hs.integers(0, 1),                            # degenerate matches
    hs.sampled_from([(f, m) for f in METHODS for m in METHODS[f]]))


@settings(max_examples=150, deadline=None)
@given(frames)
def test_frame_pass_matches_per_match_reference(case):
    seed, n_objects, n_matches, spread, n_degenerate, (ftype, method) = case
    n_matches = min(n_matches, n_objects)
    state, cov, frame, pairs = random_frame(seed, n_objects, n_matches,
                                            spread, n_degenerate)
    setup = FilterSetup(filter_type=ftype,
                        gating=gt.GatingConfig(method=method))
    direct = ftype == "direct"
    blocks = [reference_block(state, oi, frame[mi], direct)
              for mi, oi in pairs]
    assume(not near_threshold(cov, frame, pairs, blocks, setup.gating))
    want = [reference_decision(cov, frame[mi], block, setup.gating, direct)
            for (mi, _), block in zip(pairs, blocks)]
    want_state, want_cov = reference_update(state, cov, blocks, want)

    counts = dict.fromkeys(COUNT_KEYS, 0)
    got_state, got_cov = update_frame(state, cov, frame, pairs, setup,
                                      counts)

    verdicts = [d.verdict for d in want]
    assert counts["accepted"] == verdicts.count(gt.Verdict.ACCEPT_ALL)
    for verdict in (gt.Verdict.REJECT_ALL, gt.Verdict.REJECT_POSITION,
                    gt.Verdict.REJECT_ROTATION):
        assert counts["rejected_" + verdict.value[7:]] \
            == verdicts.count(verdict)
    assert counts["degenerate"] == sum(b[1] is None for b in blocks)
    assert counts["updates"] == int(any(
        d.keeps_position() or d.keeps_rotation() for d in want))
    assert counts["skipped_updates"] == 0
    if all(v is gt.Verdict.ACCEPT_ALL for v in verdicts):
        assert np.array_equal(got_state.x, want_state.x)
        assert np.array_equal(got_cov, want_cov)
    assert_rel_close(got_state.x, want_state.x)
    assert_rel_close(got_cov, want_cov)


@settings(max_examples=150, deadline=None)
@given(frames)
def test_frame_verdicts_match_per_block_functions(case):
    seed, n_objects, n_matches, spread, n_degenerate, (ftype, method) = case
    n_matches = min(n_matches, n_objects)
    state, cov, frame, pairs = random_frame(seed, n_objects, n_matches,
                                            spread, n_degenerate)
    cfg = gt.GatingConfig(method=method)
    direct = ftype == "direct"
    blocks = [reference_block(state, oi, frame[mi], direct)
              for mi, oi in pairs]
    assume(not near_threshold(cov, frame, pairs, blocks, cfg))
    measurements = [frame[mi] for mi, _ in pairs]
    stacked, degenerate = ud.stack_frame(
        state, [(oi, state.objects[oi], m)
                for (_, oi), m in zip(pairs, measurements)],
        ud.DIRECT if direct else ui.INVERSE)
    s, _ = ud.innovation(cov, stacked)
    got = gt.gate_frame(cfg, s, stacked.residual, measurements, degenerate,
                        partial_ok=direct)
    for (mi, _), block, decision in zip(pairs, blocks, got):
        want = reference_decision(cov, frame[mi], block, cfg, direct)
        assert decision.verdict is want.verdict
        if np.isfinite(want.statistic):
            assert abs(decision.statistic - want.statistic) \
                <= 1e-9 * max(1.0, want.statistic)
        else:
            assert decision.statistic == want.statistic


@pytest.mark.parametrize("spread, verdict", [
    (0.0, gt.Verdict.REJECT_ROTATION), (10.0, gt.Verdict.REJECT_ALL)])
def test_degenerate_chi2p_tests_the_position_block_alone(spread, verdict):
    state, cov, frame, pairs = random_frame(3, 2, 2, (0.0, 0.0), 1)
    frame[0].p_co = frame[0].p_co + spread * np.sqrt(frame[0].var_p)
    stacked, degenerate = ud.stack_frame(
        state, [(oi, state.objects[oi], frame[mi]) for mi, oi in pairs])
    assert degenerate == [True, False]
    assert np.array_equal(stacked.residual[3:6], np.zeros(3))
    s, _ = ud.innovation(cov, stacked)
    decision = gt.gate_frame(gt.GatingConfig(method="chi2p"), s,
                             stacked.residual, frame, degenerate, True)[0]
    h_p, _ = ud.jacobians(state, pairs[0][1])
    alone = gt.chi2_full(stacked.residual[:3], h_p, cov,
                         np.diag(frame[0].var_p), 0.05)
    assert decision.verdict is verdict
    assert decision.statistic == pytest.approx(alone.statistic, rel=1e-9)


def test_degenerate_rows_are_never_kept():
    state, cov, frame, pairs = random_frame(4, 1, 1, (0.0, 0.0), 1)
    matches = [(pairs[0][1], frame[0])]
    keep_rot = [gt.GatingDecision(gt.Verdict.ACCEPT_ALL, 0.0)]
    with pytest.raises(ud.DegenerateRotationError):
        ud.build_stacked(state, matches, keep_rot)
    for ftype, verdict in (("direct", gt.Verdict.REJECT_ROTATION),
                           ("inverse", gt.Verdict.REJECT_ALL)):
        setup = FilterSetup(filter_type=ftype)
        counts = dict.fromkeys(COUNT_KEYS, 0)
        update_frame(state, cov, frame, pairs, setup, counts)
        assert counts["degenerate"] == 1
        assert counts["rejected_" + verdict.value[7:]] == 1
