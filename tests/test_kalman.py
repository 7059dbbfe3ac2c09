import numpy as np
import pytest
from scipy.stats import chi2

from fairtrack.geometry import BBox
from fairtrack.kalman import (
    GATE_CHI2,
    KalmanState,
    _blocks,
    gate,
    kf_init,
    kf_predict,
    kf_update,
    measurements,
    state_to_box,
)


def _drift_box(frame, w=20.0, h=40.0, vx=3.0, vy=-1.0):
    cx = 100.0 + vx * frame
    cy = 200.0 + vy * frame
    return BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


# --- construction ----------------------------------------------------------

def test_init_mean_matches_measurement():
    s = kf_init(BBox(0, 0, 10, 20))
    assert np.allclose(s.mean, [5, 10, 0.5, 20, 0, 0, 0, 0])


def test_init_covariance_scales_with_height():
    small = kf_init(BBox(0, 0, 10, 20))
    big = kf_init(BBox(0, 0, 100, 200))
    assert big.covariance[0, 0] == pytest.approx(small.covariance[0, 0] * 100)
    assert (np.diag(big.covariance) > 0).all()


def test_state_validation():
    with pytest.raises(ValueError):
        KalmanState(np.zeros(7), np.eye(8))
    with pytest.raises(ValueError):
        KalmanState(np.zeros(8), np.eye(7))
    lop = np.eye(8)
    lop[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValueError):
        KalmanState(np.zeros(8), lop)


def test_state_rejects_covariance_between_coordinates():
    # the filter keeps one (position, velocity) block per coordinate, so a
    # correlation between two coordinates cannot be carried and is refused
    ok = np.eye(8)
    ok[0, 4] = ok[4, 0] = 0.5  # cx with its own velocity
    KalmanState(np.zeros(8), ok)
    for i, j in ((0, 1), (0, 5), (2, 7), (6, 7)):
        cov = np.eye(8)
        cov[i, j] = cov[j, i] = 0.1
        with pytest.raises(ValueError, match="couples two coordinates"):
            KalmanState(np.zeros(8), cov)


def test_init_rejects_flat_box():
    with pytest.raises(ValueError):
        kf_init(BBox(0, 0, 10, 0))


def test_init_rejects_nan_height():
    with pytest.raises(ValueError, match="box height must be positive, got nan"):
        kf_init(BBox(0, 0, 10, float("nan")))


def test_state_to_box_round_trip():
    b = BBox(30, 40, 90, 160)
    got = state_to_box(kf_init(b))
    for a, e in zip(got.as_tuple(), b.as_tuple()):
        assert a == pytest.approx(e, abs=1e-9)


# --- predict ---------------------------------------------------------------

def test_predict_zero_velocity_keeps_position():
    s = kf_init(BBox(10, 20, 30, 60))
    p = kf_predict(s)
    assert np.allclose(p.mean[:4], s.mean[:4])
    assert np.allclose(p.mean[4:], 0.0)


def test_predict_applies_velocity():
    s = kf_init(BBox(10, 20, 30, 60))
    mean = s.mean.copy()
    mean[4] = 2.0  # vx
    mean[5] = -1.0  # vy
    p = kf_predict(KalmanState(mean, s.covariance))
    assert p.mean[0] == pytest.approx(s.mean[0] + 2.0)
    assert p.mean[1] == pytest.approx(s.mean[1] - 1.0)


def test_predict_grows_uncertainty():
    s = kf_init(BBox(10, 20, 30, 60))
    p = kf_predict(s)
    assert np.trace(p.covariance) > np.trace(s.covariance)


# --- update ----------------------------------------------------------------

def test_update_with_predicted_measurement_keeps_mean():
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    u = kf_update(s, state_to_box(s))
    assert np.allclose(u.mean, s.mean, atol=1e-9)


def test_update_shrinks_uncertainty():
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    u = kf_update(s, BBox(11, 21, 31, 61))
    assert np.trace(u.covariance) < np.trace(s.covariance)


def test_update_moves_toward_measurement():
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    u = kf_update(s, BBox(20, 20, 40, 60))  # center shifted +10 in x
    assert s.mean[0] < u.mean[0] <= 30.0


def test_constant_velocity_converges():
    s = kf_init(_drift_box(0))
    for f in range(1, 11):
        s = kf_update(kf_predict(s), _drift_box(f))
    got = state_to_box(s)
    want = _drift_box(10)
    err = np.abs(np.array(got.as_tuple()) - np.array(want.as_tuple())).max()
    assert err < 0.5
    assert s.mean[4] == pytest.approx(3.0, abs=0.2)
    assert s.mean[5] == pytest.approx(-1.0, abs=0.2)


def test_covariance_stays_psd_under_noise():
    rng = np.random.default_rng(11)
    s = kf_init(_drift_box(0))
    for f in range(1, 200):
        s = kf_predict(s)
        noisy = _drift_box(f)
        jitter = rng.normal(0, 2.0, 4)
        s = kf_update(s, BBox(noisy.x1 + jitter[0], noisy.y1 + jitter[1],
                              noisy.x2 + jitter[0] + abs(jitter[2]),
                              noisy.y2 + jitter[1] + abs(jitter[3])))
        w = np.linalg.eigvalsh(s.covariance)
        assert w.min() >= -1e-9
        assert np.allclose(s.covariance, s.covariance.T)


# --- gating ----------------------------------------------------------------

def _gate(s, boxes):
    """``gate`` of one state broadcast against the measurements of ``boxes``."""
    return gate(s.mean[None], _blocks(s.covariance[None]), measurements(boxes))


def test_gating_zero_at_projected_mean():
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    d = _gate(s, [state_to_box(s)])
    assert d[0] == pytest.approx(0.0, abs=1e-9)


def test_gating_monotone_in_center_offset():
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    boxes = [BBox(10 + dx, 20, 30 + dx, 60) for dx in (0.0, 5.0, 15.0, 40.0)]
    d = _gate(s, boxes)
    assert list(d) == sorted(d)
    assert d[0] < d[-1]


def test_gating_ignores_size_changes():
    # distance is computed on the center position only
    s = kf_predict(kf_init(BBox(10, 20, 30, 60)))
    same_center_bigger = BBox(0, 0, 40, 80)
    d = _gate(s, [same_center_bigger])
    assert d[0] == pytest.approx(0.0, abs=1e-9)


def test_gate_threshold_matches_chi2_table():
    assert GATE_CHI2 == pytest.approx(chi2.ppf(0.95, 4), abs=5e-4)


def test_gating_empty_list():
    s = kf_init(BBox(10, 20, 30, 60))
    assert _gate(s, []).shape == (0,)
