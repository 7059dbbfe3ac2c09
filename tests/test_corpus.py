"""Byte-identity corpus: tracker output and metrics on fixed simulated sequences.

Each case runs ``track_sequence`` on one seeded sequence and hashes the
MOT result lines and the ``evaluate_tracking`` report.  The pinned
hashes fix the output exactly, so a change meant to keep behaviour (a
faster kernel, a refactor) is shown to keep it byte for byte.  A change
that alters output on purpose updates the pins and says so.

Regenerate the pins with ``python tests/test_corpus.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import pytest

from fairtrack.metrics import evaluate_tracking
from fairtrack.mot_io import MotRecord, format_mot_line
from fairtrack.sim import SimConfig, SimOutput, generate
from fairtrack.tracker import TrackerConfig, track_sequence

SEEDS = range(6)
SCENARIOS = ("random", "crossing")
MODES = {
    "full": {},
    "no-reid": {"use_reid": False},
    "no-kalman": {"use_kalman": False},
}
NOISE = dict(emb_noise_std=0.1, fp_rate=1.0, det_dropout_prob=0.05,
             box_noise_std=1.0)
# Target counts span both sides of the solver's column-count switch.
TARGETS = (4, 8, 12, 16, 24, 32)
FRAMES = 24


@functools.lru_cache(maxsize=1)
def _sequence(seed: int, scenario: str) -> SimOutput:
    targets = TARGETS[seed]
    # staggered occlusions exercise lost tracks and re-ID recovery
    occlusions = tuple((tid, 4 + 3 * tid, 4 + 3 * tid + 2 + seed)
                       for tid in range(1, min(targets, 5) + 1))
    return generate(SimConfig(seed=seed, frames=FRAMES, num_targets=targets,
                              scenario=scenario, occlusions=occlusions, **NOISE))


def _digests(seed: int, scenario: str, mode: str) -> tuple[str, str]:
    sim = _sequence(seed, scenario)
    result = track_sequence(sim.dets, TrackerConfig(**MODES[mode]))
    lines = "\n".join(
        format_mot_line(MotRecord(f, tid, b.x1, b.y1, b.width, b.height))
        for f in sorted(result) for tid, b in result[f])
    report = evaluate_tracking(sim.gt, result)
    return (hashlib.sha256(lines.encode()).hexdigest()[:16],
            hashlib.sha256(json.dumps(dataclasses.asdict(report),
                                       sort_keys=True).encode()).hexdigest()[:16])


# ordered so that the cases of one sequence run one after another
CASES = [(s, sc, m) for sc in SCENARIOS for s in SEEDS for m in MODES]

# Pinned from the per-pair tracker that preceded the array kernels.
PINS = {
    "random-full-0": ('70aa917ec683d7b3', 'e6d4fb7cb95f8ab2'),
    "random-no-reid-0": ('47e8c6704e17125b', '23010878d09543ee'),
    "random-no-kalman-0": ('70aa917ec683d7b3', 'e6d4fb7cb95f8ab2'),
    "random-full-1": ('3c115e78b3af13c9', '1e1d045cea0fedf9'),
    "random-no-reid-1": ('c69c7b35f7265f45', '5ba81f005708d32c'),
    "random-no-kalman-1": ('3c115e78b3af13c9', '1e1d045cea0fedf9'),
    "random-full-2": ('c46cce745f7ce133', '05f7155f645f70df'),
    "random-no-reid-2": ('8111d0299437846c', 'd0c9c68f1cf69c44'),
    "random-no-kalman-2": ('c46cce745f7ce133', '05f7155f645f70df'),
    "random-full-3": ('2830b9cfb444eb56', 'bbb58d1f60703f6a'),
    "random-no-reid-3": ('7e68cb25bfa3d6a7', 'd32d41ea1e216767'),
    "random-no-kalman-3": ('2830b9cfb444eb56', 'bbb58d1f60703f6a'),
    "random-full-4": ('2fe6d7ced5d009ad', 'f015a0f93ffac689'),
    "random-no-reid-4": ('68b2a0729b15ca95', 'dbb43e39e0d59ba1'),
    "random-no-kalman-4": ('1fd417d7815d9d8a', 'd2a444c7fa3c096a'),
    "random-full-5": ('030c0518df434950', '1a8e16d4a36441c9'),
    "random-no-reid-5": ('91b3c497236da398', 'c5fe09dbf11d17dd'),
    "random-no-kalman-5": ('030c0518df434950', '1a8e16d4a36441c9'),
    "crossing-full-0": ('3cac632cd14de124', 'e6d4fb7cb95f8ab2'),
    "crossing-no-reid-0": ('dd0755c165f6d181', '23010878d09543ee'),
    "crossing-no-kalman-0": ('3cac632cd14de124', 'e6d4fb7cb95f8ab2'),
    "crossing-full-1": ('477823c542546357', '1e1d045cea0fedf9'),
    "crossing-no-reid-1": ('8872a76ff0b14fed', '5ba81f005708d32c'),
    "crossing-no-kalman-1": ('477823c542546357', '1e1d045cea0fedf9'),
    "crossing-full-2": ('deca66472867554f', '05f7155f645f70df'),
    "crossing-no-reid-2": ('c8ec80b9a4722aa4', 'd0c9c68f1cf69c44'),
    "crossing-no-kalman-2": ('deca66472867554f', '05f7155f645f70df'),
    "crossing-full-3": ('e1c9c0b9ed6f1d6f', 'bbb58d1f60703f6a'),
    "crossing-no-reid-3": ('afccc33e2af659c4', 'd32d41ea1e216767'),
    "crossing-no-kalman-3": ('e1c9c0b9ed6f1d6f', 'bbb58d1f60703f6a'),
    "crossing-full-4": ('8e063fc4eadfc404', '8d8b467edc51354f'),
    "crossing-no-reid-4": ('0c19079e0f8391e2', 'dbb43e39e0d59ba1'),
    "crossing-no-kalman-4": ('663a3653b90a95a2', 'd2a444c7fa3c096a'),
    "crossing-full-5": ('d0861839b1fda2c4', '1a8e16d4a36441c9'),
    "crossing-no-reid-5": ('a51f98a088e290a9', 'c5fe09dbf11d17dd'),
    "crossing-no-kalman-5": ('d0861839b1fda2c4', '1a8e16d4a36441c9'),
}


@pytest.mark.parametrize("seed,scenario,mode", CASES,
                         ids=[f"{sc}-{m}-{s}" for s, sc, m in CASES])
def test_output_matches_pin(seed, scenario, mode):
    assert _digests(seed, scenario, mode) == PINS[f"{scenario}-{mode}-{seed}"]


if __name__ == "__main__":
    for s, sc, m in CASES:
        print(f'    "{sc}-{m}-{s}": {_digests(s, sc, m)!r},')
