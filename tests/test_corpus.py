"""Byte-identity corpus: tracker output and metrics on fixed simulated sequences.

Each library case runs ``track_sequence`` on one seeded sequence and
hashes the MOT result lines and the ``evaluate_tracking`` report.  Each
CLI case runs ``sim -> track`` and ``sim -> encode -> decode -> track
--no-reid -> eval --json`` through ``cli.main`` and hashes both result
files and the eval report.  Each sim case hashes the ``gt.txt``,
``det.txt`` and ``emb.ften`` that ``sim`` writes.  Each map case hashes
the tree ``encode`` writes (every heat map and the ``centers.txt`` object
table, not the manifest) and the ``det.txt`` that ``decode`` reads back
from it.  Each re-ID case hashes ``reid-eval --json`` on one simulated
sequence.  The pinned hashes fix the output exactly, so a change meant
to keep behaviour (a faster kernel, a refactor, a file format change) is
shown to keep it byte for byte.  A change that alters output on purpose
updates the pins and says so.

Regenerate the pins with ``python tests/test_corpus.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from fairtrack import cli
from fairtrack.metrics import evaluate_tracking
from fairtrack.geometry import corners
from fairtrack.mot_io import format_mot
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
# Target counts run from 4 to 32 per frame.  The tracker's thresholded
# cost matrices split into components of a few nodes each, so only the
# whole-matrix solve of ``idf1`` reaches the solver's column-count switch.
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
    rows = [(f, tid, b) for f in sorted(result) for tid, b in result[f]]
    lines = "\n".join(format_mot("result", [f for f, _, _ in rows], [tid for _, tid, _ in rows],
                                  corners([b for _, _, b in rows]), 1.0))
    report = evaluate_tracking(sim.gt, result)
    # hashed with the two fields the report had when the pins were taken,
    # ap and tpr_at_far, at the only value they ever held
    fields = {**dataclasses.asdict(report), "ap": None, "tpr_at_far": None}
    return (hashlib.sha256(lines.encode()).hexdigest()[:16],
            hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16])


# ordered so that the cases of one sequence run one after another
CASES = [(s, sc, m) for sc in SCENARIOS for s in SEEDS for m in MODES]

# Pinned from the per-pair tracker that preceded the array kernels, except
# crossing-full-4, pinned from the solver that forbids over-threshold pairs
# before solving.
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
    "crossing-full-4": ('811d75826b5b6ca1', 'f015a0f93ffac689'),
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0, argv
    return buf.getvalue().encode()


CLI_SEEDS = (1, 2, 3)


def _sim(seed: int, seq: Path) -> None:
    _cli("sim", "--seed", seed, "--frames", FRAMES, "--targets", 8,
         "--image-w", 512, "--image-h", 512, "--emb-noise", 0.1,
         "--fp-rate", 1, "--dropout", 0.05, "--box-noise", 1, "--out", seq)


def _sim_digests(seed: int, root: Path) -> tuple[str, str, str]:
    """Hashes of the ``gt.txt``, ``det.txt`` and ``emb.ften`` of ``sim``."""
    seq = root / "seq"
    _sim(seed, seq)
    return tuple(_sha((seq / name).read_bytes()) for name in ("gt.txt", "det.txt", "emb.ften"))


# The gt.txt and det.txt hashes were pinned from the sim whose writers took a
# validated MotRecord per line.  The emb.ften hashes were computed from the
# per-frame emb/NNNNNN.ften files that sim wrote before: the FTEN header of
# the stacked (N, D) shape, then their payloads in frame order, so every
# stored value is the one those files held.
SIM_PINS = {
    1: ('1c0b6f00af3b95c5', '2eb63f705e551ddb', 'e2226d2704e6f2e4'),
    2: ('15da7c31a10e17af', 'bfabd58c23a55bb2', '1e754ae57e0bbab5'),
    3: ('5f8401dda6f1bc00', '7a0de9f00aca0caa', '504e3f1f608a06f5'),
}


@pytest.mark.parametrize("seed", CLI_SEEDS)
def test_sim_output_matches_pin(seed, tmp_path):
    assert _sim_digests(seed, tmp_path) == SIM_PINS[seed]


def _cli_digests(seed: int, root: Path) -> tuple[str, str, str, str]:
    """Hashes of result.txt, result_boxes.txt and the eval JSON of each.

    The decoded boxes come from exact ground-truth maps, so their report
    is perfect on every seed; the report on result.txt varies with the noise.
    """
    seq, maps, dets = root / "seq", root / "maps", root / "dets"
    result, boxes = root / "result.txt", root / "result_boxes.txt"
    _sim(seed, seq)
    _cli("track", "--in", seq, "--out", result)
    _cli("encode", "--gt", seq / "gt.txt", "--out", maps)
    _cli("decode", "--maps", maps, "--out", dets)
    _cli("track", "--in", dets, "--out", boxes, "--no-reid")
    reports = [_cli("eval", "--gt", seq / "gt.txt", "--pred", pred,
                    "--metrics", "clear,idf1,ap", "--json")
               for pred in (result, boxes)]
    return (_sha(result.read_bytes()), _sha(boxes.read_bytes()),
            *(_sha(r) for r in reports))


# Pinned from the CLI whose decode still wrote its own 6-field detection format.
CLI_PINS = {
    1: ('249fff904091dfdb', '77c1c03cc837fc04', '3cd001a4d82f40ec', '27104b65cc329f8a'),
    2: ('619997e65eca94cf', 'b431ed211eed85b9', '711f91c197ba8ac2', '27104b65cc329f8a'),
    3: ('8d2e6380fc9d64f3', '275938af9745d853', '51bcb22dc44aa01e', '27104b65cc329f8a'),
}


@pytest.mark.parametrize("seed", CLI_SEEDS)
def test_cli_output_matches_pin(seed, tmp_path):
    assert _cli_digests(seed, tmp_path) == CLI_PINS[seed]


def _map_digests(seed: int, root: Path, stride: int = 4) -> tuple[str, str]:
    """Hashes of encode's output tree (names and bytes) and of decode's det.txt,
    both run at ``stride``."""
    seq, maps, dets = root / "seq", root / "maps", root / "dets"
    _sim(seed, seq)
    _cli("encode", "--gt", seq / "gt.txt", "--out", maps, "--stride", stride)
    _cli("decode", "--maps", maps, "--out", dets, "--stride", stride)
    tree = hashlib.sha256()
    for path in sorted(maps.glob("*.ften")) + [maps / "centers.txt"]:
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return tree.hexdigest()[:16], _sha((dets / "det.txt").read_bytes())


# The det.txt hashes were pinned from the encoder that evaluated every
# Gaussian over the whole grid and wrote dense offset and size maps; the
# tree hashes from the encoder that writes those values into centers.txt.
MAP_PINS = {
    1: ('2350b0275dcfc604', 'c82d1b71c38a09d4'),
    2: ('9d5ae4b29c2769a7', 'a7d58cc8180a5b2e'),
    3: ('45d93ea8079b9b12', 'eb282aad1556a660'),
}


@pytest.mark.parametrize("seed", CLI_SEEDS)
def test_encode_maps_match_pin(seed, tmp_path):
    assert _map_digests(seed, tmp_path) == MAP_PINS[seed]


# At stride 4 every object of these sequences gets the floor sigma 2/3; at
# strides 1 and 2 each sequence stamps 6 to 8 distinct sigmas.  Pinned from
# the encoder that built dense offset, size, mask and identity planes and
# evaluated each object's Gaussian window afresh.
STRIDE_PINS = {
    (1, 1): ('ea2174f0e1ff7e62', '9119fc26e2bdf0cd'),
    (1, 2): ('0fbc31dbd3482d16', '9119fc26e2bdf0cd'),
    (2, 1): ('fdd34e8f837b6f7c', '16228673d265f9e5'),
    (2, 2): ('ea58ea982546acc1', '6ab87ec7a23210ce'),
    (3, 1): ('a496027920498241', '5714d6a27c5057c9'),
    (3, 2): ('04dbc8b05a153712', 'eb282aad1556a660'),
}


@pytest.mark.parametrize("seed,stride", list(STRIDE_PINS),
                         ids=[f"{seed}-stride{stride}" for seed, stride in STRIDE_PINS])
def test_encode_maps_at_fine_strides_match_pin(seed, stride, tmp_path):
    assert _map_digests(seed, tmp_path, stride) == STRIDE_PINS[seed, stride]


def _reid_digest(seed: int, root: Path) -> str:
    """Hash of the ``reid-eval --json`` report on one simulated sequence."""
    seq = root / "seq"
    _sim(seed, seq)
    return _sha(_cli("reid-eval", "--in", seq, "--json"))


# Pinned from the reid-eval that labelled detections one IoU pair at a time.
REID_PINS = {
    1: 'b3826796d228f2ee',
    2: 'b48bf98a473a5b3e',
    3: 'b488c980aafac337',
}


@pytest.mark.parametrize("seed", CLI_SEEDS)
def test_reid_eval_matches_pin(seed, tmp_path):
    assert _reid_digest(seed, tmp_path) == REID_PINS[seed]


if __name__ == "__main__":
    for s, sc, m in CASES:
        print(f'    "{sc}-{m}-{s}": {_digests(s, sc, m)!r},')
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as d:
            print(f"    {seed}: {_sim_digests(seed, Path(d))!r},")
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as d:
            print(f"    {seed}: {_cli_digests(seed, Path(d))!r},")
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as d:
            print(f"    {seed}: {_map_digests(seed, Path(d))!r},")
    for seed, stride in STRIDE_PINS:
        with tempfile.TemporaryDirectory() as d:
            print(f"    ({seed}, {stride}): {_map_digests(seed, Path(d), stride)!r},")
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as d:
            print(f"    {seed}: {_reid_digest(seed, Path(d))!r},")
