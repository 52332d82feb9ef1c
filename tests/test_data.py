"""Generator determinism, scenario structure, file format round-trips."""

import dataclasses
import json
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from sfhand.cli import main
from sfhand.data import (
    SCENARIOS,
    ClipSample,
    _segment_dtype,
    clips_equal,
    generate_synthetic,
    read_clipfile,
    write_clipfile,
)
from sfhand.errors import (
    ChecksumError,
    DataFormatError,
    TruncationError,
    UsageError,
    VersionError,
)
from sfhand.hand import HandType, bbox_iou, BBox
from sfhand.rng import Xorshift64Star


def gen(scenario, count=1, seed=7, raster=32, pose_dim=8):
    return generate_synthetic(seed, scenario, count, frames=16, raster=raster,
                              pose_dim=pose_dim)


def malformed(tmp_path, edit_record=None, edit_hands=None):
    """A one-clip dataset whose manifest record or hand records were edited
    (the CRC updated to match); returns its base path and the clip id."""
    clip = gen("reach", seed=4, raster=16)[0]
    manifest_path, blob_path = write_clipfile([clip], tmp_path / "bad")
    doc = json.loads(manifest_path.read_text())
    rec = doc["clips"][0]
    if edit_hands:
        dtype = _segment_dtype(rec["frames"], rec["raster"], doc["pose_dim"])
        seg = np.frombuffer(blob_path.read_bytes(), dtype).copy()
        edit_hands(seg["hands"][0])
        blob_path.write_bytes(seg.tobytes())
        rec["checksum"] = zlib.crc32(seg.tobytes())
    if edit_record:
        edit_record(rec)
    manifest_path.write_text(json.dumps(doc))
    return tmp_path / "bad", clip.id


def drop_blob_offset(rec):
    del rec["blob_offset"]


def zero_width_boxes(hands):
    hands["box"][hands["visible"] == 1, 2] = 0.0


def slot_byte_2(hands):
    hands["slot"][0, 0] = 2


def slot_bytes_swapped(hands):
    hands["slot"][0] = [1, 0]


class TestRng:
    def test_stream_determinism(self):
        a = Xorshift64Star(123)
        b = Xorshift64Star(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_zero_seed_safe(self):
        r = Xorshift64Star(0)
        vals = {r.next_u64() for _ in range(100)}
        assert len(vals) == 100

    def test_uniform_range(self):
        r = Xorshift64Star(5)
        xs = [r.uniform(-2, 3) for _ in range(1000)]
        assert all(-2 <= x < 3 for x in xs)

    def test_randint_unbiased_bounds(self):
        r = Xorshift64Star(9)
        xs = [r.randint(7) for _ in range(500)]
        assert set(xs) <= set(range(7))


class TestGenerator:
    def test_byte_identical_regeneration(self):
        for scenario in SCENARIOS:
            a = gen(scenario, count=2)
            b = gen(scenario, count=2)
            for ca, cb in zip(a, b):
                assert clips_equal(ca, cb)

    def test_unknown_scenario(self):
        with pytest.raises(UsageError):
            generate_synthetic(0, "juggle", 1)

    def test_pick_and_return_closes_loop(self):
        for clip in gen("pick_and_return", count=4, seed=11):
            first = clip.gt[0][0].traj.as_array()
            last = clip.gt[-1][0].traj.as_array()
            npt.assert_allclose(last, first, atol=1e-6)

    def test_idle_is_constant(self):
        clip = gen("idle", seed=3)[0]
        base = clip.gt[0][0]
        for states in clip.gt[1:]:
            npt.assert_array_equal(states[0].traj.as_array(), base.traj.as_array())
            npt.assert_array_equal(states[0].pose.theta, base.pose.theta)

    def test_two_hands_has_both_types(self):
        clip = gen("two_hands", seed=5)[0]
        for states in clip.gt:
            assert {s.hand_type for s in states} == {HandType.LEFT, HandType.RIGHT}

    def test_blob_extent_matches_bbox(self):
        # the colored pixel extent must tightly match the stored box
        for scenario in ("reach", "idle", "pick_and_return"):
            clip = gen(scenario, seed=13)[0]
            r = clip.frames.shape[1]
            for f, states in enumerate(clip.gt):
                img = clip.frames[f]
                blob = np.where((img[:, :, 0] > 0.9) | (img[:, :, 1] > 0.9))
                y1, y2 = blob[0].min(), blob[0].max() + 1
                x1, x2 = blob[1].min(), blob[1].max() + 1
                extent = BBox.from_corners(x1 / r, y1 / r, x2 / r, y2 / r)
                assert bbox_iou(extent, states[0].bbox) >= 0.9

    def test_instruction_carries_target_bucket(self):
        clips = gen("reach", count=6, seed=21)
        assert any("left" in c.instruction or "right" in c.instruction
                   or "center" in c.instruction for c in clips)
        assert all(c.instruction.startswith("reach") for c in clips)

    def test_joints_stored_and_wrist_matches_traj(self):
        clip = gen("reach", seed=2)[0]
        for states, joints in zip(clip.gt, clip.gt_joints):
            for s in states:
                js = joints[s.hand_type]
                npt.assert_allclose(js.wrist, s.traj.as_array(), atol=1e-6)


class TestClipFile:
    def test_roundtrip_bitwise(self, tmp_path):
        clips = gen("reach", count=2, seed=17) + gen("two_hands", count=1, seed=18)
        base = tmp_path / "set"
        write_clipfile(clips, base)
        back = read_clipfile(base)
        assert len(back) == 3
        for a, b in zip(clips, back):
            assert clips_equal(a, b)

    def test_rewrite_identical_bytes(self, tmp_path):
        clips = gen("idle", count=1, seed=1)
        m1, b1 = write_clipfile(clips, tmp_path / "a")
        back = read_clipfile(tmp_path / "a")
        m2, b2 = write_clipfile(back, tmp_path / "b")
        assert b1.read_bytes() == b2.read_bytes()
        assert json.loads(m1.read_text())["clips"] == json.loads(m2.read_text())["clips"]

    def test_empty_dataset(self, tmp_path):
        write_clipfile([], tmp_path / "empty")
        assert read_clipfile(tmp_path / "empty") == []

    def test_checksum_detects_any_flipped_byte(self, tmp_path):
        clips = gen("reach", count=1, seed=4, raster=16)
        _, blob_path = write_clipfile(clips, tmp_path / "c")
        raw = bytearray(blob_path.read_bytes())
        rng = np.random.default_rng(0)
        for _ in range(25):
            pos = int(rng.integers(0, len(raw)))
            old = raw[pos]
            raw[pos] ^= 0xFF
            blob_path.write_bytes(bytes(raw))
            with pytest.raises(ChecksumError):
                read_clipfile(tmp_path / "c")
            raw[pos] = old
        blob_path.write_bytes(bytes(raw))
        read_clipfile(tmp_path / "c")  # restored file reads again

    def test_truncated_blob(self, tmp_path):
        clips = gen("reach", count=1, seed=5, raster=16)
        _, blob_path = write_clipfile(clips, tmp_path / "t")
        raw = blob_path.read_bytes()
        blob_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncationError):
            read_clipfile(tmp_path / "t")

    def test_future_version_names_both(self, tmp_path):
        clips = gen("idle", count=1, seed=6, raster=16)
        manifest_path, _ = write_clipfile(clips, tmp_path / "v")
        doc = json.loads(manifest_path.read_text())
        doc["format_version"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(VersionError) as ei:
            read_clipfile(tmp_path / "v")
        assert "99" in str(ei.value) and "1" in str(ei.value)

    def test_corrupt_manifest_json(self, tmp_path):
        clips = gen("idle", count=1, seed=8, raster=16)
        manifest_path, _ = write_clipfile(clips, tmp_path / "j")
        manifest_path.write_text("{not json")
        with pytest.raises(DataFormatError):
            read_clipfile(tmp_path / "j")

    def test_pose_dim_from_first_visible_hand(self, tmp_path):
        # a forecast trace whose first frame has no hand
        clip = gen("reach", seed=3, raster=16, pose_dim=6)[0]
        clip.gt[0], clip.gt_joints[0] = [], {}
        manifest_path, _ = write_clipfile([clip], tmp_path / "p")
        assert json.loads(manifest_path.read_text())["pose_dim"] == 6
        assert clips_equal(read_clipfile(tmp_path / "p")[0], clip)

    @pytest.mark.parametrize("clips", [5, {"0": {}}, "clips"])
    def test_clips_that_is_not_a_list_is_a_data_error(self, tmp_path, clips):
        manifest_path, _ = write_clipfile(gen("idle", seed=8, raster=16), tmp_path / "l")
        doc = json.loads(manifest_path.read_text())
        doc["clips"] = clips
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="clips"):
            read_clipfile(tmp_path / "l")
        assert main(["eval", "--data", str(tmp_path / "l"), "--mode", "static"]) == 2

    @pytest.mark.parametrize("frame_states", [
        lambda s: [s, s],
        lambda s: [s, dataclasses.replace(s, visible=False)],
        lambda s: [dataclasses.replace(s, hand_type=HandType.BACKGROUND)],
    ], ids=["two_of_one_type", "second_invisible", "non_hand_type"])
    def test_write_rejects_a_frame_it_cannot_hold(self, tmp_path, frame_states):
        # the file holds one record per hand, so the second state of a type
        # used to overwrite the first
        clip = gen("reach", seed=3, raster=16)[0]
        clip.gt[2] = frame_states(clip.gt[2][0])
        with pytest.raises(DataFormatError, match="frame 2"):
            write_clipfile([clip], tmp_path / "w")

    def test_joint_frames_must_match_gt_frames(self):
        clip = gen("reach", seed=3, raster=16)[0]
        with pytest.raises(UsageError):
            ClipSample(clip.id, clip.instruction, clip.frames, clip.gt, clip.gt_joints[:-1])

    @pytest.mark.parametrize("edit", [
        dict(edit_record=drop_blob_offset),
        dict(edit_hands=zero_width_boxes),
        dict(edit_hands=slot_byte_2),
        dict(edit_hands=slot_bytes_swapped),
    ], ids=["no_blob_offset", "zero_width_box", "slot_byte_2", "slot_bytes_swapped"])
    def test_malformed_file_is_a_data_error(self, tmp_path, edit):
        base, clip_id = malformed(tmp_path, **edit)
        with pytest.raises(DataFormatError) as ei:
            read_clipfile(base)
        assert clip_id in str(ei.value)
        assert main(["eval", "--data", str(base), "--mode", "static"]) == 2
