"""Synthetic clip generation and the clip file format.

Clips are 16-frame desk-scale scenes: a bright rectangular hand blob over
a static noise background, moving along a smooth cubic-eased waypoint
path inside a 40 cm workspace cube, with a templated English instruction
naming the scenario and the target position bucket. All randomness comes
from the package PRNG and all arithmetic in the data path is polynomial,
so generation is byte-identical across platforms. Float fields are
rounded through float32 at creation time, which makes file round-trips
bitwise lossless.

On disk a dataset is a JSON manifest plus one binary blob (little-endian,
row-major); see FORMATS.md for the exact layout.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ChecksumError,
    DataFormatError,
    TruncationError,
    UsageError,
    VersionError,
)
from .hand import (
    BBox,
    HandPose,
    HandState,
    HandType,
    JointSet,
    NUM_JOINTS,
    Trajectory3D,
    synthetic_joints,
)
from .rng import Xorshift64Star, derive_seed

FORMAT_VERSION = 1
SCENARIOS = ("reach", "pick_and_return", "two_hands", "idle")

VIEW_WIDTH_CM = 80.0   # normalized u = 0.5 + x / VIEW_WIDTH_CM
BOX_SIDE_REF = 0.14    # box side at reference depth
DEPTH_REF_CM = 60.0


@dataclass
class ClipSample:
    id: str
    instruction: str
    frames: np.ndarray                      # (T, R, R, 3) float32 in [0, 1]
    gt: list[list[HandState]]               # per frame, visible states only
    gt_joints: list[dict[HandType, JointSet]] = field(default_factory=list)
    camera_note: str = ""

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise UsageError(f"frames must be (T, R, R, 3), got {self.frames.shape}")
        if len(self.gt) != self.frames.shape[0]:
            raise UsageError("ground-truth frame count disagrees with frames")
        if not self.gt_joints:
            self.gt_joints = [{} for _ in self.gt]
        elif len(self.gt_joints) != len(self.gt):
            raise UsageError(
                f"{len(self.gt_joints)} joint frames != {len(self.gt)} ground-truth frames"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def clips_equal(a: ClipSample, b: ClipSample) -> bool:
    """Field-by-field equality with bitwise tensor comparison."""
    if (a.id, a.instruction, a.camera_note) != (b.id, b.instruction, b.camera_note):
        return False
    if a.frames.shape != b.frames.shape or not np.array_equal(a.frames, b.frames):
        return False
    if len(a.gt) != len(b.gt):
        return False
    for fa, fb, ja, jb in zip(a.gt, b.gt, a.gt_joints, b.gt_joints):
        if len(fa) != len(fb) or set(ja) != set(jb):
            return False
        for sa, sb in zip(fa, fb):
            if sa.hand_type is not sb.hand_type or sa.visible != sb.visible:
                return False
            if sa.bbox.as_array().tobytes() != sb.bbox.as_array().tobytes():
                return False
            if sa.pose.theta.tobytes() != sb.pose.theta.tobytes():
                return False
            if sa.traj.as_array().tobytes() != sb.traj.as_array().tobytes():
                return False
        for ht in ja:
            if not np.array_equal(ja[ht].joints, jb[ht].joints):
                return False
    return True


# ---------------------------------------------------------------------------
# generation


def _ease(t: float) -> float:
    """Cubic smoothstep on [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


def _path_point(segments, t: float) -> np.ndarray:
    """Piecewise cubic-eased interpolation through (t0, t1, P0, P1) segments."""
    for i, (t0, t1, p0, p1) in enumerate(segments):
        if t <= t1 or i == len(segments) - 1:
            if t < t0:
                return p0.copy()
            local = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return p0 + (p1 - p0) * _ease(local)
    raise AssertionError("unreachable")


def _bucket(p: np.ndarray) -> str:
    xs = "left" if p[0] < -7 else ("right" if p[0] > 7 else "center")
    ys = "top" if p[1] < -7 else ("bottom" if p[1] > 7 else "middle")
    return f"{ys} {xs}"


def _sample_point(rng: Xorshift64Star, lo, hi) -> np.ndarray:
    return np.array([rng.uniform(lo[k], hi[k]) for k in range(3)])


def _sample_far_point(rng, lo, hi, start, min_dist=15.0) -> np.ndarray:
    for _ in range(64):
        p = _sample_point(rng, lo, hi)
        if np.linalg.norm(p - start) >= min_dist:
            return p
    return p  # workspace is large enough that this is effectively unreachable


def _project(p: np.ndarray, raster: int):
    """Weak-perspective projection to a pixel-snapped rectangle.

    Returns ((px1, py1, px2, py2), BBox): the pixel extent that gets
    rendered and the identical normalized box stored as ground truth.
    """
    u = 0.5 + p[0] / VIEW_WIDTH_CM
    v = 0.5 + p[1] / VIEW_WIDTH_CM
    side = BOX_SIDE_REF * DEPTH_REF_CM / p[2]
    x1 = int(np.floor((u - side / 2) * raster + 0.5))
    y1 = int(np.floor((v - side / 2) * raster + 0.5))
    x2 = int(np.floor((u + side / 2) * raster + 0.5))
    y2 = int(np.floor((v + side / 2) * raster + 0.5))
    x1 = min(max(x1, 0), raster - 1)
    y1 = min(max(y1, 0), raster - 1)
    x2 = min(max(x2, x1 + 1), raster)
    y2 = min(max(y2, y1 + 1), raster)
    box = BBox.from_corners(x1 / raster, y1 / raster, x2 / raster, y2 / raster)
    return (x1, y1, x2, y2), box


_HAND_COLOR = {
    HandType.LEFT: np.array([1.0, 0.35, 0.25], dtype=np.float32),
    HandType.RIGHT: np.array([0.25, 1.0, 0.35], dtype=np.float32),
}


def _f32(x) -> float:
    return float(np.float32(x))


@dataclass
class _HandScript:
    hand_type: HandType
    traj_segments: list
    theta0: np.ndarray
    theta1: np.ndarray

    def state_at(self, t: float, raster: int) -> tuple[HandState, tuple]:
        p = _path_point(self.traj_segments, t)
        theta = self.theta0 + (self.theta1 - self.theta0) * _ease(t)
        rect, box = _project(p, raster)
        traj32 = np.array([_f32(v) for v in p])
        state = HandState(
            hand_type=self.hand_type,
            bbox=box,
            pose=HandPose(theta.astype(np.float32).astype(np.float64)),
            traj=Trajectory3D(*traj32),
            visible=True,
        )
        return state, rect


def _make_scripts(rng: Xorshift64Star, scenario: str, pose_dim: int) -> list[_HandScript]:
    lo = np.array([-20.0, -20.0, 40.0])
    hi = np.array([20.0, 20.0, 80.0])

    def thetas():
        t0 = np.array([rng.uniform(-0.5, 0.5) for _ in range(pose_dim)])
        if scenario == "idle":
            return t0, t0.copy()
        t1 = np.array([rng.uniform(-0.5, 0.5) for _ in range(pose_dim)])
        return t0, t1

    if scenario == "two_hands":
        scripts = []
        for ht, xlo, xhi in ((HandType.LEFT, -18.0, -9.0), (HandType.RIGHT, 9.0, 18.0)):
            side_lo = np.array([xlo, -20.0, 50.0])
            side_hi = np.array([xhi, 20.0, 80.0])
            p0 = _sample_point(rng, side_lo, side_hi)
            p1 = _sample_far_point(rng, side_lo, side_hi, p0, min_dist=10.0)
            t0, t1 = thetas()
            scripts.append(_HandScript(ht, [(0.0, 1.0, p0, p1)], t0, t1))
        return scripts

    ht = HandType.LEFT if rng.randint(2) == 0 else HandType.RIGHT
    p0 = _sample_point(rng, lo, hi)
    t0, t1 = thetas()
    if scenario == "idle":
        return [_HandScript(ht, [(0.0, 1.0, p0, p0.copy())], t0, t1)]
    p1 = _sample_far_point(rng, lo, hi, p0)
    if scenario == "reach":
        return [_HandScript(ht, [(0.0, 1.0, p0, p1)], t0, t1)]
    if scenario == "pick_and_return":
        segments = [
            (0.0, 0.4, p0, p1),
            (0.4, 0.6, p1, p1.copy()),
            (0.6, 1.0, p1, p0.copy()),
        ]
        return [_HandScript(ht, segments, t0, t1)]
    raise UsageError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


def _instruction(scenario: str, scripts: list[_HandScript]) -> str:
    if scenario == "idle":
        return "hold the hand still"
    if scenario == "reach":
        target = _bucket(scripts[0].traj_segments[-1][3])
        return f"reach the object at the {target}"
    if scenario == "pick_and_return":
        target = _bucket(scripts[0].traj_segments[0][3])
        return f"pick the object at the {target} and return it to where it started"
    first = _bucket(scripts[0].traj_segments[-1][3])
    second = _bucket(scripts[1].traj_segments[-1][3])
    return f"move the left hand to the {first} and the right hand to the {second}"


def generate_synthetic(seed: int, scenario: str, count: int, *, frames: int = 16,
                       raster: int = 64, pose_dim: int = 48) -> list[ClipSample]:
    """Deterministic synthetic clips for one scenario."""
    if scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if count < 0:
        raise UsageError("count must be non-negative")
    if frames < 2:
        raise UsageError("clips need at least 2 frames")
    clips = []
    for idx in range(count):
        rng = Xorshift64Star(derive_seed(seed, idx))
        scripts = _make_scripts(rng, scenario, pose_dim)
        background = (
            rng.uniforms(0.0, 0.35, raster * raster * 3)
            .astype(np.float32)
            .reshape(raster, raster, 3)
        )
        frames_arr = np.empty((frames, raster, raster, 3), dtype=np.float32)
        gt, gtj = [], []
        for f in range(frames):
            t = f / (frames - 1)
            img = background.copy()
            states, joints = [], {}
            for script in scripts:
                state, (x1, y1, x2, y2) = script.state_at(t, raster)
                img[y1:y2, x1:x2, :] = _HAND_COLOR[state.hand_type]
                states.append(state)
                js = synthetic_joints(state.pose, state.traj)
                joints[state.hand_type] = JointSet(
                    js.joints.astype(np.float32).astype(np.float64)
                )
            frames_arr[f] = img
            gt.append(states)
            gtj.append(joints)
        clips.append(
            ClipSample(
                id=f"{scenario}-{seed:016x}-{idx:04d}",
                instruction=_instruction(scenario, scripts),
                frames=frames_arr,
                gt=gt,
                gt_joints=gtj,
                camera_note=(
                    f"synthetic weak-perspective camera: u=0.5+x/{VIEW_WIDTH_CM:g}cm, "
                    f"v=0.5+y/{VIEW_WIDTH_CM:g}cm, box side {BOX_SIDE_REF:g}*"
                    f"{DEPTH_REF_CM:g}/z, workspace 40cm cube"
                ),
            )
        )
    return clips


# ---------------------------------------------------------------------------
# file format


def _segment_dtype(frames: int, raster, pose_dim: int) -> np.dtype:
    """One clip's blob segment: the frames, then a left and a right hand
    record per frame. Structured dtypes are packed, so this is the
    FORMATS.md layout byte for byte."""
    hand = np.dtype([
        ("slot", "u1"),
        ("visible", "u1"),
        ("box", "<f4", (4,)),
        ("pose", "<f4", (pose_dim,)),
        ("traj", "<f4", (3,)),
        ("joints_present", "u1"),
        ("joints", "<f4", (NUM_JOINTS, 3)),
    ])
    return np.dtype([("frames", "<f4", (frames, *raster)), ("hands", hand, (frames, 2))])


def _clip_segment(clip: ClipSample, pose_dim: int) -> bytes:
    """Absent hands, and the joints of a hand without them, stay zero."""
    seg = np.zeros((), _segment_dtype(clip.num_frames, clip.frames.shape[1:], pose_dim))
    seg["frames"] = clip.frames
    hands = seg["hands"]
    hands["slot"] = [HandType.LEFT.value, HandType.RIGHT.value]
    for f, (states, joints) in enumerate(zip(clip.gt, clip.gt_joints)):
        by_type = {s.hand_type: s for s in states}
        if len(by_type) < len(states) or HandType.BACKGROUND in by_type:  # one record per hand
            raise DataFormatError(f"clip {clip.id} frame {f}: hand types "
                                  f"{[s.hand_type.name for s in states]} are not one per hand")
        for slot in (HandType.LEFT, HandType.RIGHT):
            s = by_type.get(slot)
            if s is None or not s.visible:
                continue
            if s.pose.dim != pose_dim:
                raise DataFormatError(f"pose dim {s.pose.dim} != manifest pose_dim {pose_dim}")
            rec = hands[f, slot.value]  # a structured scalar is a view
            rec["visible"] = 1
            rec["box"] = s.bbox.as_array()
            rec["pose"] = s.pose.theta
            rec["traj"] = s.traj.as_array()
            if joints.get(slot) is not None:
                rec["joints_present"] = 1
                rec["joints"] = joints[slot].joints
    return seg.tobytes()


def _parse_segment(seg: bytes, dtype: np.dtype):
    """(frames, gt, gt_joints) of one segment; a slot byte other than its
    record's slot is a DataFormatError, an out-of-range value a UsageError
    from hand.py."""
    whole = np.frombuffer(seg, dtype, count=1)[0]
    hands = whole["hands"]
    misplaced = hands["slot"] != [HandType.LEFT.value, HandType.RIGHT.value]
    if misplaced.any():
        f, i = np.argwhere(misplaced)[0]
        raise DataFormatError(
            f"frame {f}: slot byte {hands['slot'][f, i]} in hand record {i} (0 left, 1 right)"
        )
    gt, gtj = [], []
    for frame in hands:
        states, joints = [], {}
        for rec in frame[frame["visible"] != 0]:
            ht = HandType(int(rec["slot"]))
            states.append(HandState(
                hand_type=ht,
                bbox=BBox(*rec["box"].astype(np.float64)),
                pose=HandPose(rec["pose"].astype(np.float64)),
                traj=Trajectory3D(*rec["traj"].astype(np.float64)),
                visible=True,
            ))
            if rec["joints_present"]:
                joints[ht] = JointSet(rec["joints"].astype(np.float64))
        gt.append(states)
        gtj.append(joints)
    return whole["frames"].copy(), gt, gtj


def _paths(base) -> tuple[Path, Path]:
    base = Path(base)
    if base.suffix == ".json":
        base = base.with_suffix("")
    return base.with_suffix(".json"), base.with_suffix(".bin")


def write_clipfile(clips: list[ClipSample], base) -> tuple[Path, Path]:
    """Write manifest (<base>.json) and blob (<base>.bin).

    The manifest's pose_dim is that of the first visible hand in any
    frame of any clip, or 48 when there is none.
    """
    manifest_path, blob_path = _paths(base)
    pose_dim = next(
        (s.pose.dim for c in clips for states in c.gt for s in states if s.visible), 48
    )
    records = []
    blob = bytearray()
    for clip in clips:
        seg = _clip_segment(clip, pose_dim)
        records.append(
            {
                "id": clip.id,
                "instruction": clip.instruction,
                "frames": clip.num_frames,
                "raster": list(clip.frames.shape[1:]),
                "blob_offset": len(blob),
                "blob_length": len(seg),
                "checksum": zlib.crc32(seg),
                "camera_note": clip.camera_note,
            }
        )
        blob.extend(seg)
    manifest = {
        "format_version": FORMAT_VERSION,
        "blob_file": blob_path.name,
        "pose_dim": pose_dim,
        "clips": records,
    }
    try:
        blob_path.write_bytes(bytes(blob))
        manifest_path.write_text(json.dumps(manifest, indent=1))
    except OSError as e:
        raise DataFormatError(f"cannot write clip files at {base}: {e}") from e
    return manifest_path, blob_path


def read_clipfile(base) -> list[ClipSample]:
    """Read and validate a clip dataset; raises distinct error kinds for
    version, truncation, and checksum violations, and DataFormatError for
    anything else malformed."""
    manifest_path, blob_path = _paths(base)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as e:
        raise DataFormatError(f"cannot read manifest {manifest_path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DataFormatError(f"manifest {manifest_path} is not valid JSON: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("clips", []), list):
        raise DataFormatError(f"manifest {manifest_path} is not a JSON object with a clips list")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported clip format version {version}; this build reads {FORMAT_VERSION}"
        )
    try:
        pose_dim = int(manifest.get("pose_dim", 48))
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"manifest {manifest_path}: bad pose_dim: {e}") from e
    try:
        blob = blob_path.read_bytes()
    except OSError as e:
        raise DataFormatError(f"cannot read blob {blob_path}: {e}") from e

    clips = []
    prev_end = 0
    for i, rec in enumerate(manifest.get("clips", [])):
        name = f"clip {rec.get('id', i) if isinstance(rec, dict) else i}"
        try:
            off, length = int(rec["blob_offset"]), int(rec["blob_length"])
            dtype = _segment_dtype(int(rec["frames"]), rec["raster"], pose_dim)
            checksum, cid, instruction = rec["checksum"], rec["id"], rec["instruction"]
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(f"{name}: malformed manifest record ({e!r})") from e
        if off < prev_end:
            raise DataFormatError(f"{name}: overlapping blob segment")
        if off + length > len(blob):
            raise TruncationError(
                f"{name}: segment ends at {off + length} but blob has {len(blob)} bytes"
            )
        prev_end = off + length
        seg = blob[off : off + length]
        if zlib.crc32(seg) != checksum:
            raise ChecksumError(f"{name}: checksum mismatch")
        if length != dtype.itemsize:
            raise TruncationError(
                f"{name}: segment length {length} != expected {dtype.itemsize}"
            )
        try:
            frames, gt, gtj = _parse_segment(seg, dtype)
            clips.append(ClipSample(
                id=cid,
                instruction=instruction,
                frames=frames,
                gt=gt,
                gt_joints=gtj,
                camera_note=rec.get("camera_note", ""),
            ))
        except (DataFormatError, UsageError) as e:
            raise DataFormatError(f"{name}: {e}") from e
    return clips
