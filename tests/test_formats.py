"""Golden values for the byte formats that FORMATS.md documents.

Each test pins one section: a failure here means the bytes a released
build writes or generates have changed, and FORMATS.md with them.
"""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from sfhand import data
from sfhand.checkpoint import load_checkpoint, save_checkpoint
from sfhand.config import Config
from sfhand.data import generate_synthetic, write_clipfile
from sfhand.harness import build_benchmark
from sfhand.rng import Xorshift64Star, derive_seed, splitmix64

M = (1 << 64) - 1


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_stream(seed, n):
    """xorshift64* as FORMATS.md writes it, seeded through splitmix64."""
    x = (seed + 0x9E3779B97F4A7C15) & M
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M
    x ^= x >> 31
    out = []
    for _ in range(n):
        x ^= x >> 12
        x ^= (x << 25) & M
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & M)
    return out


def test_prng_golden_outputs():
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    r = Xorshift64Star(0)
    assert [r.next_u64() for _ in range(3)] == [
        0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91]
    for seed in (0, 1, 12345, derive_seed(7, 3)):
        r = Xorshift64Star(seed)
        assert [r.next_u64() for _ in range(50)] == reference_stream(seed, 50)
    assert derive_seed(7, 3) == 4


def test_uniform_and_randint_follow_the_documented_formulas():
    raw = reference_stream(9, 200)
    r = Xorshift64Star(9)
    assert [r.uniform(-2.0, 3.0) for _ in range(100)] == [
        -2.0 + 5.0 * ((u >> 11) / 2.0**53) for u in raw[:100]]
    n = 7
    accepted = [u % n for u in raw[100:] if u <= M - (1 << 64) % n]
    assert [r.randint(n) for _ in range(50)] == accepted[:50]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, derive_seed(7, 3)])
@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 192, 12288, 12289])
def test_uniforms_block_equals_successive_uniform_calls(seed, n):
    bounds = [(0.0, 0.35), (np.linspace(-3.0, 0.0, n), np.full(n, 2.5))]
    for lo, hi in bounds:
        block, calls = Xorshift64Star(seed), Xorshift64Star(seed)
        got = block.uniforms(lo, hi, n)
        los, his = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
        want = np.array([calls.uniform(float(a), float(b)) for a, b in zip(los, his)],
                        dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block.next_u64() == calls.next_u64()


def test_benchmark_golden_segments():
    """Every clip of the raster-64 benchmark, which also pins the pose-48 rig."""
    train, held = build_benchmark(0, raster=64)
    digest = hashlib.sha256()
    for clip in train + held:
        digest.update(data._clip_segment(clip, 48))
    assert digest.hexdigest() == (
        "8d5252705de49e90cd815557884a1c1e3c89456687befd6579766014856967b1")


def test_clipfile_golden_bytes(tmp_path):
    clip = generate_synthetic(1, "two_hands", 1, frames=2, raster=8, pose_dim=4)[0]
    manifest, blob = write_clipfile([clip], tmp_path / "tiny")
    assert sha256(manifest) == "a6dbfb24ff4a44b0e8207d1eb6970c83a8023180e1b47eca5cc1e70f5d64b2f6"
    assert sha256(blob) == "ce20ebfc565e28e66054fe0d39df1341005606bdfa363b0307ed0137517f9ec6"

    # the layout as documented: frames, then (left, right) records per frame
    record = json.loads(manifest.read_text())["clips"][0]
    data = blob.read_bytes()
    t, r, p = 2, 8, 4
    assert len(data) == record["blob_length"] == 4 * t * r * r * 3 + 2 * t * (283 + 4 * p)
    assert record["checksum"] == zlib.crc32(data)
    off = 4 * t * r * r * 3 + (283 + 4 * p)  # frame 0, right slot
    slot, visible = data[off], data[off + 1]
    box = struct.unpack_from("<4f", data, off + 2)
    traj = struct.unpack_from("<3f", data, off + 18 + 4 * p)
    right = clip.gt[0][1]
    assert (slot, visible) == (1, 1)
    assert box == tuple(right.bbox.as_array())
    assert traj == tuple(right.traj.as_array())
    assert data[off + 30 + 4 * p] == 1  # joints present


def test_checkpoint_golden_bytes(tmp_path):
    params = {
        "memory.alpha": np.asarray(1.5, np.float32),  # 0-d
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.array([0.25, -1.0]),
    }
    path = save_checkpoint(tmp_path / "golden.ckpt", Config(), params, step=7)
    assert sha256(path) == "33fcf025442a86d4696d9fdee882be4b420696d10a7dc0299d43f2ed0b94cbe3"

    buf = path.read_bytes()
    assert buf[:4] == b"SFHD"
    version, step, cfg_len = struct.unpack_from("<IQI", buf, 4)
    assert (version, step) == (1, 7)
    off = 20 + cfg_len
    assert struct.unpack_from("<I", buf, off) == (3,)
    off += 4
    names = []
    for _ in range(3):
        (n,) = struct.unpack_from("<H", buf, off)
        names.append(buf[off + 2:off + 2 + n].decode())
        off += 2 + n
        code, ndim = struct.unpack_from("<BB", buf, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", buf, off)
        off += 4 * ndim
        off += int(np.prod(shape)) * (4 if code == 0 else 8)
        if names[-1] == "memory.alpha":
            assert (code, ndim) == (0, 0)
            assert struct.unpack_from("<f", buf, off - 4) == (1.5,)
    assert names == sorted(params)
    assert off == len(buf)
    cfg, loaded, _ = load_checkpoint(path)
    assert cfg == Config() and loaded["memory.alpha"].shape == ()

