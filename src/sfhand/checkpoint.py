"""Binary checkpoint format: magic 'SFHD', config, named parameter tensors.

Parameters serialize sorted by name with little-endian payloads, so
save -> load -> save is byte-identical. Loading into a model validates
every shape against the freshly built parameter set.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .config import Config
from .errors import DataFormatError, TruncationError, UsageError, VersionError
from .model import ForecastModel

MAGIC = b"SFHD"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_checkpoint(path, cfg: Config, params: dict[str, np.ndarray], step: int) -> Path:
    path = Path(path)
    cfg_blob = cfg.to_json().encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IQ", VERSION, step)
    out += struct.pack("<I", len(cfg_blob))
    out += cfg_blob
    out += struct.pack("<I", len(params))
    for name in sorted(params):
        arr = np.asarray(params[name], order="C")  # keeps 0-d parameters 0-d
        code = _DTYPE_CODES.get(arr.dtype.newbyteorder("="))
        if code is None:
            code = _DTYPE_CODES[np.dtype(np.float32) if arr.dtype.itemsize == 4 else np.dtype(np.float64)]
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<BB", code, arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype(_DTYPES[code]).tobytes()
    try:
        path.write_bytes(bytes(out))
    except OSError as e:
        raise DataFormatError(f"cannot write checkpoint {path}: {e}") from e
    return path


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise TruncationError(
                f"checkpoint {self.path} truncated at byte {self.off} (+{n} needed)"
            )
        b = self.buf[self.off : self.off + n]
        self.off += n
        return b

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[Config, dict[str, np.ndarray], int]:
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as e:
        raise DataFormatError(f"cannot read checkpoint {path}: {e}") from e
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise DataFormatError(f"{path} is not a checkpoint (bad magic)")
    version, step = r.unpack("<IQ")
    if version != VERSION:
        raise VersionError(
            f"unsupported checkpoint version {version}; this build reads {VERSION}"
        )
    (cfg_len,) = r.unpack("<I")
    try:  # a stored config or name that fails to decode, parse or validate
        cfg = Config.from_json(r.take(cfg_len).decode("utf-8"))
        (n_params,) = r.unpack("<I")
        params: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = r.unpack("<H")
            name = r.take(name_len).decode("utf-8")
            code, ndim = r.unpack("<BB")
            if code not in _DTYPES:
                raise DataFormatError(f"unknown dtype code {code} for parameter {name!r}")
            shape = r.unpack(f"<{ndim}I") if ndim else ()
            count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            raw = r.take(count * _DTYPES[code].itemsize)
            params[name] = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(shape).copy()
    except (UnicodeDecodeError, UsageError) as e:
        raise DataFormatError(f"checkpoint {path}: {e}") from e
    if r.off != len(buf):
        raise DataFormatError(f"checkpoint {path} has {len(buf) - r.off} trailing bytes")
    return cfg, params, step


def restore_model(path, overrides: dict | None = None) -> tuple[ForecastModel, int]:
    """Build a model from a checkpoint; optional config overrides must not
    change parameter shapes (eval-time switches only)."""
    cfg, params, step = load_checkpoint(path)
    if overrides:
        cfg = cfg.replace(**overrides)
    model = ForecastModel(cfg)
    have = set(model.tape.params)
    want = set(params)
    if have != want:
        missing, extra = sorted(want - have), sorted(have - want)
        raise DataFormatError(
            f"checkpoint/config parameter set mismatch (missing {missing[:3]}..., "
            f"unexpected {extra[:3]}...)" if missing or extra else "parameter mismatch"
        )
    for name, value in params.items():
        current = model.tape.params[name].value
        if tuple(value.shape) != tuple(current.shape):
            raise DataFormatError(
                f"parameter {name!r}: checkpoint shape {value.shape} != model "
                f"shape {current.shape}"
            )
        model.tape.set_param(name, value)
    return model, step
