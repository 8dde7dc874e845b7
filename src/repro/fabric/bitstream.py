"""Partial bitstreams and configuration-data compression.

The paper (Section 4.3) adopts the approach of Koch, Beckhoff and Teich,
"Hardware Decompression Techniques for FPGA-based Embedded Systems": "by
using configuration data compression, we will reduce memory requirements,
configuration latency and configuration power consumption at the same
time."

We implement a *real* byte-oriented run-length coder (the hardware
decompressor of that paper is an RLE-class design precisely because it
must sustain configuration-port line rate), plus a deterministic synthetic
configuration-data generator whose redundancy is tunable -- partial
bitstreams are dominated by long runs of zero frames for unused tiles,
which is where the compression wins come from.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Optional

_bitstream_ids = itertools.count()

#: Bytes per configuration frame (Xilinx 7-series frames are 101 words).
FRAME_BYTES = 404

_RLE_MARKER = 0x00  # escape byte; chosen because zero runs dominate

#: byte-translation table mapping the RLE marker to 0x01, identity elsewhere
_MARKER_REMAP = bytes(0x01 if b == _RLE_MARKER else b for b in range(256))


def synthesize_config_data(frames: int, fill_fraction: float, seed: int = 0) -> bytes:
    """Deterministically generate ``frames`` frames of configuration data.

    ``fill_fraction`` is the fraction of frames carrying 'real' logic
    (pseudo-random bytes); the rest are zero frames (unused tiles inside
    the module bounding box).  Dense modules therefore compress poorly,
    sparse ones very well -- the exact trade the floorplanner experiment
    measures.
    """
    if frames < 0:
        raise ValueError(f"frame count must be non-negative, got {frames}")
    if not 0.0 <= fill_fraction <= 1.0:
        raise ValueError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
    filled = round(frames * fill_fraction)
    out = bytearray()
    digest = hashlib.sha256(f"ecoscale-bitstream-{seed}".encode()).digest()
    sha256 = hashlib.sha256
    # frame content depends only on (digest, i & 0xFF): memoize the 256
    # distinct frames instead of re-hashing 13 blocks per frame
    frame_cache: dict = {}
    blocks_per_frame = -(-FRAME_BYTES // 32)  # sha256 digests per frame
    for i in range(filled):
        low = i & 0xFF
        frame = frame_cache.get(low)
        if frame is None:
            # expand the seed digest into FRAME_BYTES of pseudo-random data
            raw = b"".join(
                sha256(digest + bytes((low, counter))).digest()
                for counter in range(blocks_per_frame)
            )
            # avoid the RLE escape byte in "random" data to keep frames incompressible
            frame = raw[:FRAME_BYTES].translate(_MARKER_REMAP)
            frame_cache[low] = frame
        out += frame
    # zero frames for unused tiles, appended in one bulk extend
    out += b"\x00" * (FRAME_BYTES * (frames - filled))
    return bytes(out)


def compress_rle(data: bytes) -> bytes:
    """Byte-oriented RLE: ``0x00, count, value`` encodes ``value`` repeated
    ``count`` (3..255) times; literal ``0x00`` is escaped as ``0x00, 0x00``.

    Worst-case expansion is bounded (only literal zeros expand, 2x), and
    long zero runs -- the dominant content of partial bitstreams -- shrink
    by ~85x.
    """
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        run = 1
        while i + run < n and run < 255 and data[i + run] == b:
            run += 1
        if run >= 3:
            out.extend((_RLE_MARKER, run, b))
            i += run
        elif b == _RLE_MARKER:
            out.extend((_RLE_MARKER, 0))
            i += 1
        else:
            out.append(b)
            i += 1
    return bytes(out)


@functools.lru_cache(maxsize=256)
def _compress_cached(data: bytes) -> bytes:
    """:func:`compress_rle` memoized on the content of immutable ``data``.

    Every machine built from one module library reconfigures with the
    same bitstream bytes, so the RLE pass runs once per distinct content
    per process instead of once per load.
    """
    return compress_rle(data)


def decompress_rle(data: bytes) -> bytes:
    """Inverse of :func:`compress_rle`."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b != _RLE_MARKER:
            out.append(b)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("truncated RLE escape sequence")
        count = data[i + 1]
        if count == 0:
            out.append(_RLE_MARKER)
            i += 2
        else:
            if i + 2 >= n:
                raise ValueError("truncated RLE run")
            out.extend(bytes([data[i + 2]]) * count)
            i += 3
    return bytes(out)


@dataclass
class Bitstream:
    """A partial bitstream for one accelerator module in one region shape."""

    module_name: str
    frames: int
    data: bytes
    bitstream_id: int = field(default_factory=lambda: next(_bitstream_ids))

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ValueError("frame count must be non-negative")
        if len(self.data) != self.frames * FRAME_BYTES:
            raise ValueError(
                f"data length {len(self.data)} != frames*FRAME_BYTES "
                f"({self.frames * FRAME_BYTES})"
            )

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    def compress(self) -> "CompressedBitstream":
        # bytes() is a no-op on bytes; it makes other buffers hashable
        compressed = _compress_cached(bytes(self.data))
        return CompressedBitstream(
            module_name=self.module_name,
            frames=self.frames,
            data=compressed,
            raw_size=self.size_bytes,
        )

    @classmethod
    def synthesize(
        cls, module_name: str, frames: int, fill_fraction: float, seed: int = 0
    ) -> "Bitstream":
        return cls(
            module_name=module_name,
            frames=frames,
            data=synthesize_config_data(frames, fill_fraction, seed),
        )


@dataclass
class CompressedBitstream:
    """A compressed bitstream plus metadata for on-the-fly decompression."""

    module_name: str
    frames: int
    data: bytes
    raw_size: int

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    @property
    def compression_ratio(self) -> float:
        """raw / compressed; > 1 means the compression won."""
        return self.raw_size / len(self.data) if self.data else float("inf")

    def decompress(self) -> Bitstream:
        raw = decompress_rle(self.data)
        if len(raw) != self.raw_size:
            raise ValueError(
                f"decompressed size {len(raw)} != recorded raw size {self.raw_size}"
            )
        return Bitstream(module_name=self.module_name, frames=self.frames, data=raw)
