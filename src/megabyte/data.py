"""Byte-level corpus handling: raw documents, fixed-length training windows,
and the two bijective image-to-sequence orderings (raster and patch scan)
over binary PPM images. Bytes are the tokens; nothing is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Document:
    id: str
    data: bytes

    def __post_init__(self):
        if len(self.data) == 0:
            raise ValueError(f"empty document: {self.id}")


@dataclass
class Window:
    """One fixed-length training row; padded tail positions are masked."""
    doc_id: str
    offset: int
    bytes: np.ndarray   # (T,) int64 in [0, 256)
    mask: np.ndarray    # (T,) bool, True where the loss counts

    @property
    def real_length(self) -> int:
        return int(self.mask.sum())


def load_corpus(path) -> list[Document]:
    """Read a file, or every regular file in a directory (lexicographic
    order), as raw-byte documents. No decoding: byte 0xE2 stays 0xE2."""
    p = Path(path)
    if p.is_dir():
        files = sorted(f for f in p.iterdir() if f.is_file())
        if not files:
            raise ValueError(f"empty corpus directory: {p}")
        return [Document(f.name, f.read_bytes()) for f in files]
    if p.is_file():
        return [Document(p.name, p.read_bytes())]
    raise FileNotFoundError(f"unreadable corpus path: {p}")


def make_windows(docs: list[Document], t: int, stride: int | None = None) -> list[Window]:
    """Cut each document into length-T windows at the given stride.

    Windows never span document boundaries; a trailing remainder shorter
    than T is padded with byte 0 and masked out of the loss.
    """
    if t < 1:
        raise ValueError("window length must be >= 1")
    if stride is None:
        stride = t
    if not 1 <= stride <= t:
        raise ValueError("stride must be in [1, T]")
    windows = []
    for doc in docs:
        raw = np.frombuffer(doc.data, dtype=np.uint8).astype(np.int64)
        for offset in range(0, len(raw), stride):
            chunk = raw[offset:offset + t]
            if len(chunk) == 0:
                break
            row = np.zeros(t, dtype=np.int64)
            row[:len(chunk)] = chunk
            mask = np.zeros(t, dtype=bool)
            mask[:len(chunk)] = True
            windows.append(Window(doc.id, offset, row, mask))
            if offset + t >= len(raw):
                break
    return windows


@dataclass
class ImageGrid:
    """An h x w RGB pixel grid; pixels[y, x, c] is one byte."""
    pixels: np.ndarray  # (h, w, 3) uint8

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError("image must be (h, w, 3)")
        if min(self.pixels.shape[:2]) < 1:
            raise ValueError("image height and width must be >= 1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def raster_scan(img: ImageGrid) -> bytes:
    """Row-by-row pixel order: output[3*(y*w + x) + c] = pixel(y, x, c)."""
    return img.pixels.tobytes()


def raster_unscan(data: bytes, height: int, width: int) -> ImageGrid:
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size != height * width * 3:
        raise ValueError("byte count does not match image dimensions")
    return ImageGrid(arr.reshape(height, width, 3).copy())


def _patch_side(patch_bytes: int) -> int:
    if patch_bytes < 3 or patch_bytes % 3 != 0:
        raise ValueError("patch byte count must be 3 * square pixels")
    side = round((patch_bytes // 3) ** 0.5)
    if side * side * 3 != patch_bytes:
        raise ValueError("patch byte count must be 3 * square pixels")
    return side


def patch_scan(img: ImageGrid, patch_bytes: int) -> bytes:
    """Raster order across p x p pixel patches, raster order within each,
    where p = sqrt(patch_bytes / 3). Image dims must divide by p."""
    p = _patch_side(patch_bytes)
    h, w = img.height, img.width
    if h % p or w % p:
        raise ValueError(f"image dims {h}x{w} not divisible by patch side {p}")
    blocks = img.pixels.reshape(h // p, p, w // p, p, 3)
    return blocks.transpose(0, 2, 1, 3, 4).tobytes()


def patch_unscan(data: bytes, height: int, width: int, patch_bytes: int) -> ImageGrid:
    p = _patch_side(patch_bytes)
    if height % p or width % p:
        raise ValueError(f"image dims {height}x{width} not divisible by patch side {p}")
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size != height * width * 3:
        raise ValueError("byte count does not match image dimensions")
    blocks = arr.reshape(height // p, width // p, p, p, 3)
    return ImageGrid(blocks.transpose(0, 2, 1, 3, 4).reshape(height, width, 3).copy())


def parse_ppm(data: bytes) -> ImageGrid:
    """Parse a binary PPM (magic P6, maxval 255), tolerating comments and
    arbitrary whitespace in the header. The magic must be followed by
    whitespace, and each header number is plain ASCII decimal digits."""
    if not data.startswith(b"P6") or not data[2:3].isspace():
        raise ValueError("bad magic: not a binary PPM (P6)")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        if not data[start:pos].isdigit():   # int() would take a sign or underscores
            raise ValueError(f"bad PPM header field: {data[start:pos]!r}")
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (need 255)")
    if width < 1 or height < 1:
        raise ValueError("bad PPM dimensions")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + height * width * 3]
    if len(payload) < height * width * 3:
        raise ValueError("truncated PPM payload")
    return raster_unscan(payload, height, width)


def write_ppm(img: ImageGrid) -> bytes:
    header = f"P6 {img.width} {img.height} 255\n".encode()
    return header + img.pixels.tobytes()
