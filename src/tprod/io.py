"""Tensor file formats: the TT3A binary container and a line-oriented text form.

Binary layout (little-endian): magic ``TT3A``, version u32 = 1, dims m, n, p
as u64, dtype tag u32 (1 = real64, 2 = complex128), then the slice-major
payload as IEEE-754 doubles (complex entries as re, im pairs).

Text layout: first line ``m n p dtype``; then p blocks of m lines of n
whitespace-separated values. Complex entries are written ``a+bi`` with
shortest round-trip decimals, so text and binary forms carry identical
values.

Both readers reject a zero dimension and any non-finite value. The binary
reader checks the payload size the header declares against the bytes left
in the file before it reads.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

from .core import Tensor3
from .errors import FileFormatError

MAGIC = b"TT3A"
VERSION = 1
DTYPE_REAL = 1
DTYPE_COMPLEX = 2

_HEADER = struct.Struct("<4sIQQQI")


def write_binary(path, a: Tensor3, force_complex=False):
    real = a.exactly_real and not force_complex
    tag = DTYPE_REAL if real else DTYPE_COMPLEX
    payload = a.data.real if real else a.data
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, a.m, a.n, a.p, tag))
        fh.write(np.ascontiguousarray(payload, dtype="<f8" if real else "<c16").tobytes())


def read_binary(path) -> Tensor3:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise FileFormatError(f"{path}: truncated header")
        magic, version, m, n, p, tag = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        if tag not in (DTYPE_REAL, DTYPE_COMPLEX):
            raise FileFormatError(f"{path}: unknown dtype tag {tag}")
        _check_dims(path, m, n, p)
        itemsize = 8 if tag == DTYPE_REAL else 16
        want = m * n * p * itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != want:
            raise FileFormatError(f"{path}: payload has {left} bytes, expected {want}")
        payload = fh.read(want)
    dt = "<f8" if tag == DTYPE_REAL else "<c16"
    flat = np.frombuffer(payload, dtype=dt)
    return _checked(path, flat.reshape(p, m, n))


def _check_dims(path, m, n, p):
    if min(m, n, p) <= 0:
        raise FileFormatError(f"{path}: dims {m} x {n} x {p} must all be positive")


def _checked(path, data) -> Tensor3:
    """The tensor of ``data``, once every value is known to be finite."""
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: non-finite value")
    return Tensor3(data)


def _fmt_complex(re_, im):
    sign = "+" if im >= 0 or im != im else "-"
    return f"{re_!r}{sign}{abs(im)!r}i"


_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+|inf|nan)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+|inf|nan)(?:[eE][+-]?\d+)?)i$"
)


def _parse_value(tok, complex_file):
    if complex_file:
        m = _COMPLEX_RE.match(tok)
        if not m:
            raise FileFormatError(f"bad complex token {tok!r}")
        return complex(float(m.group(1)), float(m.group(2)))
    try:
        return float(tok)
    except ValueError:
        raise FileFormatError(f"bad real token {tok!r}") from None


def write_text(path, a: Tensor3, force_complex=False):
    real = a.exactly_real and not force_complex
    dtype = "real64" if real else "complex128"
    with open(path, "w") as fh:
        fh.write(f"{a.m} {a.n} {a.p} {dtype}\n")
        # a slice at a time; tolist() yields Python floats, whose repr is the
        # shortest round-trip form
        for d in a.data:
            if real:
                lines = [" ".join(map(repr, row)) for row in d.real.tolist()]
            else:
                lines = [" ".join(map(_fmt_complex, row, im))
                         for row, im in zip(d.real.tolist(), d.imag.tolist())]
            fh.write("\n".join(lines) + "\n")


def read_text(path) -> Tensor3:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 4 or head[3] not in ("real64", "complex128"):
        raise FileFormatError(f"{path}: bad header line {lines[0]!r}")
    try:
        m, n, p = (int(v) for v in head[:3])
    except ValueError:
        raise FileFormatError(f"{path}: bad dims in header {lines[0]!r}") from None
    _check_dims(path, m, n, p)
    complex_file = head[3] == "complex128"
    body = lines[1:]
    if len(body) != m * p:
        raise FileFormatError(f"{path}: expected {m * p} value lines, found {len(body)}")
    data = np.empty((p, m, n), dtype=np.complex128)
    for k in range(p):
        for i in range(m):
            toks = body[k * m + i].split()
            if len(toks) != n:
                raise FileFormatError(
                    f"{path}: line {k * m + i + 2} has {len(toks)} values, expected {n}"
                )
            data[k, i] = [_parse_value(t, complex_file) for t in toks]
    return _checked(path, data)


def read_tensor(path) -> Tensor3:
    """Binary or text, decided by the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return read_binary(path) if head == MAGIC else read_text(str(path))


def write_tensor(path, a: Tensor3, text=False, force_complex=False):
    if text:
        write_text(path, a, force_complex)
    else:
        write_binary(path, a, force_complex)
