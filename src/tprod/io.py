"""Tensor file formats: the TT3A binary container and a line-oriented text form.

Binary layout (little-endian): magic ``TT3A``, version u32 = 1, dims m, n, p
as u64, dtype tag u32 (1 = real64, 2 = complex128), then the slice-major
payload as IEEE-754 doubles (complex entries as re, im pairs).

Text layout: first line ``m n p dtype``; then p blocks of m lines of n
whitespace-separated values. Complex entries are written ``a+bi`` with
shortest round-trip decimals, so text and binary forms carry identical
values. A ``real64`` token is a Python float literal and a ``complex128``
token a Python complex literal with a trailing ``i`` in place of ``j``
(``1_0+2i`` and ``2i`` parse; ``3``, ``1+2j``, ``(1+2i)`` and a bare
``i`` do not).

Both readers reject a zero dimension and any non-finite value, and check
that the file can hold the values its header declares before they allocate
them: the binary reader against the bytes left in the file, the text reader
against its line count and line lengths. A ``real64`` file reads into a
float64 tensor and a ``complex128`` file into a complex128 one (float64 when
every imaginary part is zero); a writer tags a tensor by its stored dtype
unless ``force_complex`` is set.
"""

from __future__ import annotations

import itertools
import os
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, a.m, a.n, a.p, tag))
        fh.write(a.data.astype("<f8" if real else "<c16", copy=False))


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


def _parse_complex(tok):
    """``a+bi`` as a Python complex literal with ``i`` for ``j``; a bare ``i`` is refused."""
    if not tok.endswith("i") or tok[-2:-1] in ("", "+", "-"):
        raise ValueError(tok)
    return complex(tok[:-1] + "j")


def write_text(path, a: Tensor3, force_complex=False):
    real = a.exactly_real and not force_complex
    dtype = "real64" if real else "complex128"
    with open(path, "w") as fh:
        fh.write(f"{a.m} {a.n} {a.p} {dtype}\n")
        # a slice at a time; tolist() yields Python floats, whose repr is the
        # shortest round-trip form
        for d in a.data:
            if real:
                lines = [" ".join(map(repr, row)) for row in d.tolist()]
            else:
                lines = [" ".join(map(_fmt_complex, row, im))
                         for row, im in zip(d.real.tolist(), d.imag.tolist())]
            fh.write("\n".join(lines) + "\n")


def _line_number(path, k):
    """The number in the file of its k-th line that is not blank (from 0): the reader
    skips blank lines, and a message names a line as an editor counts it."""
    with open(path) as fh:
        return [i for i, ln in enumerate(fh, 1) if ln.strip()][k]


def read_text(path) -> Tensor3:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: neither a TT3A file nor text") from None
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

    def row(k, line):
        toks = line.split()
        if len(toks) != n:
            raise FileFormatError(f"{path}: line {_line_number(path, k)} has {len(toks)} values, "
                                  f"expected {n}")
        return toks

    # n values take at least 2n - 1 characters: where a line is shorter, the lines are
    # checked in order before m n p values are allocated, and the first wrong one raises
    if min(map(len, body)) < 2 * n - 1:
        for k, line in enumerate(body, 1):
            row(k, line)
    # one line's tokens at a time, parsed straight into the array
    tokens = itertools.chain.from_iterable(map(row, itertools.count(1), body))
    kind, parse, dtype = (("complex", _parse_complex, np.complex128) if complex_file
                          else ("real", float, np.float64))
    try:
        flat = np.fromiter(map(parse, tokens), dtype=dtype, count=m * n * p)
    except ValueError:
        for tok in itertools.chain.from_iterable(map(str.split, body)):
            try:
                parse(tok)
            except ValueError:
                raise FileFormatError(f"{path}: bad {kind} token {tok!r}") from None
    return _checked(path, flat.reshape(p, m, n))


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
