#!/usr/bin/env python3
"""Regenerate the RFC 1951 interop fixtures from the .plain files.

For each <name>.plain this writes, using only the Python standard library:
  <name>.deflate  raw DEFLATE stream            (zlib.compressobj wbits=-15)
  <name>.zlib     RFC 1950 zlib stream          (zlib.compress)
  <name>.gz       RFC 1952 gzip member          (mtime=0, no FNAME, OS=3)

The outputs are deterministic, so the fixtures can be re-created and
diffed at any time.  test/test_rfc1951.ml decodes all three framings with
Deflate.decompress / Deflate.Zlib.decompress / Deflate.Gzip.decompress and
compares against the .plain bytes.  check_interop.py is the other
direction: Python's zlib decodes what zc writes.
"""

import glob
import os
import struct
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))


def gzip_bytes(plain: bytes) -> bytes:
    # Hand-rolled member so MTIME is fixed at 0 (gzip.compress embeds the
    # current time on older Pythons).
    c = zlib.compressobj(9, zlib.DEFLATED, -15)
    body = c.compress(plain) + c.flush()
    header = b"\x1f\x8b\x08\x00" + struct.pack("<I", 0) + b"\x00\x03"
    trailer = struct.pack("<II", zlib.crc32(plain), len(plain) & 0xFFFFFFFF)
    return header + body + trailer


def main() -> None:
    for path in sorted(glob.glob(os.path.join(HERE, "*.plain"))):
        base = path[: -len(".plain")]
        with open(path, "rb") as fh:
            plain = fh.read()
        c = zlib.compressobj(9, zlib.DEFLATED, -15)
        with open(base + ".deflate", "wb") as fh:
            fh.write(c.compress(plain) + c.flush())
        with open(base + ".zlib", "wb") as fh:
            fh.write(zlib.compress(plain, 9))
        with open(base + ".gz", "wb") as fh:
            fh.write(gzip_bytes(plain))
        print(os.path.basename(base))


if __name__ == "__main__":
    main()
