#!/usr/bin/env python3
"""Check that Python's zlib decodes every DEFLATE stream zc writes.

For each input (the *.plain fixtures next to this file and a generated
multi-frame text), using only the Python standard library:
  - `zc compress -a deflate|zlib|gzip` output is inflated with zlib
    (raw, RFC 1950 and RFC 1952 framing) and compared with the input;
  - the ZCF1 frames of `zc stream compress -a deflate` output, at the
    default and at 64-byte frames, are walked one by one: every payload
    must inflate as a complete raw RFC 1951 stream to its declared
    length, and the frames' plaintext, the trailer's total length and its
    CRC-32 must match the input.

Run from the repository root after `dune build`:

    python3 test/fixtures/check_interop.py [path/to/zc.exe]

Exits non-zero, naming the input and the stream, on the first mismatch.
"""

import glob
import os
import random
import struct
import subprocess
import sys
import tempfile
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
DEFLATE_ID = 5


def fail(msg: str) -> None:
    sys.exit("check_interop: " + msg)


def zc(exe: str, *args: str) -> None:
    subprocess.run([exe, *args], check=True, stdout=subprocess.DEVNULL)


def inflate_raw(data: bytes) -> bytes:
    d = zlib.decompressobj(-15)
    out = d.decompress(data) + d.flush()
    if not d.eof or d.unused_data:
        raise zlib.error("not one complete raw deflate stream")
    return out


def unframe(stream: bytes) -> bytes:
    if stream[:4] != b"ZCF1" or stream[4] != DEFLATE_ID or stream[5:8] != b"\0\0\0":
        raise ValueError("bad ZCF1 deflate header %r" % stream[:8])
    pos, parts = 8, []
    while True:
        tag = stream[pos]
        if tag == 0xFF:
            total, crc = struct.unpack_from("<QI", stream, pos + 1)
            plain = b"".join(parts)
            if pos + 13 != len(stream):
                raise ValueError("bytes after the trailer")
            if total != len(plain) or crc != zlib.crc32(plain):
                raise ValueError("trailer does not match the frames")
            return plain
        if tag not in (0x01, 0x02):
            raise ValueError("unknown frame tag %d at %d" % (tag, pos))
        ulen, clen, _ = struct.unpack_from("<III", stream, pos + 1)
        payload = stream[pos + 13 : pos + 13 + clen]
        out = inflate_raw(payload) if clen else b""
        if len(out) != ulen:
            raise ValueError("frame at %d inflates to %d bytes, not %d" % (pos, len(out), ulen))
        parts.append(out)
        pos += 13 + clen


def inputs(tmp: str) -> list:
    paths = sorted(glob.glob(os.path.join(HERE, "*.plain")))
    rng = random.Random(1951)
    words = [bytes(rng.choice(b"etaoinshrdlu") for _ in range(rng.randint(2, 9))) for _ in range(300)]
    text = b" ".join(rng.choice(words) for _ in range(40000))
    big = os.path.join(tmp, "multiframe.plain")
    with open(big, "wb") as fh:
        fh.write(text + bytes(rng.getrandbits(8) for _ in range(70000)))
    return paths + [big]


def main() -> None:
    exe = sys.argv[1] if len(sys.argv) > 1 else "_build/default/bin/zc.exe"
    decoders = {
        "deflate": inflate_raw,
        "zlib": zlib.decompress,
        "gzip": lambda data: zlib.decompress(data, 31),
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        checked = 0
        for path in inputs(tmp):
            with open(path, "rb") as fh:
                plain = fh.read()
            name = os.path.basename(path)
            streams = []
            runs = [(["compress", "-a", algo], decode) for algo, decode in decoders.items()]
            runs += [
                (["stream", "compress", "-a", "deflate", "--frame-size", size], unframe)
                for size in ("65536", "64")
            ]
            for args, decode in runs:
                zc(exe, *args, path, out)
                with open(out, "rb") as fh:
                    streams.append((" ".join(args), decode, fh.read()))
            for label, decode, data in streams:
                try:
                    back = decode(data)
                except (zlib.error, ValueError, IndexError, struct.error) as e:
                    fail("%s: %s: %s" % (name, label, e))
                if back != plain:
                    fail("%s: %s: decodes to different bytes" % (name, label))
                checked += 1
        print("check_interop: %d streams decoded by Python's zlib" % checked)


if __name__ == "__main__":
    main()
