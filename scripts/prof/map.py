#!/usr/bin/env python3
"""Attribute the samples of scripts/prof/sampler.c to functions.

    python3 scripts/prof/map.py BINARY sampler.<pid>.out

Executable samples ("exe 0x<offset>") are mapped to the symbol at or below
the offset in `nm -n -C BINARY`; the binary must be the one that ran. A
shared-object sample ("<library> 0x<offset> <symbol>") is counted under the
library's file name and the symbol the sampler recorded (see sampler.c for
why that symbol can be wrong in a stripped library), or, with no symbol,
under the 256-byte block of its offset, to read with `objdump -d`. Prints
one line (samples, share of all samples, name) for each of the 40 functions
with the most samples, then each library's total.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def text_symbols(binary):
    """(addresses, names) of the binary's code symbols, sorted by address."""
    out = subprocess.run(["nm", "-n", "-C", binary], capture_output=True, text=True,
                         check=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("t", "T", "w", "W"):
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("samples")
    a = ap.parse_args()
    addrs, names = text_symbols(a.binary)
    if not addrs:
        sys.exit(f"map.py: no code symbols in {a.binary} (stripped?)")
    counts = collections.Counter()
    libs = collections.Counter()
    total = 0
    with open(a.samples) as f:
        for line in f:
            fields = line.split()
            if len(fields) < 2:
                continue
            total += 1
            where, offset = fields[0], int(fields[1], 16)
            if where == "exe":
                i = bisect.bisect_right(addrs, offset) - 1
                counts[names[i] if i >= 0 else "?"] += 1
            else:
                lib = os.path.basename(where)
                libs[lib] += 1
                sym = fields[2] if len(fields) > 2 else "?"
                if sym == "?":  # no dynamic symbol: keep the 256-byte block
                    sym = f"+0x{offset & ~0xff:x}"
                counts[f"[{lib}] {sym}"] += 1
    if total == 0:
        sys.exit(f"map.py: no samples in {a.samples}")
    print(f"{total} samples")
    for name, n in counts.most_common(40):
        print(f"{n:8d} {100.0 * n / total:6.2f}%  {name}")
    for lib, n in libs.most_common():
        print(f"{n:8d} {100.0 * n / total:6.2f}%  all of [{lib}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
