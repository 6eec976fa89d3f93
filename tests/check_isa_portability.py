#!/usr/bin/env python3
"""Portability guard for the ISA-dispatched kernels.

The library builds for baseline x86-64. Only the AVX2 and AVX-512F clones of
the blocked kernels (namespaces isa_avx2 and isa_avx512 in
src/kernels/gemm.cpp) may hold VEX- or EVEX-encoded instructions, because a
call enters them only after the CPU was found to support them. This script
disassembles a binary and fails if any other function holds one: that code
would stop a baseline host with SIGILL. It also fails if no clone function
holds one, since then the disassembly was not read the way this script
expects and the check proved nothing.

Usage: check_isa_portability.py <binary> [objdump]
"""

import re
import subprocess
import sys

CLONE_NAMESPACES = ("::isa_avx2::", "::isa_avx512::")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
# An instruction line: address, colon, mnemonic. VEX/EVEX mnemonics all
# start with "v"; the AVX-512 mask-register instructions (kmov, kortest, ...)
# with "k". No baseline x86-64 user-mode mnemonic starts with either.
WIDE_INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s+[vk][a-z0-9]*\b")


def wide_functions(disassembly):
    """Names of the functions holding at least one VEX/EVEX instruction."""
    found = set()
    function = None
    for line in disassembly.splitlines():
        m = FUNCTION.match(line)
        if m:
            function = m.group(1)
        elif function is not None and WIDE_INSTRUCTION.match(line):
            found.add(function)
    return found


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    objdump = argv[2] if len(argv) == 3 else "objdump"
    out = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", binary],
                         capture_output=True, text=True)
    if out.returncode != 0:
        print(f"{objdump} failed on {binary}: {out.stderr.strip()}", file=sys.stderr)
        return 2
    found = wide_functions(out.stdout)
    clones = sorted(f for f in found if any(ns in f for ns in CLONE_NAMESPACES))
    leaks = sorted(f for f in found if f not in clones)
    print(f"{binary}: {len(found)} functions hold VEX/EVEX code, "
          f"{len(clones)} of them in the ISA clones")
    for f in leaks:
        print(f"  outside the clones: {f}")
    if leaks:
        return 1
    if not clones:
        print("  no clone function holds VEX/EVEX code: the check saw nothing")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
