#!/usr/bin/env python3
"""Fails when a built library holds a fused multiply-add instruction.

    python3 ci/no_fused_instructions.py build/libfleda.a

Every float kernel multiplies, then adds: two roundings, the order the
portable kernels use, so the kernel ISA changes speed, never bits
(tensor/plan.hpp). A vfmadd/vfmsub/vfnmadd/vfnmsub (any width, the
addsub/subadd forms included) rounds once and breaks that. The compiler
can emit one without any fused intrinsic in the source: under an
AVX-512 target GCC's default -ffp-contract=fast contracts a mul followed
by an add. This disassembles the library with `objdump -d` and prints
each fused instruction with the function it sits in.

Exit codes: 0 clean, 1 fused instructions found (or objdump failed),
77 objdump is not installed (ctest reports SKIP via SKIP_RETURN_CODE).
"""

import re
import shutil
import subprocess
import sys

SKIP = 77
FUNCTION_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
FUSED_RE = re.compile(r"v?fn?m(?:add|sub)\w*")


def fused_instructions(disassembly):
    """(function, instruction line) for every fused instruction."""
    function = "?"
    found = []
    for line in disassembly.splitlines():
        m = FUNCTION_RE.match(line)
        if m:
            function = m.group(1)
            continue
        # "  addr:\t<mnemonic> <operands>" once raw bytes are hidden.
        fields = line.split("\t")
        words = fields[1].split() if len(fields) >= 2 else []
        if words and FUSED_RE.fullmatch(words[0]):
            found.append((function, line.strip()))
    return found


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump not found")
        return SKIP
    done = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", argv[1]],
                          capture_output=True, text=True)
    if done.returncode != 0:
        print(f"objdump failed on {argv[1]}: {done.stderr.strip()}",
              file=sys.stderr)
        return 1
    found = fused_instructions(done.stdout)
    for function, line in found:
        print(f"fused instruction in {function}: {line}")
    if found:
        print(f"{argv[1]}: {len(found)} fused multiply-add instruction(s)",
              file=sys.stderr)
        return 1
    print(f"{argv[1]}: no fused multiply-add instructions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
