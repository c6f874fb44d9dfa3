#!/usr/bin/env python3
"""Sampling CPU profile of one command: self and inclusive share per function.

    scripts/profile.py [--hz N] [--top N] [--out FILE] -- BINARY [ARGS...]

Starts BINARY as a child process and samples it with the kernel's
`perf_event_open` interface: the software cpu-clock event, user space only
(`exclude_kernel`), attached to the child alone (threads it starts
included), with each sample's call chain walked through frame pointers.
Addresses are resolved to functions with `addr2line -i`, so frames the
compiler inlined count as the functions they came from. Prints the
functions that hold the largest share of samples, by self share (the
innermost function at the sampled instruction) and by inclusive share (the
function is anywhere on the sampled stack); `--out` also writes every
function's counts as JSON.

Call chains need frame pointers, and names need line tables. Build the
binary for profiling into a target directory of its own, so the ordinary
build is untouched, for example:

    RUSTFLAGS="-C force-frame-pointers=yes -C relocation-model=static" \\
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
        cargo build --release --offline --target-dir target/profiling \\
        -p loadex-bench --bin run
    scripts/profile.py --hz 4000 -- target/profiling/release/run \\
        --matrix CONV3D64 --procs 512 --mech increments

`relocation-model=static` links a position-dependent executable, whose
sampled addresses are its own ELF addresses; a position-independent one is
also handled, through the kernel's record of where the binary was mapped.
Frames inside the prebuilt standard library, which keeps no frame
pointers, can cut a chain short: those samples still count for self share.

Notes on the alternatives, measured on a 2-vCPU cloud VM: its hypervisor
exposes no hardware counters (opening a hardware cycles event fails with
ENOENT), so only software events such as cpu-clock work, and gprofng's
clock profiling recorded only 13 samples for a 1.4 s run. The kernel's
`perf_event_paranoid` setting must allow unprivileged user-space sampling
of one's own processes (2 or lower).
"""

import argparse
import collections
import ctypes
import json
import mmap
import os
import re
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_SAMPLE_CALLCHAIN = 1 << 5
# perf_event_attr flag bits.
DISABLED = 1 << 0
INHERIT = 1 << 1
EXCLUDE_KERNEL = 1 << 5
EXCLUDE_HV = 1 << 6
MMAP = 1 << 8
ENABLE_ON_EXEC = 1 << 12
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_RECORD_MMAP = 1
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9
# Call-chain entries at or above this are context markers, not addresses.
PERF_CONTEXT_MAX = (1 << 64) - 4095
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
ATTR_SIZE = 128
# Data pages of each ring (a power of two). With the metadata page this is
# the 516 KiB per CPU an unprivileged user may lock by default
# (`perf_event_mlock_kb`); the rings are drained every 5 ms.
DATA_PAGES = 128


def perf_event_open(pid, cpu, period):
    """Open a cpu-clock sampling event on `pid` while it runs on `cpu`;
    returns its fd."""
    nr = SYS_PERF_EVENT_OPEN.get(os.uname().machine)
    if nr is None:
        sys.exit(f"profile: unsupported machine {os.uname().machine}")
    attr = bytearray(ATTR_SIZE)
    flags = DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | MMAP | ENABLE_ON_EXEC
    sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN
    # type, size, config, sample_period, sample_type, read_format, flags.
    struct.pack_into(
        "=IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
        PERF_COUNT_SW_CPU_CLOCK, period, sample_type, 0, flags,
    )
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    fd = libc.syscall(
        ctypes.c_long(nr), buf, ctypes.c_int(pid), ctypes.c_int(cpu),
        ctypes.c_int(-1), ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC),
    )
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open: {os.strerror(err)}")
    return fd


class Ring:
    """The event's mmap'd ring buffer: a metadata page, then the data."""

    def __init__(self, fd):
        self.page = mmap.PAGESIZE
        self.size = DATA_PAGES * self.page
        self.buf = mmap.mmap(fd, self.page + self.size, mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)
        self.tail = 0

    def records(self):
        """Yield (type, payload) for every record written since last call."""
        (head,) = struct.unpack_from("=Q", self.buf, 1024)
        while self.tail < head:
            offset = self.page + self.tail % self.size
            kind, _misc, size = struct.unpack_from("=IHH", self.buf, offset)
            if offset + size <= self.page + self.size:
                data = self.buf[offset:offset + size]
            else:
                # The record wraps around the end of the ring.
                first = self.page + self.size - offset
                data = self.buf[offset:offset + first] + self.buf[self.page:self.page + size - first]
            self.tail += size
            yield kind, data[8:]
        struct.pack_into("=Q", self.buf, 1032, self.tail)


def sample(cmd, hz):
    """Run `cmd`, sampling it; returns (call chains, binary mappings, lost)."""
    ready_r, ready_w = os.pipe()
    child = os.fork()
    if child == 0:
        os.close(ready_w)
        os.read(ready_r, 1)
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(ready_r)
    # The kernel maps no ring of an inherited (thread-following) event that
    # spans every CPU, so there is one event and one ring per CPU.
    fds, rings = [], []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            fds.append(perf_event_open(child, cpu, max(1, 10**9 // hz)))
            rings.append(Ring(fds[-1]))
    except BaseException:
        os.kill(child, 9)
        os.waitpid(child, 0)
        raise
    os.write(ready_w, b"x")
    os.close(ready_w)
    chains, maps, lost = [], [], 0
    status = None

    def drain():
        nonlocal lost
        for kind, data in (r for ring in rings for r in ring.records()):
            if kind == PERF_RECORD_SAMPLE:
                (nr,) = struct.unpack_from("=Q", data, 16)
                ips = struct.unpack_from(f"={nr}Q", data, 24)
                chains.append([ip for ip in ips if ip < PERF_CONTEXT_MAX])
            elif kind == PERF_RECORD_MMAP:
                start, length, pgoff = struct.unpack_from("=QQQ", data, 8)
                name = data[32:].split(b"\0", 1)[0].decode(errors="replace")
                maps.append((start, length, pgoff, name))
            elif kind == PERF_RECORD_LOST:
                lost += struct.unpack_from("=Q", data, 8)[0]

    while status is None:
        pid, st = os.waitpid(child, os.WNOHANG)
        if pid:
            status = st
        drain()
        time.sleep(0.005)
    drain()
    for fd in fds:
        os.close(fd)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"profile: {cmd[0]} exited with status {code}", file=sys.stderr)
    return chains, maps, lost


def to_elf(binary, maps):
    """Map a sampled address to the binary's own ELF address (or None)."""
    with open(binary, "rb") as f:
        position_independent = f.read(18)[16] == 3  # e_type == ET_DYN
    real = os.path.realpath(binary)
    spans = [(s, n, off) for s, n, off, name in maps if os.path.realpath(name) == real]
    if not position_independent:
        return lambda ip: ip
    def translate(ip):
        for start, length, pgoff in spans:
            if start <= ip < start + length:
                return ip - start + pgoff
        return None
    return translate


HASH = re.compile(r"::h[0-9a-f]{16}$")
ADDRESS = re.compile(r"0x[0-9a-f]+")


def resolve(binary, addrs):
    """addr2line -i: each address -> its function names, innermost first."""
    addrs = sorted(addrs)
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-e", binary, "-f", "-i", "-C", "-a"],
        input="".join(f"{a:#x}\n" for a in addrs), capture_output=True,
        text=True, check=True,
    ).stdout.splitlines()
    names, current = {}, None
    lines = iter(out)
    for line in lines:
        if ADDRESS.fullmatch(line):
            current = names.setdefault(int(line, 16), [])
            continue
        next(lines, None)  # the file:line that follows each function
        name = HASH.sub("", line)
        current.append("[unknown]" if name == "??" else name)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=int, default=4000, help="samples per CPU second")
    ap.add_argument("--top", type=int, default=25, help="functions listed per table")
    ap.add_argument("--out", help="write every function's counts as JSON here")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- BINARY [ARGS...]")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    binary = cmd[0] if os.sep in cmd[0] else subprocess.run(
        ["which", cmd[0]], capture_output=True, text=True).stdout.strip()

    chains, maps, lost = sample(cmd, args.hz)
    elf = to_elf(binary, maps)
    # A caller's return address points past its call: look up the call.
    frames = [[elf(ip) if i == 0 else elf(ip - 1) for i, ip in enumerate(c)] for c in chains]
    names = resolve(binary, {a for c in frames for a in c if a is not None})

    own, total = collections.Counter(), collections.Counter()
    for chain in frames:
        stack = []
        for addr in chain:
            if addr is None:
                stack.append("[outside]")
            else:
                stack.extend(names.get(addr) or ["[unknown]"])
        if not stack:
            continue
        own[stack[0]] += 1
        for fn in set(stack):
            total[fn] += 1

    n = len(frames)
    print(f"{n} samples at {args.hz} Hz ({n / args.hz:.2f} CPU s), {lost} lost")
    for title, counts in (("self", own), ("inclusive", total)):
        print(f"\n{title:>9}  function")
        for fn, c in counts.most_common(args.top):
            print(f"{100 * c / max(n, 1):8.1f}%  {fn}")
    if args.out:
        report = {"samples": n, "hz": args.hz, "lost": lost,
                  "functions": {fn: {"self": own[fn], "inclusive": total[fn]} for fn in total}}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
