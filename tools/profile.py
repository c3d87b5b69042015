#!/usr/bin/env python3
"""Where the time goes: a sampling profile of one benchmark run.

Runs a command (normally the benchmark binary) as a child, samples its
main thread with perf_event_open(PERF_TYPE_SOFTWARE,
PERF_COUNT_SW_TASK_CLOCK) at about 4 kHz with the user-space callchain,
symbolizes every sampled address with `addr2line -f -i -C`, and prints
the shares of the samples under `run_until`: self time by the
innermost frame in the repository's own code (an inlined std helper is
charged to its caller), self time by the innermost frame, and inclusive
time by function up to `run_until`. It runs on x86_64 Linux, whose
syscall number it calls.
It exits non-zero, after printing what it sampled, if the command
failed or was killed: a short run's profile is not a full run's.

This is a hint tool. It says where to look; a performance claim still
comes from ten paired `compare` runs (see the verify skill). It needs no
`perf` binary, only the syscall, and it works where hardware counters
are absent (PERF_TYPE_HARDWARE fails with ENOENT on some virtual hosts).
Only the child's main thread is sampled: `inherit` stays off, since a
ring buffer on an inherited event fails `mmap` with EINVAL on some
kernels. The engine runs on the main thread.

Build the benchmark with line tables and frame pointers into a target
directory of its own, so the release build the benchmark measures is
left as it is, then profile one workload:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
    RUSTFLAGS="-C force-frame-pointers=yes" \\
      cargo build --release --offline --manifest-path benchmark/Cargo.toml \\
      --target-dir /tmp/sw-prof
    git checkout benchmark/Cargo.lock
    tools/profile.py -- /tmp/sw-prof/release/sw-benchmark run \\
      --workload churn_storage --seed 21 --out /tmp/sw-prof/out
"""

import collections
import ctypes
import mmap
import os
import re
import shutil
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_CALLCHAIN = 1 << 5
PERF_RECORD_SAMPLE = 9
PERF_RECORD_LOST = 2
# Flag bits of perf_event_attr.
DISABLED, EXCLUDE_KERNEL, EXCLUDE_HV, FREQ, ENABLE_ON_EXEC = 0, 5, 6, 10, 12
EXCLUDE_CALLCHAIN_KERNEL = 21
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
SYS_PERF_EVENT_OPEN = 298  # x86_64
FREQ_HZ = 4000  # samples per second
ROOT = "run_until"  # shares are of the samples with a frame naming this
TOP = 25  # rows per table
CONTEXT_MARKER = 0xFFFFFFFFFFFFF000  # PERF_CONTEXT_* values sit above this
DATA_PAGES = 256

libc = ctypes.CDLL(None, use_errno=True)
libc.syscall.restype = ctypes.c_long


def perf_event_open(pid):
    attr = bytearray(ATTR_SIZE)
    flags = 0
    for bit in (DISABLED, EXCLUDE_KERNEL, EXCLUDE_HV, FREQ, ENABLE_ON_EXEC,
                EXCLUDE_CALLCHAIN_KERNEL):
        flags |= 1 << bit
    struct.pack_into("IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_TASK_CLOCK, FREQ_HZ,
                     PERF_SAMPLE_IP | PERF_SAMPLE_CALLCHAIN, 0, flags)
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    fd = libc.syscall(ctypes.c_long(SYS_PERF_EVENT_OPEN), buf, ctypes.c_int(pid),
                      ctypes.c_int(-1), ctypes.c_int(-1), ctypes.c_ulong(0))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"perf_event_open: {os.strerror(err)}")
    return fd


class Ring:
    """The event's mmap ring buffer: header page, then the data pages."""

    def __init__(self, fd):
        page = mmap.PAGESIZE
        self.map = mmap.mmap(fd, (1 + DATA_PAGES) * page, mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)
        off, size = struct.unpack_from("QQ", self.map, 1040)
        self.off, self.size = (off, size) if size else (page, DATA_PAGES * page)

    def drain(self, samples):
        """Appends each sample's stack (leaf first) and returns lost count."""
        head, tail = struct.unpack_from("QQ", self.map, 1024)
        lost = 0
        while tail < head:
            kind, _misc, size = self.unpack("IHH", tail)
            if kind == PERF_RECORD_SAMPLE:
                ip, nr = self.unpack("QQ", tail + 8)
                chain = self.unpack(f"{nr}Q", tail + 24) if nr else ()
                stack = [ip]
                # The callchain repeats the ip first; later entries are
                # return addresses, one past their call instruction.
                user = [a for a in chain if a < CONTEXT_MARKER]
                stack += [a - 1 for a in user[1:]]
                samples.append(stack)
            elif kind == PERF_RECORD_LOST:
                lost += self.unpack("QQ", tail + 8)[1]
            tail += size
        struct.pack_into("Q", self.map, 1032, tail)
        return lost

    def unpack(self, fmt, at):
        n = struct.calcsize(fmt)
        start = at % self.size
        raw = self.map[self.off + start:self.off + min(start + n, self.size)]
        if len(raw) < n:  # the record wraps around the ring's end
            raw += self.map[self.off:self.off + n - len(raw)]
        return struct.unpack(fmt, raw)


def exe_mappings(pid):
    """(start, end, file offset, path) of the child's file-backed maps."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[5].startswith("/"):
                start, end = (int(x, 16) for x in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5]))
    return maps


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of an ELF64 file's PT_LOAD headers."""
    with open(path, "rb") as f:
        elf = f.read(64)
        phoff, = struct.unpack_from("Q", elf, 32)
        phentsize, phnum = struct.unpack_from("HH", elf, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _flags, off, vaddr, _paddr, filesz = struct.unpack_from(
            "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((off, vaddr, filesz))
    return segs


def locate(addr, maps, exe, segs):
    """`addr` as `exe`'s own virtual address, or the name of the mapping
    it falls in (a shared library) in brackets."""
    for start, end, foff, path in maps:
        if start <= addr < end:
            if os.path.realpath(path) != exe:
                return f"[{os.path.basename(path)}]"
            at = addr - start + foff
            for off, vaddr, filesz in segs:
                if off <= at < off + filesz:
                    return vaddr + at - off
    return "[unknown]"


def symbolize(exe, addrs):
    """{address: [(function, file:line), ...] innermost first}."""
    if not addrs:
        return {}
    addrs = sorted(addrs)
    text = "\n".join(hex(a) for a in addrs) + "\n"
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                         input=text, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    # `-a` heads each address's block with the address itself; then come
    # (function, file:line) pairs, innermost inlined frame first.
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            frames[cur] = []
            i += 1
            continue
        where = out[i + 1].split(" (discriminator")[0] if i + 1 < len(out) else "??:0"
        frames[cur].append((out[i], where))
        i += 2
    return frames


def short(name):
    """A demangled name without its hash suffix and generic arguments."""
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out).replace("::::", "::") or name


def tail(where):
    """A source location's last three path components."""
    return "/".join(where.split("/")[-3:])


def main():
    cmd = sys.argv[1:]
    cmd = cmd[1:] if cmd[:1] == ["--"] else cmd
    if not cmd:
        sys.exit("usage: profile.py -- command [args ...]")

    gate_r, gate_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(gate_w)
        os.read(gate_r, 1)  # wait until the event is attached
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(gate_r)
    fd = perf_event_open(pid)
    ring = Ring(fd)
    os.write(gate_w, b"x")
    os.close(gate_w)

    samples, lost, maps = [], 0, []
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        try:  # an exited child has no maps left to read
            maps = exe_mappings(pid) or maps
        except OSError:
            pass
        lost += ring.drain(samples)
        if done:
            break
        time.sleep(0.02)
    lost += ring.drain(samples)

    exe = os.path.realpath(shutil.which(cmd[0]) or cmd[0])
    segs = load_segments(exe)
    stacks = [[locate(a, maps, exe, segs) for a in s] for s in samples]
    frames = symbolize(exe, {a for s in stacks for a in s if isinstance(a, int)})

    own, leaf, incl = (collections.Counter() for _ in range(3))
    under = 0
    for stack in stacks:
        named = []
        for a in stack:
            named += frames.get(a, []) if isinstance(a, int) else [(a, "")]
        root = next((i for i, (fn, _) in enumerate(named) if ROOT in fn), None)
        if root is None:
            continue
        named = named[:root + 1]
        under += 1
        fn, where = named[0]
        leaf[f"{short(fn)}  {tail(where)}"] += 1
        # The innermost frame in this repository's code, not in std's.
        fn, where = next(((f, w) for f, w in named
                          if w and "/library/" not in w and not w.startswith("??")),
                         named[0])
        own[f"{short(fn)}  {tail(where)}"] += 1
        for name in {short(f) for f, _ in named}:
            incl[name] += 1

    print(f"{len(samples)} samples, {lost} lost, {under} under `{ROOT}`")
    for title, table in (("self, by innermost frame in the repository", own),
                         ("self, by innermost frame", leaf),
                         (f"inclusive, by function up to `{ROOT}`", incl)):
        if not under:
            break
        print(f"\n== {title} (share of samples under `{ROOT}`)")
        for name, n in table.most_common(TOP):
            print(f"{100 * n / under:6.1f} %  {name}")
    if os.WIFSIGNALED(status):
        sys.exit(f"{cmd[0]} was killed by signal {os.WTERMSIG(status)}")
    if os.WEXITSTATUS(status):
        sys.exit(f"{cmd[0]} exited with status {os.WEXITSTATUS(status)}")


if __name__ == "__main__":
    main()
