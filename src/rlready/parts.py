"""One job cut in parts, the first part in this process and each other in a
forked worker.

verify and genloss fold a large file in parts cut at line starts
(part_offsets), and stats.split_eval scores its repeats in slices. Each
caller merges the parts' results in part order into what its serial path
gives, and runs that serial path instead wherever run returns None.

A fork, not a spawn, because hash(str) is salted per process and the
workers' key hashes are checked together, and because a forked worker
starts with its inputs already in memory; and only with no other thread
alive, as a thread would not run in the child yet its locks would stay
held. A child sends one marshalled value through a pipe and never prints:
it leaves through os._exit, and the parent kills and reaps every child on
every path, so no process outlives the call.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from pathlib import Path
from stat import S_ISREG

# verify and genloss fold a part of at least this size in each process. On
# 2 vCPUs of a shared Xeon VM, verify's serial fold took 4.8 ms/MB, and 2
# parts took 1.06 of its time at 2 MB, 0.86 at 4 MB and 0.71 at 8 MB (15
# alternating runs per size on prefixes of a bench samples file); genloss's
# chunk fold took 17 ms/MiB, and 2 parts took 0.66-1.12 of its time at
# 4 MiB and 0.67-0.84 at 8 MiB (two sets of 15 alternating runs per size on
# prefixes of the bench's analyze file). Parts pay from about 4 MB, and
# parts of 4 MiB keep a margin for a worker slowed by other load
PART_BYTES = 4 << 20


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform with no CPU affinity
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a fork is safe here: a thread of this process would not run in
    the child, yet the locks it held would stay held."""
    return hasattr(os, "fork") and threading.active_count() == 1


def part_offsets(path: str | Path, size: int, parts: int) -> list[int]:
    """parts + 1 ascending byte offsets that cut the first size bytes of path
    into parts of about equal size: 0, then each at a line start, then size."""
    offsets = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(max(size * i // parts, offsets[-1], 1) - 1)
            fh.readline()  # to the start of the next line
            offsets.append(min(fh.tell(), size))
    offsets.append(size)
    return offsets


def file_ranges(path: str | Path) -> list[tuple[int, int]]:
    """The byte ranges, cut at line starts, of one part per usable CPU, each
    of at least PART_BYTES, of the file at path; none for fewer than 2
    parts or a path that is not a regular file."""
    st = os.stat(path)
    count = min(usable_cpus(), st.st_size // PART_BYTES)
    if not S_ISREG(st.st_mode) or count < 2:
        return []
    offsets = part_offsets(path, st.st_size, count)
    return list(zip(offsets, offsets[1:]))


class _Children:
    """Forked children, each of which sends one marshalled value through a
    pipe and exits. close() kills and reaps every child not yet reaped."""

    def __init__(self):
        self._pipes: dict[int, int] = {}  # pid -> read end of its pipe

    def fork(self, work, *args) -> int:
        """The pid of a child that sends work(*args) and exits 0, or exits 1,
        silently, on any exception, KeyboardInterrupt included."""
        # SIGINT waits from before the fork until the parent has registered
        # the child, so a Ctrl-C can leave no child unregistered, and, in the
        # child, until it is inside its try, so it never runs up the parent's
        # stack; a SIGINT already caught is raised here, before any fork
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(read)
                    with open(write, "wb") as fh:
                        fh.write(marshal.dumps(work(*args)))
                    code = 0
                except BaseException:
                    pass  # the exit code tells the parent
                finally:
                    os._exit(code)  # no atexit handler, flush or finally of the parent's
            os.close(write)
            self._pipes[pid] = read
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a waiting SIGINT raises here
        return pid

    def result(self, pid: int):
        """What the child pid sent, once it exited 0; None if it failed or died."""
        read = self._pipes[pid]
        # loaded as it is read, so that no copy of the whole value is held
        try:
            with open(read, "rb", closefd=False) as fh:
                value = marshal.load(fh)
        except (EOFError, ValueError, TypeError):  # a child that sent nothing, or part
            value = None
        _, status = os.waitpid(pid, 0)
        del self._pipes[pid]
        os.close(read)
        return value if status == 0 else None

    def close(self) -> None:
        for pid, read in list(self._pipes.items()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            del self._pipes[pid]
            os.close(read)


def run(work, args_per_part: list[tuple]) -> list | None:
    """[work(*args) for args in args_per_part], the first part in this
    process and each other in a forked child, in part order.

    work returns no None. A child's value comes back marshalled, so a
    bytes-like value (an array) comes back as bytes. None where the
    caller's serial path must decide: no safe fork, a child that failed or
    died, or an OSError or ValueError in this process's own part. Any other
    exception, KeyboardInterrupt included, is raised once every child is
    killed and reaped.
    """
    if not _can_fork():
        return None
    children = _Children()
    try:
        pids = [children.fork(work, *args) for args in args_per_part[1:]]
        results = [work(*args_per_part[0])]
        results += [children.result(pid) for pid in pids]
    except (OSError, ValueError):
        return None
    finally:
        children.close()
    return None if any(result is None for result in results) else results
