"""Out-of-process daemons on loopback, and resources read from ``/proc``.

A :class:`Daemon` is one ``repro.chirp.main`` or ``repro.db.server``
process started with default flags apart from host, port (0, read back
from the daemon's banner), root and ``--auth unix``.  In a traced run it
is started through ``launch.py`` instead, which installs the span
wrappers before calling the same ``main``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_TICK = os.sysconf("SC_CLK_TCK")

_BANNER_TIMEOUT = 30.0


def cpu_steal() -> tuple[int, int]:
    """(steal, total) clock ticks over all CPUs since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a vCPU of this
    machine wanted to run; the report prints its share of the window.
    """
    with open("/proc/stat", "rb") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def open_sockets() -> int:
    """Sockets this process holds: its client connections to the daemons."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            continue  # the directory's own fd, closed meanwhile
    return count


class Daemon:
    """One daemon process; ``address`` is known once :meth:`wait_banner` returns."""

    def __init__(self, kind: str, workdir: str, tag: str, trace: bool):
        self.kind = kind
        self.tag = tag
        self.trace_path = os.path.join(workdir, f"{tag}.spans.json") if trace else None
        self.root = os.path.join(workdir, tag)
        os.makedirs(self.root)
        if kind == "chirp":
            module = "repro.chirp.main"
            args = ["--root", self.root, "--host", "127.0.0.1", "--port", "0",
                    "--auth", "unix"]
        else:
            module = "repro.db.server"
            args = ["--path", self.root, "--host", "127.0.0.1", "--port", "0"]
        if trace:
            argv = [sys.executable, os.path.join(HERE, "launch.py"), self.trace_path,
                    module, *args]
        else:
            argv = [sys.executable, "-m", module, *args]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self._log = open(os.path.join(workdir, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            env=env, cwd=workdir,
        )
        self.pid = self.proc.pid
        self.address: tuple[str, int] | None = None

    def wait_banner(self) -> tuple[str, int]:
        """Read ``... on host:port`` from the daemon's first stdout line."""
        deadline = time.monotonic() + _BANNER_TIMEOUT
        line = b""
        fd = self.proc.stdout.fileno()
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{self.tag}: daemon did not start (see {self.tag}.log)")
            ready, _, _ = select.select([fd], [], [], min(left, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"{self.tag}: daemon closed stdout before its banner")
                line += chunk
        host, _, port = line.decode().strip().rpartition(" ")[2].rpartition(":")
        self.address = (host, int(port))
        return self.address

    def cpu_seconds(self) -> float:
        """user + system CPU time of the daemon so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.tag}: no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM (the daemons drain, then exit); SIGKILL past ``timeout``."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()
