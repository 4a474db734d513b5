"""Run one ``repro`` program process and observe it from outside.

The benchmark never imports the measured code into the process it
times. It spawns ``python -m repro ...``, stamps each stderr line with
its arrival time (the program writes phase lines such as ``[testbed]``
and ``[sim]`` there, line-buffered), and reaps the process with
``os.wait4`` for the CPU time and peak RSS of the whole process tree.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class ProcessRun:
    """What one finished program process looked like from outside."""

    started: float
    ended: float = 0.0
    returncode: int = 0
    stdout: bytes = b""
    #: ``(arrival perf_counter, text)`` for every stderr line.
    stderr: list = field(default_factory=list)
    #: user + sys CPU seconds of the process and every child it reaped.
    cpu_s: float = 0.0
    #: Peak RSS of the largest process in the tree, in MiB.
    peak_rss_mb: float = 0.0

    @property
    def wall_s(self):
        return self.ended - self.started

    def line_time(self, prefix):
        """Arrival time of the first stderr line starting with *prefix*."""
        for stamp, text in self.stderr:
            if text.startswith(prefix):
                return stamp
        return None

    def lines(self, prefix):
        return [text for __, text in self.stderr if text.startswith(prefix)]

    def stderr_text(self):
        return "\n".join(text for __, text in self.stderr)


def program_env(root, trace_dir=None):
    """Environment for a program process run from checkout *root*.

    Untraced runs get only ``src`` on ``PYTHONPATH``; traced runs also
    get the benchmark's ``sitecustomize`` hook and a trace directory.
    """
    env = dict(os.environ)
    env.pop("NSECBENCH_TRACE_DIR", None)
    paths = [os.path.join(root, "src")]
    if trace_dir is not None:
        paths.insert(0, os.path.join(root, "nsecbench", "hook"))
        env["NSECBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _pump(stream, sink, stamped):
    for raw in iter(stream.readline, b""):
        text = raw.decode("utf-8", "replace").rstrip("\n")
        sink.append((time.perf_counter(), text) if stamped else raw)
    stream.close()


class ProgramProcess:
    """A running program; :meth:`finish` reaps it and returns the run."""

    def __init__(self, argv, root, trace_dir=None):
        self.argv = list(argv)
        self._out = []
        self._err = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.argv],
            cwd=root,
            env=program_env(root, trace_dir),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._threads = [
            threading.Thread(target=_pump, args=(self.proc.stdout, self._out, False)),
            threading.Thread(target=_pump, args=(self.proc.stderr, self._err, True)),
        ]
        for thread in self._threads:
            thread.daemon = True
            thread.start()

    @property
    def pid(self):
        return self.proc.pid

    def wait_for_line(self, prefix, timeout_s):
        """Arrival time of the first stderr line with *prefix*, or None."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            for stamp, text in list(self._err):
                if text.startswith(prefix):
                    return stamp, text
            if not self._threads[1].is_alive():
                return None  # stderr closed: the program has exited
            time.sleep(0.002)
        return None

    def finish(self, timeout_s=170.0):
        """Wait for exit (killing it past *timeout_s*) and collect the run."""
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        ended = time.perf_counter()
        # The child is reaped here; tell Popen so it never waits again.
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for thread in self._threads:
            thread.join(timeout=10.0)
        return ProcessRun(
            started=self.started,
            ended=ended,
            returncode=self.proc.returncode,
            stdout=b"".join(self._out),
            stderr=list(self._err),
            cpu_s=usage.ru_utime + usage.ru_stime,
            # ru_maxrss is KiB on Linux: the largest process of the tree.
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )

    def stop(self):
        """Terminate (if still running) and reap; safe to call twice."""
        if self.proc.returncode is None:
            self.proc.terminate()
            return self.finish(timeout_s=30.0)
        return None


def run_program(argv, root, trace_dir=None):
    """Spawn, wait, and return the :class:`ProcessRun`."""
    return ProgramProcess(argv, root, trace_dir).finish()
