"""Starting and stopping the program's own server and worker processes.

Every process runs ``python -m repro.cli.main`` from the checkout's
``src`` tree, logs to a file under the benchmark's output directory and
is stopped with SIGTERM (then SIGKILL after a grace period) and waited
for, so no run leaves a process behind.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_ENDPOINT = re.compile(r"tcp://[\w.\-\[\]:]+:\d+")
#: Seconds a program process may take to print its ready banner.
START_TIMEOUT = 60.0
#: Seconds a stopped process may take to exit before it is killed.
STOP_GRACE = 10.0


class ProgramProcess:
    """One ``repro-agu`` subcommand in its own process."""

    def __init__(self, root: Path, out_dir: Path, label: str,
                 *args: str):
        self.label = label
        self.log_path = out_dir / f"{label}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(self.log_path, "w")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli.main", *args],
                stdout=self._log, stderr=subprocess.STDOUT, env=env,
                cwd=out_dir)
        except BaseException:
            self._log.close()
            raise

    def wait_for(self, pattern: str, count: int = 1) -> str:
        """Block until the log holds ``count`` lines containing
        ``pattern``; returns the log text."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            text = self.log_path.read_text()
            if text.count(pattern) >= count:
                return text
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.label} exited with "
                                   f"{self.process.returncode}: {text}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.label} not ready: {text}")
            time.sleep(0.002)

    def endpoint(self, banner: str) -> str:
        """The ``tcp://`` endpoint printed on the banner line."""
        text = self.wait_for(banner)
        match = _ENDPOINT.search(text)
        if match is None:
            raise RuntimeError(f"{self.label}: no endpoint in {text!r}")
        return match.group(0)

    def stop(self) -> float:
        """SIGTERM, wait (killing after the grace period); returns the
        seconds until the process had exited."""
        started = time.perf_counter()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return time.perf_counter() - started


def stop_all(processes) -> float:
    """Stop ``processes`` together (signal all, then wait for each);
    returns the seconds until the last had exited."""
    started = time.perf_counter()
    for proc in processes:
        if proc.process.poll() is None:
            proc.process.send_signal(signal.SIGTERM)
    for proc in processes:
        proc.stop()
    return time.perf_counter() - started


class Fleet:
    """``repro-agu job-serve`` plus ``n_workers`` ``repro-agu worker``
    processes, ready once every worker has connected."""

    def __init__(self, root: Path, out_dir: Path, tag: str,
                 n_workers: int = 2):
        self.processes: list[ProgramProcess] = []
        try:
            server = ProgramProcess(root, out_dir, f"job-serve-{tag}",
                                    "job-serve", "--port", "0")
            self.processes.append(server)
            self.endpoint = server.endpoint("job server at")
            for index in range(n_workers):
                self.processes.append(ProgramProcess(
                    root, out_dir, f"worker-{tag}-{index}", "worker",
                    self.endpoint))
            for worker in self.processes[1:]:
                worker.wait_for("worker serving")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> float:
        """Stop the workers and the server; returns the seconds taken."""
        return stop_all(self.processes)


class Server:
    """``repro-agu serve`` with its defaults on an ephemeral port."""

    def __init__(self, root: Path, out_dir: Path, tag: str):
        self.process = ProgramProcess(root, out_dir, f"serve-{tag}",
                                      "serve", "--port", "0")
        try:
            self.endpoint = self.process.endpoint("compile service at")
        except BaseException:
            self.process.stop()
            raise

    def stop(self) -> float:
        """Stop the server; returns the seconds taken."""
        return self.process.stop()
