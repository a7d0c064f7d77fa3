"""Serve one benchmark workload's scenario from a daemon process.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.launcher --workload reads --data-dir DIR

It builds the sensor-network scenario at the workload's size through the
public API (``build_scenario(..., spec=SensorNetSpec(...))``,
``serving_backend()``), recovers a :class:`ServingDaemon` over ``DIR``
(bootstrapping a virgin directory) with the default engine, fsync on and
the default compaction policy, and serves until a ``shutdown`` request or
SIGTERM.  With ``--trace-file`` it wraps the layer boundaries of
:mod:`perfbench.tracing` before recovery and writes the spans there on
exit.

The parent side, :class:`DaemonProcess`, spawns this module and reads the
daemon's CPU time and peak RSS from ``/proc``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from perfbench.workloads import SIZES, WORKLOADS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.launcher")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", choices=sorted(SIZES), default="")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args(argv)

    from repro.sensornet.data import SensorNetSpec
    from repro.scenarios import build_scenario
    from repro.serving.daemon import ServingDaemon
    from perfbench import tracing

    recorder = None
    if args.trace_file:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    size = args.size or WORKLOADS[args.workload].size
    scenario = build_scenario("sensornet", spec=SensorNetSpec(**SIZES[size]))
    daemon = ServingDaemon(scenario.serving_backend(), args.data_dir)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: daemon._async_stop())
    threading.Thread(target=_stop_when_orphaned, args=(daemon,),
                     daemon=True).start()
    try:
        daemon.recover()
        daemon.start("127.0.0.1", 0)
        daemon.wait()
    finally:
        daemon.stop()
        if recorder is not None:
            recorder.dump(Path(args.trace_file))
    return 0


def _stop_when_orphaned(daemon, interval: float = 0.5) -> None:
    """Stop the daemon once the benchmark that spawned it is gone."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(interval)
    daemon._async_stop()


class DaemonProcess:
    """A launcher subprocess, as the benchmark sees it."""

    def __init__(self, root: Path, workload: str, size: str, data_dir: Path,
                 trace_file: Optional[Path] = None):
        from repro.serving.client import ServingClient
        self.data_dir = data_dir
        command = [sys.executable, "-m", "perfbench.launcher",
                   "--workload", workload, "--size", size,
                   "--data-dir", str(data_dir)]
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)])
        started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=str(root),
                                        env=environment,
                                        stdout=subprocess.DEVNULL)
        try:
            # Poll the advertised address finely: the client's own wait
            # loop sleeps 50 ms between looks, too coarse for setup_s.
            address = data_dir / "daemon.json"
            while not address.exists():
                if time.perf_counter() - started > 150.0:
                    raise RuntimeError("daemon did not come up in 150 s")
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with code {self.process.returncode} "
                        "before it answered a ping")
                time.sleep(0.002)
            client = ServingClient.connect(data_dir, wait=30.0,
                                           busy_retries=0)
            client.ping()
        except BaseException:
            self.kill()
            raise
        #: spawn to first answered ping: wall time, and the daemon's own
        #: CPU time (steal is not charged to it)
        self.ready_seconds = time.perf_counter() - started
        self.ready_cpu_seconds = self.cpu_seconds()
        client.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the daemon process so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self, timeout: float = 60.0) -> None:
        """Ask for a clean shutdown and wait for the process to end."""
        from repro.errors import ServingError
        from repro.serving.client import ServingClient
        if self.process.poll() is None:
            try:
                with ServingClient.connect(self.data_dir, wait=5.0) as client:
                    client.shutdown()
            except (OSError, ServingError):
                self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


if __name__ == "__main__":
    sys.exit(main())
