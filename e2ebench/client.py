"""The ``repro-fd daemon`` subprocess and a keep-alive HTTP client for it."""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

from common import ROOT, program_env

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Daemon:
    """One daemon process serving ``artifact`` on a kernel-chosen port."""

    def __init__(self, artifact: str, start_timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon",
             "--artifact", artifact, "--port", "0"],
            cwd=str(ROOT), env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr: List[str] = []
        deadline = time.monotonic() + start_timeout
        address: Optional[Tuple[str, int]] = None
        while address is None:
            line = self.proc.stderr.readline()
            if not line:
                self.stop()
                raise RuntimeError("daemon exited before listening: "
                                   + "".join(self.stderr))
            self.stderr.append(line)
            match = _LISTENING.search(line)
            if match:
                address = (match.group(1), int(match.group(2)))
            elif time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not start listening in time")
        self.host, self.port = address
        # Keep draining stderr so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the daemon drains and exits), SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        return self.proc.returncode


class Client:
    """One persistent keep-alive connection; records each call's latency,
    timed with ``now`` (a ``HostClock``'s)."""

    def __init__(self, host: str, port: int, now) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.now = now
        self.latencies: List[float] = []

    def call(self, method: str, path: str, doc=None, record: bool = True):
        body = None if doc is None else json.dumps(doc).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = self.now()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = self.now() - started
        if record:
            self.latencies.append(elapsed)
        return response.status, json.loads(data)

    def metrics(self) -> dict:
        _, doc = self.call("GET", "/metrics", record=False)
        return doc["metrics"]

    def close(self) -> None:
        self.conn.close()
