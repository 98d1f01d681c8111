"""serve_encrypt: the live Fig. 9 server, ``python -m repro serve``.

The server runs as its own process (thread backend, ``nproc`` workers) and
is driven from this process over ``nproc`` keep-alive connections, one
client thread each.  First an open loop at a fixed rate below saturation,
with a share of ``GET /healthz`` probes mixed into the schedule; then a
closed loop of ``POST /encrypt`` only.  Payloads are 64 B - 16 KiB.  Every
response is checked against ``encrypt_payload`` computed locally.

Request latency and loop response (a ``/healthz`` answered by the asyncio
loop) run from the request's due time to its response.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from common import CpuMeter, Phase, Tracer, bucket, median, pc, pc_ns, rates, sleep_until
from plan import payload_bytes

from repro.serve import encrypt_payload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class HttpConn:
    """A minimal blocking HTTP/1.1 keep-alive client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        lines = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            k, _, v = line.partition(":")
            if k.strip().lower() == "content-length":
                length = int(v)
        start = end + 4
        while len(self.buf) < start + length:
            self._fill()
        payload = bytes(self.buf[start:start + length])
        del self.buf[:start + length]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


class ServeEncrypt:
    name = "serve_encrypt"
    setups = 5

    def __init__(self, plan: dict, nproc: int) -> None:
        self.plan = plan
        self.nproc = nproc
        self.proc: subprocess.Popen | None = None
        self.conns: list[HttpConn] = []
        self.payloads = [payload_bytes(n, s) for n, s in
                         zip(plan["payload_sizes"], plan["payload_seeds"])]
        encrypt_payload(self.payloads[0])  # key schedule, outside the timing
        self.expected = []
        kernel = []
        for p in self.payloads:
            t0 = pc_ns()
            self.expected.append(encrypt_payload(p))
            kernel.append((pc_ns() - t0) / 1e3)
        self.kernel_us = median(kernel)

    # ------------------------------------------------------------- lifecycle

    def setup(self) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--backend", "thread",
               "--workers", str(self.nproc), "--port", "0"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.output: collections.deque[str] = collections.deque(maxlen=200)
        port = self._read_port()
        self._drain = threading.Thread(target=self._drain_output,
                                       name="perfbench-serve-output")
        self._drain.start()
        self.conns = [HttpConn(port) for _ in range(self.nproc)]
        status, body = self.conns[0].request("POST", "/encrypt", self.payloads[0])
        if status != 200 or body != self.expected[0]:
            raise RuntimeError(f"first request answered {status}")

    def _read_port(self) -> int:
        deadline = pc() + 60
        while pc() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.output.append(line.rstrip())
            if line.startswith("serving on http://"):
                return int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
        raise RuntimeError("server did not announce its port: "
                           + " | ".join(self.output))

    def _drain_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())

    def teardown(self) -> None:
        for c in self.conns:
            c.close()
        self.conns = []
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGINT)  # graceful drain, then exit
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stdout.close()
        self.proc = None

    # --------------------------------------------------------------- measure

    def run(self, seconds: float, tracer: Tracer | None, cpu: CpuMeter) -> Phase:
        ph = Phase()
        records: list[tuple] = []   # (phase, kind, k, due, sent, done, ok, wrong)
        ops = self.plan["ops"]
        encrypts = [o for o in ops if o >= 0]
        period = 1.0 / self.plan["rate"]
        open_s = seconds / 2
        counter = itertools.count()
        cpu.start()
        t0 = pc() + 0.005
        stop_closed = t0 + seconds

        def client(i: int, conn: HttpConn) -> None:
            c0 = time.thread_time()
            try:
                while True:  # open loop: next op of the shared schedule
                    k = next(counter)
                    due_s = t0 + k * period
                    if due_s >= t0 + open_s:
                        break
                    sleep_until(due_s)
                    op = ops[k % len(ops)]
                    records.append(("open", *self._one(conn, op, k, int(due_s * 1e9))))
                k = 0
                while pc() < stop_closed:  # closed loop
                    op = encrypts[(k * len(self.conns) + i) % len(encrypts)]
                    records.append(("closed", *self._one(conn, op, k, pc_ns())))
                    k += 1
            finally:
                cpu.exclude(time.thread_time() - c0)

        threads = [threading.Thread(target=client, args=(i, c), name=f"perfbench-client-{i}")
                   for i, c in enumerate(self.conns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ph.cpu_s = cpu.stop()
        ph.wall_s = pc() - t0
        ph.open_s = open_s

        sends = {"encrypt": [], "healthz": []}
        answered = {"encrypt": [], "healthz": []}
        closed_done = []
        for phase, kind, k, due, sent, done, ok, wrong in records:
            ph.attempted += 1
            if wrong:
                ph.wrong += 1
            elif not ok:
                ph.failed += 1
            else:
                ph.completed += 1
            if phase == "open":
                ph.offered += 1
                ph.lags_ms.append((sent - due) / 1e6)
                if ok and not wrong:
                    answered[kind].append((due, (done - due) / 1e6))
                    sends[kind].append((done - sent) / 1e6)
            elif ok and not wrong:
                closed_done.append(done)
            if tracer is not None:
                sid = tracer.add(f"serve.request.{kind}", k, None, sent, done)
                tracer.add("loadgen.wait", k, sid, due, sent)
        t0_ns = int(t0 * 1e9)
        ph.lat = bucket(answered["encrypt"], t0_ns)
        ph.loop = bucket(answered["healthz"], t0_ns)
        ph.rates = rates(closed_done, t0_ns + int(open_s * 1e9), int(stop_closed * 1e9))
        if tracer is not None:
            stats = json.loads(self.conns[0].request("GET", "/stats")[1])
            healthz = median(sends["healthz"])
            ph.layers = {
                "kernels.body_us": self.kernel_us,
                "serve.healthz_ms": healthz,
                "serve.glue_ms": median(sends["encrypt"]) - healthz - self.kernel_us / 1e3,
                "serve.rejected": stats["rejected"],
                "serve.timeouts": stats["timeouts"],
                "serve.failures": stats["failures"],
            }
        return ph

    def _one(self, conn: HttpConn, op: int, k: int, due: int) -> tuple:
        sent = pc_ns()
        try:
            if op < 0:
                status, body = conn.request("GET", "/healthz")
                wrong = status == 200 and body != b"ok"
                kind = "healthz"
            else:
                status, body = conn.request("POST", "/encrypt", self.payloads[op])
                wrong = status == 200 and body != self.expected[op]
                kind = "encrypt"
        except (OSError, ValueError, IndexError):
            return ("encrypt" if op >= 0 else "healthz", k, due, sent, pc_ns(), False, False)
        return kind, k, due, sent, pc_ns(), status == 200, wrong
