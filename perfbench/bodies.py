"""Region bodies that remote_ship ships to process and cluster workers.

They travel by value (cloudpickle), so a worker needs nothing of the
benchmark's files.  Each returns its result with the body's start and end
stamps on ``perf_counter_ns``, which reads the same monotonic clock in every
process of the host.
"""

import hashlib
import time


def echo(payload):
    t0 = time.perf_counter_ns()
    return payload, t0, time.perf_counter_ns()


def digest(payload):
    t0 = time.perf_counter_ns()
    out = hashlib.sha256(payload).hexdigest()
    return out, t0, time.perf_counter_ns()
