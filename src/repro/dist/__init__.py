"""repro.dist — process-backed virtual targets (supervised, GIL-free).

The distribution layer extends the paper's virtual-target abstraction from
threads to worker OS processes.  A :class:`ProcessTarget` registers under a
name like any other target — ``virtual_target_create_process_worker("gpu", 4)``
— and the directive layer (``virtual(name)``, scheduling clauses, ``timeout=``,
backpressure policies) works on it unchanged; what changes is *where* region
bodies run: in a pool of supervised worker processes, outside the parent
interpreter's GIL, so CPU-bound kernels scale with cores.

Module map:

* :mod:`~repro.dist.remote_target` — ``RemoteTarget`` and ``RemoteSlot``,
  the base shared with :mod:`repro.cluster`: per-slot shipper threads,
  crash-to-:class:`~repro.core.errors.WorkerCrashedError` conversion,
  cross-process cancellation, restart budgets, shutdown semantics, the
  clock handshake;
* :mod:`~repro.dist.process_target` — the process slot kind: spawning a
  worker and process liveness;
* :mod:`~repro.dist.worker` — the remote side: the task and control loops
  a worker process (and a cluster agent) runs;
* :mod:`~repro.dist.wire` — serialization (cloudpickle when available) and
  the message protocol;
* :mod:`~repro.dist.channel` — the framed socket channel every remote lane
  speaks over (socketpairs for process lanes, TCP for cluster lanes), with
  out-of-band buffers for array payloads;
* :mod:`~repro.dist.supervisor` — heartbeats and idle-lane restarts over
  the ``RemoteSlot`` interface;
* :mod:`~repro.dist.remote_obs` — worker-side event capture and re-stamping
  onto the parent's trace clock.

The wire protocol carries an explicit version
(:data:`~repro.dist.wire.PROTOCOL_VERSION`): cluster connections open with
a hello handshake and fail with a structured
:class:`~repro.core.errors.ProtocolVersionError` on mismatch.

See ``docs/DISTRIBUTION.md`` for the architecture discussion.
"""

from ..core.errors import ProtocolVersionError
from .process_target import DEFAULT_START_METHOD, ProcessTarget
from .remote_obs import (
    WorkerEventLog,
    estimate_offset_ns,
    merge_worker_events,
    worker_track,
)
from .supervisor import Supervisor
from .wire import HAVE_CLOUDPICKLE, PROTOCOL_VERSION
from .worker import WorkerConfig, worker_main

__all__ = [
    "DEFAULT_START_METHOD",
    "HAVE_CLOUDPICKLE",
    "PROTOCOL_VERSION",
    "ProcessTarget",
    "ProtocolVersionError",
    "Supervisor",
    "WorkerConfig",
    "WorkerEventLog",
    "estimate_offset_ns",
    "merge_worker_events",
    "worker_main",
    "worker_track",
]
