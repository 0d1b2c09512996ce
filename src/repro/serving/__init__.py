"""Multi-tenant serving: workload engine, sharded channels, SLA books.

The first subsystem that exercises DRAM-Locker as shared-infrastructure
defense rather than a single-victim experiment: deterministic
multi-tenant workload generators (``workload``), an N-channel sharded
memory system with per-channel lock tables (``sharded``), streaming SLA
accounting (``sla``), and the serving simulation that composes them
(``engine``).

On top of the closed-loop simulation sits the **live frontend**:
recorded traces with arrival timestamps (``trace``), admission control,
bounded per-channel queues, dynamic channel scaling, and the threaded
open-loop server (``live``) -- all behind the public facade
:func:`serve` (``api``), whose deterministic replay path is
bit-identical to the closed loop (the replay-equivalence contract,
``docs/SERVING.md``).
"""

from .api import (
    SOURCE_KNOBS,
    ServingResult,
    config_from_dict,
    embedded_config,
    record_serving_trace,
    replay_neutral,
    replay_trace,
    serve,
)
from .engine import ServingConfig, ServingSimulation
from .health import HealthConfig, VictimHealthMonitor
from .live import (
    AdmissionConfig,
    AdmissionController,
    ChannelBacklog,
    ChannelScaler,
    LiveServer,
    LiveServingError,
    ScalingConfig,
)
from .sharded import ChannelState, ShardedMemorySystem
from .sla import (
    DEFAULT_PERCENTILES,
    SLAAccountant,
    StreamingPercentiles,
    TenantSink,
)
from .trace import (
    TRACE_SCHEMA,
    Trace,
    TraceFormatError,
    TraceOp,
    record_workload,
    requests_equal,
    trace_suffix,
)
from .workload import (
    GuardRowTenant,
    GuardRowTraffic,
    TenantSpec,
    VictimTenant,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadOp,
    make_tenants,
    zipf_weights,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ChannelBacklog",
    "ChannelScaler",
    "ChannelState",
    "DEFAULT_PERCENTILES",
    "GuardRowTenant",
    "GuardRowTraffic",
    "HealthConfig",
    "LiveServer",
    "LiveServingError",
    "SLAAccountant",
    "SOURCE_KNOBS",
    "ScalingConfig",
    "ServingConfig",
    "ServingResult",
    "ServingSimulation",
    "ShardedMemorySystem",
    "StreamingPercentiles",
    "TRACE_SCHEMA",
    "TenantSink",
    "TenantSpec",
    "Trace",
    "TraceFormatError",
    "TraceOp",
    "VictimHealthMonitor",
    "VictimTenant",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadOp",
    "config_from_dict",
    "embedded_config",
    "make_tenants",
    "record_serving_trace",
    "record_workload",
    "replay_neutral",
    "replay_trace",
    "requests_equal",
    "serve",
    "trace_suffix",
    "zipf_weights",
]
