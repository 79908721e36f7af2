"""Multi-tenant serving front door (§ production serving concerns).

The tutorial's systems survey treats a vector DBMS as more than its
indexes: a served system needs admission control, request coalescing,
and per-tenant quality objectives in front of the query engine.  This
package provides that tier on the repo's simulated clock:

* :mod:`repro.serving.quota` — tenant contracts and token buckets.
* :mod:`repro.serving.admission` — priority queueing, bounded backlog,
  deadline shedding, explicit backpressure.
* :mod:`repro.serving.coalescer` — many concurrent queries, one batched
  kernel call, with exactly-conserved stats splitting.
* :mod:`repro.serving.cache` — per-tenant exact result caches with
  structural (generation-keyed) invalidation.
* :mod:`repro.serving.frontdoor` — the event loop tying it together,
  with per-tenant latency sketches, SLO burn-rate alerts, per-request
  journey tracing (span links across the coalescing boundary, latency
  exemplars), and opt-in windowed telemetry feeding the anomaly
  monitor (``telemetry=True``).
* :mod:`repro.serving.traffic` — seeded open-loop load (Poisson
  arrivals, Zipf tenant/query skew, diurnal bursts).
"""

from .admission import AdmissionController, AdmissionRejected
from .cache import QueryResultCache, result_cache_key
from .coalescer import execute_coalesced, split_stats
from .frontdoor import ServingFrontDoor, ServingReport
from .quota import TenantSpec, TokenBucket
from .request import ServedResponse, ServingRequest
from .traffic import Burst, DiurnalSchedule, TrafficGenerator

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "Burst",
    "DiurnalSchedule",
    "QueryResultCache",
    "ServedResponse",
    "ServingFrontDoor",
    "ServingReport",
    "ServingRequest",
    "TenantSpec",
    "TokenBucket",
    "TrafficGenerator",
    "execute_coalesced",
    "result_cache_key",
    "split_stats",
]
