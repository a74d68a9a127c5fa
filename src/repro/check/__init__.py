"""Model-based verification: oracle, history checking, differential fuzzing.

``repro.check`` proves the paper's implicit semantic claim: the UCR-IB
path and every sockets path (SDP, IPoIB, 10GigE-TOE), text and binary
protocol alike, implement the *same* cache.  Four modules:

- :mod:`repro.check.model` -- a pure-Python reference memcached
  (idealized: no LRU, no memory pressure) with a documented divergence
  list.
- :mod:`repro.check.history` -- operation history recording on the sim
  clock plus a Wing--Gong linearizability checker over per-key
  registers, whose every transition the oracle computes.
- :mod:`repro.check.outcome` -- token-canonical op outcomes, shared by
  history digests and differential comparison.
- :mod:`repro.check.differential` -- seeded command-sequence replay
  across transports/protocols/chaos with oracle comparison and ddmin
  shrinking.

This ``__init__`` stays import-light on purpose: ``repro.memcached.client``
imports :mod:`repro.check.history` for its recording hooks, and the
history checker imports the oracle, so neither may import the client or
the cluster builder.  Pulling :mod:`repro.check.differential` (which
imports the cluster builder, and therefore the client) in here would
create an import cycle.  Import the differential module explicitly where
needed.
"""

from repro.check.history import OpRecord, check_history, recorder
from repro.check.model import MODEL_DIVERGENCES, ModelMemcached

__all__ = [
    "MODEL_DIVERGENCES",
    "ModelMemcached",
    "OpRecord",
    "check_history",
    "recorder",
]
