"""The experiment service: specs over the wire, digests as the contract.

A small, stdlib-only client/server layer that turns the declarative spec
documents of :mod:`repro.api` into network-submittable jobs:

* :mod:`repro.service.protocol` — the wire documents (job records,
  result envelopes, the ``spec_digest × seed`` store key) and the
  digest verification that every result must pass;
* :mod:`repro.service.ledger` — the durable, journaled job ledger and
  the one shared work queue;
* :mod:`repro.service.store` — the digest-keyed result store (identical
  resubmission = verified cache hit);
* :mod:`repro.service.worker` — the claim/execute/report loop, identical
  for in-process threads and remote HTTP workers;
* :mod:`repro.service.server` — the threaded HTTP server
  (``repro serve``);
* :mod:`repro.service.client` — the urllib client (``repro submit`` /
  ``status`` / ``result`` / ``work``) and digest-partial result
  hydration.

The whole layer moves *documents*, never pickles: what a worker reports
is digest-verified against its own payload before it is stored, and what
a client fetches is digest-verified again on read.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "client": ("DEFAULT_URL", "ServiceClient", "hydrate_digest_result"),
        "ledger": ("JobLedger",),
        "protocol": (
            "JOB_STATES", "SERVICE_VERSION", "JobRecord", "ServiceError", "job_key",
            "result_envelope", "spec_from_document", "verify_envelope",
        ),
        "server": ("DEFAULT_PORT", "ExperimentService", "ServiceHTTPServer", "serve"),
        "store": ("ResultStore", "StoreCorruption", "StoreEntry"),
        "worker": ("LocalBroker", "WorkerLoop", "execute_document"),
    },
)
