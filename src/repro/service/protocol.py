"""Wire documents of the experiment service.

Everything that crosses the HTTP boundary — job records, result
envelopes, the store key — is defined here as plain JSON-shaped dicts
plus the helpers that build and validate them.  The server, the client
and the worker all speak exactly these shapes; nothing else ever crosses
a process boundary, which is what lets two processes that share no
memory agree on a result solely through the digest protocol.

The store key
-------------
A submission is identified by ``spec_digest(spec) × seed``: the canonical
spec digest (hash-seed- and process-independent, see
:func:`repro.api.spec_digest`) crossed with the run's seed (the
experiment's ``seed``, a sweep's ``base_seed``).  The digest already
folds the seed in, so the explicit ``×  seed`` component is redundant —
deliberately: the key stays self-describing in a directory listing, and a
digest collision across seeds cannot silently alias two runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Union

from ..api import ExperimentSpec, SweepSpec
from ..api import spec_from_dict as spec_from_document  # noqa: F401 - the one tag dispatch

#: Wire-format version stamped into every service document.
SERVICE_VERSION = 1

#: Job lifecycle states.  ``queued`` → ``running`` → ``done`` | ``failed``.
#: A submission answered straight from the result store is ``done`` from
#: birth with ``cached=True`` — no worker ever sees it.
JOB_STATES = ("queued", "running", "done", "failed")


class ServiceError(RuntimeError):
    """A service-layer failure (bad document, unknown job, dead server)."""


AnySpec = Union[ExperimentSpec, SweepSpec]


def spec_seed(spec: AnySpec) -> int:
    """The seed component of the store key."""
    return spec.base_seed if isinstance(spec, SweepSpec) else spec.seed


def job_key(spec: AnySpec) -> str:
    """The ledger/store key of a submission: ``<spec-digest>x<seed>``."""
    return f"{spec.digest()}x{spec_seed(spec)}"


# ---------------------------------------------------------------------------
# Job records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobRecord:
    """One submission's ledger entry (a pure wire value).

    ``progress`` counts completed sweep tasks (``{"done": n, "total":
    m}``); single experiments report ``{"done": 0|1, "total": 1}``.
    """

    id: str
    key: str
    spec_digest: str
    seed: int
    kind: str  # "experiment" | "sweep"
    state: str = "queued"
    #: True when the result came from the store without re-executing.
    cached: bool = False
    #: True when the submission bypassed the cache (``force=true``).
    force: bool = False
    worker: str = ""
    error: str = ""
    #: The result digest, filled in when the job completes.
    digest: str = ""
    progress: Mapping[str, int] = field(
        default_factory=lambda: {"done": 0, "total": 1}
    )
    #: Monotonic ledger version of the job's last mutation (long-poll cursor).
    version: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "key": self.key,
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "kind": self.kind,
            "state": self.state,
            "cached": self.cached,
            "force": self.force,
            "worker": self.worker,
            "error": self.error,
            "digest": self.digest,
            "progress": dict(self.progress),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ServiceError(f"unknown JobRecord keys: {sorted(unknown)}")
        return cls(**{key: data[key] for key in data})

    def with_state(self, **changes: Any) -> "JobRecord":
        return replace(self, **changes)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


# ---------------------------------------------------------------------------
# Result envelopes
# ---------------------------------------------------------------------------
def result_envelope(spec: AnySpec, result: Any) -> dict[str, Any]:
    """Package an executed run into the service's result document.

    ``result`` is whatever :class:`~repro.api.ExperimentSession` returned
    (``RunResult`` or ``SweepReport``).  The envelope
    carries the JSON result payload, the canonical digest, and — for
    digest-collection experiment runs — the composable digest partial, so
    a client can rehydrate a digest-verified, trace-free result object
    (:func:`repro.service.client.hydrate_digest_result`) without the
    server ever shipping an event log.
    """
    # as_dict() folds the trace digest; take it from there, not twice.
    payload = result.as_dict()
    envelope: dict[str, Any] = {
        "version": SERVICE_VERSION,
        "kind": "sweep" if isinstance(spec, SweepSpec) else "experiment",
        "spec_digest": spec.digest(),
        "seed": spec_seed(spec),
        "digest": payload["digest"],
        "result": payload,
    }
    if isinstance(spec, ExperimentSpec):
        envelope["collection"] = spec.runtime.collection
        trace = getattr(result, "trace", None)
        partial = trace.digest_partial() if trace is not None else None
        if partial is not None:
            envelope["digest_state"] = {
                "partial": f"{partial:064x}",
                "events": len(trace),
                "end_time": trace.end_time(),
            }
    return envelope


def verify_envelope(envelope: Mapping[str, Any]) -> None:
    """Digest-verify a result envelope without re-running anything.

    This is the server's trust boundary with its workers: a completed
    job's digest must be *derivable* from the envelope itself —

    * sweep envelopes: the claimed digest must equal the order-sensitive
      combination of the per-run digests in the payload
      (:func:`repro.trace.digest.combine_digests`), exactly how
      :meth:`repro.scale.sweep.SweepReport.digest` computes it;
    * digest-collection experiment envelopes: the claimed digest must
      equal ``hex_of_partial`` of the shipped partial.

    Trace-mode experiment envelopes carry no independent witness (the
    trace stayed in the worker), so only their shape is checked; the
    integration suite pins their digests against local runs instead.
    """
    digest = envelope.get("digest")
    if not isinstance(digest, str) or not digest:
        raise ServiceError("result envelope has no digest")
    kind = envelope.get("kind")
    if kind == "sweep":
        from ..trace.digest import combine_digests

        runs = envelope.get("result", {}).get("runs")
        if runs is None:
            raise ServiceError("sweep envelope has no result.runs")
        recombined = combine_digests(run["digest"] for run in runs)
        if recombined != digest:
            raise ServiceError(
                f"sweep digest verification failed: claimed {digest[:12]}…, "
                f"recombining the {len(runs)} per-run digests gives "
                f"{recombined[:12]}…"
            )
        return
    if kind != "experiment":
        raise ServiceError(f"unknown result envelope kind {kind!r}")
    state = envelope.get("digest_state")
    if state is not None:
        from ..trace.digest import hex_of_partial

        try:
            partial = int(state["partial"], 16)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed digest_state: {exc}") from exc
        derived = hex_of_partial(partial)
        if derived != digest:
            raise ServiceError(
                f"digest-partial verification failed: claimed {digest[:12]}…, "
                f"the shipped partial folds to {derived[:12]}…"
            )
    payload_digest = envelope.get("result", {}).get("digest")
    if payload_digest is not None and payload_digest != digest:
        raise ServiceError(
            "result envelope digest disagrees with its payload digest"
        )


def dumps(document: Any) -> str:
    """Stable JSON encoding used for every wire document."""
    return json.dumps(document, indent=2, sort_keys=True)
