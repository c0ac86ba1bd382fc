"""PVR: private and verifiable routing — the paper's core contribution.

The package implements the complete machinery of Sections 2-3:

* access-control policies α (:mod:`repro.pvr.access`);
* signed announcements and receipts (:mod:`repro.pvr.announcements`);
* bit-vector commitments, signed disclosures and export attestations
  (:mod:`repro.pvr.commitments`);
* the existential protocol of Section 3.2 (:mod:`repro.pvr.existential`,
  including the ring-signature link-state variant);
* the minimum protocol of Section 3.3 (:mod:`repro.pvr.minimum`);
* the generalized multi-operator protocol of Sections 3.5-3.7
  (:mod:`repro.pvr.protocol`, :mod:`repro.pvr.navigation`);
* evidence, the judge, Byzantine adversaries and leakage accounting.

All four protocol variants run behind one promise-driven API — the
**unified verification engine**:

* :class:`~repro.pvr.session.PromiseSpec` describes the contract
  (promise template, parties, parameters) and compiles to a route-flow
  graph plan;
* :class:`~repro.pvr.engine.VerificationSession` drives the
  ``announce → commit → disclose → verify → adjudicate`` lifecycle
  through whichever protocol variant the spec resolves to, emitting a
  uniform :class:`~repro.pvr.session.SessionTranscript` and
  :class:`~repro.pvr.session.SessionReport` — the one result type,
  which carries the four PVR properties of Section 2.3 as checks
  (``accuracy_ok``, ``detection_ok``, ``confidentiality_ok``,
  ``adjudicate(judge).evidence_ok()``);
* :mod:`repro.pvr.scenarios` is the registry of named workloads.

The package namespace holds those three plus
:class:`~repro.pvr.judge.Judge`; import anything else from its module.

This package is a leaf under :mod:`repro.audit`: it imports nothing from
the audit plane or anything above it.  Running rounds on a live network
is :class:`repro.audit.monitor.Monitor`'s job.
"""

from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.session import PromiseSpec
from repro.pvr import scenarios

__all__ = ["Judge", "PromiseSpec", "VerificationSession", "scenarios"]
