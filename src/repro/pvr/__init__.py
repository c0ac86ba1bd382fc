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

This package is a leaf under :mod:`repro.audit`: it imports nothing from
the audit plane or anything above it.  Running rounds on a live network
is :class:`repro.audit.monitor.Monitor`'s job.
"""

from repro.pvr.access import AccessPolicy, opaque_alpha, paper_alpha
from repro.pvr.announcements import (
    Receipt,
    SignedAnnouncement,
    make_announcement,
    make_receipt,
)
from repro.pvr.commitments import (
    BitVectorOpenings,
    CommittedBitVector,
    ExportAttestation,
    SignedDisclosure,
    commit_bits,
    compute_length_bits,
    make_attestation,
    make_disclosure,
)
from repro.pvr.evidence import (
    BadOpeningEvidence,
    BadProvenanceEvidence,
    Complaint,
    EquivocationEvidence,
    Evidence,
    ExistsFalseBitEvidence,
    ExistsPhantomEvidence,
    FalseBitEvidence,
    MonotonicityEvidence,
    PhantomExportEvidence,
    ShorterAvailableEvidence,
    SuppressionEvidence,
    UnequalTreatmentEvidence,
    Verdict,
    Violation,
)
from repro.pvr.judge import ComplaintRuling, Judge
from repro.pvr.minimum import (
    HonestProver,
    ProviderView,
    RecipientView,
    RoundConfig,
    RoundTranscript,
    announce,
    verify_as_provider,
    verify_as_recipient,
)
from repro.pvr.batching import BatchedDisclosure, BatchingProver, DisclosureBatch
from repro.pvr.crosscheck import (
    cross_check,
    discriminating_chooser,
    honest_chooser,
    withholding_chooser,
)
from repro.pvr.navigation import (
    NavigationError,
    Navigator,
    OperatorSkeleton,
    owner_check_operators,
    verify_as_input_owner,
    verify_as_output_recipient,
)
from repro.pvr.protocol import (
    AccessDenied,
    GraphProver,
    GraphRoundConfig,
    RecordResponse,
)
from repro.pvr.session import (
    Adjudication,
    CryptoCounters,
    PromiseSpec,
    SessionError,
    SessionReport,
    SessionTranscript,
)
from repro.pvr.engine import VerificationSession, derive_skeleton
from repro.pvr import scenarios
from repro.pvr.vertex_info import VertexRecord, make_vertex_record

__all__ = [
    # access
    "AccessPolicy",
    "opaque_alpha",
    "paper_alpha",
    # announcements
    "Receipt",
    "SignedAnnouncement",
    "make_announcement",
    "make_receipt",
    # commitments
    "BitVectorOpenings",
    "CommittedBitVector",
    "ExportAttestation",
    "SignedDisclosure",
    "commit_bits",
    "compute_length_bits",
    "make_attestation",
    "make_disclosure",
    # evidence
    "BadOpeningEvidence",
    "BadProvenanceEvidence",
    "Complaint",
    "EquivocationEvidence",
    "Evidence",
    "ExistsFalseBitEvidence",
    "ExistsPhantomEvidence",
    "FalseBitEvidence",
    "MonotonicityEvidence",
    "PhantomExportEvidence",
    "ShorterAvailableEvidence",
    "SuppressionEvidence",
    "UnequalTreatmentEvidence",
    "Verdict",
    "Violation",
    # judge
    "ComplaintRuling",
    "Judge",
    # minimum protocol
    "HonestProver",
    "ProviderView",
    "RecipientView",
    "RoundConfig",
    "RoundTranscript",
    "announce",
    "verify_as_provider",
    "verify_as_recipient",
    # batching
    "BatchedDisclosure",
    "BatchingProver",
    "DisclosureBatch",
    # promise-4 cross-check
    "cross_check",
    "discriminating_chooser",
    "honest_chooser",
    "withholding_chooser",
    # navigation (generalized protocol, verifier side)
    "NavigationError",
    "Navigator",
    "OperatorSkeleton",
    "owner_check_operators",
    "verify_as_input_owner",
    "verify_as_output_recipient",
    # generalized protocol, prover side
    "AccessDenied",
    "GraphProver",
    "GraphRoundConfig",
    "RecordResponse",
    # unified engine
    "Adjudication",
    "CryptoCounters",
    "PromiseSpec",
    "SessionError",
    "SessionReport",
    "SessionTranscript",
    "VerificationSession",
    "derive_skeleton",
    "scenarios",
    # vertex records
    "VertexRecord",
    "make_vertex_record",
]
