//! Auditing and enforcement (§4, Appx. B).
//!
//! Given receipts that are inconsistent with any linearizable execution,
//! auditing produces a **universal proof-of-misbehaviour** (uPoM) blaming
//! at least `f + 1` replicas — no matter how many replicas misbehave, up
//! to and including all of them. The pieces:
//!
//! * [`package`] — ledger packages and their completeness/well-formedness
//!   checks (§B.1.1): structural grammar, every signature, every nonce,
//!   Merkle-root recomputation;
//! * [`auditor`] — Alg. 4: verify receipts, obtain a package, compare
//!   receipts with the ledger (Lemma 5's three view cases), replay
//!   transactions from the checkpoint, emit a uPoM;
//! * [`enforcer`] — §4.2: obtains packages from replicas under a deadline
//!   (sanctioning non-producers), re-verifies uPoMs bounded by one
//!   checkpoint interval, and punishes the members operating blamed
//!   replicas (via the configuration's operator endorsements).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod auditor;
pub mod enforcer;
pub mod package;

pub use auditor::{AuditOutcome, Auditor, StoredReceipt, Upom, UpomKind};
pub use enforcer::{Enforcer, LedgerSource, Sanction};
pub use package::{LedgerPackage, PackageError};
