//! Cryptographic substrate for IA-CCF.
//!
//! The paper (§3.1, §3.4) relies on three primitives, all provided here:
//!
//! * **SHA-256 digests** ([`Digest`]) used for Merkle trees, message hashes,
//!   checkpoint digests and the service name `H(gt)`. The paper uses
//!   EverCrypt's verified SHA-256; we use the `sha2` crate (same function).
//! * **Signatures** ([`KeyPair`], [`PublicKey`], [`Signature`]) used by
//!   replicas (pre-prepare/prepare, view-change, new-view), clients
//!   (requests) and members (governance). The paper uses secp256k1; we use
//!   Ed25519, which has the same signature (64 B) and public key (32 B)
//!   sizes, so the ledger-entry and receipt sizes keep their shape.
//! * **Nonce commitments** ([`Nonce`], [`NonceCommitment`]) implementing the
//!   scheme of §3.1/Appx. A Lemma 3: replicas commit `H(k)` inside the signed
//!   pre-prepare/prepare and later reveal `k` in the (unsigned) commit
//!   message, halving the signatures on the critical path.
//!
//! Signature verification dominates IA-CCF's cost (§6.8), so this crate also
//! provides batch verification, mirroring the paper's parallelized
//! verification (§3.4): a slice of signatures is checked by one combined
//! equation, and one by one only to locate a failure
//! ([`batch::verify_batch_indices`], on the calling thread). It is also the
//! one place that cuts such a slice over a persistent
//! [`ia_ccf_pool::WorkerPool`]: [`batch::start_verify`] queues the chunks
//! and returns [`batch::PendingChecks`] to join later, and
//! [`batch::verify_batch_indices_on`] waits for them. [`batch::SigQueue`]
//! is the one ordered queue a ledger's signatures are judged through, by
//! recovery and by the auditor alike.
//!
//! The primitive itself is the in-tree `vendor/ed25519-dalek` (windowed,
//! variable-time; ≈ 17 µs per single verification, an honest one
//! accepted without decompressing `R`, ≈ 5 µs per signature in a slice of
//! 300 on AVX-512 IFMA, ≈ 13 µs per signature made, on the benchmark box).
//! Two things here sit on top of it:
//!
//! * [`PublicKey::verify`] and the slice kernel keep parsed keys — the
//!   point, and once a key has checked a signature singly the table of
//!   multiples that check walks — in a small thread-local cache ([`keys`]
//!   module docs), so a key is parsed once per thread;
//! * `tests/ed25519_oracle.rs` holds the previous bit-serial
//!   implementation and compares key bytes, signature bytes and verdicts
//!   against it, and `tests/batch_equiv.rs` holds slice verdicts to single
//!   verdicts. **Which byte strings verify is a consensus and audit
//!   fact** — replicas, clients and auditors must agree on it forever —
//!   so the accept set (RFC 8032's cofactored equation, `s < ℓ`, today's
//!   point decoding, no small-order rejection; one rule for single and
//!   slice checks) is frozen by those tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod digest;
pub mod keys;
pub mod nonce;

pub use batch::{
    start_verify, verify_batch_indices, verify_batch_indices_on, PendingChecks, SigQueue,
    VerifyJob, SIG_CHUNK, VERIFY_MIN_CHUNK,
};
pub use digest::{hash_bytes, hash_pair, Digest, Hasher, DIGEST_LEN};
pub use keys::{KeyPair, PublicKey, Signature, PUBLIC_KEY_LEN, SIGNATURE_LEN};
pub use nonce::{Nonce, NonceCommitment, NONCE_LEN};
