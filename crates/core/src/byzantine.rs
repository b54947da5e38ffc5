//! Byzantine behaviours for tests, audit demonstrations and benchmarks.
//!
//! Two classes of misbehaviour matter for IA-CCF:
//!
//! * **Message-level faults** ([`ByzantineReplica`]) — dropping or
//!   corrupting outbound messages. These hurt liveness or individual
//!   clients and are caught by receipt verification or timeouts.
//! * **Coordinated wrong execution** ([`TamperedApp`]) — a quorum of
//!   colluding replicas runs modified service logic, producing a valid-
//!   looking ledger and receipts over wrong results. This is the §4.1
//!   "invalid ledger" scenario that only *replaying* the ledger against
//!   receipts can catch — the heart of the paper's accountability claim.
//!
//! Both are deliberately thin wrappers: a Byzantine node here is a correct
//! node plus an adversarial delta, which keeps the honest code path
//! untouched and the faults composable.

use std::sync::Arc;

use ia_ccf_kv::KvAccess;
use ia_ccf_types::{ClientId, LedgerEntry, ProcId, ProtocolMsg, SeqNum, Wire};

use crate::app::{App, AppError};
use crate::events::{Input, Output};
use crate::replica::Replica;

/// Message-level faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Behave correctly (control).
    None,
    /// Emit nothing — a crashed or silent replica.
    Mute,
    /// Suppress `replyx` messages: clients never receive the
    /// result-carrying reply from this replica and must re-fetch from
    /// another (§3.3 timeout path).
    DropReplyX,
    /// Corrupt the execution result inside outgoing `replyx` messages.
    /// Receipt verification catches this: the forged leaf breaks the
    /// recomputed `Ḡ` and the primary-signature check fails.
    CorruptReplyX,
    /// Flip a bit of the signature inside outgoing `reply` messages. A
    /// client that assembles its certificate from this replica's reply
    /// gets `BadPrepareSig` for its rank (or `BadPrimarySig` when it is
    /// the primary); with at most `f` such backups the client must still
    /// obtain a receipt from the remaining replies.
    CorruptReplySig,
    /// Suppress outbound commit messages (the revealed nonces): batches
    /// execute and prepare but can never commit. Applied cluster-wide
    /// this freezes the committed frontier with a live executed pipeline
    /// — the setup for the pipelined-batch view-change rollback tests.
    DropCommits,
    /// Suppress outbound pre-prepares, the twin of `DropCommits`: as a
    /// primary this replica executes and logs its batches, but no backup
    /// sees them. Its other messages (a new-view included) still go out.
    DropPrePrepares,
    /// Serve truncated ledger pages: every outgoing
    /// `FetchLedgerPageResponse` loses the second half of its entries
    /// while keeping the honest continuation token and `done` flag. A
    /// recovering replica sees either a structural gap (the next page no
    /// longer extends what it applied) or a final page that falls short
    /// of the advertised continuation, and must fail over to an honest
    /// server.
    TruncateLedgerPages,
    /// Serve ledger pages that never progress: every outgoing
    /// `FetchLedgerPageResponse` is emptied and marked not-done, so the
    /// transfer would spin forever. The requester's progress check
    /// abandons the server on the first such page.
    StallLedgerPages,
    /// Lie about the ledger tip during recovery: claim the history ends
    /// at `claim`, truncate every served page at that batch (backing
    /// over the next batch's evidence pair so the stream stays
    /// structurally valid), and advertise a *self-consistent* `done` —
    /// token and entries agree, so only a cross-check against other
    /// replicas' tip claims can unmask it. Without that check a
    /// recoveree syncing from this server freezes short of the real tip,
    /// silently missing committed history.
    LieAboutLedgerTip {
        /// The sequence number the server pretends the ledger ends at.
        claim: SeqNum,
    },
    /// Serve ledger pages with one forged signature each: the first
    /// pre-prepare of every outgoing `FetchLedgerPageResponse` has one bit
    /// of its signature flipped. A recovering replica's replay refuses it
    /// (`BadPrePrepareSig`) and must fail over to an honest server.
    ForgeLedgerPageSig,
    /// A primary that does not check what it proposes: every request in
    /// its queue counts as verified, so a forged body — a governance
    /// action "from member 0" under a random key, say — is ordered,
    /// executed locally and broadcast. Correct backups verify the batch
    /// themselves and refuse to prepare it.
    ProposeUnverified,
}

/// A replica wrapper that applies a [`Fault`] to the outputs of an
/// otherwise-correct replica.
pub struct ByzantineReplica {
    /// The wrapped replica.
    pub inner: Replica,
    /// The active fault.
    pub fault: Fault,
}

impl ByzantineReplica {
    /// Wrap `inner` with `fault`.
    pub fn new(inner: Replica, fault: Fault) -> Self {
        ByzantineReplica { inner, fault }
    }

    /// Drive the wrapped replica and apply the fault to its outputs.
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        if self.fault == Fault::ProposeUnverified {
            self.inner.requests.trust_queued();
        }
        let outs = self.inner.handle(input);
        match self.fault {
            Fault::None | Fault::ProposeUnverified => outs,
            Fault::Mute => outs
                .into_iter()
                .filter(|o| {
                    !matches!(
                        o,
                        Output::SendReplica(..)
                            | Output::BroadcastReplicas(..)
                            | Output::SendClient(..)
                    )
                })
                .collect(),
            Fault::DropReplyX => outs
                .into_iter()
                .filter(|o| !matches!(o, Output::SendClient(_, ProtocolMsg::ReplyX(_))))
                .collect(),
            Fault::CorruptReplyX => outs
                .into_iter()
                .map(|o| match o {
                    Output::SendClient(c, ProtocolMsg::ReplyX(mut rx)) => {
                        rx.result.output.push(0xFF);
                        rx.result.ok = !rx.result.ok;
                        Output::SendClient(c, ProtocolMsg::ReplyX(rx))
                    }
                    other => other,
                })
                .collect(),
            Fault::CorruptReplySig => outs
                .into_iter()
                .map(|o| match o {
                    Output::SendClient(c, ProtocolMsg::Reply(mut reply)) => {
                        reply.sig.0[0] ^= 1;
                        Output::SendClient(c, ProtocolMsg::Reply(reply))
                    }
                    other => other,
                })
                .collect(),
            Fault::DropCommits => outs
                .into_iter()
                .filter(|o| {
                    !matches!(
                        o,
                        Output::BroadcastReplicas(ProtocolMsg::Commit(_))
                            | Output::SendReplica(_, ProtocolMsg::Commit(_))
                    )
                })
                .collect(),
            Fault::DropPrePrepares => outs
                .into_iter()
                .filter(|o| {
                    !matches!(
                        o,
                        Output::BroadcastReplicas(ProtocolMsg::PrePrepare { .. })
                            | Output::SendReplica(_, ProtocolMsg::PrePrepare { .. })
                    )
                })
                .collect(),
            Fault::TruncateLedgerPages => outs
                .into_iter()
                .map(|o| match o {
                    Output::SendReplica(
                        to,
                        ProtocolMsg::FetchLedgerPageResponse { mut entries, next_seq, done },
                    ) => {
                        entries.truncate(entries.len() / 2);
                        Output::SendReplica(
                            to,
                            ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done },
                        )
                    }
                    other => other,
                })
                .collect(),
            Fault::StallLedgerPages => outs
                .into_iter()
                .map(|o| match o {
                    Output::SendReplica(
                        to,
                        ProtocolMsg::FetchLedgerPageResponse { next_seq, .. },
                    ) => Output::SendReplica(
                        to,
                        ProtocolMsg::FetchLedgerPageResponse {
                            entries: Vec::new(),
                            next_seq,
                            done: false,
                        },
                    ),
                    other => other,
                })
                .collect(),
            Fault::ForgeLedgerPageSig => outs
                .into_iter()
                .map(|o| match o {
                    Output::SendReplica(
                        to,
                        ProtocolMsg::FetchLedgerPageResponse { mut entries, next_seq, done },
                    ) => {
                        for bytes in &mut entries {
                            if let Ok(LedgerEntry::PrePrepare(mut pp)) =
                                LedgerEntry::from_bytes(bytes)
                            {
                                pp.sig.0[0] ^= 1;
                                *bytes = LedgerEntry::PrePrepare(pp).to_bytes();
                                break;
                            }
                        }
                        Output::SendReplica(
                            to,
                            ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done },
                        )
                    }
                    other => other,
                })
                .collect(),
            Fault::LieAboutLedgerTip { claim } => outs
                .into_iter()
                .map(|o| match o {
                    // Under-claim the tip and withhold any checkpoint offer
                    // (an offer above the claim would expose the lie
                    // immediately).
                    Output::SendReplica(to, ProtocolMsg::LedgerTipResponse { .. }) => {
                        Output::SendReplica(
                            to,
                            ProtocolMsg::LedgerTipResponse { tip: claim, offer: None },
                        )
                    }
                    Output::SendReplica(
                        to,
                        ProtocolMsg::FetchLedgerPageResponse { entries, .. },
                    ) => {
                        // Cut the page at the first batch past the claim,
                        // backing over its evidence pair, and close the
                        // stream with a token matching the truncation.
                        let decoded: Vec<LedgerEntry> = entries
                            .iter()
                            .map(|b| LedgerEntry::from_bytes(b).expect("own entries decode"))
                            .collect();
                        let mut cut = entries.len();
                        for (i, e) in decoded.iter().enumerate() {
                            let LedgerEntry::PrePrepare(pp) = e else { continue };
                            if pp.seq() > claim {
                                cut = i;
                                while cut > 0
                                    && matches!(
                                        decoded[cut - 1],
                                        LedgerEntry::Evidence { .. } | LedgerEntry::Nonces { .. }
                                    )
                                {
                                    cut -= 1;
                                }
                                break;
                            }
                        }
                        let mut entries = entries;
                        entries.truncate(cut);
                        Output::SendReplica(
                            to,
                            ProtocolMsg::FetchLedgerPageResponse {
                                entries,
                                next_seq: claim.next(),
                                done: true,
                            },
                        )
                    }
                    other => other,
                })
                .collect(),
        }
    }
}

/// An app wrapper for coordinated wrong execution: calls whose `(proc,
/// args)` the predicate matches are replaced by the forged behaviour; all
/// other calls pass through. Install the same `TamperedApp` on a quorum of
/// replicas and the cluster happily certifies wrong results — until an
/// audit replays the ledger with the honest app (§4.1 replayLedger).
pub struct TamperedApp {
    inner: Arc<dyn App>,
    /// Returns `Some(forged_output)` when the call should be tampered.
    forge: ForgeFn,
}

/// Predicate-and-forgery hook: `Some(forged_output)` replaces the honest
/// result for matching `(proc, args, client)` calls.
pub type ForgeFn = Box<dyn Fn(ProcId, &[u8], ClientId) -> Option<Vec<u8>> + Send + Sync>;

impl TamperedApp {
    /// Wrap `inner`, forging calls selected by `forge`.
    pub fn new(
        inner: Arc<dyn App>,
        forge: impl Fn(ProcId, &[u8], ClientId) -> Option<Vec<u8>> + Send + Sync + 'static,
    ) -> Self {
        TamperedApp { inner, forge: Box::new(forge) }
    }
}

impl App for TamperedApp {
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        if let Some(forged) = (self.forge)(proc, args, client) {
            // Execute the honest logic for its state effects, then lie
            // about the output — the subtlest variant: the write set is
            // plausible, only the reply is wrong. (Returning without
            // executing forges both; both are caught by replay.)
            let _ = self.inner.execute(kv, proc, args, client);
            return Ok(forged);
        }
        self.inner.execute(kv, proc, args, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CounterApp;
    use ia_ccf_kv::KvStore;

    #[test]
    fn tampered_app_forges_selected_calls_only() {
        let app = TamperedApp::new(Arc::new(CounterApp), |proc, args, _| {
            (proc == CounterApp::READ && args == b"victim").then(|| 999u64.to_le_bytes().to_vec())
        });
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        // Honest calls pass through.
        let v = app.execute(&mut kv, CounterApp::INCR, b"victim", ClientId(1)).unwrap();
        assert_eq!(v, 1u64.to_le_bytes());
        // The selected read is forged.
        let v = app.execute(&mut kv, CounterApp::READ, b"victim", ClientId(1)).unwrap();
        assert_eq!(v, 999u64.to_le_bytes());
        // Other keys are untouched.
        let v = app.execute(&mut kv, CounterApp::READ, b"other", ClientId(1)).unwrap();
        assert_eq!(v, 0u64.to_le_bytes());
        kv.commit_tx().unwrap();
    }
}
