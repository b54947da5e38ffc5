//! Ledger validity (Alg. 1 lines 15–22, Alg. 2 lines 6 and 18), written
//! once below the replica: a backup, ledger replay, the checkpoint seed and
//! the auditor call these functions, so a third party checks a ledger with
//! the rules the replicas applied and links no replica code (§4).
//! [`view_primary_job`] is the one pre-prepare rule:
//! [`signed_by_view_primary`] runs it at once, replay's pre-pass and the
//! package walk queue it on an [`ia_ccf_crypto::SigQueue`]. A recorded
//! batch's evidence pair ([`recorded_evidence`]) and `⟨t, i, o⟩` run
//! ([`recorded_run`]) are held to what was signed before anything executes.
//!
//! Left apart on purpose: replay and the auditor keep separate walks
//! (replay learns each configuration by executing, the auditor reads it
//! from the governance chain); the execution rule and the batch-kind rules
//! stay with the replica (they need the store and governance state).

use std::collections::BTreeSet;

use ia_ccf_crypto::VerifyJob;
use ia_ccf_merkle::MerkleTree;
use ia_ccf_types::entry::g_tree;
use ia_ccf_types::{
    evidence_target, BatchCertificate, Configuration, Digest, EvidenceError, LedgerEntry,
    NewViewMsg, PrePrepare, PublicKey, ReplicaBitmap, ReplicaId, SeqNum, Signature, View,
    ViewChange, Wire,
};

use crate::segment::{EvidencePair, TxRun};

/// Whether `sig` is `sender`'s signature over `payload` under `config` —
/// the one place a replica's signature is checked.
pub fn verify_replica_payload(
    config: &Configuration,
    sender: ReplicaId,
    payload: &[u8],
    sig: &Signature,
) -> bool {
    config.replica_key(sender).is_some_and(|key| key.verify(payload, sig))
}

/// The check `pp` must pass under `config` (its sequence number's
/// configuration): its signature under the key of the primary of its
/// view. `None` when `pp.core.primary` is not that primary, or has no key
/// — a pre-prepare no check can make valid.
pub fn view_primary_job(config: &Configuration, pp: &PrePrepare) -> Option<VerifyJob> {
    let primary = pp.core.primary;
    if config.primary_of(pp.view()) != primary {
        return None;
    }
    let key = *config.replica_key(primary)?;
    let msg = PrePrepare::signing_payload(&pp.core, &pp.root_g);
    Some(VerifyJob { key, msg, sig: pp.sig })
}

/// Whether `pp` names the primary of its view under `config` (its
/// sequence number's configuration) and carries that replica's signature
/// — asked of every pre-prepare before it touches state, and of every one
/// a view-change reports. `proven` is the key this exact pre-prepare's
/// signature was already proven under (a replay pre-pass, a stashed
/// check), if any: the check is skipped only when that is the key
/// `config` names for the primary, and runs singly otherwise.
pub fn signed_by_view_primary(
    config: &Configuration,
    pp: &PrePrepare,
    proven: Option<&PublicKey>,
) -> bool {
    let Some(job) = view_primary_job(config, pp) else {
        return false;
    };
    proven == Some(&job.key) || job.key.verify(&job.msg, &job.sig)
}

/// What a recorded batch's evidence pair establishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidenced {
    /// The batch orders in none.
    Nothing,
    /// The pair is for this batch, which the reader does not hold.
    Unheld(SeqNum),
    /// The certificate the pair encodes.
    Certified(Box<BatchCertificate>),
}

/// The rule on a recorded batch's evidence pair (Alg. 1 line 17, App.
/// B.1.1): the carrier clause, then the certificate the pair encodes over
/// the evidenced pre-prepare (`held`, when the reader holds it) in Alg. 3's
/// shape; prepare signatures are left to [`BatchCertificate::prepare_checks`].
/// A refusal names its batch: the carrier's for the carrier clause, the
/// evidenced one's for the pair.
pub fn recorded_evidence<'c, 'p>(
    carrier: &PrePrepare,
    recorded: Option<EvidencePair<'_>>,
    config_at: impl Fn(SeqNum) -> &'c Configuration,
    held: impl FnOnce(SeqNum) -> Option<&'p PrePrepare>,
) -> Result<Evidenced, (SeqNum, EvidenceError)> {
    let p = config_at(carrier.seq()).pipeline_depth as u64;
    let target = evidence_target(&carrier.core, p).map_err(|why| (carrier.seq(), why))?;
    let (target, pair) = match (target, recorded) {
        (None, None) => return Ok(Evidenced::Nothing),
        (Some(target), Some(pair)) => (target, pair),
        _ => return Err((carrier.core.evidence_seq, EvidenceError::Unexpected)),
    };
    let Some(evidenced) = held(target) else {
        return Ok(Evidenced::Unheld(target));
    };
    let (config, signers) = (config_at(target), carrier.core.evidence_bitmap);
    let cert =
        BatchCertificate::from_evidence(config, evidenced, signers, pair.prepares, pair.nonces)
            .map_err(|why| (target, why))?;
    cert.check_shape(config).map_err(|why| (target, why.into()))?;
    Ok(Evidenced::Certified(Box::new(cert)))
}

/// The rule on a recorded batch's `⟨t, i, o⟩` run: its `G` has the signed
/// root `Ḡ`. Returns the requests' names, each hashed once, and that tree.
/// Index contiguity is not part of it: under a signed `Ḡ` a wrong index is
/// its signers' wrong execution, which only executing finds.
pub fn recorded_run(pp: &PrePrepare, txs: TxRun<'_>) -> Option<(Vec<Digest>, MerkleTree)> {
    let mut names = Vec::with_capacity(txs.len());
    names.extend(txs.iter().map(|tx| tx.request.digest()));
    let tree = g_tree(names.iter().zip(txs.iter()).map(|(t, tx)| (t, tx.index, &tx.result)));
    (tree.root() == pp.root_g).then_some((names, tree))
}

/// The clause of Alg. 2's validity rule a view-change or a new-view broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// A view-change sender is not ranked in the configuration.
    UnknownSender(ReplicaId),
    /// This replica's signature (on its view-change, or on the new-view)
    /// does not verify.
    BadSignature(ReplicaId),
    /// A pre-prepare this sender reports does not carry the signature of
    /// the primary of its view.
    UnsignedPrePrepare(ReplicaId),
    /// `hasPrepares` fails: the last pre-prepare this sender reports is
    /// not proven prepared.
    NotPrepared(ReplicaId),
    /// This sender's view-change is for another view than the new-view.
    WrongView(ReplicaId),
    /// Fewer than a quorum of distinct senders.
    NoQuorum,
    /// The senders' ranks are not the new-view's `E_vc`.
    Bitmap,
    /// The set entry does not hash to the new-view's `h_vc`.
    SetHash,
    /// The ledger with the set entry appended does not have root `M̄′`.
    RootM,
}

/// What a valid new-view establishes, for callers to read instead of
/// deriving it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewViewFacts {
    /// The view-change senders, ascending.
    pub senders: Vec<ReplicaId>,
    /// The chosen last-prepared batch `(seq, H(pp))`; `None` when no
    /// sender reports a prepared batch.
    pub last_prepared: Option<(SeqNum, Digest)>,
    /// Every `(seq, Ḡ)` a sender reports as prepared (Lemma 5 tells an
    /// honest report from an omission by these).
    pub reported: Vec<(SeqNum, Digest)>,
}

/// Alg. 2 line 6: `vc` comes from a replica of `config`, carries its
/// signature, every pre-prepare it reports carries the signature of its
/// view's primary, and — `hasPrepares` — the last of them is proven
/// prepared: quorum − 1 distinct signed prepares matching it, none from
/// its primary.
pub fn check_view_change(config: &Configuration, vc: &ViewChange) -> Result<(), Refused> {
    if config.rank_of(vc.replica).is_none() {
        return Err(Refused::UnknownSender(vc.replica));
    }
    if !verify_replica_payload(config, vc.replica, &vc.own_payload(), &vc.sig) {
        return Err(Refused::BadSignature(vc.replica));
    }
    if !vc.pps.iter().all(|pp| signed_by_view_primary(config, pp, None)) {
        return Err(Refused::UnsignedPrePrepare(vc.replica));
    }
    if let Some(last) = vc.pps.last() {
        let ppd = last.digest();
        let provers: BTreeSet<ReplicaId> = vc
            .last_proof
            .iter()
            .filter(|p| p.pp_digest == ppd && p.seq == last.seq() && p.view == last.view())
            .filter(|p| p.replica != last.core.primary)
            .filter(|p| verify_replica_payload(config, p.replica, &p.own_payload(), &p.sig))
            .map(|p| p.replica)
            .collect();
        if provers.len() + 1 < config.quorum() {
            return Err(Refused::NotPrepared(vc.replica));
        }
    }
    Ok(())
}

/// Alg. 2 line 18, all of it but `M̄′` (which needs a ledger; see the
/// replica's `log_new_view`): every view-change is for `nv.view`, the
/// senders are distinct members of `config` and a quorum, their ranks are
/// `nv.vc_bitmap`, the set entry they form hashes to `nv.vc_entry_hash`,
/// the primary of `nv.view` signed `nv`, and every view-change passes
/// [`check_view_change`]. Ordered cheapest first: nothing is verified for
/// a set whose shape is wrong, and the per-member signatures come last.
pub fn check_new_view(
    config: &Configuration,
    nv: &NewViewMsg,
    view_changes: &[ViewChange],
) -> Result<NewViewFacts, Refused> {
    let mut senders = BTreeSet::new();
    let mut bitmap = ReplicaBitmap::empty();
    for vc in view_changes {
        if vc.view != nv.view {
            return Err(Refused::WrongView(vc.replica));
        }
        let rank = config.rank_of(vc.replica).ok_or(Refused::UnknownSender(vc.replica))?;
        if !senders.insert(vc.replica) {
            return Err(Refused::NoQuorum); // one sender counted twice
        }
        bitmap.set(rank);
    }
    if senders.len() < config.quorum() {
        return Err(Refused::NoQuorum);
    }
    if bitmap != nv.vc_bitmap {
        return Err(Refused::Bitmap);
    }
    let set_entry = view_change_set_entry(nv.view, view_changes.to_vec());
    if ia_ccf_crypto::hash_bytes(&set_entry.to_bytes()) != nv.vc_entry_hash {
        return Err(Refused::SetHash);
    }
    let primary = config.primary_of(nv.view);
    if !verify_replica_payload(config, primary, &nv.own_payload(), &nv.sig) {
        return Err(Refused::BadSignature(primary));
    }
    for vc in view_changes {
        check_view_change(config, vc)?;
    }
    Ok(NewViewFacts {
        senders: senders.into_iter().collect(),
        last_prepared: chosen_last_prepared(view_changes),
        reported: view_changes
            .iter()
            .flat_map(|vc| &vc.pps)
            .map(|pp| (pp.seq(), pp.root_g))
            .collect(),
    })
}

/// The ledger entry a view-change set is logged as: its members ascending
/// by sender, so every replica hashes the same bytes to `h_vc`.
pub fn view_change_set_entry(view: View, mut view_changes: Vec<ViewChange>) -> LedgerEntry {
    view_changes.sort_by_key(|vc| vc.replica);
    LedgerEntry::ViewChangeSet { view, view_changes }
}

/// The deterministic "last prepared" choice over a view-change set: the
/// final pre-prepare with the highest (view, seq), identified by digest.
pub fn chosen_last_prepared(vcs: &[ViewChange]) -> Option<(SeqNum, Digest)> {
    vcs.iter()
        .filter_map(|vc| vc.pps.last())
        .max_by_key(|pp| (pp.view(), pp.seq()))
        .map(|pp| (pp.seq(), pp.digest()))
}

#[cfg(test)]
mod tests {
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::messages::testutil::test_pp;
    use ia_ccf_types::KeyPair;

    use super::signed_by_view_primary;

    /// A proof stands only under the key the configuration names for the
    /// view's primary; under any other key the check runs singly, and the
    /// primary clause comes first either way.
    #[test]
    fn a_proven_signature_is_tied_to_its_key() {
        let (config, keys, _) = test_config(4);
        let named = keys[0].public();
        let other = KeyPair::from_label("not-replica-0");
        let honest = test_pp(0, 3, &keys[0]);
        let foreign = test_pp(0, 3, &other);
        let wrong_primary = test_pp(1, 3, &keys[0]);
        let foreign_key = other.public();
        let rows = [
            ("valid only under another key, proven under it", &foreign, Some(&foreign_key), false),
            ("valid only under another key, unproven", &foreign, None, false),
            ("honest, proven under the named key", &honest, Some(&named), true),
            ("honest, unproven", &honest, None, true),
            ("honest, proven under another key", &honest, Some(&foreign_key), true),
            ("not the view's primary, proven", &wrong_primary, Some(&named), false),
        ];
        for (row, pp, proven, accepted) in rows {
            assert_eq!(signed_by_view_primary(&config, pp, proven), accepted, "{row}");
        }
    }
}
