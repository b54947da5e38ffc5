//! The request pool (Alg. 1 lines 1–3): the request bodies a replica
//! holds outside its ledger, the order the primary proposes them in, the
//! signature facts checked for them, and the names already ordered.
//!
//! A request's life here is a short sequence of steps, one method each:
//! [`RequestPool::admit`] names and stores a body; the primary takes
//! bodies from the head of the queue ([`RequestPool::take_batch`]) and a
//! backup takes the ones a pre-prepare names ([`RequestPool::take`]); a
//! batch that does not reach the ledger hands its bodies back to the head
//! ([`RequestPool::put_back`]); one that does marks its names ordered
//! ([`RequestPool::appended`]), after which the ledger's `Tx` entry is the
//! body's one copy; and a view change's rollback makes an ordered request
//! pending again ([`RequestPool::unorder`]). Because nothing else touches
//! the collections, two conditions hold by construction:
//!
//! * a name is queued exactly while its orderable body is pending — a
//!   system mark is stored but never queued: the schedule proposes marks,
//!   the queue never does;
//! * no pending body is ordered.

use std::collections::{BTreeMap, HashMap, HashSet};

use ia_ccf_types::{Digest, SignedRequest};

/// A body waiting for a batch, with its place in the queue (`None` for a
/// system mark).
#[derive(Debug)]
struct Pending {
    ticket: Option<i64>,
    body: SignedRequest,
}

/// A replica's request pool; see the module docs for its life cycle.
#[derive(Debug, Default)]
pub(crate) struct RequestPool {
    /// The bodies not appended yet, by name: admitted, fetched, or handed
    /// back by a batch that was not sent, was refused or rolled back.
    pending: HashMap<Digest, Pending>,
    /// The orderable pending names, lowest ticket first: the order the
    /// primary proposes them in.
    queue: BTreeMap<i64, Digest>,
    /// The lowest and highest tickets handed out: a name put back or
    /// unordered goes below `head`, an admitted one above `tail`.
    head: i64,
    tail: i64,
    /// Names whose signatures verified — client keys for app requests,
    /// member keys of the active configuration for governance (checks are
    /// deferred to batch time and batched, §3.4). A fact leaves when its
    /// batch is appended, and all go when the active configuration changes:
    /// they are relative to its keys.
    verified: HashSet<Digest>,
    /// Names in this replica's ledger: admission drops them.
    ordered: HashSet<Digest>,
}

impl RequestPool {
    /// Name a body — the one place bytes from outside get their `H(t)` —
    /// and store it, queued at the tail unless it is a system mark (a
    /// checkpoint batch's backups fetch the mark's body). A body already
    /// pending or ordered is dropped: a client that retransmits an ordered
    /// request gets its receipt through a `FetchReceipt` re-fetch.
    pub(crate) fn admit(&mut self, body: SignedRequest) {
        let name = body.digest();
        if self.ordered.contains(&name) || self.pending.contains_key(&name) {
            return;
        }
        self.store(name, body, false);
    }

    /// Take up to `max` bodies from the head of the queue, with their
    /// names, for a batch whose first transaction gets index `next_index`:
    /// a body whose `min_index` that batch cannot meet yet stays where it
    /// is, and the batch ends after a governance transaction (a correct
    /// primary ends it there, §B.2).
    pub(crate) fn take_batch(
        &mut self,
        max: usize,
        next_index: u64,
    ) -> (Vec<Digest>, Vec<SignedRequest>) {
        let mut tickets = Vec::new();
        let mut index = next_index;
        for (&ticket, name) in &self.queue {
            if tickets.len() == max {
                break;
            }
            let body = &self.pending[name].body;
            if body.request.min_index.0 > index {
                continue;
            }
            tickets.push(ticket);
            index += 1;
            if body.is_governance() {
                break;
            }
        }
        let mut names = Vec::with_capacity(tickets.len());
        let mut bodies = Vec::with_capacity(tickets.len());
        for ticket in tickets {
            let name = self.queue.remove(&ticket).expect("a ticket just read");
            let pending = self.pending.remove(&name).expect("a queued name is pending");
            names.push(name);
            bodies.push(pending.body);
        }
        (names, bodies)
    }

    /// Take the pending body named `name`, wherever it is queued.
    pub(crate) fn take(&mut self, name: &Digest) -> Option<SignedRequest> {
        let pending = self.pending.remove(name)?;
        if let Some(ticket) = pending.ticket {
            self.queue.remove(&ticket);
        }
        Some(pending.body)
    }

    /// Hand back the bodies of a batch that did not go into the ledger:
    /// to the head of the queue, in batch order. A name already pending
    /// keeps its place, and one ordered elsewhere stays out: the ledger
    /// holds its body.
    pub(crate) fn put_back(&mut self, names: Vec<Digest>, bodies: Vec<SignedRequest>) {
        for (name, body) in names.into_iter().zip(bodies).rev() {
            if !self.ordered.contains(&name) && !self.pending.contains_key(&name) {
                self.store(name, body, true);
            }
        }
    }

    /// A batch naming `names` is in the ledger: they are ordered, and the
    /// bodies and signature facts still held under them go.
    pub(crate) fn appended(&mut self, names: &[Digest]) {
        for name in names {
            self.ordered.insert(*name);
            self.take(name);
            self.verified.remove(name);
        }
    }

    /// The ordered request `name` rolled back out of the ledger: it is
    /// pending again with `body`, at the head of the queue unless it is a
    /// system mark (the schedule regenerates marks; queueing one would
    /// smuggle it into a regular batch). A name that is not ordered — one a
    /// rolled-back tail named twice — is left as it is.
    pub(crate) fn unorder(&mut self, name: Digest, body: SignedRequest) {
        if self.ordered.remove(&name) {
            self.store(name, body, true);
        }
    }

    /// Drop every signature fact: the active configuration, and with it a
    /// member key, changed.
    pub(crate) fn forget_verified(&mut self) {
        self.verified.clear();
    }

    /// Count every queued name as verified, checked or not. Only a faulty
    /// primary does this (`Fault::ProposeUnverified`).
    pub(crate) fn trust_queued(&mut self) {
        self.verified.extend(self.queue.values().copied());
    }

    /// Record that `name`'s signature verified.
    pub(crate) fn note_verified(&mut self, name: Digest) {
        self.verified.insert(name);
    }

    /// Whether `name`'s signature is known to verify.
    pub(crate) fn is_verified(&self, name: &Digest) -> bool {
        self.verified.contains(name)
    }

    /// The pending body named `name`.
    pub(crate) fn body(&self, name: &Digest) -> Option<&SignedRequest> {
        self.pending.get(name).map(|p| &p.body)
    }

    /// Whether any orderable body waits.
    pub(crate) fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The first `n` queued names with their bodies, head first.
    pub(crate) fn head(&self, n: usize) -> impl Iterator<Item = (&Digest, &SignedRequest)> {
        self.queue.values().take(n).map(|name| (name, &self.pending[name].body))
    }

    /// Hold `body` as pending, queued at the head or the tail unless it
    /// is a system mark.
    fn store(&mut self, name: Digest, body: SignedRequest, at_head: bool) {
        let ticket = (!body.is_system()).then(|| {
            if at_head {
                self.head -= 1;
                self.head
            } else {
                self.tail += 1;
                self.tail
            }
        });
        if let Some(ticket) = ticket {
            self.queue.insert(ticket, name);
        }
        self.pending.insert(name, Pending { ticket, body });
    }
}

#[cfg(test)]
impl RequestPool {
    /// Panics unless the pool's two conditions hold: the queue names
    /// exactly the orderable pending bodies, each under its own ticket, and
    /// no pending body is ordered.
    pub(crate) fn check(&self) {
        let stale = self
            .queue
            .iter()
            .filter(|(t, name)| self.pending.get(*name).and_then(|p| p.ticket) != Some(**t));
        assert_eq!(stale.count(), 0, "queued names whose body is not pending under that ticket");
        for (name, p) in &self.pending {
            assert_eq!(p.ticket.is_none(), p.body.is_system(), "queued iff orderable");
            assert!(!self.ordered.contains(name), "a pending body is ordered");
        }
        let queued = self.pending.values().filter(|p| p.ticket.is_some()).count();
        assert_eq!(queued, self.queue.len(), "an orderable pending body is not queued");
    }

    /// Whether `name` is in this replica's ledger.
    pub(crate) fn is_ordered(&self, name: &Digest) -> bool {
        self.ordered.contains(name)
    }

    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn ordered_len(&self) -> usize {
        self.ordered.len()
    }

    pub(crate) fn verified_len(&self) -> usize {
        self.verified.len()
    }

    /// Signature facts held for ordered names (none should be).
    pub(crate) fn verified_ordered(&self) -> usize {
        self.verified.intersection(&self.ordered).count()
    }

    pub(crate) fn ordered(&self) -> impl Iterator<Item = &Digest> {
        self.ordered.iter()
    }
}

#[cfg(test)]
mod tests {
    use ia_ccf_types::{
        ClientId, Digest, KeyPair, LedgerIdx, ProcId, Request, RequestAction, SeqNum,
        SignedRequest, SystemOp,
    };

    use super::RequestPool;

    fn request(req_id: u64, min_index: u64) -> SignedRequest {
        let request = Request {
            action: RequestAction::App { proc: ProcId(0), args: Vec::new() },
            client: ClientId(1),
            gt_hash: Digest::zero(),
            min_index: LedgerIdx(min_index),
            req_id,
        };
        SignedRequest::sign(request, &KeyPair::from_label("client"))
    }

    fn mark() -> SignedRequest {
        let op = SystemOp::CheckpointMark {
            checkpoint_seq: SeqNum(10),
            kv_digest: Digest::zero(),
            tree_root: Digest::zero(),
        };
        SignedRequest::system(op, Digest::zero())
    }

    /// The names the queue holds, head first.
    fn queued(pool: &RequestPool) -> Vec<Digest> {
        pool.head(usize::MAX).map(|(name, _)| *name).collect()
    }

    fn admitted(pool: &mut RequestPool, n: u64) -> Vec<Digest> {
        (1..=n)
            .map(|id| {
                let req = request(id, 0);
                pool.admit(req.clone());
                req.digest()
            })
            .collect()
    }

    #[test]
    fn put_back_restores_head_order() {
        let mut pool = RequestPool::default();
        let names = admitted(&mut pool, 5);
        let (taken, bodies) = pool.take_batch(3, 1);
        assert_eq!(taken, names[..3]);
        assert_eq!(queued(&pool), names[3..]);
        pool.put_back(taken, bodies);
        assert_eq!(queued(&pool), names);
        assert_eq!(pool.take_batch(5, 1).0, names);
        pool.check();
    }

    #[test]
    fn a_deferred_request_keeps_its_place_at_the_head() {
        let mut pool = RequestPool::default();
        let late = request(1, 3);
        pool.admit(late.clone());
        let names = admitted(&mut pool, 2);
        // Indices 1 and 2 go to the two others; the third slot meets index 3.
        assert_eq!(pool.take_batch(2, 1).0, names);
        assert_eq!(queued(&pool), [late.digest()]);
        assert_eq!(pool.take_batch(2, 3).0, [late.digest()]);
        pool.check();
    }

    #[test]
    fn admitting_an_ordered_name_is_a_no_op() {
        let mut pool = RequestPool::default();
        let req = request(1, 0);
        pool.admit(req.clone());
        let (names, _) = pool.take_batch(1, 1);
        pool.appended(&names);
        pool.admit(req.clone());
        assert!(!pool.has_queued());
        assert!(pool.body(&req.digest()).is_none());
        assert!(pool.is_ordered(&req.digest()));
        pool.check();
    }

    #[test]
    fn a_system_body_is_stored_but_never_queued() {
        let mut pool = RequestPool::default();
        let mark = mark();
        pool.admit(mark.clone());
        assert_eq!(pool.body(&mark.digest()), Some(&mark));
        assert!(!pool.has_queued());
        assert!(pool.take_batch(10, 1).0.is_empty());
        // Handed back or rolled back, it is stored, still unqueued.
        let name = mark.digest();
        pool.take(&name);
        pool.put_back(vec![name], vec![mark.clone()]);
        assert!(pool.body(&name).is_some() && !pool.has_queued());
        pool.appended(&[name]);
        pool.unorder(name, mark);
        assert!(pool.body(&name).is_some() && !pool.has_queued());
        pool.check();
    }

    #[test]
    fn unorder_requeues_at_the_head_and_clears_the_dedupe_entry() {
        let mut pool = RequestPool::default();
        let names = admitted(&mut pool, 3);
        let (first, mut bodies) = pool.take_batch(1, 1);
        pool.appended(&first);
        assert!(pool.is_ordered(&first[0]));
        pool.unorder(first[0], bodies.remove(0));
        assert!(!pool.is_ordered(&first[0]));
        assert_eq!(queued(&pool), names);
        // A second unorder of the same name (a tail naming it twice) is
        // a no-op.
        let body = pool.body(&first[0]).cloned().expect("pending");
        pool.unorder(first[0], body);
        assert_eq!(queued(&pool), names);
        pool.check();
    }

    #[test]
    fn appended_takes_a_name_from_anywhere_in_the_queue() {
        let mut pool = RequestPool::default();
        let names = admitted(&mut pool, 3);
        pool.appended(&names[1..2]);
        assert_eq!(queued(&pool), [names[0], names[2]]);
        assert!(pool.body(&names[1]).is_none());
        pool.check();
    }

    #[test]
    fn forget_verified_empties_only_the_facts() {
        let mut pool = RequestPool::default();
        let names = admitted(&mut pool, 2);
        pool.note_verified(names[0]);
        let (first, _) = pool.take_batch(1, 1);
        pool.appended(&first);
        pool.note_verified(names[1]);
        pool.forget_verified();
        assert!(!pool.is_verified(&names[1]));
        assert_eq!(pool.verified_len(), 0);
        assert_eq!(queued(&pool), [names[1]]);
        assert!(pool.is_ordered(&names[0]));
        assert_eq!(pool.pending_len(), 1);
        pool.check();
    }
}
