#![cfg(test)]
//! Four replicas on a FIFO bus, just enough of a cluster to commit
//! batches and change views inside this crate's tests.

use std::collections::VecDeque;
use std::sync::Arc;

use ia_ccf_types::config::testutil::test_config;
use ia_ccf_types::{
    ClientId, KeyPair, LedgerIdx, ProtocolMsg, ReplicaId, Request, RequestAction, SeqNum,
    SignedRequest,
};

use crate::app::CounterApp;
use crate::events::{Input, NodeId, Output};
use crate::params::ProtocolParams;
use crate::replica::Replica;

/// The bus's one client.
pub(crate) const CLIENT: ClientId = ClientId(1000);

pub(crate) struct Bus {
    pub replicas: Vec<Replica>,
    queue: VecDeque<(ReplicaId, NodeId, ProtocolMsg)>,
    pub crashed: Option<ReplicaId>,
    /// Drops every message `(to, from, msg)` it returns `true` for.
    pub drop_if: Option<fn(ReplicaId, NodeId, &ProtocolMsg) -> bool>,
    /// Run on a replica after each input it handles.
    pub check: Option<fn(&Replica)>,
    pub client_key: KeyPair,
    next_req_id: u64,
}

/// A `drop_if` that loses every commit: batches prepare but never commit.
pub(crate) fn commits(_: ReplicaId, _: NodeId, msg: &ProtocolMsg) -> bool {
    matches!(msg, ProtocolMsg::Commit(_))
}

impl Bus {
    pub fn new(batch_max: usize) -> Bus {
        Bus::with_params(ProtocolParams {
            batch_max,
            view_timeout_ticks: 8,
            pool_threads: 1,
            ..ProtocolParams::default()
        })
    }

    pub fn with_params(params: ProtocolParams) -> Bus {
        let (genesis, replica_keys, _) = test_config(4);
        let client_key = KeyPair::from_label("client-0");
        let replicas = replica_keys
            .into_iter()
            .enumerate()
            .map(|(rank, key)| {
                Replica::new(
                    ReplicaId(rank as u32),
                    key,
                    genesis.clone(),
                    Arc::new(CounterApp),
                    params.clone(),
                    [(CLIENT, client_key.public())],
                )
                .expect("build replica")
            })
            .collect();
        Bus {
            replicas,
            queue: VecDeque::new(),
            crashed: None,
            drop_if: None,
            check: None,
            client_key,
            next_req_id: 1,
        }
    }

    /// A fresh replica 3 under the bus's genesis and client, with
    /// `params` — one that replays what the bus committed.
    pub fn spare(&self, params: ProtocolParams) -> Replica {
        let (genesis, mut replica_keys, _) = test_config(4);
        Replica::new(
            ReplicaId(3),
            replica_keys.remove(3),
            genesis,
            Arc::new(CounterApp),
            params,
            [(CLIENT, self.client_key.public())],
        )
        .expect("build replica")
    }

    /// Sign and send the next counter increment; returns it.
    pub fn submit(&mut self) -> SignedRequest {
        let request = SignedRequest::sign(
            Request {
                action: RequestAction::App {
                    proc: CounterApp::INCR,
                    args: format!("k{}", self.next_req_id % 3).into_bytes(),
                },
                client: CLIENT,
                gt_hash: self.replicas[0].gt_hash(),
                min_index: LedgerIdx(0),
                req_id: self.next_req_id,
            },
            &self.client_key,
        );
        self.next_req_id += 1;
        self.submit_request(CLIENT, request.clone());
        request
    }

    /// Send `request` from `client` to every replica.
    pub fn submit_request(&mut self, client: ClientId, request: SignedRequest) {
        for to in 0..4 {
            let msg = ProtocolMsg::Request(request.clone());
            self.queue.push_back((ReplicaId(to), NodeId::Client(client), msg));
        }
    }

    /// Feed `input` to replica `to`, run the check on it, and return its
    /// outputs.
    fn deliver(&mut self, to: ReplicaId, input: Input) -> Vec<Output> {
        let replica = &mut self.replicas[to.0 as usize];
        let outputs = replica.handle(input);
        if let Some(check) = self.check {
            check(replica);
        }
        outputs
    }

    pub fn route(&mut self, from: ReplicaId, outputs: Vec<Output>) {
        for out in outputs {
            match out {
                Output::SendReplica(to, msg) => {
                    self.queue.push_back((to, NodeId::Replica(from), msg));
                }
                Output::BroadcastReplicas(msg) => {
                    for to in (0..4).map(ReplicaId).filter(|to| *to != from) {
                        self.queue.push_back((to, NodeId::Replica(from), msg.clone()));
                    }
                }
                _ => {}
            }
        }
    }

    fn drain(&mut self) {
        let crashed = self.crashed;
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let from_crashed = matches!(from, NodeId::Replica(r) if crashed == Some(r));
            if crashed == Some(to) || from_crashed {
                continue;
            }
            if self.drop_if.is_some_and(|drop| drop(to, from, &msg)) {
                continue;
            }
            let outputs = self.deliver(to, Input::Message { from, msg });
            self.route(to, outputs);
        }
    }

    /// Deliver to quiescence, tick every live replica, deliver again.
    pub fn round(&mut self) {
        self.drain();
        let crashed = self.crashed;
        for id in (0..4).map(ReplicaId).filter(|id| crashed != Some(*id)) {
            let outputs = self.deliver(id, Input::Tick);
            self.route(id, outputs);
        }
        self.drain();
    }

    pub fn live(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().filter(|r| self.crashed != Some(r.id()))
    }

    pub fn run_until_committed(&mut self, seq: SeqNum) {
        for _ in 0..200 {
            if self.live().all(|r| r.committed_up_to() >= seq) {
                return;
            }
            self.round();
        }
        panic!("batch {seq:?} did not commit on every live replica");
    }
}
