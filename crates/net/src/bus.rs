//! A threaded in-memory message bus with latency injection.
//!
//! Nodes register under a numeric address and get a [`BusEndpoint`]: a
//! receiver of [`Envelope`]s plus a handle for sending. The bus stamps the
//! true sender on every envelope — the transport-level authentication the
//! protocol assumes (§3.4 "All messages are sent over encrypted and
//! authenticated connections").
//!
//! With a non-zero [`LatencyModel`], envelopes pass through a delay wheel
//! thread that releases them after the model's one-way delay, preserving
//! per-link FIFO order (equal delays, monotonic release).

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::latency::LatencyModel;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// Authenticated sender address.
    pub from: u64,
    /// Destination address.
    pub to: u64,
    /// Payload.
    pub msg: T,
}

struct DelayedEnvelope<T> {
    release_at: Instant,
    seq: u64,
    envelope: Envelope<T>,
}

impl<T> PartialEq for DelayedEnvelope<T> {
    fn eq(&self, other: &Self) -> bool {
        self.release_at == other.release_at && self.seq == other.seq
    }
}
impl<T> Eq for DelayedEnvelope<T> {}
impl<T> PartialOrd for DelayedEnvelope<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for DelayedEnvelope<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (release_at, seq).
        other.release_at.cmp(&self.release_at).then(other.seq.cmp(&self.seq))
    }
}

struct BusInner<T> {
    nodes: RwLock<HashMap<u64, Sender<Envelope<T>>>>,
    latency: LatencyModel,
    delay_tx: Mutex<Option<Sender<DelayedEnvelope<T>>>>,
    seq: Mutex<u64>,
}

/// The shared bus.
pub struct Bus<T> {
    inner: Arc<BusInner<T>>,
}

impl<T> Clone for Bus<T> {
    fn clone(&self) -> Self {
        Bus { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Send + 'static> Bus<T> {
    /// A bus with the given latency model. Non-zero latency spawns the
    /// delay-wheel thread lazily on first send.
    pub fn new(latency: LatencyModel) -> Self {
        Bus {
            inner: Arc::new(BusInner {
                nodes: RwLock::new(HashMap::new()),
                latency,
                delay_tx: Mutex::new(None),
                seq: Mutex::new(0),
            }),
        }
    }

    /// Register a node; returns its endpoint.
    pub fn register(&self, address: u64) -> BusEndpoint<T> {
        let (tx, rx) = unbounded();
        self.inner.nodes.write().insert(address, tx);
        BusEndpoint { bus: self.clone(), address, rx }
    }

    /// Send `msg` from `from` to `to`, applying the latency model.
    pub fn send(&self, from: u64, to: u64, msg: T) {
        let envelope = Envelope { from, to, msg };
        let delay = self.inner.latency.one_way();
        if delay.is_zero() {
            self.deliver(envelope);
            return;
        }
        let mut guard = self.inner.delay_tx.lock();
        if guard.is_none() {
            *guard = Some(self.spawn_delay_wheel());
        }
        let seq = {
            let mut s = self.inner.seq.lock();
            *s += 1;
            *s
        };
        let _ = guard.as_ref().expect("spawned").send(DelayedEnvelope {
            release_at: Instant::now() + delay,
            seq,
            envelope,
        });
    }

    fn deliver(&self, envelope: Envelope<T>) {
        if let Some(tx) = self.inner.nodes.read().get(&envelope.to) {
            let _ = tx.send(envelope);
        }
    }

    fn spawn_delay_wheel(&self) -> Sender<DelayedEnvelope<T>> {
        let (tx, rx) = unbounded::<DelayedEnvelope<T>>();
        let bus = self.clone();
        std::thread::Builder::new()
            .name("bus-delay-wheel".into())
            .spawn(move || {
                let mut heap: BinaryHeap<DelayedEnvelope<T>> = BinaryHeap::new();
                loop {
                    let now = Instant::now();
                    // Release everything due.
                    while heap.peek().is_some_and(|d| d.release_at <= now) {
                        let due = heap.pop().expect("peeked");
                        bus.deliver(due.envelope);
                    }
                    let timeout = heap
                        .peek()
                        .map(|d| d.release_at.saturating_duration_since(now))
                        .unwrap_or(Duration::from_millis(5));
                    match rx.recv_timeout(timeout) {
                        Ok(d) => heap.push(d),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            // Drain the heap then exit.
                            while let Some(d) = heap.pop() {
                                std::thread::sleep(
                                    d.release_at.saturating_duration_since(Instant::now()),
                                );
                                bus.deliver(d.envelope);
                            }
                            return;
                        }
                    }
                }
            })
            .expect("spawn delay wheel");
        tx
    }
}

/// One node's handle on the bus.
pub struct BusEndpoint<T> {
    bus: Bus<T>,
    address: u64,
    /// Incoming envelopes.
    pub rx: Receiver<Envelope<T>>,
}

impl<T: Send + Clone + 'static> BusEndpoint<T> {
    /// This endpoint's address.
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Send to one peer.
    pub fn send(&self, to: u64, msg: T) {
        self.bus.send(self.address, to, msg);
    }

    /// Send to every listed peer (excluding self).
    pub fn send_many(&self, to: impl IntoIterator<Item = u64>, msg: T) {
        for peer in to {
            if peer != self.address {
                self.bus.send(self.address, peer, msg.clone());
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<T>> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<T>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_delivers_immediately() {
        let bus: Bus<u32> = Bus::new(LatencyModel::Zero);
        let a = bus.register(1);
        let b = bus.register(2);
        a.send(2, 42);
        let env = b.try_recv().expect("delivered");
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, 42);
    }

    #[test]
    fn sender_is_stamped_not_claimed() {
        // The sender address comes from the endpoint, so a node cannot
        // impersonate another — the authenticated-channel property.
        let bus: Bus<u32> = Bus::new(LatencyModel::Zero);
        let a = bus.register(7);
        let b = bus.register(8);
        a.send(8, 1);
        assert_eq!(b.try_recv().unwrap().from, 7);
    }

    #[test]
    fn latency_delays_delivery() {
        let bus: Bus<u32> = Bus::new(LatencyModel::FixedMicros(20_000));
        let a = bus.register(1);
        let b = bus.register(2);
        let t0 = Instant::now();
        a.send(2, 1);
        assert!(b.try_recv().is_none(), "must not arrive immediately");
        let env = b.recv_timeout(Duration::from_millis(500)).expect("arrives");
        assert!(t0.elapsed() >= Duration::from_millis(18), "elapsed {:?}", t0.elapsed());
        assert_eq!(env.msg, 1);
    }

    #[test]
    fn fifo_per_link_under_latency() {
        let bus: Bus<u32> = Bus::new(LatencyModel::FixedMicros(5_000));
        let a = bus.register(1);
        let b = bus.register(2);
        for i in 0..20 {
            a.send(2, i);
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(b.recv_timeout(Duration::from_millis(500)).expect("arrives").msg);
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn send_many_skips_self() {
        let bus: Bus<u32> = Bus::new(LatencyModel::Zero);
        let a = bus.register(1);
        let b = bus.register(2);
        let c = bus.register(3);
        a.send_many([1, 2, 3], 9);
        assert_eq!(b.try_recv().unwrap().msg, 9);
        assert_eq!(c.try_recv().unwrap().msg, 9);
        assert!(a.try_recv().is_none());
    }
}
