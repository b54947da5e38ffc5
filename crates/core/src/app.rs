//! Application (stored procedure) interface.
//!
//! §2: "Clients send requests to execute transactions by calling stored
//! procedures that define the service logic." Procedures are deterministic
//! functions of the key-value store and the request — determinism is what
//! makes ledger replay (§4.1) meaningful. All service state lives in the
//! store; the [`App`] itself is stateless and shared by replicas and the
//! auditor (our substitution for retrieving procedure code from
//! checkpoints).
//!
//! Procedures run against a [`KvAccess`] view rather than a concrete
//! store: replicas hand out their sharded store (serial lane), a
//! speculative group view (parallel execution of conflict-free batches),
//! the auditor a one-shard store (replay) — the procedure cannot tell the
//! difference, which is exactly the property the differential sharding
//! harness (`tests/sharded_execution.rs`) checks.
//!
//! [`App::key_hints`] pre-declares a request's key footprint so the
//! execution stage can partition a batch into conflict-free groups.
//! Returning `None` (the default) routes the request to the serial
//! fallback lane — always correct, never parallel. Returning `Some(keys)`
//! is a **promise** that the procedure touches only those keys; the
//! speculative view enforces it and panics on violation (a wrong hint must
//! fail loudly, not let replicas diverge).

use ia_ccf_kv::{Key, KvAccess};
use ia_ccf_types::{ClientId, ProcId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An application-level execution failure. Failed transactions are still
/// ordered and logged (with `ok = false`); they simply don't change state —
/// the replica rolls the transaction back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppError(pub String);

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app error: {}", self.0)
    }
}

impl std::error::Error for AppError {}

/// A deterministic stored-procedure implementation.
pub trait App: Send + Sync {
    /// Execute procedure `proc` with `args` for `client` against `kv`.
    /// Runs inside an open transaction; the replica commits on `Ok` and
    /// rolls back on `Err`. Must be deterministic.
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        client: ClientId,
    ) -> Result<Vec<u8>, AppError>;

    /// The set of keys `execute` may touch (reads *and* writes) for this
    /// call, or `None` if unknown. `None` routes the request to the serial
    /// execution lane; `Some` admits it to sharded parallel execution.
    /// Must be a sound over-approximation — see the module docs.
    fn key_hints(&self, _proc: ProcId, _args: &[u8], _client: ClientId) -> Option<Vec<Key>> {
        None
    }
}

/// An app that rejects every call. Useful as a default and for testing
/// protocol paths without service logic.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApp;

impl App for NullApp {
    fn execute(
        &self,
        _kv: &mut dyn KvAccess,
        proc: ProcId,
        _args: &[u8],
        _client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        Err(AppError(format!("no procedure {proc:?}")))
    }
    // Deliberately no `key_hints`: NullApp exercises the serial fallback
    // lane for apps that do not declare footprints.
}

/// Dispatches procedure ids to registered apps, so a service can combine
/// several procedure families (e.g. SmallBank plus a no-op procedure for
/// empty-request benchmarks).
#[derive(Default, Clone)]
pub struct AppRegistry {
    routes: BTreeMap<u16, Arc<dyn App>>,
}

impl AppRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `app` for procedure ids `procs`.
    pub fn register(&mut self, procs: impl IntoIterator<Item = ProcId>, app: Arc<dyn App>) {
        for p in procs {
            self.routes.insert(p.0, Arc::clone(&app));
        }
    }

    /// Registry with a single app handling every procedure id routed to it.
    pub fn single(procs: impl IntoIterator<Item = ProcId>, app: Arc<dyn App>) -> Self {
        let mut r = Self::new();
        r.register(procs, app);
        r
    }
}

impl App for AppRegistry {
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        match self.routes.get(&proc.0) {
            Some(app) => app.execute(kv, proc, args, client),
            None => Err(AppError(format!("no procedure {proc:?}"))),
        }
    }

    fn key_hints(&self, proc: ProcId, args: &[u8], client: ClientId) -> Option<Vec<Key>> {
        match self.routes.get(&proc.0) {
            Some(app) => app.key_hints(proc, args, client),
            // An unknown procedure errors without touching the store.
            None => Some(Vec::new()),
        }
    }
}

/// A trivial counter app used by unit tests: `proc 1` increments the key
/// given in args and returns the new value; `proc 2` reads it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CounterApp;

impl CounterApp {
    /// Increment procedure id.
    pub const INCR: ProcId = ProcId(1);
    /// Read procedure id.
    pub const READ: ProcId = ProcId(2);
}

impl App for CounterApp {
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        _client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        let key = args.to_vec();
        let current = kv
            .get(&key)
            .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap_or([0; 8])))
            .unwrap_or(0);
        match proc {
            Self::INCR => {
                let next = current + 1;
                kv.put(key, next.to_le_bytes().to_vec())
                    .map_err(|e| AppError(e.to_string()))?;
                Ok(next.to_le_bytes().to_vec())
            }
            Self::READ => Ok(current.to_le_bytes().to_vec()),
            other => Err(AppError(format!("counter: unknown proc {other:?}"))),
        }
    }

    fn key_hints(&self, _proc: ProcId, args: &[u8], _client: ClientId) -> Option<Vec<Key>> {
        // Every counter procedure touches exactly the key named by args.
        Some(vec![args.to_vec()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_kv::KvStore;

    #[test]
    fn counter_app_increments_and_reads() {
        let mut kv = KvStore::new();
        let app = CounterApp;
        kv.begin_tx().unwrap();
        let v = app.execute(&mut kv, CounterApp::INCR, b"k", ClientId(1)).unwrap();
        assert_eq!(v, 1u64.to_le_bytes());
        let v = app.execute(&mut kv, CounterApp::INCR, b"k", ClientId(1)).unwrap();
        assert_eq!(v, 2u64.to_le_bytes());
        let v = app.execute(&mut kv, CounterApp::READ, b"k", ClientId(1)).unwrap();
        assert_eq!(v, 2u64.to_le_bytes());
        kv.commit_tx().unwrap();
    }

    #[test]
    fn registry_routes_by_proc() {
        let mut reg = AppRegistry::new();
        reg.register([CounterApp::INCR, CounterApp::READ], Arc::new(CounterApp));
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        assert!(reg.execute(&mut kv, CounterApp::INCR, b"x", ClientId(1)).is_ok());
        assert!(reg.execute(&mut kv, ProcId(99), b"x", ClientId(1)).is_err());
        kv.commit_tx().unwrap();
    }

    #[test]
    fn registry_routes_key_hints() {
        let mut reg = AppRegistry::new();
        reg.register([CounterApp::INCR], Arc::new(CounterApp));
        assert_eq!(
            reg.key_hints(CounterApp::INCR, b"x", ClientId(1)),
            Some(vec![b"x".to_vec()])
        );
        // Unknown procedures error without store access: empty footprint.
        assert_eq!(reg.key_hints(ProcId(99), b"x", ClientId(1)), Some(Vec::new()));
    }

    #[test]
    fn null_app_rejects_and_stays_serial() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        assert!(NullApp.execute(&mut kv, ProcId(1), b"", ClientId(1)).is_err());
        kv.commit_tx().unwrap();
        assert_eq!(NullApp.key_hints(ProcId(1), b"", ClientId(1)), None);
    }
}
