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
//! store, so a procedure can only read and write inside the transaction
//! the executor opened for it.

use ia_ccf_kv::{Key, KvAccess};
use ia_ccf_types::{ClientId, ProcId};

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

    /// Read by nothing: execution is serial. `benchmark/` still
    /// implements it, and a product PR may not touch that directory, so it
    /// stays with its default body: removed by the next benchmark-only PR
    /// (ROADMAP item 8).
    #[doc(hidden)]
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
    fn null_app_rejects_and_stays_serial() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        assert!(NullApp.execute(&mut kv, ProcId(1), b"", ClientId(1)).is_err());
        kv.commit_tx().unwrap();
    }
}
