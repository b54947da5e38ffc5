//! The SmallBank benchmark (§6) and a simple bank app for the audit
//! examples.
//!
//! "We use the SmallBank benchmark, which models a bank with 500K customer
//! accounts. Clients randomly execute 5 transaction types: deposit,
//! transfer, and withdraw funds; check account balances; and amalgamate
//! accounts." Each account has a checking and a savings balance; the five
//! procedures below match the classic SmallBank operations under the
//! paper's names.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use ia_ccf_core::app::{App, AppError};
use ia_ccf_kv::KvAccess;
use ia_ccf_types::{ClientId, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deposit into savings (`TransactSavings`).
pub const DEPOSIT: ProcId = ProcId(10);
/// Transfer between accounts (`SendPayment`, checking → checking).
pub const TRANSFER: ProcId = ProcId(11);
/// Withdraw from checking (`WriteCheck`).
pub const WITHDRAW: ProcId = ProcId(12);
/// Read both balances (`Balance`).
pub const BALANCE: ProcId = ProcId(13);
/// Move savings+checking of one account into another (`Amalgamate`).
pub const AMALGAMATE: ProcId = ProcId(14);
/// Bulk load: create `accounts` accounts holding `initial` in both
/// balances. Arguments: `accounts: u64 LE, initial: i64 LE`; the output is
/// `accounts`, LE. Initial state is a ledger fact like any other — a
/// service loads its accounts with the ledger's first transaction
/// ([`load_accounts`]), so replay from genesis and audit start, as they
/// must, from the empty store.
pub const LOAD_ACCOUNTS: ProcId = ProcId(20);

/// An account's balances, stored as the value under the account key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Balances {
    /// Checking balance, cents.
    pub checking: i64,
    /// Savings balance, cents.
    pub savings: i64,
}

impl Balances {
    /// Serialize.
    pub fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.checking.to_le_bytes());
        out.extend_from_slice(&self.savings.to_le_bytes());
        out
    }

    /// Deserialize (missing/short values read as zero).
    pub fn from_bytes(bytes: &[u8]) -> Balances {
        let Some((checking, rest)) = bytes.split_first_chunk::<8>() else {
            return Balances::default();
        };
        let Some(savings) = rest.first_chunk::<8>() else {
            return Balances::default();
        };
        Balances { checking: i64::from_le_bytes(*checking), savings: i64::from_le_bytes(*savings) }
    }
}

/// Key for an account id: `'a' ‖ id` (little-endian).
pub fn account_key(account: u64) -> Vec<u8> {
    account_key_bytes(account).to_vec()
}

/// [`account_key`] on the stack, so a read allocates nothing.
fn account_key_bytes(account: u64) -> [u8; 9] {
    let mut k = [b'a'; 9];
    k[1..].copy_from_slice(&account.to_le_bytes());
    k
}

fn read_account(kv: &dyn KvAccess, account: u64) -> Balances {
    kv.get(&account_key_bytes(account)).map(|v| Balances::from_bytes(v)).unwrap_or_default()
}

fn write_account(kv: &mut dyn KvAccess, account: u64, b: Balances) -> Result<(), AppError> {
    kv.put(account_key(account), b.to_bytes()).map_err(|e| AppError(e.to_string()))
}

fn arg_u64(args: &[u8], at: usize) -> Result<u64, AppError> {
    args.get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| AppError("short args".into()))
}

fn arg_i64(args: &[u8], at: usize) -> Result<i64, AppError> {
    args.get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map(i64::from_le_bytes)
        .ok_or_else(|| AppError("short args".into()))
}

/// The SmallBank stored procedures.
#[derive(Debug, Default, Clone, Copy)]
pub struct SmallBankApp;

impl App for SmallBankApp {
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        _client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        match proc {
            DEPOSIT => {
                let account = arg_u64(args, 0)?;
                let amount = arg_i64(args, 8)?;
                if amount < 0 {
                    return Err(AppError("negative deposit".into()));
                }
                let mut b = read_account(kv, account);
                b.savings += amount;
                write_account(kv, account, b)?;
                Ok(b.savings.to_le_bytes().to_vec())
            }
            TRANSFER => {
                let from = arg_u64(args, 0)?;
                let to = arg_u64(args, 8)?;
                let amount = arg_i64(args, 16)?;
                if amount < 0 {
                    return Err(AppError("negative transfer".into()));
                }
                if from == to {
                    return Err(AppError("self transfer".into()));
                }
                let mut fb = read_account(kv, from);
                if fb.checking < amount {
                    return Err(AppError("insufficient funds".into()));
                }
                let mut tb = read_account(kv, to);
                fb.checking -= amount;
                tb.checking += amount;
                write_account(kv, from, fb)?;
                write_account(kv, to, tb)?;
                Ok(fb.checking.to_le_bytes().to_vec())
            }
            WITHDRAW => {
                let account = arg_u64(args, 0)?;
                let amount = arg_i64(args, 8)?;
                if amount < 0 {
                    return Err(AppError("negative withdrawal".into()));
                }
                let mut b = read_account(kv, account);
                // SmallBank's WriteCheck allows overdraft with a penalty.
                let penalty = if b.checking < amount { 100 } else { 0 };
                b.checking -= amount + penalty;
                write_account(kv, account, b)?;
                Ok(b.checking.to_le_bytes().to_vec())
            }
            BALANCE => {
                let account = arg_u64(args, 0)?;
                let b = read_account(kv, account);
                Ok(b.to_bytes())
            }
            AMALGAMATE => {
                let from = arg_u64(args, 0)?;
                let to = arg_u64(args, 8)?;
                if from == to {
                    return Err(AppError("self amalgamate".into()));
                }
                let fb = read_account(kv, from);
                let mut tb = read_account(kv, to);
                tb.checking += fb.checking + fb.savings;
                write_account(kv, from, Balances::default())?;
                write_account(kv, to, tb)?;
                Ok(tb.checking.to_le_bytes().to_vec())
            }
            LOAD_ACCOUNTS => {
                let accounts = arg_u64(args, 0)?;
                let initial = arg_i64(args, 8)?;
                let opening = Balances { checking: initial, savings: initial };
                for a in 0..accounts {
                    write_account(kv, a, opening)?;
                }
                Ok(accounts.to_le_bytes().to_vec())
            }
            other => Err(AppError(format!("smallbank: unknown proc {other:?}"))),
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadOp {
    /// Stored procedure to call.
    pub proc: ProcId,
    /// Serialized arguments.
    pub args: Vec<u8>,
}

/// The bulk-load request for `accounts` accounts at `initial` each.
pub fn load_accounts(accounts: u64, initial: i64) -> WorkloadOp {
    WorkloadOp {
        proc: LOAD_ACCOUNTS,
        args: [accounts.to_le_bytes(), initial.to_le_bytes()].concat(),
    }
}

/// Size of the hot account set conflict-skewed workloads draw from.
pub const HOT_ACCOUNTS: u64 = 4;

/// The SmallBank request mix: uniform choice over the five types (§6).
/// Accounts are drawn uniformly, or — with a conflict-skew knob — from a
/// small hot set with probability `skew_pct`%, so transactions contend for
/// the same accounts anywhere from never (0%) to always (100%).
pub struct Workload {
    rng: StdRng,
    accounts: u64,
    skew_pct: u8,
    hot: u64,
}

impl Workload {
    /// A deterministic uniform workload over `accounts` accounts.
    /// Byte-identical to the pre-skew generator (skew 0 consumes no extra
    /// randomness).
    pub fn new(accounts: u64, seed: u64) -> Self {
        Self::with_skew(accounts, seed, 0)
    }

    /// A workload where each account draw hits the hot set
    /// ([`HOT_ACCOUNTS`]) with probability `skew_pct`% (0–100).
    pub fn with_skew(accounts: u64, seed: u64, skew_pct: u8) -> Self {
        assert!(skew_pct <= 100, "skew is a percentage");
        Workload {
            rng: StdRng::seed_from_u64(seed),
            accounts,
            skew_pct,
            hot: accounts.clamp(1, HOT_ACCOUNTS),
        }
    }

    fn pick_account(&mut self) -> u64 {
        if self.skew_pct > 0 && self.rng.gen_range(0..100u8) < self.skew_pct {
            self.rng.gen_range(0..self.hot)
        } else {
            self.rng.gen_range(0..self.accounts)
        }
    }

    /// A counterparty distinct from `from` (transfer/amalgamate target).
    fn pick_counterparty(&mut self, from: u64) -> u64 {
        if self.skew_pct > 0 && self.hot > 1 && self.rng.gen_range(0..100u8) < self.skew_pct {
            let to = self.rng.gen_range(0..self.hot);
            if to == from {
                (to + 1) % self.hot
            } else {
                to
            }
        } else {
            (from + 1 + self.rng.gen_range(0..self.accounts - 1)) % self.accounts
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> WorkloadOp {
        let account = self.pick_account();
        let amount: i64 = self.rng.gen_range(1..100);
        match self.rng.gen_range(0..5u8) {
            0 => WorkloadOp {
                proc: DEPOSIT,
                args: [account.to_le_bytes(), amount.to_le_bytes()].concat(),
            },
            1 => {
                let to = self.pick_counterparty(account);
                WorkloadOp {
                    proc: TRANSFER,
                    args: [account.to_le_bytes(), to.to_le_bytes(), amount.to_le_bytes()]
                        .concat(),
                }
            }
            2 => WorkloadOp {
                proc: WITHDRAW,
                args: [account.to_le_bytes(), amount.to_le_bytes()].concat(),
            },
            3 => WorkloadOp { proc: BALANCE, args: account.to_le_bytes().to_vec() },
            _ => {
                let to = self.pick_counterparty(account);
                WorkloadOp {
                    proc: AMALGAMATE,
                    args: [account.to_le_bytes(), to.to_le_bytes()].concat(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_kv::KvStore;

    fn bank(accounts: u64) -> KvStore {
        let mut kv = KvStore::new();
        let load = load_accounts(accounts, 1000);
        exec(&mut kv, load.proc, &load.args).unwrap();
        kv
    }

    fn exec(kv: &mut KvStore, proc: ProcId, args: &[u8]) -> Result<Vec<u8>, AppError> {
        kv.begin_tx().unwrap();
        let r = SmallBankApp.execute(kv, proc, args, ClientId(1));
        match &r {
            Ok(_) => {
                kv.commit_tx().unwrap();
            }
            Err(_) => {
                kv.abort_tx().unwrap();
            }
        }
        r
    }

    /// `benchmark/src/cluster.rs` loads its accounts through a wrapper
    /// that intercepts this procedure id; the native procedure must build
    /// the store that wrapper builds from the same argument bytes.
    #[test]
    fn load_accounts_builds_the_benchmark_wrappers_store() {
        // The benchmark's argument bytes: `accounts: u64 LE, initial: i64 LE`.
        let (accounts, initial) = (37u64, 10_000i64);
        let mut args = accounts.to_le_bytes().to_vec();
        args.extend_from_slice(&initial.to_le_bytes());
        assert_eq!(load_accounts(accounts, initial).args, args);

        let mut kv = KvStore::new();
        let out = exec(&mut kv, LOAD_ACCOUNTS, &args).unwrap();
        assert_eq!(out, accounts.to_le_bytes().to_vec());

        // The wrapper's body, verbatim: one put per account.
        let mut expected = KvStore::new();
        expected.begin_tx().unwrap();
        let opening = Balances { checking: initial, savings: initial }.to_bytes();
        for a in 0..accounts {
            expected.put(account_key(a), opening.clone()).unwrap();
        }
        expected.commit_tx().unwrap();
        assert_eq!(kv.len(), accounts as usize);
        assert_eq!(kv.digest(), expected.digest());

        // Short arguments fail before touching anything.
        let mut empty = KvStore::new();
        assert!(exec(&mut empty, LOAD_ACCOUNTS, &args[..15]).is_err());
        assert!(empty.is_empty());
    }

    #[test]
    fn deposit_increases_savings() {
        let mut kv = bank(2);
        let out =
            exec(&mut kv, DEPOSIT, &[0u64.to_le_bytes(), 250i64.to_le_bytes()].concat()).unwrap();
        assert_eq!(i64::from_le_bytes(out.try_into().unwrap()), 1250);
        assert_eq!(read_account(&kv, 0).savings, 1250);
        assert_eq!(read_account(&kv, 0).checking, 1000);
    }

    #[test]
    fn transfer_moves_checking_and_conserves_total() {
        let mut kv = bank(3);
        exec(
            &mut kv,
            TRANSFER,
            &[0u64.to_le_bytes(), 1u64.to_le_bytes(), 400i64.to_le_bytes()].concat(),
        )
        .unwrap();
        assert_eq!(read_account(&kv, 0).checking, 600);
        assert_eq!(read_account(&kv, 1).checking, 1400);
        let total: i64 = (0..3).map(|a| read_account(&kv, a).checking).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn transfer_insufficient_funds_fails_and_rolls_back() {
        let mut kv = bank(2);
        let err = exec(
            &mut kv,
            TRANSFER,
            &[0u64.to_le_bytes(), 1u64.to_le_bytes(), 5000i64.to_le_bytes()].concat(),
        )
        .unwrap_err();
        assert!(err.0.contains("insufficient"));
        assert_eq!(read_account(&kv, 0).checking, 1000);
        assert_eq!(read_account(&kv, 1).checking, 1000);
    }

    #[test]
    fn withdraw_overdraft_applies_penalty() {
        let mut kv = bank(1);
        exec(&mut kv, WITHDRAW, &[0u64.to_le_bytes(), 1200i64.to_le_bytes()].concat()).unwrap();
        assert_eq!(read_account(&kv, 0).checking, 1000 - 1200 - 100);
    }

    #[test]
    fn balance_reads_both() {
        let mut kv = bank(1);
        let out = exec(&mut kv, BALANCE, &0u64.to_le_bytes()).unwrap();
        let b = Balances::from_bytes(&out);
        assert_eq!(b, Balances { checking: 1000, savings: 1000 });
    }

    #[test]
    fn amalgamate_empties_source() {
        let mut kv = bank(2);
        exec(&mut kv, AMALGAMATE, &[0u64.to_le_bytes(), 1u64.to_le_bytes()].concat()).unwrap();
        assert_eq!(read_account(&kv, 0), Balances::default());
        assert_eq!(read_account(&kv, 1).checking, 1000 + 2000);
        assert_eq!(read_account(&kv, 1).savings, 1000);
    }

    #[test]
    fn self_operations_rejected() {
        let mut kv = bank(2);
        assert!(exec(
            &mut kv,
            TRANSFER,
            &[0u64.to_le_bytes(), 0u64.to_le_bytes(), 1i64.to_le_bytes()].concat()
        )
        .is_err());
        assert!(
            exec(&mut kv, AMALGAMATE, &[1u64.to_le_bytes(), 1u64.to_le_bytes()].concat()).is_err()
        );
    }

    #[test]
    fn workload_is_deterministic_and_varied() {
        let mut a = Workload::new(100, 42);
        let mut b = Workload::new(100, 42);
        let ops_a: Vec<WorkloadOp> = (0..50).map(|_| a.next_op()).collect();
        let ops_b: Vec<WorkloadOp> = (0..50).map(|_| b.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        let kinds: std::collections::HashSet<u16> = ops_a.iter().map(|o| o.proc.0).collect();
        assert!(kinds.len() >= 4, "mix covers most procedures: {kinds:?}");
    }

    #[test]
    fn workload_executes_cleanly_at_scale() {
        let mut kv = bank(50);
        let mut w = Workload::new(50, 7);
        let mut ok = 0;
        for _ in 0..500 {
            let op = w.next_op();
            if exec(&mut kv, op.proc, &op.args).is_ok() {
                ok += 1;
            }
        }
        // Most operations succeed (failures are insufficient-funds only).
        assert!(ok > 400, "ok = {ok}");
    }

    #[test]
    fn skewed_workload_concentrates_on_hot_accounts() {
        let mut hot = Workload::with_skew(10_000, 11, 100);
        for _ in 0..200 {
            let op = hot.next_op();
            let account = u64::from_le_bytes(op.args[..8].try_into().unwrap());
            assert!(account < HOT_ACCOUNTS, "skew 100 must stay in the hot set");
            if op.proc == TRANSFER || op.proc == AMALGAMATE {
                let to = u64::from_le_bytes(op.args[8..16].try_into().unwrap());
                assert!(to < HOT_ACCOUNTS);
                assert_ne!(to, account, "counterparty must differ");
            }
        }
        // skew 0 must reproduce the historical uniform stream exactly.
        let mut a = Workload::new(100, 42);
        let mut b = Workload::with_skew(100, 42, 0);
        for _ in 0..50 {
            assert_eq!(a.next_op(), b.next_op());
        }
        // Intermediate skew mixes hot and cold draws.
        let mut mid = Workload::with_skew(10_000, 13, 50);
        let accounts: Vec<u64> = (0..300)
            .map(|_| u64::from_le_bytes(mid.next_op().args[..8].try_into().unwrap()))
            .collect();
        assert!(accounts.iter().any(|a| *a < HOT_ACCOUNTS));
        assert!(accounts.iter().any(|a| *a >= HOT_ACCOUNTS));
    }

    #[test]
    fn balances_serialization_roundtrip() {
        let b = Balances { checking: -5, savings: i64::MAX };
        assert_eq!(Balances::from_bytes(&b.to_bytes()), b);
        assert_eq!(Balances::from_bytes(&[]), Balances::default());
    }
}
