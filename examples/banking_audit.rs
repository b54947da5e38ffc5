//! The paper's introductory accountability story, end to end.
//!
//! Alice holds a receipt showing a deposit of $1M into Bob's account at
//! ledger index `i`. Bob later queries his balance and receives a receipt
//! at index `j > i` that does *not* show the money. Both receipts are
//! perfectly valid — a colluding quorum of replicas executed the balance
//! query dishonestly. Bob engages an auditor; the auditor obtains the
//! ledger through the enforcer, replays it, produces a universal
//! proof-of-misbehaviour, and the enforcer punishes the members operating
//! the lying replicas (§1, §4).
//!
//! ```sh
//! cargo run --release --example banking_audit
//! ```

use std::sync::Arc;

use ia_ccf::audit::{AuditOutcome, Auditor, Enforcer, LedgerPackage, StoredReceipt, UpomKind};
use ia_ccf::core::byzantine::TamperedApp;
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_smallbank::{Balances, SmallBankApp, BALANCE, DEPOSIT};
use ia_ccf_types::ReplicaId;

const BOB_ACCOUNT: u64 = 7;

fn main() {
    // --- A consortium whose replicas ALL run tampered banking logic: ---
    // balance queries for Bob's account hide the money.
    let spec = ClusterSpec::new(4, 2, ProtocolParams::default());
    let tampered = |_rank: usize| -> Arc<dyn ia_ccf::core::App> {
        Arc::new(TamperedApp::new(Arc::new(SmallBankApp), |proc, args, _| {
            let is_bob = args.get(..8).map(|a| a == BOB_ACCOUNT.to_le_bytes()).unwrap_or(false);
            (proc == BALANCE && is_bob)
                .then(|| Balances { checking: 0, savings: 0 }.to_bytes())
        }))
    };
    let mut cluster = DetCluster::with_apps(&spec, tampered);
    let alice = spec.clients[0].0;
    let bob = spec.clients[1].0;

    // --- Alice deposits $1M into Bob's savings. ---
    let args = [BOB_ACCOUNT.to_le_bytes(), 1_000_000i64.to_le_bytes()].concat();
    cluster.submit(alice, DEPOSIT, args);
    assert!(cluster.run_until_finished(1, 100));
    let (_, deposit_tx) = cluster.finished[0].clone();
    let deposit_receipt = deposit_tx.receipt.clone().expect("receipt");
    println!(
        "Alice's deposit executed at ledger index {} — receipt verified: {}",
        deposit_receipt.tx_index().unwrap(),
        deposit_receipt.verify(&spec.genesis).is_ok()
    );

    // --- Bob checks his balance; the colluding quorum lies. ---
    cluster.submit(bob, BALANCE, BOB_ACCOUNT.to_le_bytes().to_vec());
    assert!(cluster.run_until_finished(2, 100));
    let (_, balance_tx) = cluster.finished[1].clone();
    let balance_receipt = balance_tx.receipt.clone().expect("receipt");
    let shown = Balances::from_bytes(&balance_tx.output);
    println!(
        "Bob's balance query at index {} shows savings = {} — receipt verified: {}",
        balance_receipt.tx_index().unwrap(),
        shown.savings,
        balance_receipt.verify(&spec.genesis).is_ok()
    );
    assert_eq!(shown.savings, 0, "the lie: the receipt-certified balance hides the deposit");

    // --- Bob exchanges receipts with Alice and engages an auditor. ---
    let receipts = vec![
        StoredReceipt { request: deposit_tx.request.clone(), receipt: deposit_receipt },
        StoredReceipt { request: balance_tx.request.clone(), receipt: balance_receipt },
    ];
    // The enforcer compels a replica to produce the ledger.
    let mut enforcer = Enforcer::new();
    let sources: Vec<&dyn ia_ccf::audit::LedgerSource> =
        vec![cluster.replica(ReplicaId(0)), cluster.replica(ReplicaId(1))];
    let packages =
        enforcer.obtain_packages(&sources, ia_ccf_types::SeqNum(0), &spec.genesis);
    let (producer, package): &(ReplicaId, LedgerPackage) = &packages[0];
    println!("enforcer obtained a ledger package from {producer}");

    // --- The auditor replays the ledger with the HONEST stored procedures. ---
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(SmallBankApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), package);
    let AuditOutcome::Violation(upom) = outcome else {
        panic!("the audit must uncover the lie");
    };
    assert_eq!(upom.kind, UpomKind::WrongExecution);
    println!("\nuPoM produced: {} (at batch {})", upom.details, upom.at_seq);
    println!("blamed replicas: {:?}", upom.blamed);
    assert!(upom.blamed.len() > spec.genesis.f());

    // --- The enforcer verifies the uPoM and punishes the members. ---
    let sanctions = enforcer
        .process_upom(
            &upom,
            &receipts,
            &GovernanceChain::new(),
            package,
            &spec.genesis,
            Arc::new(SmallBankApp),
        )
        .expect("uPoM verifies");
    println!("\nsanctions:");
    for s in &sanctions {
        println!("  member {} punished for replica {}: {}", s.member, s.replica, s.reason);
    }
    assert!(sanctions.len() > spec.genesis.f());
    println!(
        "\nindividual accountability delivered: {} members punished despite ALL replicas colluding",
        sanctions.len()
    );
}
