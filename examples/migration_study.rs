//! Migration study: the conclusion's future work ("we will implement
//! sophisticated live migration within the PiCloud"), implemented.
//!
//! Sweeps cold vs pre-copy migration on the Pi's Fast Ethernet and the
//! gigabit re-cable, then shows consolidation using migration for power
//! savings — with its congestion bill.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example migration_study
//! ```

use picloud::experiments::migration_exp::MigrationExperiment;
use picloud::experiments::placement_exp::PlacementExperiment;
use picloud_placement::migration::LiveMigrationModel;
use picloud_simcore::units::{Bandwidth, Bytes};

fn main() {
    // E6: the timing sweep at both link rates.
    println!("{}", MigrationExperiment::paper_scale());
    println!("{}", MigrationExperiment::gigabit_recable());

    // The convergence cliff, explicitly: a 64 MB container against a
    // rising dirty rate on Fast Ethernet (12.5 MB/s).
    println!("Pre-copy convergence cliff (64 MiB container, 100 Mbit/s):");
    let model = LiveMigrationModel::default();
    for mb_per_s in [1.0f64, 4.0, 8.0, 11.0, 12.0, 13.0, 16.0] {
        let out = model.pre_copy(Bytes::mib(64), mb_per_s * 1e6);
        println!(
            "  dirty {mb_per_s:>5.1} MB/s -> downtime {:>12} total {:>12} rounds {:>2} {}",
            out.downtime.to_string(),
            out.total_time.to_string(),
            out.rounds,
            if out.converged {
                "converged"
            } else {
                "DIVERGED (stop-and-copy fallback)"
            }
        );
    }
    println!();

    // A "what bandwidth do I need" table for SLA planning.
    println!("Bandwidth needed to migrate a 128 MiB instance with <300 ms downtime:");
    for mbps in [100u64, 200, 500, 1000] {
        let m = LiveMigrationModel {
            bandwidth: Bandwidth::mbps(mbps),
            ..LiveMigrationModel::default()
        };
        let out = m.pre_copy(Bytes::mib(128), 6e6); // 6 MB/s dirtying
        println!(
            "  {:>4} Mbit/s -> downtime {:>12} ({} on the wire) {}",
            mbps,
            out.downtime.to_string(),
            out.bytes_transferred,
            if out.converged { "" } else { "<- diverged" }
        );
    }
    println!();

    // E5: consolidation uses these migrations; show the full ledger.
    println!(
        "{}",
        PlacementExperiment::paper_scale().expect("batch fits")
    );
}
