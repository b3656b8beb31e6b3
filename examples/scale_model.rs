//! The scale-model argument, quantified end to end.
//!
//! §IV asks "Isn't the Raspberry Pi just a 'toy' device?" — this example
//! runs the reproduction's answer: the fidelity comparison (shape vs
//! magnitude), the discrete-event web-server validation behind it, and the
//! efficiency levers (cpufreq governors, oversubscription) a scale model
//! lets you study for pennies.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example scale_model
//! ```

use picloud::experiments::dvfs_exp::DvfsExperiment;
use picloud::experiments::fidelity::FidelityExperiment;
use picloud::experiments::oversub_exp::OversubscriptionExperiment;
use picloud::experiments::sla_exp::SlaExperiment;
use picloud_simcore::SeedFactory;
use picloud_workloads::websim::{simulate, WebSimConfig};

fn main() {
    // E10: shape vs magnitude, Pi cluster vs x86 cluster.
    println!("{}", FidelityExperiment::paper_scale());

    // The queueing behaviour underneath: a Pi web server from light load
    // to overload, simulated request by request on the event engine.
    println!("\nOne Pi core serving static pages (M/D/1, simulated):");
    let seeds = SeedFactory::new(2013);
    for rps in [50.0, 175.0, 280.0, 330.0, 420.0] {
        let cfg = WebSimConfig::pi_static(rps);
        let report = simulate(&cfg, 30_000, &seeds);
        println!(
            "  offered {rps:>4.0} req/s (rho {:.2}): {report}",
            cfg.rho()
        );
    }

    // E15: the cpufreq governors over a diurnal day.
    println!("\n{}", DvfsExperiment::paper_scale());

    // E14: oversubscription density vs overload risk.
    println!("\n{}", OversubscriptionExperiment::paper_scale());

    // E16: the SLA cost of density, per placement policy.
    println!(
        "\n{}",
        SlaExperiment::paper_scale().expect("the fleet fits")
    );
}
