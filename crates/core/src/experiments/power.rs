//! **C2/E9 — whole-cloud power instrumentation**.
//!
//! §III: "The PiCloud allows us to both isolate individual components to
//! measure their power consumption characteristics, or instrument directly
//! across the whole Cloud: we can run the PiCloud from a single trailing
//! power socket board." The experiment sweeps cluster-wide utilisation,
//! integrates the power model over simulated time, and checks the
//! single-socket claim at every operating point.

use crate::report::TextTable;
use picloud_hardware::node::NodeSpec;
use picloud_hardware::power::PowerSocket;
use picloud_simcore::units::{Energy, Power};
use picloud_simcore::{SimDuration, SimTime, TimeWeightedGauge};
use std::fmt;

/// One operating point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPoint {
    /// Mean node utilisation in `[0, 1]`.
    pub utilisation: f64,
    /// Instantaneous whole-cloud draw.
    pub draw: Power,
    /// Whether a UK domestic socket suffices.
    pub single_socket_ok: bool,
}

/// The power experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerExperiment {
    /// Board model measured.
    pub board: String,
    /// Machine count.
    pub machines: u32,
    /// The utilisation sweep.
    pub points: Vec<PowerPoint>,
    /// Energy for a 24 h day alternating idle nights (16 h) and busy days
    /// (8 h at 80 %), integrated on the virtual clock.
    pub daily_energy: Energy,
}

impl PowerExperiment {
    /// Sweeps utilisation 0 %..100 % for `machines` boards of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero.
    pub fn run(spec: &NodeSpec, machines: u32) -> PowerExperiment {
        assert!(machines > 0, "need machines to measure");
        let socket = PowerSocket::uk_domestic();
        let cluster_draw = |u: f64| spec.power.draw_at(u) * f64::from(machines);
        let points: Vec<PowerPoint> = (0..=10)
            .map(|i| {
                let u = f64::from(i) / 10.0;
                let draw = cluster_draw(u);
                PowerPoint {
                    utilisation: u,
                    draw,
                    single_socket_ok: socket.can_supply(draw),
                }
            })
            .collect();
        // Integrate a day on the virtual clock: idle 16 h, 80 % busy 8 h.
        let mut gauge = TimeWeightedGauge::new(SimTime::ZERO, cluster_draw(0.0).as_watts());
        let eight = SimTime::ZERO + SimDuration::from_secs(16 * 3600);
        gauge.set(eight, cluster_draw(0.8).as_watts());
        let day_end = SimTime::ZERO + SimDuration::from_secs(24 * 3600);
        let daily_energy = Energy::joules(gauge.integral(day_end));
        PowerExperiment {
            board: spec.model.clone(),
            machines,
            points,
            daily_energy,
        }
    }

    /// The paper's 56-Pi configuration.
    pub fn paper_picloud() -> PowerExperiment {
        PowerExperiment::run(&NodeSpec::pi_model_b_rev1(), 56)
    }

    /// The Table I x86 comparator at the same scale.
    pub fn paper_testbed() -> PowerExperiment {
        PowerExperiment::run(&NodeSpec::x86_commodity(), 56)
    }

    /// Peak draw (the 100 % point); `None` for an empty sweep.
    pub fn peak(&self) -> Option<Power> {
        self.points.last().map(|p| p.draw)
    }
}

impl fmt::Display for PowerExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "POWER: {} x {} — daily energy {}",
            self.machines, self.board, self.daily_energy
        )?;
        let mut t = TextTable::new(vec![
            "utilisation".into(),
            "draw".into(),
            "single socket?".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{:.0}%", p.utilisation * 100.0),
                p.draw.to_string(),
                if p.single_socket_ok { "yes" } else { "NO" }.into(),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picloud_fits_one_socket_at_every_point() {
        let e = PowerExperiment::paper_picloud();
        assert!(e.points.iter().all(|p| p.single_socket_ok));
        assert!((e.peak().unwrap().as_watts() - 196.0).abs() < 1e-9);
    }

    #[test]
    fn testbed_never_fits_one_socket() {
        let e = PowerExperiment::paper_testbed();
        assert!(e.points.iter().all(|p| !p.single_socket_ok));
        assert!((e.peak().unwrap().as_watts() - 10_080.0).abs() < 1e-9);
    }

    #[test]
    fn draw_is_monotone_in_utilisation() {
        let e = PowerExperiment::paper_picloud();
        for w in e.points.windows(2) {
            assert!(w[0].draw.as_watts() <= w[1].draw.as_watts());
        }
    }

    #[test]
    fn daily_energy_is_between_idle_and_peak_days() {
        let e = PowerExperiment::paper_picloud();
        let idle_day = (e.points[0].draw).energy_over(SimDuration::from_secs(24 * 3600));
        let peak_day = e
            .peak()
            .unwrap()
            .energy_over(SimDuration::from_secs(24 * 3600));
        assert!(e.daily_energy.as_joules() > idle_day.as_joules());
        assert!(e.daily_energy.as_joules() < peak_day.as_joules());
        // Order of magnitude: a few kWh for 56 Pis.
        assert!(e.daily_energy.as_kwh() > 3.0 && e.daily_energy.as_kwh() < 5.0);
    }

    #[test]
    fn x86_day_costs_far_more_energy() {
        let pi = PowerExperiment::paper_picloud();
        let x86 = PowerExperiment::paper_testbed();
        assert!(x86.daily_energy.as_kwh() > 30.0 * pi.daily_energy.as_kwh());
    }

    #[test]
    fn display_has_the_sweep() {
        let s = PowerExperiment::paper_picloud().to_string();
        assert!(s.contains("100%"));
        assert!(s.contains("daily energy"));
    }
}
