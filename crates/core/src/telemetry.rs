//! Exportable telemetry for every experiment in the suite.
//!
//! The simulation crates expose `record_telemetry` hooks that fold their
//! state into a [`MetricsRegistry`]; the recovery loop additionally
//! streams a sim-time trace. This module is the umbrella over both: it
//! gives each experiment id a collector that runs the experiment and converts
//! its typed result into labeled series, so one CLI call
//! (`picloud telemetry --experiment e17 --format jsonl`) yields a
//! machine-readable snapshot of any paper artifact.
//!
//! Two collection styles coexist:
//!
//! * **Live** (`recovery`/E17): the run records power, link utilisation,
//!   container lifecycle and recovery series *as simulated time passes*,
//!   and the tracer captures every fault, detection and failover event.
//! * **Summary** (everything else): the experiment runs to completion and
//!   its report is folded into gauges/counters at the end, bracketed by
//!   `experiment_start`/`experiment_end` trace events.
//!
//! All output is byte-deterministic for a fixed `(experiment, seed)`:
//! series iterate in sorted order and floats render through one
//! formatter. See `OBSERVABILITY.md` for the label schema and the
//! per-experiment series catalogue in `EXPERIMENTS.md`.

use crate::experiments::{
    dvfs_exp::DvfsExperiment, estimate_exp::EstimateExperiment, failure_exp::FailureExperiment,
    fidelity::FidelityExperiment, fig2::Fig2, fig3::Fig3, fig4::Fig4,
    image_dist::ImageDistributionExperiment, migration_exp::MigrationExperiment,
    oversub_exp::OversubscriptionExperiment, p2p_mgmt::P2pMgmtExperiment,
    placement_exp::PlacementExperiment, power::PowerExperiment, recovery_exp::RecoveryExperiment,
    sdn_exp::SdnExperiment, sla_exp::SlaExperiment, table1::Table1, traffic_exp::TrafficExperiment,
    ExperimentError,
};
use crate::PiCloud;
use picloud_mgmt::panel::ControlPanel;
use picloud_network::flowsim::RateAllocator;
use picloud_network::topology::Topology;
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_simcore::telemetry::slo::{AlertPolicy, AlertTimeline, SloPolicy, SloReport};
use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
use picloud_simcore::telemetry::{MetricsRegistry, MetricsSnapshot, TelemetrySink};
use picloud_simcore::{SeedFactory, SimDuration, SimTime, SpanContext, SpanForest};
use picloud_workloads::mapreduce::MapReduceJob;
use picloud_workloads::traffic::TrafficPattern;
use picloud_workloads::websim::{self, WebSimConfig};

/// Every experiment the suite runs: canonical id, paper-style `eN`
/// alias and title, in the order the CLI lists and runs them. `fig1` is
/// a render-only artifact and has no `eN` alias.
pub const EXPERIMENTS: &[(&str, &str, &str)] = &[
    (
        "table1",
        "e1",
        "Table I: cost breakdown of a 56-server testbed",
    ),
    ("fig1", "", "Fig. 1: the four Lego racks"),
    (
        "fig2",
        "e2",
        "Fig. 2: fabric comparison (tree / fat-tree / Clos)",
    ),
    ("fig3", "e3", "Fig. 3: software stack & container density"),
    ("fig4", "e4", "Fig. 4: management control panel workflow"),
    (
        "power",
        "e9",
        "C2/E9: whole-cloud power & the single-socket claim",
    ),
    (
        "placement",
        "e5",
        "E5: placement policies & consolidation ledger",
    ),
    ("migration", "e6", "E6: cold vs pre-copy migration sweep"),
    ("traffic", "e7", "E7: DC traffic locality/congestion sweep"),
    ("sdn", "e8", "E8: SDN disciplines & IP-less routing"),
    ("fidelity", "e10", "E10: scale-model fidelity (Pi vs x86)"),
    ("failures", "e11", "E11: failure injection"),
    ("p2p", "e12", "E12: centralised vs gossip management"),
    ("imagedist", "e13", "E13: image distribution strategies"),
    ("oversub", "e14", "E14: CPU oversubscription"),
    ("sla", "e16", "E16: placement density vs web latency (SLA)"),
    ("dvfs", "e15", "E15: cpufreq governors"),
    (
        "recovery",
        "e17",
        "E17: failure recovery / self-healing under churn",
    ),
    (
        "estimate",
        "s2",
        "S2: estimation mode (link clustering) vs the exact oracle",
    ),
];

/// Resolves a user-facing experiment name (canonical id or `eN` alias,
/// case-insensitive) to its canonical id.
pub fn canonical_id(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    EXPERIMENTS
        .iter()
        .find(|(id, alias, _)| *id == lower || (!alias.is_empty() && *alias == lower))
        .map(|(id, _, _)| *id)
}

/// The telemetry one experiment run produced: a labeled metrics registry
/// plus a sim-time trace, ready for export in any supported format.
#[derive(Debug)]
pub struct ExperimentTelemetry {
    /// Canonical experiment id (`recovery`, not `e17`).
    pub id: &'static str,
    /// Seed the run used.
    pub seed: u64,
    /// Sim-time instant the snapshot describes (the run's horizon).
    pub taken_at: SimTime,
    /// The recorded series and trace.
    pub sink: TelemetrySink,
}

impl ExperimentTelemetry {
    /// Runs `name` (canonical id or `eN` alias) at `seed` and collects
    /// its telemetry. Returns `None` for unknown experiment names.
    /// Deterministic: same `(name, seed)` ⇒ byte-identical exports.
    pub fn collect(name: &str, seed: u64) -> Option<ExperimentTelemetry> {
        let id = canonical_id(name)?;
        // Every collection scrapes a windowed time-series store alongside
        // the registry: the stepped simulations (traffic replay, the SLA
        // webserver) use a fine 1 s grid, the long E17 control loop the
        // Prometheus-style 15 s default.
        let scrape = match id {
            "traffic" | "sla" => ScrapeConfig::every(SimDuration::from_secs(1)),
            _ => ScrapeConfig::default(),
        };
        let mut sink = TelemetrySink::recording_with_tsdb(SimTime::ZERO, scrape);
        let taken_at = if id == "recovery" {
            // Live collection: series and trace accumulate as the
            // control loop runs.
            let horizon = SimDuration::from_secs(90 * 60);
            let (_, live) = RecoveryExperiment::run_with_telemetry(seed, horizon, sink);
            sink = live;
            SimTime::ZERO + horizon
        } else {
            sink.tracer.emit(SimTime::ZERO, "experiment_start", |e| {
                e.str("experiment", id).u64("seed", seed);
            });
            // An experiment whose workflow fails contributes no summary
            // series; the trace records why.
            if let Err(err) = collect_summary(id, seed, &mut sink.registry) {
                sink.tracer.emit(SimTime::ZERO, "experiment_error", |e| {
                    e.str("experiment", id).str("error", &err.to_string());
                });
            }
            let span_end = collect_spans(id, seed, &mut sink);
            let live_end = collect_live(id, seed, &mut sink);
            let end = span_end.max(live_end);
            sink.tracer.emit(end, "experiment_end", |e| {
                e.str("experiment", id);
            });
            // Forced final scrape: windowed queries then cover the whole
            // horizon, including the summary gauges folded in at the end.
            sink.scrape_now(end);
            end
        };
        Some(ExperimentTelemetry {
            id,
            seed,
            taken_at,
            sink,
        })
    }

    /// The metrics snapshot at the run's horizon, including the sink's
    /// self-observation series (`telemetry_series_count`,
    /// `telemetry_trace_dropped_total`, `telemetry_tsdb_*`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.sink.snapshot(self.taken_at)
    }

    /// Metrics as JSON Lines (one object per series).
    pub fn metrics_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    /// Metrics as long-format CSV.
    pub fn metrics_csv(&self) -> String {
        self.snapshot().to_csv()
    }

    /// Metrics in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// The trace as JSON Lines (one object per event).
    pub fn trace_jsonl(&self) -> String {
        self.sink.tracer.to_jsonl()
    }

    /// The causal span forest reconstructed from the run's trace.
    pub fn span_forest(&self) -> SpanForest {
        SpanForest::from_tracer(&self.sink.tracer)
    }

    /// Spans as JSON Lines (one object per span, id order).
    pub fn spans_jsonl(&self) -> String {
        self.span_forest().to_jsonl()
    }

    /// Deterministic span trees, one per root, id order.
    pub fn spans_text(&self) -> String {
        let forest = self.span_forest();
        let mut out = format!(
            "spans \u{2014} experiment {} (seed {}): {} spans, {} roots\n",
            self.id,
            self.seed,
            forest.len(),
            forest.roots().len()
        );
        for &root in forest.roots() {
            out.push('\n');
            out.push_str(&forest.render_tree(root));
        }
        out
    }

    /// The suite's default SLO policy evaluated against this run's
    /// metrics snapshot.
    pub fn slo_report(&self) -> SloReport {
        SloPolicy::picloud_default().evaluate(&self.snapshot())
    }

    /// The windowed time-series store the run scraped.
    pub fn tsdb(&self) -> Option<&TimeSeriesDb> {
        self.sink.tsdb()
    }

    /// The default multi-window burn-rate alert policy replayed over the
    /// run's scrape timeline. `None` when collection had no tsdb.
    pub fn alert_timeline(&self) -> Option<AlertTimeline> {
        self.sink
            .tsdb()
            .map(|db| AlertPolicy::picloud_default().evaluate(db))
    }

    /// The alert timeline as fixed-width text.
    pub fn alerts_text(&self) -> Option<String> {
        let timeline = self.alert_timeline()?;
        Some(format!(
            "alerts \u{2014} experiment {} (seed {})\n{timeline}\n",
            self.id, self.seed
        ))
    }

    /// The alert timeline as JSON Lines (one object per transition).
    pub fn alerts_jsonl(&self) -> Option<String> {
        self.alert_timeline().map(|t| t.to_jsonl())
    }

    /// Evaluates `f` over trailing `window`s for every stored series
    /// matching `metric` + `labels`, rendered as JSON Lines (one object
    /// per instant per series, series then time order). `None` when
    /// collection had no tsdb; an empty string when nothing matches.
    pub fn query_jsonl(
        &self,
        metric: &str,
        labels: &[(String, String)],
        f: QueryFn,
        window: SimDuration,
        step: Option<SimDuration>,
    ) -> Option<String> {
        let db = self.sink.tsdb()?;
        let mut out = String::new();
        for series in db.series_matching(metric, labels) {
            for p in db.eval_range(&series, f, window, step) {
                out.push_str("{\"metric\":\"");
                out.push_str(&series.name);
                out.push_str("\",\"labels\":{");
                for (i, (k, v)) in series.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":\"{}\"", v.replace('"', "\\\"")));
                }
                out.push_str(&format!(
                    "}},\"fn\":\"{}\",\"window_secs\":{},\"t_ns\":{}",
                    f.label(),
                    window.as_secs_f64(),
                    p.at.as_nanos()
                ));
                match p.value {
                    Some(v) if v.is_finite() => out.push_str(&format!(",\"value\":{v}}}\n")),
                    _ => out.push_str(",\"value\":null}\n"),
                }
            }
        }
        Some(out)
    }

    /// The same query rendered as deterministic text: one block per
    /// matching series, one line per instant.
    pub fn query_text(
        &self,
        metric: &str,
        labels: &[(String, String)],
        f: QueryFn,
        window: SimDuration,
        step: Option<SimDuration>,
    ) -> Option<String> {
        let db = self.sink.tsdb()?;
        let mut out = format!(
            "query \u{2014} experiment {} (seed {}): {}({}[{}s])\n",
            self.id,
            self.seed,
            f.label(),
            metric,
            window.as_secs_f64()
        );
        let matching = db.series_matching(metric, labels);
        if matching.is_empty() {
            out.push_str("no matching series\n");
            return Some(out);
        }
        for series in matching {
            out.push_str(&format!("\n{series}\n"));
            for p in db.eval_range(&series, f, window, step) {
                match p.value {
                    Some(v) => out.push_str(&format!("  t={}s {v}\n", p.at.as_secs_f64())),
                    None => out.push_str(&format!("  t={}s -\n", p.at.as_secs_f64())),
                }
            }
        }
        Some(out)
    }

    /// Critical-path analysis of every root span, with per-segment blame.
    ///
    /// For `recovery` (E17) roots that closed a real outage window
    /// (carrying `downtime_ns`), the footer reports their count and mean
    /// critical-path total — by construction equal to the experiment's
    /// measured MTTR, since each such root spans exactly
    /// `[crash, respawn]`.
    pub fn critical_path_report(&self) -> String {
        let forest = self.span_forest();
        let mut out = format!(
            "critical paths \u{2014} experiment {} (seed {})\n",
            self.id, self.seed
        );
        if forest.roots().is_empty() {
            out.push_str("no spans recorded\n");
            return out;
        }
        let mut restored_total = SimDuration::ZERO;
        let mut restored_count: u64 = 0;
        for &root in forest.roots() {
            let (Some(rec), Some(path)) = (forest.get(root), forest.critical_path(root)) else {
                continue;
            };
            out.push_str(&format!("\n{} {}", rec.name, rec.id));
            for (k, v) in rec.fields.iter().chain(rec.end_fields.iter()) {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            out.push_str(&path.render());
            if rec.name == "recovery" && rec.field("downtime_ns").is_some() {
                restored_total = restored_total.saturating_add(path.total());
                restored_count += 1;
            }
        }
        if restored_count > 0 {
            out.push_str(&format!(
                "\nrecovered outages: {restored_count}, mean critical-path total (= MTTR): {}\n",
                restored_total / restored_count
            ));
        }
        out
    }

    /// Mean critical-path total over `recovery` roots that closed an
    /// outage window — the span-level MTTR. `None` when the run restored
    /// nothing.
    pub fn span_mttr(&self) -> Option<SimDuration> {
        let forest = self.span_forest();
        let mut total = SimDuration::ZERO;
        let mut count: u64 = 0;
        for rec in forest.roots_named("recovery") {
            if rec.field("downtime_ns").is_some() {
                let path = forest.critical_path(rec.id)?;
                total = total.saturating_add(path.total());
                count += 1;
            }
        }
        (count > 0).then(|| total / count)
    }
}

/// Runs a summary-style experiment and folds its report into `reg` at
/// `SimTime::ZERO`.
fn collect_summary(id: &str, seed: u64, reg: &mut MetricsRegistry) -> Result<(), ExperimentError> {
    let t0 = SimTime::ZERO;
    match id {
        "table1" => {
            let t = Table1::paper();
            for row in &t.rows {
                let l = [("testbed", row.label.as_str())];
                reg.gauge("table1_machines", &l)
                    .set(t0, f64::from(row.machines));
                reg.gauge("table1_total_cost_dollars", &l)
                    .set(t0, row.total_cost.as_dollars_f64());
                reg.gauge("table1_total_power_watts", &l)
                    .set(t0, row.total_power.as_watts());
                reg.gauge("table1_power_with_cooling_watts", &l)
                    .set(t0, row.total_power_with_cooling.as_watts());
            }
            reg.gauge("table1_cost_factor", &[]).set(t0, t.cost_factor);
            reg.gauge("table1_power_factor", &[])
                .set(t0, t.power_factor);
        }
        "fig1" => {
            let cloud = PiCloud::glasgow();
            reg.gauge("cluster_nodes", &[])
                .set(t0, cloud.node_count() as f64);
            reg.gauge("cluster_racks", &[])
                .set(t0, cloud.racks().len() as f64);
            reg.gauge("cluster_links", &[])
                .set(t0, cloud.topology().links().len() as f64);
            reg.gauge("cluster_devices", &[])
                .set(t0, cloud.topology().devices().len() as f64);
        }
        "fig2" => {
            for fm in &Fig2::run().fabrics {
                let l = [("fabric", fm.name.as_str())];
                reg.gauge("fabric_hosts", &l).set(t0, fm.hosts as f64);
                reg.gauge("fabric_switches", &l).set(t0, fm.switches as f64);
                reg.gauge("fabric_links", &l).set(t0, fm.links as f64);
                reg.gauge("fabric_bisection_mbps", &l)
                    .set(t0, fm.bisection.as_mbps_f64());
                reg.gauge("fabric_diameter_hops", &l)
                    .set(t0, f64::from(fm.diameter_hops));
                reg.gauge("fabric_host_path_diversity", &l)
                    .set(t0, fm.host_path_diversity as f64);
            }
        }
        "fig3" => {
            let f = Fig3::run()?;
            for d in &f.density {
                let l = [("board", d.board.as_str())];
                reg.gauge("container_density", &l)
                    .set(t0, f64::from(d.containers_started));
                reg.gauge("container_headroom_mib", &l)
                    .set(t0, d.headroom.as_mib_f64());
            }
            for v in &f.virt_ablation {
                let l = [("board", v.node_model.as_str())];
                reg.gauge("container_lxc_instances", &l)
                    .set(t0, f64::from(v.lxc_instances));
                reg.gauge("container_full_virt_instances", &l)
                    .set(t0, f64::from(v.full_virt_instances));
            }
        }
        "fig4" => {
            let f = Fig4::run()?;
            let c = reg.counter("mgmt_panel_spawns_total", &[]);
            c.add(f.spawned as u64);
            let c = reg.counter("mgmt_panel_limit_updates_total", &[]);
            c.add(f.limits_set as u64);
        }
        "power" => {
            for (exp, testbed) in [
                (PowerExperiment::paper_picloud(), "picloud"),
                (PowerExperiment::paper_testbed(), "x86"),
            ] {
                let l = [("testbed", testbed)];
                for p in &exp.points {
                    let u = format!("{:.2}", p.utilisation);
                    let lp = [("testbed", testbed), ("utilisation", u.as_str())];
                    reg.gauge("hardware_cloud_power_watts", &lp)
                        .set(t0, p.draw.as_watts());
                    reg.gauge("hardware_single_socket_ok", &lp)
                        .set(t0, f64::from(u8::from(p.single_socket_ok)));
                }
                reg.gauge("hardware_daily_energy_kwh", &l)
                    .set(t0, exp.daily_energy.as_kwh());
            }
        }
        "placement" => {
            let e = PlacementExperiment::run(seed, 150, 20)?;
            for p in &e.placement {
                let pol = p.policy.to_string();
                let l = [("policy", pol.as_str())];
                reg.gauge("placement_placed", &l).set(t0, p.placed as f64);
                reg.gauge("placement_nodes_used", &l)
                    .set(t0, p.nodes_used as f64);
                reg.gauge("placement_racks_used", &l)
                    .set(t0, p.racks_used as f64);
                reg.gauge("placement_group_rack_spread", &l)
                    .set(t0, p.mean_group_rack_spread);
            }
            for c in &e.consolidation {
                let pol = c.policy.to_string();
                let l = [("policy", pol.as_str())];
                reg.gauge("placement_nodes_freed", &l)
                    .set(t0, c.nodes_freed as f64);
                reg.gauge("placement_moves", &l).set(t0, c.moves as f64);
                reg.gauge("placement_power_saved_watts", &l)
                    .set(t0, c.power_saved_watts);
                reg.gauge("placement_migration_makespan_seconds", &l)
                    .set(t0, c.migration_makespan_secs);
                reg.gauge("network_peak_uplink_utilisation", &l)
                    .set(t0, c.peak_uplink_utilisation);
            }
        }
        "migration" => {
            for (exp, fabric) in [
                (MigrationExperiment::paper_scale(), "100mbit"),
                (MigrationExperiment::gigabit_recable(), "1gbit"),
            ] {
                for p in &exp.points {
                    let ram = format!("{:.0}", p.ram.as_mib_f64());
                    let rate = format!("{:.0}", p.dirty_rate_bps);
                    let l = [
                        ("fabric", fabric),
                        ("ram_mib", ram.as_str()),
                        ("dirty_bps", rate.as_str()),
                    ];
                    reg.gauge("migration_cold_downtime_seconds", &l)
                        .set(t0, p.cold.downtime.as_secs_f64());
                    reg.gauge("migration_live_downtime_seconds", &l)
                        .set(t0, p.live.downtime.as_secs_f64());
                    reg.gauge("migration_live_total_seconds", &l)
                        .set(t0, p.live.total_time.as_secs_f64());
                    reg.gauge("migration_live_rounds", &l)
                        .set(t0, f64::from(p.live.rounds));
                }
            }
        }
        "traffic" => {
            let e = TrafficExperiment::run(seed, SimDuration::from_secs(30));
            for p in &e.points {
                let loc = format!("{:.2}", p.locality);
                let l = [("locality", loc.as_str())];
                reg.gauge("network_flows", &l).set(t0, p.flows as f64);
                reg.gauge("network_mean_fct_seconds", &l)
                    .set(t0, p.mean_fct_secs);
                reg.gauge("network_p99_fct_seconds", &l)
                    .set(t0, p.p99_fct_secs);
                reg.gauge("network_link_mean_utilisation", &l)
                    .set(t0, p.mean_uplink_utilisation);
                reg.gauge("network_link_peak_utilisation", &l)
                    .set(t0, p.peak_uplink_utilisation);
            }
            reg.gauge("network_maxmin_mean_fct_seconds", &[])
                .set(t0, e.maxmin_mean_fct);
            reg.gauge("network_equal_share_mean_fct_seconds", &[])
                .set(t0, e.equal_share_mean_fct);
        }
        "sdn" => {
            let e = SdnExperiment::paper_scale()?;
            for m in &e.install_modes {
                let mode = m.mode.to_string();
                let l = [("mode", mode.as_str())];
                reg.gauge("sdn_flows_with_setup", &l)
                    .set(t0, m.flows_with_setup as f64);
                reg.gauge("sdn_setup_seconds_total", &l)
                    .set(t0, m.total_setup.as_secs_f64());
                reg.gauge("sdn_flowtable_rules", &l)
                    .set(t0, m.resident_rules as f64);
                reg.gauge("sdn_lifetime_rules", &l)
                    .set(t0, m.lifetime_rules as f64);
            }
            for a in &e.addressing {
                let mode = a.mode.to_string();
                let l = [("mode", mode.as_str())];
                reg.gauge("sdn_migration_rules_touched", &l)
                    .set(t0, a.impact.rules_touched as f64);
                reg.gauge("sdn_migration_flows_disrupted", &l)
                    .set(t0, a.impact.flows_disrupted as f64);
                reg.gauge("sdn_migration_convergence_seconds", &l)
                    .set(t0, a.impact.convergence_latency.as_secs_f64());
            }
        }
        "fidelity" => {
            let e = FidelityExperiment::run(seed, 56);
            reg.gauge("fidelity_shape_correlation", &[])
                .set(t0, e.shape_correlation);
            reg.gauge("fidelity_capacity_ratio", &[])
                .set(t0, e.capacity_ratio);
            reg.gauge("fidelity_pi_saturated", &[])
                .set(t0, e.pi_saturated as f64);
            reg.gauge("fidelity_x86_saturated", &[])
                .set(t0, e.x86_saturated as f64);
            reg.gauge("fidelity_pi_makespan_seconds", &[])
                .set(t0, e.pi_makespan_secs);
            reg.gauge("fidelity_x86_makespan_seconds", &[])
                .set(t0, e.x86_makespan_secs);
        }
        "failures" => {
            for s in &FailureExperiment::run(seed).scenarios {
                let l = [("scenario", s.name.as_str()), ("fabric", s.fabric.as_str())];
                reg.gauge("network_reachability", &l)
                    .set(t0, s.reachability);
                reg.gauge("network_links_failed", &l)
                    .set(t0, s.links_failed as f64);
                reg.gauge("network_devices_failed", &l)
                    .set(t0, s.devices_failed as f64);
                reg.gauge("network_flows_rerouted", &l)
                    .set(t0, s.flows_rerouted as f64);
                reg.gauge("network_flows_stranded", &l)
                    .set(t0, s.flows_stranded as f64);
            }
        }
        "p2p" => {
            for o in &P2pMgmtExperiment::run(seed, 56)?.outcomes {
                let l = [("scheme", o.name.as_str())];
                let c = reg.counter("mgmt_messages_total", &l);
                c.add(o.messages);
                reg.gauge("mgmt_rounds", &l).set(t0, f64::from(o.rounds));
                reg.gauge("mgmt_coverage_after_failure", &l)
                    .set(t0, o.coverage_after_failure);
            }
        }
        "imagedist" => {
            let e = ImageDistributionExperiment::paper_scale();
            for o in &e.outcomes {
                let l = [("strategy", o.strategy.as_str())];
                reg.gauge("imagedist_makespan_seconds", &l)
                    .set(t0, o.makespan.as_secs_f64());
                reg.gauge("imagedist_uplink_crossings", &l)
                    .set(t0, o.uplink_image_crossings);
                reg.gauge("imagedist_rounds", &l)
                    .set(t0, f64::from(o.rounds));
            }
            reg.gauge("imagedist_image_mib", &[])
                .set(t0, e.image_size.as_mib_f64());
            reg.gauge("imagedist_receivers", &[])
                .set(t0, e.receivers as f64);
        }
        "oversub" => {
            for p in &OversubscriptionExperiment::paper_scale().points {
                let f = format!("{:.2}", p.factor);
                let l = [("factor", f.as_str())];
                reg.gauge("oversub_admitted", &l).set(t0, p.admitted as f64);
                reg.gauge("oversub_overload_probability", &l)
                    .set(t0, p.overload_probability);
                reg.gauge("oversub_expected_utilisation", &l)
                    .set(t0, p.expected_utilisation);
            }
        }
        "dvfs" => {
            for o in &DvfsExperiment::paper_scale().outcomes {
                let gov = o.governor.to_string();
                let l = [("governor", gov.as_str())];
                reg.gauge("hardware_daily_energy_kwh", &l)
                    .set(t0, o.daily_energy.as_kwh());
                reg.gauge("hardware_served_fraction", &l)
                    .set(t0, o.served_fraction);
            }
        }
        "sla" => {
            let e = SlaExperiment::run(seed, 168, 0.05)?;
            for o in &e.outcomes {
                let pol = o.policy.to_string();
                let l = [("policy", pol.as_str())];
                reg.gauge("sla_nodes_used", &l).set(t0, o.nodes_used as f64);
                reg.gauge("sla_meeting", &l).set(t0, o.meeting_sla as f64);
                reg.gauge("sla_saturated", &l).set(t0, o.saturated as f64);
                reg.gauge("sla_p95_latency_seconds", &l)
                    .set(t0, o.p95_latency_secs);
            }
            reg.gauge("sla_target_seconds", &[]).set(t0, e.sla_secs);
        }
        "estimate" => {
            // A shortened S2 sweep (5 simulated seconds per scenario):
            // telemetry wants the cluster/error shape, not the full
            // bench-grade horizon.
            let e = EstimateExperiment::run(seed, SimDuration::from_secs(5));
            for p in &e.points {
                let fabric = format!("{}M", p.fabric_mbps);
                let loc = format!("{:.2}", p.locality);
                let l = [("fabric", fabric.as_str()), ("locality", loc.as_str())];
                reg.gauge("estimate_clusters", &l)
                    .set(t0, p.clusters as f64);
                reg.gauge("estimate_loaded_links", &l)
                    .set(t0, p.loaded_links as f64);
                reg.gauge("estimate_rep_flows", &l)
                    .set(t0, p.rep_flows as f64);
                reg.gauge("estimate_p99_rel_err", &l).set(t0, p.p99_rel_err);
            }
            // Membership breakdown for the hardest scenario (all-remote
            // traffic on the tightest fabric).
            for (i, &members) in e.hardest_cluster_sizes.iter().enumerate() {
                let c = format!("c{i}");
                let l = [("cluster", c.as_str())];
                reg.gauge("estimate_cluster_members", &l)
                    .set(t0, members as f64);
            }
            reg.gauge("estimate_max_p99_rel_err", &[])
                .set(t0, e.max_p99_rel_err);
            reg.gauge("estimate_error_bound", &[])
                .set(t0, EstimateExperiment::P99_ERROR_BOUND);
            reg.gauge("estimate_mean_compression", &[])
                .set(t0, e.mean_compression);
        }
        other => {
            return Err(ExperimentError::Workflow(format!(
                "{other} has no summary collector"
            )))
        }
    }
    Ok(())
}

/// Adds the experiment's causal spans to `sink` where the summary run has
/// a natural traced walk-through, returning the latest sim-time instant
/// the spans reached (so `experiment_end` stays last). Experiments with
/// live collection (`recovery`) record their spans inline instead.
fn collect_spans(id: &str, seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let _ = seed;
    match id {
        "sdn" => {
            // One reactive cache miss (packet-in → flow-mod round trip)
            // followed by a hit on the installed rules, on the paper fabric.
            let topo = Topology::multi_root_tree(4, 14, 2);
            let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
            let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
            // First and last host span the full fabric diameter.
            let (Some(&src), Some(&dst)) = (hosts.first(), hosts.last()) else {
                return SimTime::ZERO;
            };
            ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
            ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
            ctrl.now()
        }
        "fig4" => {
            // Two panel refreshes 20 s apart: the second records real
            // staleness into `mgmt_panel_staleness_seconds`.
            let mut cloud = PiCloud::glasgow();
            let mut panel = ControlPanel::new();
            panel.refresh_traced(cloud.pimaster_mut(), SimTime::from_secs(1), sink);
            panel.refresh_traced(cloud.pimaster_mut(), SimTime::from_secs(21), sink);
            SimTime::from_secs(21)
        }
        "fidelity" => {
            // One traced wordcount on the paper fabric: job → map wave →
            // shuffle (per-flow spans from flowsim completions) → reduce.
            use picloud_hardware::storage::StorageSpec;
            use picloud_network::flowsim::{FlowSimulator, RateAllocator};
            use picloud_network::routing::RoutingPolicy;
            use picloud_simcore::units::{Bytes, Frequency};
            let topo = Topology::multi_root_tree(4, 14, 2);
            let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
            let mut sim = FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin);
            let job = MapReduceJob::wordcount(Bytes::mib(64));
            let plan = job.plan(&hosts[..16]);
            let out = plan.execute_traced(
                &mut sim,
                Frequency::mhz(700),
                &StorageSpec::sd_card_16gb(),
                &mut sink.tracer,
                SpanContext::NONE,
            );
            SimTime::ZERO + out.makespan()
        }
        _ => SimTime::ZERO,
    }
}

/// Live tsdb drivers for summary-style experiments whose simulators can
/// be stepped along the scrape grid, so windowed queries have real
/// congestion and load curves to chew on (the summary gauges are all
/// set at one instant). Returns the last instant recorded
/// (`SimTime::ZERO` when `id` has no live driver).
fn collect_live(id: &str, seed: u64, sink: &mut TelemetrySink) -> SimTime {
    match id {
        "traffic" => {
            // One fully remote (0 % locality) replay observed live: the
            // congested case whose uplink hot-spots the windowed
            // utilisation queries should resolve.
            let p = TrafficPattern::measured_dc()
                .with_arrival_rate(10.0)
                .with_intra_rack_fraction(0.0);
            let seeds = SeedFactory::new(seed);
            TrafficExperiment::replay_live(
                &p,
                SimDuration::from_secs(30),
                &seeds,
                RateAllocator::MaxMin,
                sink,
            );
            sink.tsdb()
                .and_then(|db| db.scrape_times().last().copied())
                .unwrap_or(SimTime::ZERO)
        }
        "sla" => {
            // One webserver run near the knee (ρ ≈ 0.8): queue depth and
            // latency series breathe without the backlog saturating.
            let unit = WebSimConfig::pi_static(1.0);
            let rho = unit.rho();
            let cfg = if rho > 0.0 && rho.is_finite() {
                WebSimConfig::pi_static(0.8 / rho)
            } else {
                unit
            };
            let seeds = SeedFactory::new(seed);
            let sink_in = std::mem::replace(sink, TelemetrySink::disabled());
            let (_, live) = websim::simulate_with_telemetry(&cfg, 20_000, &seeds, sink_in);
            *sink = live;
            sink.tsdb()
                .and_then(|db| db.scrape_times().last().copied())
                .unwrap_or(SimTime::ZERO)
        }
        _ => SimTime::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve_both_ways() {
        assert_eq!(canonical_id("e17"), Some("recovery"));
        assert_eq!(canonical_id("recovery"), Some("recovery"));
        assert_eq!(canonical_id("E5"), Some("placement"));
        assert_eq!(canonical_id("table1"), Some("table1"));
        assert_eq!(canonical_id("nonsense"), None);
        // The empty fig1 alias never matches the empty string.
        assert_eq!(canonical_id(""), None);
    }

    #[test]
    fn every_listed_experiment_collects_something() {
        // The cheap summary experiments; the heavyweight sweeps
        // (placement, traffic, sla, fidelity, p2p, recovery) are covered
        // by the integration suite.
        for id in ["table1", "fig1", "fig2", "fig3", "fig4", "power", "dvfs"] {
            let t = ExperimentTelemetry::collect(id, 1).expect(id);
            assert!(!t.sink.registry.is_empty(), "{id} produced no series");
            // At least the start/end bracket; span-instrumented ids
            // (fig4's panel refreshes) add span_start/span_end pairs.
            assert!(t.sink.tracer.len() >= 2, "{id} start/end events");
            assert!(!t.metrics_jsonl().is_empty());
            assert!(!t.metrics_csv().is_empty());
            assert!(!t.metrics_prometheus().is_empty());
        }
    }

    #[test]
    fn summary_collection_is_deterministic() {
        let a = ExperimentTelemetry::collect("imagedist", 9).unwrap();
        let b = ExperimentTelemetry::collect("imagedist", 9).unwrap();
        assert_eq!(a.metrics_jsonl(), b.metrics_jsonl());
        assert_eq!(a.metrics_csv(), b.metrics_csv());
        assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn sdn_spans_show_the_control_round_trip() {
        let t = ExperimentTelemetry::collect("e8", 1).unwrap();
        let forest = t.span_forest();
        let routes: Vec<_> = forest.roots_named("sdn_route").collect();
        assert_eq!(routes.len(), 2, "one miss, one hit");
        let kids = |r: &picloud_simcore::SpanRecord| {
            forest
                .children(r.id)
                .iter()
                .map(|&c| forest.get(c).unwrap().name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(kids(routes[0]), ["packet_in", "flow_mod"]);
        assert!(kids(routes[1]).is_empty(), "cache hit has no round trip");
        assert!(t.spans_jsonl().contains("\"name\":\"packet_in\""));
        assert!(t.spans_text().contains("sdn_route"));
    }

    #[test]
    fn fig4_panel_spans_feed_the_staleness_slo() {
        let t = ExperimentTelemetry::collect("fig4", 1).unwrap();
        let forest = t.span_forest();
        assert_eq!(forest.roots_named("panel_refresh").count(), 2);
        let report = t.slo_report();
        let staleness = report
            .results
            .iter()
            .find(|r| r.rule.name == "panel_staleness")
            .expect("default policy covers panel staleness");
        assert_eq!(staleness.observed, Some(20.0));
        assert_eq!(
            staleness.verdict,
            picloud_simcore::telemetry::slo::Verdict::Pass
        );
    }

    #[test]
    fn fidelity_spans_reconstruct_the_mapreduce_job() {
        let t = ExperimentTelemetry::collect("e10", 1).unwrap();
        let forest = t.span_forest();
        let jobs: Vec<_> = forest.roots_named("mapreduce_job").collect();
        assert_eq!(jobs.len(), 1);
        let path = forest.critical_path(jobs[0].id).unwrap();
        assert_eq!(path.total(), jobs[0].duration());
        let sum: u64 = path.steps.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, path.total().as_nanos(), "blame partitions the job");
        assert!(t.critical_path_report().contains("mapreduce_job"));
    }
}
