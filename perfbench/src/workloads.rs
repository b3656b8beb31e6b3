//! The four workloads: what one op runs, the references its output is
//! checked against, and the per-layer counts read off public accessors.
//!
//! An op is timed; turning its raw output into an [`OpOutput`] and
//! checking that against the [`Reference`] is not.

use crate::host::Digest;
use crate::trace::Tracer;
use picloud::experiments::estimate_exp::{EstimateExperiment, FABRIC_TIERS_MBPS, LOCALITIES};
use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::ExperimentTelemetry;
use picloud_network::flowsim::estimate::{EstimateConfig, EstimateOutcome, FlowEstimator};
use picloud_network::flowsim::{FlowSimulator, RateAllocator, RecomputeMode};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{LinkRates, Topology};
use picloud_simcore::telemetry::tsdb::QueryFn;
use picloud_simcore::units::Bandwidth;
use picloud_simcore::{EDist, SeedFactory, SimDuration};
use picloud_workloads::traffic::{TrafficPattern, TrafficWorkload};
use std::collections::BTreeMap;

/// Seed used when none is given: the paper's year, and the seed the
/// estimator's blend was fitted at.
pub const DEFAULT_SEED: u64 = 2013;

/// Input sets per run: the run's seed itself, then seeds derived from
/// it. Set-up runs one warm-up op on each, so `setup_s` and
/// `peak_heap_mb` are medians over several draws of the inputs.
pub const SETUP_INPUTS: usize = 8;

/// Seeds at which the repository pins the estimator's p99 bound
/// (`tests/estimate.rs`; EXPERIMENTS.md §S2 calls the bound a regression
/// pin at these seeds). Elsewhere the error is measured and reported.
pub const P99_PINNED_SEEDS: [u64; 2] = [2013, 7];

/// The seed of input set `i` of a run at `seed`: `seed` itself for
/// input 0, a SplitMix64 hash of both for the rest.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = (seed ^ (i as u64).rotate_left(32)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fabric rate of the exact-solver workloads (E7's ToR–aggregation
/// budget: 3.5:1 rack oversubscription).
const FABRIC_MBPS: u64 = 200;
/// Arrival horizon of one exact-solver op (E7's).
const FABRIC_HORIZON: SimDuration = SimDuration::from_secs(30);
/// Arrival horizon of each estimate-grid scenario (`picloud-cli estimate`'s).
const ESTIMATE_HORIZON: SimDuration = SimDuration::from_secs(10);

// Layer span names. The per-layer metric of span `x` is `x.self_s`.
pub const TOPOLOGY_BUILD: &str = "network.topology.build";
pub const TRAFFIC_GENERATE: &str = "workloads.traffic.generate";
pub const FLOWSIM_NEW: &str = "network.flowsim.new";
pub const FLOWSIM_REPLAY: &str = "network.flowsim.replay";
pub const FLOWSIM_DRAIN: &str = "network.flowsim.drain";
pub const ESTIMATE: &str = "network.estimate.estimate";
pub const RECOVERY_RUN: &str = "core.recovery.run";
pub const TELEMETRY_COLLECT: &str = "core.telemetry.collect";
pub const METRICS_JSONL: &str = "simcore.telemetry.metrics_jsonl";
pub const SPANS_JSONL: &str = "simcore.spans.jsonl";
pub const ALERTS: &str = "simcore.slo.alerts";
pub const QUERY: &str = "simcore.tsdb.query";

/// Every layer span any workload records.
pub const LAYER_SPANS: [&str; 12] = [
    TRAFFIC_GENERATE,
    TOPOLOGY_BUILD,
    FLOWSIM_NEW,
    FLOWSIM_REPLAY,
    FLOWSIM_DRAIN,
    ESTIMATE,
    RECOVERY_RUN,
    TELEMETRY_COLLECT,
    METRICS_JSONL,
    SPANS_JSONL,
    ALERTS,
    QUERY,
];

/// Every per-layer count any workload reports, with its unit. A
/// workload that never enters a layer reports its counts as 0.
pub const LAYER_COUNTS: [(&str, &str); 32] = [
    ("workloads.traffic.flows", "count"),
    ("workloads.traffic.bursts", "count"),
    ("network.flowsim.solves", "count"),
    ("network.flowsim.solves_spine", "count"),
    ("network.flowsim.solves_local", "count"),
    ("network.flowsim.solves_per_flow", "ratio"),
    ("network.flowsim.spine_share", "ratio"),
    ("network.flowsim.solve_skew", "ratio"),
    ("network.flowsim.workers", "count"),
    ("network.flowsim.completed", "count"),
    ("network.estimate.clusters", "count"),
    ("network.estimate.loaded_resources", "count"),
    ("network.estimate.links_per_cluster", "ratio"),
    ("network.estimate.rep_flows", "count"),
    ("network.estimate.rep_flow_share", "ratio"),
    ("est_p99_err", "ratio"),
    ("core.recovery.events", "count"),
    ("faults.rpc.calls", "count"),
    ("faults.rpc.retries", "count"),
    ("faults.rpc.timeouts", "count"),
    ("faults.rpc.reply_ratio", "ratio"),
    ("core.recovery.detections", "count"),
    ("core.recovery.rescheduled", "count"),
    ("simcore.tsdb.samples", "count"),
    ("simcore.tsdb.series", "count"),
    ("simcore.tsdb.bytes_per_sample", "B"),
    ("simcore.tracer.events", "count"),
    ("simcore.tracer.dropped", "count"),
    ("simcore.telemetry.metrics_jsonl.bytes", "B"),
    ("simcore.spans.jsonl.bytes", "B"),
    ("simcore.slo.alerts.bytes", "B"),
    ("simcore.tsdb.query.bytes", "B"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FabricRemote,
    FabricLocal,
    EstimateGrid,
    RecoverySession,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FabricRemote,
        Workload::FabricLocal,
        Workload::EstimateGrid,
        Workload::RecoverySession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricRemote => "fabric_remote",
            Workload::FabricLocal => "fabric_local",
            Workload::EstimateGrid => "estimate_grid",
            Workload::RecoverySession => "recovery_session",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How many of the run's [`SETUP_INPUTS`] input sets the timed window
    /// cycles through. fabric_remote's op time differs by about 6%
    /// (coefficient of variation) between inputs, so its window covers
    /// all of them and its medians do not hinge on one draw. The others
    /// differ by 2% or less, except recovery_session, whose rare seeds
    /// with very large traces take 20–30% longer: mixing those into every
    /// window would make its tail flip between runs. These windows stay
    /// on the run's own seed.
    pub fn timed_inputs(self) -> usize {
        match self {
            Workload::FabricRemote => SETUP_INPUTS,
            _ => 1,
        }
    }

    /// What [`OpOutput::work`] counts, as the metric a user reads:
    /// `flows_per_s` or `events_per_s`.
    pub fn work_metric(self) -> &'static str {
        match self {
            Workload::RecoverySession => "events_per_s",
            _ => "flows_per_s",
        }
    }
}

/// What one op returned, before any digesting or checking.
pub enum Raw {
    Fabric {
        workload: TrafficWorkload,
        sim: FlowSimulator,
    },
    Estimate {
        scenarios: Vec<(TrafficWorkload, EstimateOutcome, f64)>,
    },
    Recovery {
        exp: RecoveryExperiment,
        telemetry: ExperimentTelemetry,
        /// The table, then the metrics, spans, alerts and query exports.
        exports: [String; 5],
    },
}

/// One op's output, reduced to what the checks and metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// Digest of everything the op produced that a user reads.
    pub digest: u64,
    /// Flows completed (exact), flows predicted (estimate) or events
    /// fired (recovery).
    pub work: u64,
    /// Exact per-layer counts, keyed by [`LAYER_COUNTS`] names.
    pub counts: BTreeMap<&'static str, f64>,
    pub facts: Facts,
}

/// The facts each workload's output checks look at.
#[derive(Debug, Clone, PartialEq)]
pub enum Facts {
    Fabric {
        generated: u64,
        completed: u64,
        total_bytes: u64,
        completed_bytes: u64,
    },
    Estimate {
        scenarios: Vec<ScenarioFacts>,
    },
    Recovery {
        table_mttr: Option<SimDuration>,
        span_mttr: Option<SimDuration>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFacts {
    pub flows: usize,
    /// Predictions that are finite and positive.
    pub valid_predictions: usize,
    pub predictions: usize,
    pub p99_secs: f64,
}

/// What every timed op is checked against, computed before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// fabric_*: the digest of a `RecomputeMode::Full` replay of the same
    /// inputs; the others: the warm-up op's digest.
    pub digest: u64,
    /// estimate_grid: the exact solver's p99 FCT per scenario, grid order.
    pub exact_p99: Vec<f64>,
    /// estimate_grid at a pinned seed: the bound on the worst p99 error.
    pub p99_bound: Option<f64>,
}

fn topology(fabric_mbps: u64) -> Topology {
    let rates = LinkRates {
        access: Bandwidth::mbps(100),
        fabric: Bandwidth::mbps(fabric_mbps),
    };
    Topology::multi_root_tree_with(4, 14, 2, rates)
}

fn pattern(locality: f64) -> TrafficPattern {
    TrafficPattern::measured_dc()
        .with_arrival_rate(10.0)
        .with_intra_rack_fraction(locality)
}

/// The grid of `picloud-cli estimate`: fabric tiers outermost.
fn estimate_grid() -> impl Iterator<Item = (u64, f64)> {
    FABRIC_TIERS_MBPS
        .into_iter()
        .flat_map(|tier| LOCALITIES.into_iter().map(move |loc| (tier, loc)))
}

/// Exact replay of `workload` on `topo`, without spans.
fn exact_replay(
    topo: Topology,
    workload: &TrafficWorkload,
    mode: RecomputeMode,
) -> Result<FlowSimulator, String> {
    let mut sim = FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin);
    sim.set_recompute_mode(mode);
    workload
        .replay_on(&mut sim)
        .map_err(|e| format!("replay failed: {e}"))?;
    sim.run_to_completion();
    Ok(sim)
}

/// Distinct arrival instants: the number of `inject_batch` calls a
/// replay makes. Events are time-ordered.
fn bursts(workload: &TrafficWorkload) -> usize {
    let ev = workload.events();
    ev.windows(2).filter(|w| w[0].0 != w[1].0).count() + usize::from(!ev.is_empty())
}

/// `|est − exact| / exact`, 0 when the exact value is 0 (as S2 reports it).
fn rel_err(est: f64, exact: f64) -> f64 {
    if exact > 0.0 {
        (est - exact).abs() / exact
    } else {
        0.0
    }
}

/// The workload parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
}

impl Bench {
    /// Runs one op, recording a span around each layer call.
    pub fn op(&self, tr: &mut Tracer) -> Result<Raw, String> {
        match self.workload {
            Workload::FabricRemote => self.fabric_op(0.0, 1, tr),
            Workload::FabricLocal => self.fabric_op(1.0, 2, tr),
            Workload::EstimateGrid => Ok(self.estimate_op(tr)),
            Workload::RecoverySession => self.recovery_op(tr),
        }
    }

    fn fabric_op(&self, locality: f64, workers: usize, tr: &mut Tracer) -> Result<Raw, String> {
        let topo = tr.span(TOPOLOGY_BUILD, || topology(FABRIC_MBPS));
        let workload = tr.span(TRAFFIC_GENERATE, || {
            pattern(locality).generate(&topo, FABRIC_HORIZON, &SeedFactory::new(self.seed))
        });
        let mut sim = tr.span(FLOWSIM_NEW, || {
            FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin)
                .with_workers(workers)
        });
        tr.span(FLOWSIM_REPLAY, || workload.replay_on(&mut sim))
            .map_err(|e| format!("replay failed: {e}"))?;
        tr.span(FLOWSIM_DRAIN, || sim.run_to_completion());
        Ok(Raw::Fabric { workload, sim })
    }

    fn estimate_op(&self, tr: &mut Tracer) -> Raw {
        let seeds = SeedFactory::new(self.seed);
        let scenarios = estimate_grid()
            .map(|(tier, loc)| {
                let topo = tr.span(TOPOLOGY_BUILD, || topology(tier));
                let workload = tr.span(TRAFFIC_GENERATE, || {
                    pattern(loc).generate(&topo, ESTIMATE_HORIZON, &seeds)
                });
                let est = FlowEstimator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin)
                    .with_workers(1)
                    .with_config(EstimateConfig::seeded(self.seed));
                let (outcome, p99) = tr.span(ESTIMATE, || {
                    let outcome = est.estimate(workload.events());
                    let p99 = outcome.fct_dist().quantile(0.99);
                    (outcome, p99)
                });
                (workload, outcome, p99)
            })
            .collect();
        Raw::Estimate { scenarios }
    }

    fn recovery_op(&self, tr: &mut Tracer) -> Result<Raw, String> {
        let (exp, table) = tr.span(RECOVERY_RUN, || {
            let exp = RecoveryExperiment::run(self.seed);
            let table = exp.to_string();
            (exp, table)
        });
        let telemetry = tr
            .span(TELEMETRY_COLLECT, || {
                ExperimentTelemetry::collect("e17", self.seed)
            })
            .ok_or("no telemetry for e17")?;
        let metrics = tr.span(METRICS_JSONL, || telemetry.metrics_jsonl());
        let spans = tr.span(SPANS_JSONL, || telemetry.spans_jsonl());
        let alerts = tr
            .span(ALERTS, || telemetry.alerts_jsonl())
            .ok_or("e17 telemetry has no time-series store")?;
        let query = tr
            .span(QUERY, || {
                telemetry.query_jsonl(
                    "container_fleet_dark",
                    &[],
                    QueryFn::AvgOverTime,
                    SimDuration::from_secs(120),
                    Some(SimDuration::from_secs(60)),
                )
            })
            .filter(|q| !q.is_empty())
            .ok_or("the container_fleet_dark query matched nothing")?;
        Ok(Raw::Recovery {
            exp,
            telemetry,
            exports: [table, metrics, spans, alerts, query],
        })
    }

    /// What the timed ops are checked against. `warm` is the warm-up
    /// op's output; the exact oracles run here, outside the set-up time.
    pub fn reference(&self, warm: &OpOutput) -> Result<Reference, String> {
        Ok(match self.workload {
            Workload::FabricRemote | Workload::FabricLocal => {
                let locality = if self.workload == Workload::FabricRemote {
                    0.0
                } else {
                    1.0
                };
                let topo = topology(FABRIC_MBPS);
                let workload =
                    pattern(locality).generate(&topo, FABRIC_HORIZON, &SeedFactory::new(self.seed));
                let sim = exact_replay(topo, &workload, RecomputeMode::Full)?;
                Reference {
                    digest: fabric_digest(&sim),
                    exact_p99: Vec::new(),
                    p99_bound: None,
                }
            }
            Workload::EstimateGrid => {
                let seeds = SeedFactory::new(self.seed);
                let exact_p99 = estimate_grid()
                    .map(|(tier, loc)| {
                        let topo = topology(tier);
                        let workload = pattern(loc).generate(&topo, ESTIMATE_HORIZON, &seeds);
                        let sim = exact_replay(topo, &workload, RecomputeMode::Incremental)?;
                        let fcts = sim.completed().iter().map(|c| c.fct().as_secs_f64());
                        Ok(EDist::from_samples(fcts.collect()).quantile(0.99))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                Reference {
                    digest: warm.digest,
                    exact_p99,
                    p99_bound: P99_PINNED_SEEDS
                        .contains(&self.seed)
                        .then_some(EstimateExperiment::P99_ERROR_BOUND),
                }
            }
            Workload::RecoverySession => Reference {
                digest: warm.digest,
                exact_p99: Vec::new(),
                p99_bound: None,
            },
        })
    }
}

/// Each completed flow's id, start and finish, then per-link bytes.
fn fabric_digest(sim: &FlowSimulator) -> u64 {
    let mut d = Digest::new();
    for c in sim.completed() {
        d.word(c.id.0)
            .word(c.started.as_nanos())
            .word(c.finished.as_nanos());
    }
    for l in sim.topology().links() {
        d.word(sim.link_bytes_carried(l.id).to_bits());
    }
    d.finish()
}

/// Digests the raw output and reads its per-layer counts.
pub fn summarise(raw: &Raw) -> OpOutput {
    let mut counts = BTreeMap::new();
    match raw {
        Raw::Fabric { workload, sim } => {
            let flows = workload.len() as f64;
            let solves = sim.partition_solves();
            let (spine, local) = solves.split_last().map_or((0, &[][..]), |(s, l)| (*s, l));
            let local_total: u64 = local.iter().sum();
            let total = (spine + local_total) as f64;
            let local_mean = local_total as f64 / local.len().max(1) as f64;
            let local_max = local.iter().copied().max().unwrap_or(0) as f64;
            let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
            counts.extend([
                ("workloads.traffic.flows", flows),
                ("workloads.traffic.bursts", bursts(workload) as f64),
                ("network.flowsim.solves", total),
                ("network.flowsim.solves_spine", spine as f64),
                ("network.flowsim.solves_local", local_total as f64),
                ("network.flowsim.solves_per_flow", ratio(total, flows)),
                ("network.flowsim.spine_share", ratio(spine as f64, total)),
                ("network.flowsim.solve_skew", ratio(local_max, local_mean)),
                ("network.flowsim.workers", sim.workers() as f64),
                ("network.flowsim.completed", sim.completed_total() as f64),
            ]);
            OpOutput {
                digest: fabric_digest(sim),
                work: sim.completed_total(),
                counts,
                facts: Facts::Fabric {
                    generated: workload.len() as u64,
                    completed: sim.completed_total(),
                    total_bytes: workload.total_bytes().as_u64(),
                    completed_bytes: sim.completed().iter().map(|c| c.spec.size.as_u64()).sum(),
                },
            }
        }
        Raw::Estimate { scenarios } => {
            let mut d = Digest::new();
            let mut facts = Vec::with_capacity(scenarios.len());
            let (mut flows, mut bursts_n, mut clusters, mut loaded, mut rep) = (0, 0, 0, 0, 0);
            for (workload, out, p99) in scenarios {
                for p in &out.predictions {
                    d.word(p.start.as_nanos()).word(p.fct_secs.to_bits());
                }
                d.word(out.cluster_count() as u64)
                    .word(out.rep_flows_solved as u64)
                    .word(p99.to_bits());
                facts.push(ScenarioFacts {
                    flows: workload.len(),
                    valid_predictions: out
                        .predictions
                        .iter()
                        .filter(|p| p.fct_secs.is_finite() && p.fct_secs > 0.0)
                        .count(),
                    predictions: out.predictions.len(),
                    p99_secs: *p99,
                });
                flows += workload.len();
                bursts_n += bursts(workload);
                clusters += out.cluster_count();
                loaded += out.loaded_resources;
                rep += out.rep_flows_solved;
            }
            let predicted: usize = facts.iter().map(|f| f.predictions).sum();
            counts.extend([
                ("workloads.traffic.flows", flows as f64),
                ("workloads.traffic.bursts", bursts_n as f64),
                ("network.estimate.clusters", clusters as f64),
                ("network.estimate.loaded_resources", loaded as f64),
                (
                    "network.estimate.links_per_cluster",
                    loaded as f64 / clusters.max(1) as f64,
                ),
                ("network.estimate.rep_flows", rep as f64),
                (
                    "network.estimate.rep_flow_share",
                    rep as f64 / predicted.max(1) as f64,
                ),
            ]);
            OpOutput {
                digest: d.finish(),
                work: predicted as u64,
                counts,
                facts: Facts::Estimate { scenarios: facts },
            }
        }
        Raw::Recovery {
            exp,
            telemetry,
            exports,
        } => {
            let r = &exp.report;
            let mut d = Digest::new();
            for e in exports {
                d.bytes(e.as_bytes());
            }
            let tsdb = telemetry.tsdb();
            let tracer = &telemetry.sink.tracer;
            counts.extend([
                ("core.recovery.events", r.events_fired as f64),
                ("faults.rpc.calls", r.rpc.calls as f64),
                ("faults.rpc.retries", r.rpc.retries as f64),
                ("faults.rpc.timeouts", r.rpc.timeouts as f64),
                (
                    "faults.rpc.reply_ratio",
                    r.rpc.replies as f64 / r.rpc.calls.max(1) as f64,
                ),
                ("core.recovery.detections", r.detections as f64),
                ("core.recovery.rescheduled", r.rescheduled as f64),
                (
                    "simcore.tsdb.samples",
                    tsdb.map_or(0.0, |db| db.samples() as f64),
                ),
                (
                    "simcore.tsdb.series",
                    tsdb.map_or(0.0, |db| db.series_count() as f64),
                ),
                (
                    "simcore.tsdb.bytes_per_sample",
                    tsdb.map_or(0.0, |db| db.bytes_per_sample()),
                ),
                ("simcore.tracer.events", tracer.emitted() as f64),
                ("simcore.tracer.dropped", tracer.dropped() as f64),
                (
                    "simcore.telemetry.metrics_jsonl.bytes",
                    exports[1].len() as f64,
                ),
                ("simcore.spans.jsonl.bytes", exports[2].len() as f64),
                ("simcore.slo.alerts.bytes", exports[3].len() as f64),
                ("simcore.tsdb.query.bytes", exports[4].len() as f64),
            ]);
            OpOutput {
                digest: d.finish(),
                work: r.events_fired,
                counts,
                facts: Facts::Recovery {
                    table_mttr: r.mean_time_to_restore,
                    span_mttr: telemetry.span_mttr(),
                },
            }
        }
    }
}

/// The worst p99-FCT relative error of the estimate grid against the
/// exact references.
pub fn p99_error(scenarios: &[ScenarioFacts], exact_p99: &[f64]) -> Result<f64, String> {
    if scenarios.len() != exact_p99.len() {
        return Err(format!(
            "{} scenarios against {} exact references",
            scenarios.len(),
            exact_p99.len()
        ));
    }
    Ok(scenarios
        .iter()
        .zip(exact_p99)
        .map(|(s, &x)| rel_err(s.p99_secs, x))
        .fold(0.0, f64::max))
}

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The output checks. An op whose output fails one counts as failed.
pub fn check(out: &OpOutput, reference: &Reference) -> Result<(), String> {
    match &out.facts {
        Facts::Fabric {
            generated,
            completed,
            total_bytes,
            completed_bytes,
        } => {
            ensure(out.digest == reference.digest, || {
                "digest differs from the Full-recompute oracle's".into()
            })?;
            ensure(completed == generated, || {
                format!("{completed} flows completed of {generated} generated")
            })?;
            ensure(completed_bytes == total_bytes, || {
                format!("{completed_bytes} bytes completed of {total_bytes} offered")
            })
        }
        Facts::Estimate { scenarios } => {
            for (i, s) in scenarios.iter().enumerate() {
                ensure(
                    s.predictions == s.flows && s.valid_predictions == s.flows,
                    || {
                        format!(
                            "scenario {i}: {} predictions ({} finite and positive) for {} flows",
                            s.predictions, s.valid_predictions, s.flows
                        )
                    },
                )?;
            }
            ensure(out.digest == reference.digest, || {
                "digest differs from the warm-up op's".into()
            })?;
            let err = p99_error(scenarios, &reference.exact_p99)?;
            match reference.p99_bound {
                Some(bound) => ensure(err <= bound, || {
                    format!("worst p99 error {err:.4} exceeds the pinned bound {bound}")
                }),
                None => Ok(()),
            }
        }
        Facts::Recovery {
            table_mttr,
            span_mttr,
        } => {
            ensure(span_mttr == table_mttr, || {
                format!("span MTTR {span_mttr:?} differs from the table's {table_mttr:?}")
            })?;
            ensure(out.digest == reference.digest, || {
                "export digest differs from the warm-up op's".into()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Two ops and the reference per workload, at the default seed.
    struct Fixture {
        a: OpOutput,
        b: OpOutput,
        reference: Reference,
    }

    fn fixture(w: Workload) -> &'static Fixture {
        static CELLS: [OnceLock<Fixture>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        let i = Workload::ALL.iter().position(|&x| x == w).expect("listed");
        CELLS[i].get_or_init(|| {
            let bench = Bench {
                workload: w,
                seed: DEFAULT_SEED,
            };
            let mut tr = Tracer::new(false);
            let op = |tr: &mut Tracer| summarise(&bench.op(tr).expect("op runs"));
            let a = op(&mut tr);
            let b = op(&mut tr);
            let reference = bench.reference(&a).expect("reference");
            Fixture { a, b, reference }
        })
    }

    fn rejects(out: &OpOutput, reference: &Reference, corrupt: impl FnOnce(&mut OpOutput)) {
        let mut bad = out.clone();
        corrupt(&mut bad);
        assert!(check(&bad, reference).is_err(), "{:?}", bad.facts);
    }

    #[test]
    fn same_seed_ops_give_identical_output() {
        for w in Workload::ALL {
            let f = fixture(w);
            assert_eq!(f.a, f.b, "{}", w.name());
            assert!(f.a.work > 0, "{}", w.name());
        }
    }

    #[test]
    fn every_workload_passes_its_checks() {
        for w in Workload::ALL {
            let f = fixture(w);
            check(&f.a, &f.reference).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn fabric_checks_catch_corruption() {
        for w in [Workload::FabricRemote, Workload::FabricLocal] {
            let Fixture { a, reference, .. } = fixture(w);
            rejects(a, reference, |o| o.digest ^= 1);
            let mut other = reference.clone();
            other.digest ^= 1;
            assert!(check(a, &other).is_err());
            rejects(a, reference, |o| {
                if let Facts::Fabric { completed, .. } = &mut o.facts {
                    *completed -= 1;
                }
            });
            rejects(a, reference, |o| {
                if let Facts::Fabric {
                    completed_bytes, ..
                } = &mut o.facts
                {
                    *completed_bytes += 1;
                }
            });
        }
    }

    #[test]
    fn estimate_checks_catch_corruption() {
        let Fixture { a, reference, .. } = fixture(Workload::EstimateGrid);
        let scenario = |o: &mut OpOutput| match &mut o.facts {
            Facts::Estimate { scenarios } => scenarios[7].clone(),
            _ => unreachable!(),
        };
        let set = |o: &mut OpOutput, s: ScenarioFacts| {
            if let Facts::Estimate { scenarios } = &mut o.facts {
                scenarios[7] = s;
            }
        };
        rejects(a, reference, |o| {
            let s = scenario(o);
            set(
                o,
                ScenarioFacts {
                    predictions: s.predictions - 1,
                    ..s
                },
            );
        });
        rejects(a, reference, |o| {
            let s = scenario(o);
            set(
                o,
                ScenarioFacts {
                    valid_predictions: s.valid_predictions - 1,
                    ..s
                },
            );
        });
        rejects(a, reference, |o| o.digest ^= 1);
        rejects(a, reference, |o| {
            let s = scenario(o);
            let p99_secs = s.p99_secs * (2.0 + EstimateExperiment::P99_ERROR_BOUND);
            set(o, ScenarioFacts { p99_secs, ..s });
        });
        let mut short = reference.clone();
        short.exact_p99.pop();
        assert!(check(a, &short).is_err());
    }

    #[test]
    fn estimate_validity_counts_bad_predictions() {
        let bench = Bench {
            workload: Workload::EstimateGrid,
            seed: DEFAULT_SEED,
        };
        let Raw::Estimate { mut scenarios } = bench.estimate_op(&mut Tracer::new(false)) else {
            unreachable!()
        };
        scenarios[3].1.predictions[0].fct_secs = f64::NAN;
        scenarios[4].1.predictions[0].fct_secs = 0.0;
        let out = summarise(&Raw::Estimate { scenarios });
        let Facts::Estimate { scenarios } = &out.facts else {
            unreachable!()
        };
        assert_eq!(scenarios[3].valid_predictions + 1, scenarios[3].flows);
        assert_eq!(scenarios[4].valid_predictions + 1, scenarios[4].flows);
        assert!(check(&out, &fixture(Workload::EstimateGrid).reference).is_err());
    }

    #[test]
    fn recovery_checks_catch_corruption() {
        let Fixture { a, reference, .. } = fixture(Workload::RecoverySession);
        rejects(a, reference, |o| o.digest ^= 1);
        rejects(a, reference, |o| {
            if let Facts::Recovery { span_mttr, .. } = &mut o.facts {
                *span_mttr = span_mttr.map(|d| d + SimDuration::from_nanos(1));
            }
        });
    }

    #[test]
    fn fabric_counts_reproduce_the_baseline_shape() {
        let remote = &fixture(Workload::FabricRemote).a.counts;
        let local = &fixture(Workload::FabricLocal).a.counts;
        assert!(remote["network.flowsim.solves_spine"] > 0.0);
        assert_eq!(local["network.flowsim.solves_spine"], 0.0);
        assert_eq!(remote["network.flowsim.workers"], 1.0);
        assert_eq!(local["network.flowsim.workers"], 2.0);
    }

    #[test]
    fn input_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(input_seed(DEFAULT_SEED, 0), DEFAULT_SEED);
        let seeds: std::collections::BTreeSet<u64> = (0..SETUP_INPUTS)
            .map(|i| input_seed(DEFAULT_SEED, i))
            .collect();
        assert_eq!(seeds.len(), SETUP_INPUTS);
        assert_ne!(input_seed(1, 1), input_seed(2, 1));
    }

    #[test]
    fn p99_bound_applies_only_at_pinned_seeds() {
        let pinned = &fixture(Workload::EstimateGrid).reference;
        assert_eq!(pinned.p99_bound, Some(EstimateExperiment::P99_ERROR_BOUND));
        let bench = Bench {
            workload: Workload::EstimateGrid,
            seed: 1,
        };
        let out = summarise(&bench.op(&mut Tracer::new(false)).expect("op runs"));
        let held_out = bench.reference(&out).expect("reference");
        assert_eq!(held_out.p99_bound, None);
        check(&out, &held_out).expect("no bound is claimed at a held-out seed");
    }

    #[test]
    fn counts_are_declared() {
        for w in Workload::ALL {
            for name in fixture(w).a.counts.keys() {
                assert!(LAYER_COUNTS.iter().any(|(n, _)| n == name), "{name}");
            }
        }
    }
}
