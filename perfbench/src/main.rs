//! Benchmark worker for the Orthrus simulator. `run.py` starts one fresh
//! process per measurement and reads the JSON object it prints last:
//!
//! ```text
//! orthrus-perfbench setup  <spec.orth> <seed>
//! orthrus-perfbench run    <spec.orth> <seed>
//! orthrus-perfbench replay <spec.orth> <seed> <traced: 0|1>
//! orthrus-perfbench calibrate
//! ```
//!
//! * `setup` times the set-up path `parse` + `Spec::lower` +
//!   `Scenario::validate` + `build_simulation`, and splits it by layer,
//!   repeating it for `SETUP_SECONDS` and at least `MIN_SETUP_REPS` times.
//!   `run.py` calls it once per measured run, so the repetitions are spread
//!   over the whole measurement.
//! * `run` times one `run_scenario` call, the call the CLI makes per point,
//!   and reports the peak resident set of this process.
//! * `replay` builds the same scenario, drives it with the `all_confirmed`
//!   stop loop and inspects every replica afterwards. Untraced, it builds
//!   with `build_simulation`; traced, it rebuilds the scenario from public
//!   parts with every actor wrapped in a timing actor.
//! * `calibrate` times one pass of a fixed reference kernel, which tells
//!   `run.py` how fast the host is running at that moment.
//!
//! Only default code paths are used: the scenario carries no queue, engine
//! or execution-mode override.

mod calibrate;
mod trace;

use orthrus_core::{
    build_simulation, run_scenario, ClientNode, NetMessage, ReplicaNode, Scenario, StopCondition,
};
use orthrus_execution::{ObjectStore, TxOutcome};
use orthrus_sim::{NetworkConfig, NodeId, Simulation, SimulationReport};
use orthrus_types::{Digest, Duration, ReplicaId, SharedTx, SimTime, TxId};
use orthrus_workload::Workload;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Layer, Timed};

type Failure = String;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("orthrus-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, Failure> {
    let usage = "usage: orthrus-perfbench setup|run|replay <spec.orth> <seed> [traced: 0|1] \
                 | orthrus-perfbench calibrate";
    let (mode, path, seed) = match args {
        [mode] if mode == "calibrate" => {
            let mut out = Json::default();
            out.float("cal_s", calibrate::time_kernel());
            return Ok(out.finish());
        }
        [mode, path, seed, ..] => (mode.as_str(), path, seed),
        _ => return Err(usage.into()),
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let extra = args.get(3).map(String::as_str);
    match (mode, extra) {
        ("setup", None) => setup(&text, seed),
        ("run", None) => run(&text, seed),
        ("replay", Some(traced)) => replay(&text, seed, traced == "1"),
        _ => Err(usage.into()),
    }
}

/// Parse, lower and validate a one-point spec, with the benchmark's seed in
/// place of the spec's own.
fn lower(text: &str, seed: u64) -> Result<Scenario, Failure> {
    let spec = orthrus_lab::parse(text).map_err(|err| format!("spec: {err}"))?;
    let mut points = spec
        .lower(orthrus_lab::SpecScale::Reduced)
        .map_err(|err| format!("spec: {err}"))?;
    if points.len() != 1 {
        return Err(format!(
            "a workload spec must lower to one point, got {}",
            points.len()
        ));
    }
    let mut scenario = points.remove(0).scenario;
    scenario.seed = seed;
    scenario
        .validate()
        .map_err(|err| format!("scenario: {err}"))?;
    // The replay reproduces exactly this stop set (see `drive`).
    let stop: BTreeSet<&str> = scenario.stop.iter().map(|c| c.name()).collect();
    let wanted: BTreeSet<&str> = [StopCondition::AllConfirmed, StopCondition::SimTimeLimit]
        .iter()
        .map(|c| c.name())
        .collect();
    if stop != wanted {
        return Err("workload specs must set `stop = all_confirmed, sim_time_limit`".into());
    }
    Ok(scenario)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Set-up is cheap and noisy, so `setup` repeats it for this long, and at
/// least `MIN_SETUP_REPS` times, and reports every repetition.
const SETUP_SECONDS: f64 = 0.25;
const MIN_SETUP_REPS: usize = 3;

fn setup(text: &str, seed: u64) -> Result<String, Failure> {
    let mut setup_s = Vec::new();
    let (mut lower_ms, mut generate_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let begin = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS || secs(begin) < SETUP_SECONDS {
        // The path every `orthrus run` takes before its first event.
        let start = Instant::now();
        let scenario = lower(text, seed)?;
        let lower_s = secs(start);
        let start = Instant::now();
        let built = build_simulation(&scenario).map_err(|err| format!("build: {err}"))?;
        let build_s = secs(start);
        drop(std::hint::black_box(built));
        setup_s.push(lower_s + build_s);

        // `build_simulation` generates the workload first; time that step on
        // its own and charge the rest to genesis and actor construction.
        let start = Instant::now();
        let workload = Workload::generate(scenario.effective_workload());
        let generate_s = secs(start);
        drop(std::hint::black_box(workload));
        lower_ms.push(lower_s * 1e3);
        generate_ms.push(generate_s * 1e3);
        build_ms.push((build_s - generate_s) * 1e3);
    }
    let mut out = Json::default();
    out.list("setup_s", setup_s.iter().map(ToString::to_string));
    out.list("lab.lower_ms", lower_ms.iter().map(ToString::to_string));
    out.list(
        "workload.generate_ms",
        generate_ms.iter().map(ToString::to_string),
    );
    out.list("core.build_ms", build_ms.iter().map(ToString::to_string));
    Ok(out.finish())
}

/// The quantities both `run` and `replay` report; the identity gate in
/// `run.py` compares them field by field.
fn common(out: &mut Json, submitted: usize, confirmed: usize, report: &SimulationReport) {
    out.num("submitted", submitted);
    out.num("confirmed", confirmed);
    out.num("events", report.events_processed);
    out.num("end_time_us", report.end_time.as_micros());
    out.num("messages_sent", report.messages_sent);
    out.num("bytes_sent", report.bytes_sent);
    out.num("peak_queue_len", report.peak_queue_len);
}

fn digest_list(out: &mut Json, digests: &[(ReplicaId, Digest)]) {
    out.list(
        "digests",
        digests.iter().map(|(_, d)| format!("\"{:016x}\"", d.0)),
    );
}

fn run(text: &str, seed: u64) -> Result<String, Failure> {
    let scenario = lower(text, seed)?;
    let start = Instant::now();
    let outcome = run_scenario(&scenario).map_err(|err| format!("run: {err}"))?;
    let wall_s = secs(start);

    let mut out = Json::default();
    out.float("wall_s", wall_s);
    out.num("vm_hwm_kb", peak_rss_kb()?);
    common(
        &mut out,
        outcome.submitted,
        outcome.confirmed,
        &outcome.report,
    );
    out.num("view_changes", outcome.view_changes);
    out.num("blocks_delivered", outcome.blocks_delivered);
    out.float("throughput_ktps", outcome.throughput_ktps);
    out.num("avg_us", outcome.avg_latency.as_micros());
    out.num("p95_us", outcome.p95_latency.as_micros());
    out.num("p99_us", outcome.p99_latency.as_micros());
    out.num("peak_retained_entries", outcome.peak_retained_entries);
    digest_list(&mut out, &outcome.state_digests);
    Ok(out.finish())
}

/// `VmHWM` of this process from `/proc/self/status`, in kB.
fn peak_rss_kb() -> Result<u64, Failure> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `build_simulation` rebuilt from public parts, step for step, with every
/// actor wrapped in a timing actor. Returns the simulation and the number of
/// transactions submitted, as `build_simulation` does.
fn assemble(scenario: &Scenario) -> (Simulation<NetMessage>, usize) {
    let workload = Workload::generate(scenario.effective_workload());
    let mut genesis = ObjectStore::new();
    workload.install_genesis(&mut genesis);
    let network = NetworkConfig::for_kind(scenario.network);
    let mut sim = Simulation::with_faults(network, scenario.faults.clone(), scenario.seed);
    let mut config = scenario.config.clone();
    config.num_client_actors = scenario.num_clients;

    for r in 0..config.num_replicas {
        let replica = ReplicaId::new(r);
        let mut node =
            ReplicaNode::new(replica, scenario.protocol, config.clone(), genesis.clone());
        if scenario.faults.is_selfish(replica) {
            node.set_selfish(true);
        }
        sim.add_actor(NodeId::Replica(replica), Box::new(Timed(node)));
    }

    let total = workload.transactions.len().max(1) as u64;
    let window_us = scenario.submission_window.as_micros();
    let mut schedules: Vec<Vec<(Duration, SharedTx)>> =
        (0..scenario.num_clients).map(|_| Vec::new()).collect();
    for (idx, tx) in workload.transactions.iter().enumerate() {
        let offset = Duration::from_micros(window_us * idx as u64 / total);
        let actor = config.client_actor_of(tx.id.client).value() as usize;
        schedules[actor].push((offset, Arc::clone(tx)));
    }
    for (c, schedule) in schedules.into_iter().enumerate() {
        let client = ClientNode::new(config.clone(), schedule);
        sim.add_actor(NodeId::client(c as u64), Box::new(Timed(client)));
    }
    (sim, workload.transactions.len())
}

/// `run_scenario`'s loop for `stop = all_confirmed, sim_time_limit`: one
/// simulated second per `run_until` slice until every transaction is
/// confirmed or the budget is spent. Each slice is one parent span.
fn drive(sim: &mut Simulation<NetMessage>, submitted: usize, budget: Duration) -> SimulationReport {
    let deadline = SimTime::ZERO + budget;
    let mut last = SimulationReport {
        end_time: SimTime::ZERO,
        events_processed: 0,
        messages_sent: 0,
        bytes_sent: 0,
        peak_queue_len: 0,
    };
    while sim.now() < deadline {
        let slice_end = (sim.now() + Duration::from_secs(1)).min(deadline);
        last = trace::parent_span(Layer::RunUntil, || sim.run_until(slice_end));
        if sim.stats().confirmed_count() >= submitted && submitted > 0 {
            break;
        }
    }
    SimulationReport {
        end_time: sim.now(),
        messages_sent: sim.stats().messages_sent,
        bytes_sent: sim.stats().bytes_sent,
        ..last
    }
}

fn replay(text: &str, seed: u64, traced: bool) -> Result<String, Failure> {
    let scenario = lower(text, seed)?;
    let start = Instant::now();
    let (mut sim, submitted) = if traced {
        assemble(&scenario)
    } else {
        build_simulation(&scenario).map_err(|err| format!("build: {err}"))?
    };
    let report = drive(&mut sim, submitted, scenario.max_sim_time);
    let wall_s = secs(start);
    let spans = trace::take();
    // The workload is a pure function of the scenario; regenerate it for the
    // transaction ids the divergence check needs.
    let transactions: Vec<TxId> = Workload::generate(scenario.effective_workload())
        .transactions
        .iter()
        .map(|tx| tx.id)
        .collect();

    let n = scenario.config.num_replicas;
    let replicas: Vec<(ReplicaId, &ReplicaNode)> = (0..n)
        .map(ReplicaId::new)
        .filter_map(|r| {
            sim.actor_as::<ReplicaNode>(NodeId::Replica(r))
                .map(|node| (r, node))
        })
        .collect();
    if replicas.len() != n as usize {
        return Err("a replica is missing from the simulation".into());
    }
    // Honest replicas are the ones `run_scenario` expects to agree: neither
    // selfish nor crashed for good within the time budget.
    let budget_end = SimTime::ZERO + scenario.max_sim_time;
    let honest: Vec<&ReplicaNode> = replicas
        .iter()
        .filter(|(r, _)| {
            !scenario.faults.is_selfish(*r) && !scenario.faults.is_crashed(*r, budget_end)
        })
        .map(|(_, node)| *node)
        .collect();
    let digests: Vec<(ReplicaId, Digest)> = replicas
        .iter()
        .map(|(r, node)| (*r, node.executor().state_digest()))
        .collect();
    let digest_groups: BTreeSet<Digest> = honest
        .iter()
        .map(|node| node.executor().state_digest())
        .collect();
    // A transaction diverges when two honest replicas both decided it and
    // disagree on commit versus abort.
    let divergent = transactions
        .iter()
        .filter(|tx| {
            let mut seen: Option<TxOutcome> = None;
            honest
                .iter()
                .any(|node| match (seen, node.executor().outcome(**tx)) {
                    (_, None) => false,
                    (None, Some(o)) => {
                        seen = Some(o);
                        false
                    }
                    (Some(a), Some(b)) => a != b,
                })
        })
        .count();

    let stats = sim.stats();
    let first = replicas[0].1;
    let executor = first.executor();
    let recovered_at_us = replicas
        .iter()
        .filter_map(|(_, node)| node.recovered_at())
        .map(SimTime::as_micros)
        .max()
        .unwrap_or(0);

    let mut out = Json::default();
    out.float("wall_s", wall_s);
    common(
        &mut out,
        transactions.len(),
        stats.confirmed_count(),
        &report,
    );
    out.num("view_changes", stats.view_changes);
    out.num("blocks_delivered", stats.blocks_delivered);
    out.float("throughput_ktps", stats.throughput_ktps());
    out.num("avg_us", stats.average_latency().as_micros());
    out.num("p95_us", stats.latency_percentile(0.95).as_micros());
    out.num("p99_us", stats.latency_percentile(0.99).as_micros());
    out.num("peak_retained_entries", first.peak_retained_entries());
    digest_list(&mut out, &digests);
    out.num("p50_us", stats.latency_percentile(0.5).as_micros());
    out.num("latency_samples", stats.latencies().len());
    out.num("divergent_tx", divergent);
    out.num("digest_groups", digest_groups.len());
    out.num("glog_blocks", first.global_log().len());
    out.num("committed", executor.committed_count());
    out.num("aborted", executor.aborted_count());
    out.num("recovered_at_us", recovered_at_us);
    if traced {
        let mut body = Json::default();
        for layer in Layer::ALL {
            let span = spans.get(layer);
            let triple = format!("[{},{},{}]", span.count, span.total_ns, span.child_ns);
            body.raw(layer.name(), triple);
        }
        out.raw("spans", body.finish());
        out.num("deliver_execs", spans.deliver_execs);
    }
    Ok(out.finish())
}

/// A flat JSON object written by hand (the workspace has no serde).
#[derive(Default)]
struct Json(String);

impl Json {
    fn raw(&mut self, key: &str, value: String) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{value}");
    }

    fn num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.raw(key, value.to_string());
    }

    fn float(&mut self, key: &str, value: f64) {
        // `{:?}` prints the shortest text that parses back to the same f64.
        self.raw(key, format!("{value:?}"));
    }

    fn list(&mut self, key: &str, values: impl Iterator<Item = String>) {
        self.raw(key, format!("[{}]", values.collect::<Vec<_>>().join(",")));
    }

    fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}
