//! The enforcer benchmark: seeded fleet captures replayed as raw wire frames
//! through `Engine::ingest_bytes_into`, every verdict checked against a
//! validated reference.  `main.rs` runs it; `trace.rs` holds the traced
//! per-layer mode.  See `README.md` for the workloads and metrics.

pub mod trace;

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use borderpatrol::analysis::scenario::{
    AdversaryModel, AdversaryProfile, ConnectRate, PreparedScenario, ScenarioReport, ScenarioSpec,
};
use borderpatrol::appsim::{AppSpec, CorpusGenerator, LibraryCatalog};
use borderpatrol::core::flow::FlowTableConfig;
use borderpatrol::core::offline::{OfflineAnalyzer, SignatureDatabase};
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::core::wire::CaptureReader;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::types::EnforcementLevel;
use borderpatrol::{Engine, EngineBuilder};
use bp_bench::{case_study_policies, synthetic_rule, RuleShape};

/// Seed of the app mix every workload's fleet runs: the enterprise's app set
/// is part of the deployment, so it does not change with `--seed`.
pub const APP_MIX_SEED: u64 = 0x0b0d_2019;

/// Data-plane shards: the submitter runs one partition inline and one pool
/// worker runs the other, two busy threads.
pub const SHARDS: usize = 2;

/// Never-matching hash-level deny rules in the deployment.  They turn set-up
/// and commits into millisecond-scale work without touching the data path
/// (tag lookups are indexed).
pub const HASH_RULES: usize = 10_000;

/// On `policy_churn`, a transaction runs before every batch whose position
/// in the cycle is `CHURN_OFFSET` modulo `CHURN_EVERY`.
pub const CHURN_EVERY: usize = 160;
/// See [`CHURN_EVERY`].  Off the cycle start, so commits never line up with
/// a tick boundary by construction.
pub const CHURN_OFFSET: usize = 80;

/// One traffic mix the benchmark replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long-lived flows re-sending a cached context: the flow-hit path.
    SteadyFleet,
    /// One packet per new flow, far more flows than the flow table holds,
    /// plus corrupted frames: the miss, evict, evaluate and drop paths.
    ConnectStorm,
    /// `SteadyFleet` traffic with a rule-replacing transaction at fixed
    /// batch positions: commits and epoch invalidation beside the reads.
    PolicyChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyFleet,
        Workload::ConnectStorm,
        Workload::PolicyChurn,
    ];

    /// The name results and notes use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFleet => "steady_fleet",
            Workload::ConnectStorm => "connect_storm",
            Workload::PolicyChurn => "policy_churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frames per `ingest_bytes_into` call.
    pub fn batch_size(self) -> usize {
        match self {
            Workload::ConnectStorm => 1_024,
            Workload::SteadyFleet | Workload::PolicyChurn => 64,
        }
    }

    /// Does a churn transaction run before the batch at `position` in the
    /// cycle?
    pub fn commits_before(self, position: usize) -> bool {
        self == Workload::PolicyChurn && position % CHURN_EVERY == CHURN_OFFSET
    }

    /// One frame in `n` is corrupted on the wire.
    fn corrupt_one_in(self) -> Option<u64> {
        (self == Workload::ConnectStorm).then_some(50)
    }

    /// The scenario whose recorded capture the workload replays.  The seed
    /// drives the traffic: device → app assignment, flow → functionality,
    /// per-tick packet counts and which devices each adversary compromises.
    pub fn spec(self, seed: u64, deployment: &Deployment) -> ScenarioSpec {
        let mut spec = ScenarioSpec::adversarial_fleet(self.name(), 2_000, seed, SHARDS);
        spec.fleet.app_mix = deployment.app_mix.clone();
        spec.policies = deployment.policies.clone();
        match self {
            Workload::SteadyFleet | Workload::PolicyChurn => spec.ticks = 20,
            Workload::ConnectStorm => {
                spec.fleet.devices = 40_000;
                spec.fleet.sockets_per_device = 1;
                spec.fleet.connect_rate = ConnectRate::Constant(1);
                spec.ticks = 1;
                spec.adversaries = AdversaryModel::ALL
                    .into_iter()
                    .map(|model| AdversaryProfile::new(model, 0.10))
                    .collect();
            }
        }
        spec
    }
}

/// The deployment every workload shares, in its persisted form: the
/// signature database as JSON and the policy set as text.
pub struct Deployment {
    /// The fleet's apps (the offline analyzer's input).
    pub app_mix: Vec<AppSpec>,
    /// `SignatureDatabase::to_json` of the analyzed app mix.
    pub db_json: String,
    /// `PolicySet::to_text` of the rules below.
    pub policy_text: String,
    /// The 3 case-study rules, the library blacklist and [`HASH_RULES`]
    /// never-matching hash rules.
    pub policies: PolicySet,
}

/// The wall time of each step of bringing up a serving engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SignatureDatabase::from_json`.
    pub db_load: Duration,
    /// `PolicySet::parse`.
    pub policy_parse: Duration,
    /// `Engine::builder()…build()`.
    pub build: Duration,
    /// The first `ingest_bytes_into` (spawns the worker pool).
    pub first_batch: Duration,
}

impl SetupTimes {
    /// The whole bring-up.
    pub fn total(&self) -> Duration {
        self.db_load + self.policy_parse + self.build + self.first_batch
    }
}

impl Deployment {
    /// Analyze the app mix and assemble the policy text.
    ///
    /// # Errors
    ///
    /// An analysis or serialization failure, as text.
    pub fn new() -> Result<Deployment, String> {
        let app_mix = CorpusGenerator::fleet_mix(APP_MIX_SEED, 2);
        let mut db = SignatureDatabase::new();
        for app in &app_mix {
            OfflineAnalyzer::new()
                .analyze_into(&app.build_apk(), &mut db)
                .map_err(|e| e.to_string())?;
        }
        let mut policies = case_study_policies();
        for prefix in LibraryCatalog::builtin().exfiltrating_prefixes() {
            policies.push(Policy::deny(EnforcementLevel::Library, prefix));
        }
        for i in 0..HASH_RULES {
            policies.push(hash_rule(i));
        }
        Ok(Deployment {
            app_mix,
            db_json: db.to_json().map_err(|e| e.to_string())?,
            policy_text: policies.to_text(),
            policies,
        })
    }

    /// Bring up a serving engine from the persisted deployment: load the
    /// database, parse the policy text, build the engine and ingest
    /// `first_batch`, timing each step.
    ///
    /// # Errors
    ///
    /// A load or parse failure, as text.
    pub fn bring_up(&self, first_batch: &[&[u8]]) -> Result<(Engine, SetupTimes), String> {
        let t0 = Instant::now();
        let db = SignatureDatabase::from_json(&self.db_json).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let policies = PolicySet::parse(&self.policy_text).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let engine = serving(SHARDS).policies(policies).database(db).build();
        let t3 = Instant::now();
        let mut verdicts = Vec::new();
        engine.ingest_bytes_into(first_batch, &mut verdicts);
        let t4 = Instant::now();
        Ok((
            engine,
            SetupTimes {
                db_load: t1 - t0,
                policy_parse: t2 - t1,
                build: t3 - t2,
                first_batch: t4 - t3,
            },
        ))
    }

    /// A fresh serving engine (untimed) with `shards` shards and the given
    /// per-shard flow table.
    ///
    /// # Errors
    ///
    /// A database load failure, as text.
    pub fn fresh_engine(&self, shards: usize, flow: FlowTableConfig) -> Result<Engine, String> {
        let db = SignatureDatabase::from_json(&self.db_json).map_err(|e| e.to_string())?;
        Ok(serving(shards)
            .flow_config(flow)
            .policies(self.policies.clone())
            .database(db)
            .build())
    }
}

/// The serving configuration: strict enforcement on `shards` shards.
fn serving(shards: usize) -> EngineBuilder {
    Engine::builder().shards(shards).strict()
}

/// The `i`-th never-matching hash-level deny rule (`bp_bench`'s `TagHeavy`
/// form: the tag of a digest of `i`, which no apk of the mix hashes to).
pub fn hash_rule(i: usize) -> Policy {
    synthetic_rule(i, RuleShape::TagHeavy)
}

/// The time one control-plane transaction took, per step.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxTimes {
    /// `Transaction::validate` (zero unless probed).
    pub validate: Duration,
    /// `Transaction::diff` (zero unless probed).
    pub diff: Duration,
    /// `Transaction::commit`.
    pub commit: Duration,
}

/// Commit the `n`-th churn transaction on `engine`: replace the hash rule
/// `n` with the hash rule `HASH_RULES + n`.  Every commit of a run therefore
/// removes a rule the set holds and adds one it does not, a full rebuild
/// that changes no verdict.  With `probe`, `validate` and `diff` run (and
/// are timed) first.
///
/// # Errors
///
/// A transaction that fails validation or commit, as text.
pub fn churn_commit(engine: &mut Engine, n: usize, probe: bool) -> Result<TxTimes, String> {
    let tx = engine
        .control()
        .begin()
        .remove_policy(&hash_rule(n))
        .add_policy(hash_rule(HASH_RULES + n));
    let mut times = TxTimes::default();
    if probe {
        let t = Instant::now();
        let deployable = tx.validate().is_deployable();
        times.validate = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(tx.diff());
        times.diff = t.elapsed();
        if !deployable {
            return Err(format!("churn transaction {n} failed validation"));
        }
    }
    let t = Instant::now();
    tx.commit().map_err(|e| e.to_string())?;
    times.commit = t.elapsed();
    Ok(times)
}

/// SplitMix64: the benchmark's own seeded stream (frame corruption).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`: a fingerprint of the recorded stream, so a run
/// need not keep the stream once its frames are laid out.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A recorded workload capture, replayed in cycles.
///
/// It holds one copy of the frame bytes, as the enforcer receives them; the
/// recorded bytes of the few corrupted frames are kept on the side.
pub struct Capture {
    /// FNV-1a of the capture stream exactly as `run_recorded` wrote it.
    pub digest: u64,
    /// The recording run's report: the ground truth for the reference.
    pub report: ScenarioReport,
    /// Frame bytes as the enforcer receives them (after corruption).
    arena: Vec<u8>,
    offsets: Vec<Range<usize>>,
    /// The recorded bytes of each corrupted frame, by frame index.
    recorded: HashMap<usize, Vec<u8>>,
    /// Capture tag per frame: 0 = legitimate, k = the k-th adversary.
    pub origin: Vec<u8>,
    /// Whether the benchmark corrupted the frame.
    pub corrupted: Vec<bool>,
    /// Frame ranges of the batches of one cycle.
    pub batches: Vec<Range<usize>>,
}

impl Capture {
    /// Record the workload's scenario and lay its frames out in batches.
    ///
    /// # Errors
    ///
    /// A scenario or capture failure, as text.
    pub fn record(
        workload: Workload,
        seed: u64,
        deployment: &Deployment,
    ) -> Result<Capture, String> {
        let spec = workload.spec(seed, deployment);
        let prepared = PreparedScenario::prepare(&spec).map_err(|e| e.to_string())?;
        let (report, raw) = prepared
            .run_recorded(Vec::new())
            .map_err(|e| e.to_string())?;
        let reader = CaptureReader::parse(&raw).map_err(|e| e.to_string())?;

        let mut arena = Vec::new();
        let (mut offsets, mut recorded) = (Vec::new(), HashMap::new());
        let (mut origin, mut corrupted) = (Vec::new(), Vec::new());
        let mut rng = seed ^ 0x00c0_ffee_0bad_f00d;
        for (index, frame) in reader.frames().enumerate() {
            let start = arena.len();
            arena.extend_from_slice(frame.bytes);
            let corrupt = workload
                .corrupt_one_in()
                .is_some_and(|n| splitmix64(&mut rng).is_multiple_of(n));
            if corrupt {
                recorded.insert(index, frame.bytes.to_vec());
                // Each kind fails wire decode.
                match splitmix64(&mut rng) % 3 {
                    0 => arena.truncate(arena.len() - 3),
                    1 => arena[start + 10] ^= 0x5a,
                    _ => arena[start] = (arena[start] & 0x0f) | 0x60,
                }
            }
            offsets.push(start..arena.len());
            origin.push(frame.tag);
            corrupted.push(corrupt);
        }
        let batch = workload.batch_size();
        let batches = (0..offsets.len())
            .step_by(batch)
            .map(|start| start..(start + batch).min(offsets.len()))
            .collect();
        Ok(Capture {
            digest: fnv1a(&raw),
            report,
            arena,
            offsets,
            recorded,
            origin,
            corrupted,
            batches,
        })
    }

    /// Frames in one cycle.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if the capture holds no frames.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Every batch of one cycle as the enforcer receives it.
    pub fn batch_frames(&self) -> Vec<Vec<&[u8]>> {
        self.batches
            .iter()
            .map(|b| {
                self.offsets[b.clone()]
                    .iter()
                    .map(|r| &self.arena[r.clone()])
                    .collect()
            })
            .collect()
    }

    /// Every batch of one cycle as recorded, before corruption.
    fn clean_batch_frames(&self) -> Vec<Vec<&[u8]>> {
        self.batches
            .iter()
            .map(|b| {
                b.clone()
                    .map(|i| match self.recorded.get(&i) {
                        Some(bytes) => bytes.as_slice(),
                        None => &self.arena[self.offsets[i].clone()],
                    })
                    .collect()
            })
            .collect()
    }

    /// True if the frame is adversarial or corrupted: its only correct
    /// verdict is a drop.
    pub fn must_drop(&self, index: usize) -> bool {
        self.origin[index] != 0 || self.corrupted[index]
    }
}

/// One reference verdict per frame of a cycle (true = accept).
pub struct Reference {
    /// The reference verdict of each frame.
    pub accept: Vec<bool>,
}

impl Reference {
    /// Replay the recorded (uncorrupted) capture twice through a fresh
    /// engine in the workload's batch layout, keep the second (warm) pass,
    /// validate it against the recording's report, then mark every
    /// corrupted frame as a drop.
    ///
    /// # Errors
    ///
    /// The validation finding, as text: the reference is wrong, so no
    /// result may be printed.
    pub fn build(capture: &Capture, deployment: &Deployment) -> Result<Reference, String> {
        let engine = deployment.fresh_engine(SHARDS, FlowTableConfig::default())?;
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut accept = vec![false; capture.len()];
        let batches = capture.clean_batch_frames();
        for _pass in 0..2 {
            for (range, frames) in capture.batches.iter().zip(&batches) {
                engine.ingest_bytes_into(frames, &mut verdicts);
                if verdicts.len() != frames.len() {
                    return Err(format!(
                        "{} verdicts for {} frames",
                        verdicts.len(),
                        frames.len()
                    ));
                }
                for (slot, verdict) in accept[range.clone()].iter_mut().zip(&verdicts) {
                    *slot = verdict.is_accept();
                }
            }
        }
        let mut reference = Reference { accept };
        reference.validate(capture)?;
        for (slot, &corrupted) in reference.accept.iter_mut().zip(&capture.corrupted) {
            *slot &= !corrupted;
        }
        Ok(reference)
    }

    /// Check the reference against the recording's ground truth: the
    /// legitimate accepted and dropped counts equal the report's, and every
    /// adversarial frame drops.
    ///
    /// # Errors
    ///
    /// The first mismatch, as text.
    pub fn validate(&self, capture: &Capture) -> Result<(), String> {
        let report = &capture.report;
        let (mut legit, mut legit_accepted) = (0u64, 0u64);
        for (index, &accept) in self.accept.iter().enumerate() {
            if capture.origin[index] == 0 {
                legit += 1;
                legit_accepted += u64::from(accept);
            } else if accept {
                return Err(format!(
                    "reference accepts adversarial frame {index} (capture tag {})",
                    capture.origin[index]
                ));
            }
        }
        if legit != report.legit_packets
            || legit_accepted != report.legit_accepted
            || legit - legit_accepted != report.legit_dropped
        {
            return Err(format!(
                "reference legit frames {legit} accepted {legit_accepted} disagree with the \
                 recording (legit {} accepted {} dropped {})",
                report.legit_packets, report.legit_accepted, report.legit_dropped
            ));
        }
        if !report.all_adversarial_traffic_dropped() {
            return Err("the recording run accepted adversarial traffic".into());
        }
        Ok(())
    }
}

/// Verdicts checked against the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Frames verdicted.
    pub frames: u64,
    /// Batches that returned a verdict count other than their frame count.
    pub short_batches: u64,
    /// Adversarial or corrupted frames accepted.
    pub fail_open: u64,
    /// Legitimate frames whose verdict differs from the reference.
    pub false_drop: u64,
    /// A fingerprint of which frames failed, in order: two tallies of one
    /// cycle with equal counts and digests failed on the same frames.
    pub failed_digest: u64,
}

impl Tally {
    /// Compare one batch's verdicts; `range` is the batch's frames.
    pub fn check(
        &mut self,
        capture: &Capture,
        reference: &Reference,
        range: Range<usize>,
        verdicts: &[Verdict],
    ) {
        self.frames += range.len() as u64;
        if verdicts.len() != range.len() {
            self.short_batches += 1;
        }
        for (index, verdict) in range.zip(verdicts) {
            if verdict.is_accept() != reference.accept[index] {
                self.failed_digest =
                    (self.failed_digest ^ (index as u64 + 1)).wrapping_mul(0x0100_0000_01b3);
                if capture.must_drop(index) {
                    self.fail_open += 1;
                } else {
                    self.false_drop += 1;
                }
            }
        }
    }

    /// Frames whose verdict differs from the reference.
    pub fn failed(&self) -> u64 {
        self.fail_open + self.false_drop
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (0..=1, nearest rank) of `values`, sorting them.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * (values.len() - 1) as f64).round() as usize;
    values[rank]
}

/// A `/proc/self/status` field in kB (`VmHWM`, ...), or 0 if unreadable.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .strip_prefix(':')?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Reset the process's `VmHWM` to its current resident set size (Linux's
/// `clear_refs` code 5), so the peak counts from here on.  A kernel without
/// it leaves the peak as it was.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time (ns, from `schedstat`) and context switches summed over the
/// process's live threads.
pub fn thread_usage() -> (u64, u64) {
    let (mut cpu_ns, mut switches) = (0, 0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        let path = task.path();
        if let Ok(sched) = std::fs::read_to_string(path.join("schedstat")) {
            cpu_ns += sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
        if let Ok(status) = std::fs::read_to_string(path.join("status")) {
            for line in status.lines() {
                if let Some(v) = line
                    .strip_prefix("voluntary_ctxt_switches:")
                    .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
                {
                    switches += v.trim().parse::<u64>().unwrap_or(0);
                }
            }
        }
    }
    (cpu_ns, switches)
}
