//! The traced mode: the same frames driven through each layer's public
//! calls, one span per layer call per batch.
//!
//! Per batch, on engines and flow tables that see the same stream and so
//! stay in the same state:
//!
//! * `Engine::ingest_bytes_into` on the serving engine (the parent span);
//! * the decomposition on benchmark-owned flow tables: `WireFrame::parse` →
//!   `FlowTable::probe` → `ContextEncoding::decode_into` →
//!   `CompiledSignatureDb` lookup + `validate_indexes` →
//!   `CompiledPolicySet::evaluate_frames` → `FlowTable::insert`, each stage
//!   run over the batch as one span;
//! * `wire::decode_frame` and `ShardedEnforcer::shard_for` on every frame;
//! * `inspect_batch_into` on a two-shard twin and on a one-shard twin with
//!   the same total flow capacity;
//! * `EnforcementTables::inspect_flow_cached` (own flow tables) and
//!   `inspect_packet` on every decoded packet;
//! * `ShardedEnforcer::telemetry`.
//!
//! The decomposition, the cached path and the two-shard twin must reach the
//! ingest verdict on every frame; a mismatch means the timed layers are not
//! the pipeline that runs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::{
    AtomicEnforcerStats, DropLog, EnforcementTables, EnforcerConfig, EnforcerStats,
};
use borderpatrol::core::flow::{CachedOutcome, FlowProbe, FlowTable, FlowTableConfig};
use borderpatrol::core::offline::CompiledAppEntry;
use borderpatrol::core::policy::{CompiledVerdict, Decision};
use borderpatrol::core::wire::{decode_frame, WireFrame};
use borderpatrol::netsim::clock::SimDuration;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::options::IpOptionKind;
use borderpatrol::netsim::packet::{FlowKey, Ipv4Packet};
use borderpatrol::Engine;

use crate::{churn_commit, Capture, Deployment, Reference, Tally, TxTimes, Workload, SHARDS};

/// The layer calls the traced mode times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Engine::ingest_bytes_into`.
    Ingest,
    /// `WireFrame::parse`.
    WireParse,
    /// `wire::decode_frame`.
    WireDecode,
    /// `ShardedEnforcer::shard_for`.
    Route,
    /// `inspect_batch_into` on the two-shard twin.
    Inspect2,
    /// `inspect_batch_into` on the one-shard twin.
    Inspect1,
    /// `EnforcementTables::inspect_flow_cached`.
    Cached,
    /// `EnforcementTables::inspect_packet`.
    Uncached,
    /// `FlowTable::probe`.
    FlowProbe,
    /// `ContextEncoding::decode_into`.
    EncodingDecode,
    /// `CompiledSignatureDb::entry` + `CompiledAppEntry::validate_indexes`.
    OfflineResolve,
    /// `CompiledPolicySet::evaluate_frames` (and the deny rendering the
    /// enforcer does on a deny).
    PolicyEval,
    /// `FlowTable::insert`.
    FlowInsert,
    /// `ShardedEnforcer::telemetry`.
    Telemetry,
}

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "engine.ingest",
            Layer::WireParse => "wire.parse",
            Layer::WireDecode => "wire.decode",
            Layer::Route => "enforcer.route",
            Layer::Inspect2 => "runtime.inspect2",
            Layer::Inspect1 => "runtime.inspect1",
            Layer::Cached => "enforcer.cached",
            Layer::Uncached => "enforcer.uncached",
            Layer::FlowProbe => "flow.probe",
            Layer::EncodingDecode => "encoding.decode",
            Layer::OfflineResolve => "offline.resolve",
            Layer::PolicyEval => "policy.eval",
            Layer::FlowInsert => "flow.insert",
            Layer::Telemetry => "telemetry.read",
        }
    }
}

/// One span: `calls` calls of one layer within one batch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The id every span of one batch shares.
    pub batch: u32,
    /// The layer.
    pub layer: Layer,
    /// Calls made within the span.
    pub calls: u32,
    /// Duration in ns.
    pub ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    /// Every span, in order.
    pub spans: Vec<Span>,
    batch: u32,
    /// Whether spans are kept (off during the warm-up cycle).
    pub recording: bool,
}

impl Spans {
    fn record(&mut self, layer: Layer, start: Instant, calls: usize) {
        let ns = start.elapsed().as_nanos() as u64;
        if self.recording && calls > 0 {
            self.spans.push(Span {
                batch: self.batch,
                layer,
                calls: calls as u32,
                ns,
            });
        }
    }

    /// Total ns and calls of one layer.
    pub fn total(&self, layer: Layer) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.ns, calls + u64::from(s.calls))
            })
    }

    /// Mean ns per call of one layer.
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let (ns, calls) = self.total(layer);
        crate::ratio(ns as f64, calls as f64)
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"batch\": {}, \"layer\": \"{}\", \"calls\": {}, \"ns\": {}}}\n",
                    s.batch,
                    s.layer.name(),
                    s.calls,
                    s.ns
                )
            })
            .collect()
    }
}

/// How the enforcer maps a (fresh or cached) outcome to accept or drop.
fn accepts(outcome: &CachedOutcome, config: EnforcerConfig) -> bool {
    match outcome {
        CachedOutcome::Accept => true,
        CachedOutcome::Malformed(_) => !config.drop_malformed_context,
        CachedOutcome::UnknownApp(_) => !config.drop_unknown_apps,
        CachedOutcome::Deny(_) => false,
    }
}

/// One tagged frame of a batch, ready to probe.
struct Item<'f> {
    frame: usize,
    key: FlowKey,
    payload: &'f [u8],
    shard: usize,
    /// How many earlier frames of the batch belong to the same flow.
    wave: u32,
}

/// The parse → probe → decode → resolve → eval → insert pipeline on
/// benchmark-owned flow tables (one per shard, like the engine's).
///
/// Each stage runs over a batch as one span.  A flow seen twice in one batch
/// would probe before its first frame was inserted, so frames are processed
/// in waves: wave `k` holds the `k`-th frame of each flow, and its inserts
/// land before wave `k + 1` probes, as in the enforcer's in-order loop.
pub struct Decomposition {
    flows: Vec<FlowTable>,
    indexes: Vec<Vec<u32>>,
    seen: HashMap<FlowKey, u32>,
    /// Verdict per frame of the last batch (true = accept).
    pub accept: Vec<bool>,
}

impl Default for Decomposition {
    fn default() -> Self {
        Decomposition {
            flows: (0..SHARDS)
                .map(|_| FlowTable::new(FlowTableConfig::default()))
                .collect(),
            indexes: Vec::new(),
            seen: HashMap::new(),
            accept: Vec::new(),
        }
    }
}

impl Decomposition {
    /// Run one batch; `shards[i]` is the shard of frame `i` (any value for a
    /// frame that fails to parse).
    pub fn run(
        &mut self,
        frames: &[&[u8]],
        shards: &[usize],
        tables: &EnforcementTables,
        spans: &mut Spans,
    ) {
        let config = tables.config();
        self.accept.clear();
        self.accept.resize(frames.len(), false);

        let t = Instant::now();
        let views: Vec<_> = frames.iter().map(|f| WireFrame::parse(f)).collect();
        spans.record(Layer::WireParse, t, frames.len());

        // Conformance checks and extraction, as the enforcer runs them
        // before its flow probe.  A frame that fails any of them drops,
        // except an untagged one in a deployment that allows those.
        let context = IpOptionKind::BorderPatrolContext.type_byte();
        self.seen.clear();
        let mut items = Vec::new();
        let mut waves = 0;
        for (i, view) in views.iter().enumerate() {
            let Ok(view) = view else { continue };
            let mut contexts = view.options().filter(|(kind, _)| *kind == context);
            let first = contexts.next();
            if contexts.next().is_some()
                || (config.drop_malformed_context && view.has_trailing_data())
            {
                continue;
            }
            let Some((_, payload)) = first else {
                self.accept[i] = !config.drop_untagged;
                continue;
            };
            let (source, destination) = (view.source(), view.destination());
            let key = FlowKey {
                src_ip: source.ip,
                src_port: source.port,
                dst_ip: destination.ip,
                dst_port: destination.port,
                protocol: view.protocol(),
            };
            let wave = *self.seen.entry(key).and_modify(|w| *w += 1).or_insert(0);
            waves = waves.max(wave + 1);
            items.push(Item {
                frame: i,
                key,
                payload,
                shard: shards[i],
                wave,
            });
        }
        for wave in 0..waves {
            self.run_wave(items.iter().filter(|item| item.wave == wave), tables, spans);
        }
    }

    fn run_wave<'i, 'f: 'i>(
        &mut self,
        wave: impl Iterator<Item = &'i Item<'f>>,
        tables: &EnforcementTables,
        spans: &mut Spans,
    ) {
        let config = tables.config();
        let epoch = tables.epoch();
        let now = SimDuration::ZERO;

        let mut probes = 0;
        let mut misses: Vec<&Item<'_>> = Vec::new();
        let t = Instant::now();
        for item in wave {
            probes += 1;
            match self.flows[item.shard].probe(&item.key, item.payload, epoch, now) {
                FlowProbe::Hit(outcome) => self.accept[item.frame] = accepts(outcome, config),
                FlowProbe::ContextSwitch if config.drop_context_switch => {}
                FlowProbe::ContextSwitch | FlowProbe::Miss => misses.push(item),
            }
        }
        spans.record(Layer::FlowProbe, t, probes);
        if misses.is_empty() {
            return;
        }

        if self.indexes.len() < misses.len() {
            self.indexes.resize_with(misses.len(), Vec::new);
        }
        let mut outcomes: Vec<Option<CachedOutcome>> = vec![None; misses.len()];
        let mut headers = Vec::with_capacity(misses.len());
        let t = Instant::now();
        for ((item, indexes), outcome) in misses.iter().zip(&mut self.indexes).zip(&mut outcomes) {
            match ContextEncoding::decode_into(item.payload, indexes) {
                Ok(header) => headers.push(Some(header)),
                Err(e) => {
                    headers.push(None);
                    *outcome = Some(CachedOutcome::Malformed(
                        format!("malformed context option: {e}").into(),
                    ));
                }
            }
        }
        spans.record(Layer::EncodingDecode, t, misses.len());

        let db = tables.database();
        let mut entries: Vec<Option<&CompiledAppEntry>> = vec![None; misses.len()];
        let mut resolves = 0;
        let t = Instant::now();
        for (((header, indexes), outcome), entry) in headers
            .iter()
            .zip(&self.indexes)
            .zip(&mut outcomes)
            .zip(&mut entries)
        {
            let Some(header) = header else { continue };
            resolves += 1;
            match db.entry(header.app_tag) {
                None => {
                    *outcome = Some(CachedOutcome::UnknownApp(
                        format!("unknown application tag {}", header.app_tag).into(),
                    ))
                }
                Some(found) => match found.validate_indexes(indexes) {
                    Ok(()) => *entry = Some(found),
                    Err(e) => {
                        *outcome = Some(CachedOutcome::Malformed(
                            format!("undecodable stack indexes: {e}").into(),
                        ))
                    }
                },
            }
        }
        spans.record(Layer::OfflineResolve, t, resolves);

        let policies = tables.policies();
        let mut evals = 0;
        let t = Instant::now();
        for (((header, indexes), outcome), entry) in headers
            .iter()
            .zip(&self.indexes)
            .zip(&mut outcomes)
            .zip(&entries)
        {
            let (Some(header), Some(entry)) = (header, entry) else {
                continue;
            };
            evals += 1;
            let frame = |j: usize| entry.signature(indexes[j]).expect("indexes validated");
            let verdict = policies.evaluate_frames(header.app_tag, indexes.len(), frame);
            *outcome = Some(match verdict {
                CompiledVerdict::Allow => CachedOutcome::Accept,
                CompiledVerdict::Deny { policy, .. } => {
                    let Decision::Deny { reason, .. } =
                        policies.verdict_to_decision(verdict, frame)
                    else {
                        unreachable!("a deny verdict renders to a deny decision");
                    };
                    let detail = match policy.and_then(|i| policies.policy(i)) {
                        Some(policy) => format!("policy {policy} violated: {reason}"),
                        None => reason,
                    };
                    CachedOutcome::Deny(Arc::from(detail))
                }
            });
        }
        spans.record(Layer::PolicyEval, t, evals);

        let t = Instant::now();
        for (item, outcome) in misses.iter().zip(outcomes) {
            let outcome = outcome.expect("every miss reaches an outcome");
            self.accept[item.frame] = accepts(&outcome, config);
            self.flows[item.shard].insert(item.key, item.payload, epoch, outcome, now);
        }
        spans.record(Layer::FlowInsert, t, misses.len());
    }
}

/// The engines and tables of the traced mode, all fed the same stream.
pub struct TracedPlane {
    /// The serving engine (two shards), driven through `ingest_bytes_into`.
    pub engine: Engine,
    twin2: Engine,
    twin1: Engine,
    cached_flows: Vec<FlowTable>,
    cached_stats: AtomicEnforcerStats,
    uncached_stats: AtomicEnforcerStats,
    drop_log: DropLog,
    scratch: Vec<u32>,
    /// The staged pipeline.
    pub decomposition: Decomposition,
    commits: usize,
}

/// What a traced pass counted.
#[derive(Debug, Default)]
pub struct TraceCounts {
    /// Batches driven.
    pub batches: u64,
    /// Frames where the decomposition, the cached path or the two-shard
    /// twin disagreed with ingest.
    pub mismatches: u64,
    /// Frames where the one-shard twin disagreed with ingest (its flow table
    /// is shared by both partitions, so its evictions may differ).
    pub twin1_mismatches: u64,
    /// Decoded frames routed to each shard.
    pub per_shard: [u64; SHARDS],
    /// Serving-engine verdicts checked against the reference.
    pub tally: Tally,
    /// Per-batch `inspect_batch_into` two-shard minus one-shard, in ns.
    pub handoff_ns: Vec<f64>,
    /// Churn transactions committed, with their step times.
    pub transactions: Vec<TxTimes>,
}

impl TracedPlane {
    /// Build the engines from the deployment.
    ///
    /// # Errors
    ///
    /// A set-up failure, as text.
    pub fn new(deployment: &Deployment) -> Result<TracedPlane, String> {
        let twin1_flow = FlowTableConfig {
            capacity: FlowTableConfig::default().capacity * SHARDS,
            ..FlowTableConfig::default()
        };
        Ok(TracedPlane {
            engine: deployment.fresh_engine(SHARDS, FlowTableConfig::default())?,
            twin2: deployment.fresh_engine(SHARDS, FlowTableConfig::default())?,
            twin1: deployment.fresh_engine(1, twin1_flow)?,
            cached_flows: (0..SHARDS)
                .map(|_| FlowTable::new(FlowTableConfig::default()))
                .collect(),
            cached_stats: AtomicEnforcerStats::new(),
            uncached_stats: AtomicEnforcerStats::new(),
            drop_log: DropLog::default(),
            scratch: Vec::new(),
            decomposition: Decomposition::default(),
            commits: 0,
        })
    }

    /// Drive `batches` batches of the capture, starting at its first batch
    /// and wrapping around, recording spans when `spans` records.
    ///
    /// # Errors
    ///
    /// A rejected churn transaction, as text.
    pub fn drive(
        &mut self,
        workload: Workload,
        capture: &Capture,
        reference: &Reference,
        frames: &[Vec<&[u8]>],
        batches: usize,
        spans: &mut Spans,
    ) -> Result<TraceCounts, String> {
        let mut counts = TraceCounts::default();
        let (mut v_ingest, mut v2, mut v1) = (Vec::new(), Vec::new(), Vec::new());
        let mut cached: Vec<Verdict> = Vec::new();
        let mut packets: Vec<Ipv4Packet> = Vec::new();
        let mut decoded_at: Vec<usize> = Vec::new();
        let mut shards: Vec<usize> = Vec::new();
        let mut frame_shards: Vec<usize> = Vec::new();
        let mut tables = self.engine.data_plane().tables();
        for n in 0..batches {
            let position = n % frames.len();
            let batch = &frames[position];
            spans.batch += 1;
            if workload.commits_before(position) {
                let times = churn_commit(&mut self.engine, self.commits, true)?;
                churn_commit(&mut self.twin2, self.commits, false)?;
                churn_commit(&mut self.twin1, self.commits, false)?;
                self.commits += 1;
                counts.transactions.push(times);
                tables = self.engine.data_plane().tables();
            }

            let t = Instant::now();
            self.engine.ingest_bytes_into(batch, &mut v_ingest);
            spans.record(Layer::Ingest, t, batch.len());

            packets.clear();
            decoded_at.clear();
            let t = Instant::now();
            for (i, frame) in batch.iter().enumerate() {
                if let Ok(packet) = decode_frame(frame) {
                    packets.push(packet);
                    decoded_at.push(i);
                }
            }
            spans.record(Layer::WireDecode, t, batch.len());

            let plane = self.engine.data_plane();
            shards.clear();
            let t = Instant::now();
            for packet in &packets {
                shards.push(plane.shard_for(packet));
            }
            spans.record(Layer::Route, t, packets.len());

            let t = Instant::now();
            self.twin2
                .data_plane()
                .inspect_batch_into(&packets, &mut v2);
            let inspect2 = t.elapsed();
            spans.record(Layer::Inspect2, t, packets.len());
            let t = Instant::now();
            self.twin1
                .data_plane()
                .inspect_batch_into(&packets, &mut v1);
            let inspect1 = t.elapsed();
            spans.record(Layer::Inspect1, t, packets.len());
            if spans.recording {
                counts
                    .handoff_ns
                    .push(inspect2.as_nanos() as f64 - inspect1.as_nanos() as f64);
            }

            cached.clear();
            let t = Instant::now();
            for (packet, &shard) in packets.iter().zip(&shards) {
                cached.push(tables.inspect_flow_cached(
                    packet,
                    &mut self.cached_flows[shard],
                    SimDuration::ZERO,
                    &mut self.scratch,
                    &self.cached_stats,
                    &mut self.drop_log,
                ));
            }
            spans.record(Layer::Cached, t, packets.len());

            let t = Instant::now();
            for packet in &packets {
                black_box(tables.inspect_packet(
                    packet,
                    &mut self.scratch,
                    &self.uncached_stats,
                    &mut self.drop_log,
                ));
            }
            spans.record(Layer::Uncached, t, packets.len());

            frame_shards.clear();
            frame_shards.resize(batch.len(), 0);
            for (&at, &shard) in decoded_at.iter().zip(&shards) {
                frame_shards[at] = shard;
            }
            self.decomposition.run(batch, &frame_shards, &tables, spans);

            let t = Instant::now();
            black_box(plane.telemetry());
            spans.record(Layer::Telemetry, t, 1);

            for (i, verdict) in v_ingest.iter().enumerate() {
                if self.decomposition.accept[i] != verdict.is_accept() {
                    counts.mismatches += 1;
                }
            }
            for (d, &at) in decoded_at.iter().enumerate() {
                let accept = v_ingest[at].is_accept();
                counts.mismatches += u64::from(cached[d].is_accept() != accept)
                    + u64::from(v2[d].is_accept() != accept);
                counts.twin1_mismatches += u64::from(v1[d].is_accept() != accept);
            }
            for &shard in &shards {
                counts.per_shard[shard] += 1;
            }
            counts.tally.check(
                capture,
                reference,
                capture.batches[position].clone(),
                &v_ingest,
            );
            counts.batches += 1;
        }
        Ok(counts)
    }

    /// The serving engine's statistics.
    pub fn stats(&self) -> EnforcerStats {
        self.engine.stats()
    }
}
