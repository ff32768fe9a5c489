//! The one accounting implementation behind [`EngineReport`].
//!
//! A [`Ledger`] folds [`EventKind`] values into the report and the shared
//! memory budget's occupancy. [`ServeEngine::run`] drives it live, one
//! event per state transition, and reads admission and eviction headroom
//! back from it; [`Telemetry::report`] drives a fresh one over a recorded
//! log. Both therefore apply the same rules in the same order, which is
//! why a log rebuilds the engine's report bit for bit, and why recording a
//! run never changes its report.
//!
//! Three facts reach the report through events that carry only ids (a
//! prefill rejection, a prefill completion and a decode completion); the
//! caller hands those in whole through [`Ledger::reject_prefill`],
//! [`Ledger::complete_prefill`] and [`Ledger::complete_decode`]. Both
//! callers build a completed item's outcome through [`Completion`], so the
//! energy-share, deadline and chunk-chain rules also exist once.
//!
//! [`ServeEngine::run`]: crate::engine::ServeEngine::run
//! [`Telemetry::report`]: crate::telemetry::Telemetry::report

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mas_dataflow::DataflowKind;

use crate::decode::{DecodeReport, DecodeStepOutcome, RejectedDecodeStep};
use crate::engine::{DeviceUtil, EngineReport, SchedulePolicy};
use crate::key::{LaunchKey, WorkClass};
use crate::metrics::{RejectedRequest, RequestOutcome, ServeReport};
use crate::telemetry::{EventKind, MemOwner, PeakAttribution, PreemptVictim};

/// One device's launch tallies over a run.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceTally {
    busy_prefill_s: f64,
    busy_decode_s: f64,
    idle_gaps: usize,
    launches: usize,
    /// Completion of the device's latest launch: a launch starting after
    /// it opens an idle gap.
    last_completion_s: f64,
}

/// The shared-budget high-water mark with its per-class split.
#[derive(Debug, Default, Clone, Copy)]
struct MemPeak {
    total: u64,
    prefill: u64,
    decode: u64,
}

impl MemPeak {
    /// Records the occupancy if it reaches the peak; returns whether it
    /// did (ties move the per-class split to the latest instant).
    fn note(&mut self, prefill: u64, decode: u64) -> bool {
        let total = prefill.saturating_add(decode);
        let moved = total >= self.total && total > 0;
        if moved {
            *self = MemPeak {
                total,
                prefill,
                decode,
            };
        }
        moved
    }
}

/// The launch, or chunk chain, that completed a work item, as the item's
/// outcome records it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    /// The launch whose completion closes the item: a chain's last chunk.
    pub(crate) launch_id: u64,
    /// The batch the item rode: the launch, or the chain (whose id is its
    /// first chunk's launch id).
    pub(crate) batch_id: u64,
    pub(crate) device: usize,
    /// The launch's start, or the chain's first chunk's.
    pub(crate) start_s: f64,
    pub(crate) completion_s: f64,
    /// The launch's service, or the sum over the chain's chunks.
    pub(crate) service_s: f64,
    /// The plan's energy (zero for decode), shared by the members in
    /// proportion to their batch dimension.
    pub(crate) energy_pj: f64,
    /// The members' summed batch dimension.
    pub(crate) total_batch: f64,
    pub(crate) cache_hit: bool,
}

impl Completion {
    /// The chain completed so far followed by its next chunk, which ran as
    /// `chunk`: the chain keeps its id and first start, sums service in
    /// chunk order and takes the rest from its latest chunk (the last
    /// chunk carries the plan's energy).
    pub(crate) fn then(self, chunk: Completion) -> Completion {
        Completion {
            batch_id: self.batch_id,
            start_s: self.start_s,
            service_s: self.service_s + chunk.service_s,
            ..chunk
        }
    }

    /// The outcome of a prefill request of batch dimension `batch` that
    /// arrived at `arrival_s` and completed here.
    pub(crate) fn prefill(
        &self,
        id: u64,
        workload: &str,
        method: DataflowKind,
        batch: f64,
        arrival_s: f64,
        deadline_s: Option<f64>,
    ) -> RequestOutcome {
        RequestOutcome {
            id,
            workload: workload.to_string(),
            method,
            arrival_s,
            start_s: self.start_s,
            completion_s: self.completion_s,
            service_s: self.service_s,
            deadline_s,
            deadline_met: self.met(arrival_s, deadline_s),
            energy_pj: self.energy_pj * batch / self.total_batch,
            cache_hit: self.cache_hit,
            batch_id: self.batch_id,
            device: self.device,
        }
    }

    /// The outcome of a decode step that arrived at `arrival_s` and
    /// completed here.
    pub(crate) fn decode(
        &self,
        session_id: u64,
        step_index: usize,
        context_len: usize,
        arrival_s: f64,
        deadline_s: Option<f64>,
    ) -> DecodeStepOutcome {
        DecodeStepOutcome {
            session_id,
            step_index,
            context_len,
            arrival_s,
            start_s: self.start_s,
            completion_s: self.completion_s,
            service_s: self.service_s,
            deadline_s,
            deadline_met: self.met(arrival_s, deadline_s),
            launch_id: self.launch_id,
            device: self.device,
        }
    }

    /// Whether an item that arrived at `arrival_s` met its relative
    /// deadline (always, without one).
    fn met(&self, arrival_s: f64, deadline_s: Option<f64>) -> bool {
        deadline_s.is_none_or(|d| self.completion_s - arrival_s <= d)
    }
}

/// The owner map's hasher: one rotate, xor and multiply per word (the
/// FxHash step). Owners are integer session and prefix-group ids, and
/// SipHash's flooding resistance would only guard a replay's time against
/// ids chosen to collide, never its results, while its hashing was most
/// of a map access on the per-charge path. Deterministic, and no output
/// depends on the map's order anyway: peak snapshots sort its entries.
#[derive(Default, Clone, Copy)]
struct OwnerHasher(u64);

impl Hasher for OwnerHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// The report under construction plus the shared budget's occupancy.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    policy: SchedulePolicy,
    budget: u64,
    prefill: ServeReport,
    decode: DecodeReport,
    makespan_s: f64,
    devices: Vec<DeviceTally>,
    /// Prefill activation bytes charged.
    prefill_charged: u64,
    /// Decode KV block bytes charged (private tails plus shared prefixes).
    kv_in_use: u64,
    /// Bytes of resident context tokens within `kv_in_use`.
    kv_used: u64,
    blocks_in_use: u64,
    /// Of `kv_in_use`, the bytes charged group-wide for shared prefixes.
    kv_shared_in_use: u64,
    peak: MemPeak,
    /// Every session and prefix group with a live charge and its bytes.
    /// An owner stays live from its first charge to its release, also
    /// while a KV eviction holds its bytes at zero, so a release for an
    /// owner missing here is a duplicate. Hashed, not ordered: it is read
    /// per charge and release on the engine's hot path, and only peak
    /// snapshots list it (sorted). Session ids are labels, possibly sparse,
    /// so the map is keyed by id rather than indexed by it.
    owners: HashMap<MemOwner, u64, BuildHasherDefault<OwnerHasher>>,
    /// The live charges of prefill launches, indexed by launch id (`None`
    /// = not live), under the same rules as `owners`. The engine numbers
    /// launches from zero, so the ids are dense.
    launch_charges: Vec<Option<u64>>,
    /// Launch ids below this hold no live charge, so peak snapshots list
    /// the launches from here on. A prefill launch is charged as it opens,
    /// in id order, and releases free the oldest ones first.
    launch_floor: usize,
    preemptions_prefill: usize,
    preemptions_decode: usize,
}

impl Ledger {
    /// An empty ledger for a run on `devices` devices under `budget` bytes.
    pub(crate) fn new(policy: SchedulePolicy, devices: usize, budget: u64) -> Self {
        Self {
            policy,
            budget,
            prefill: ServeReport::default(),
            decode: DecodeReport::default(),
            makespan_s: 0.0,
            devices: vec![DeviceTally::default(); devices.max(1)],
            prefill_charged: 0,
            kv_in_use: 0,
            kv_used: 0,
            blocks_in_use: 0,
            kv_shared_in_use: 0,
            peak: MemPeak::default(),
            owners: HashMap::default(),
            launch_charges: Vec::new(),
            launch_floor: 0,
            preemptions_prefill: 0,
            preemptions_decode: 0,
        }
    }

    /// Reserves room for the outcomes of `prefill` requests and `decode`
    /// steps, so a run's report grows without reallocating.
    pub(crate) fn reserve_outcomes(&mut self, prefill: usize, decode: usize) {
        self.prefill.outcomes.reserve_exact(prefill);
        self.decode.outcomes.reserve_exact(decode);
    }

    /// Whether `bytes` more fit the shared budget beside everything charged.
    pub(crate) fn fits(&self, bytes: u64) -> bool {
        self.prefill_charged
            .saturating_add(self.kv_in_use)
            .saturating_add(bytes)
            <= self.budget
    }

    /// Whether `kind` charges or releases the shared budget, and so may
    /// move [`Ledger::occupancy`].
    pub(crate) fn moves_budget(kind: &EventKind) -> bool {
        matches!(
            kind,
            EventKind::PrefillJoin { .. }
                | EventKind::SessionOpen { .. }
                | EventKind::PrefixShared { .. }
                | EventKind::KvGrow { .. }
                | EventKind::BudgetRelease { .. }
                | EventKind::Preempted {
                    victim: PreemptVictim::Session { .. }
                }
        )
    }

    /// The shared budget's occupancy: prefill activation bytes and decode
    /// KV bytes charged.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        (self.prefill_charged, self.kv_in_use)
    }

    /// The bytes `owner` holds, or `None` when it holds no live charge
    /// (see [`Ledger::owners`]).
    pub(crate) fn held(&self, owner: MemOwner) -> Option<u64> {
        match owner {
            MemOwner::PrefillLaunch(id) => self.launch_charges.get(id as usize).copied().flatten(),
            _ => self.owners.get(&owner).copied(),
        }
    }

    /// Folds one event stamped `t_s` into the report and the occupancy.
    /// Returns whether it moved the shared-budget peak.
    pub(crate) fn apply(&mut self, t_s: f64, kind: &EventKind) -> bool {
        match *kind {
            EventKind::PrefillJoin {
                launch_id,
                charged_bytes,
                ..
            } => {
                self.prefill_charged += charged_bytes;
                return self.charge(MemOwner::PrefillLaunch(launch_id), charged_bytes);
            }
            EventKind::SessionOpen {
                session_id,
                charged_bytes,
                used_bytes,
                blocks,
                ..
            } => {
                self.decode.sessions_admitted += 1;
                self.kv_in_use += charged_bytes;
                self.kv_used += used_bytes;
                self.blocks_in_use += blocks;
                self.note_kv_peak();
                return self.charge(MemOwner::Session(session_id), charged_bytes);
            }
            EventKind::PrefixShared {
                group,
                delta_bytes,
                delta_blocks,
                used_delta_bytes,
                ..
            } => {
                self.decode.shared_sessions += 1;
                self.kv_in_use += delta_bytes;
                self.kv_used += used_delta_bytes;
                self.blocks_in_use += delta_blocks;
                self.kv_shared_in_use += delta_bytes;
                self.note_kv_peak();
                return self.charge(MemOwner::PrefixGroup(group), delta_bytes);
            }
            EventKind::KvGrow {
                session_id,
                delta_bytes,
                delta_blocks,
            } => {
                self.kv_in_use += delta_bytes;
                self.blocks_in_use += delta_blocks;
                self.note_kv_peak();
                return self.charge(MemOwner::Session(session_id), delta_bytes);
            }
            EventKind::DecodeJoin { token_bytes, .. } => {
                self.kv_used += token_bytes;
                self.note_kv_peak();
            }
            EventKind::SessionResumed {
                restored_used_bytes,
                ..
            } => self.kv_used += restored_used_bytes,
            EventKind::SessionRejected { session_id, reason } => {
                self.decode.rejected_sessions.push((session_id, reason));
            }
            EventKind::DecodeStepRejected {
                session_id,
                step_index,
                reason,
            } => self.decode.rejected.push(RejectedDecodeStep {
                session_id,
                step_index: step_index as usize,
                arrival_s: t_s,
                reason,
            }),
            EventKind::LaunchDispatched {
                key,
                device,
                start_s,
                completion_s,
                service_s,
                cache_hit,
                ..
            } => self.dispatched(
                key,
                device as usize,
                start_s,
                completion_s,
                service_s,
                cache_hit,
            ),
            EventKind::BudgetRelease {
                owner,
                bytes,
                used_bytes,
                blocks,
                ..
            } => {
                match owner {
                    MemOwner::PrefillLaunch(_) => {
                        self.prefill_charged = self.prefill_charged.saturating_sub(bytes);
                    }
                    MemOwner::Session(_) => self.release_kv(bytes, used_bytes, blocks),
                    MemOwner::PrefixGroup(_) => {
                        self.release_kv(bytes, used_bytes, blocks);
                        self.kv_shared_in_use = self.kv_shared_in_use.saturating_sub(bytes);
                    }
                }
                match owner {
                    MemOwner::PrefillLaunch(id) => {
                        if let Some(charge) = self.launch_charges.get_mut(id as usize) {
                            *charge = None;
                        }
                        while self.launch_charges.get(self.launch_floor) == Some(&None) {
                            self.launch_floor += 1;
                        }
                    }
                    _ => {
                        self.owners.remove(&owner);
                    }
                }
            }
            EventKind::Preempted {
                victim: PreemptVictim::Launch { .. },
            } => self.preemptions_prefill += 1,
            EventKind::Preempted {
                victim:
                    PreemptVictim::Session {
                        session_id,
                        bytes,
                        used_bytes,
                        blocks,
                        ..
                    },
            } => {
                self.preemptions_decode += 1;
                self.release_kv(bytes, used_bytes, blocks);
                // Still live: the evicted session stays admitted and owes
                // its one release.
                if let Some(held) = self.owners.get_mut(&MemOwner::Session(session_id)) {
                    *held = 0;
                }
            }
            // Arrivals, stage spans and the run header only feed the log.
            // The id-only events carry nothing the ledger needs: their
            // facts arrive whole through `reject_prefill` and `complete_*`.
            EventKind::RunStart { .. }
            | EventKind::PrefillArrival { .. }
            | EventKind::DecodeArrival { .. }
            | EventKind::LaunchStage { .. }
            | EventKind::PrefillRejected { .. }
            | EventKind::PrefillCompleted { .. }
            | EventKind::DecodeCompleted { .. } => {}
        }
        false
    }

    /// A prefill request refused at arrival.
    pub(crate) fn reject_prefill(&mut self, rejected: RejectedRequest) {
        self.prefill.rejected.push(rejected);
    }

    /// A prefill request completed with its share of its launch's energy.
    pub(crate) fn complete_prefill(&mut self, outcome: RequestOutcome) {
        self.prefill.total_energy_pj += outcome.energy_pj;
        self.prefill.outcomes.push(outcome);
    }

    /// A decode step completed.
    pub(crate) fn complete_decode(&mut self, outcome: DecodeStepOutcome) {
        self.decode.outcomes.push(outcome);
    }

    /// The shared-budget peak so far with every holder's nonzero charge at
    /// that instant, largest first (ties by owner). Meaningful right after
    /// [`Ledger::apply`] reports that the peak moved.
    pub(crate) fn peak_attribution(&self, t_s: f64) -> PeakAttribution {
        let launches = (self.launch_charges.iter().enumerate())
            .skip(self.launch_floor)
            .filter_map(|(id, charge)| Some((MemOwner::PrefillLaunch(id as u64), (*charge)?)));
        let mut holders: Vec<(MemOwner, u64)> = (self.owners.iter())
            .map(|(&owner, &bytes)| (owner, bytes))
            .chain(launches)
            .filter(|&(_, bytes)| bytes > 0)
            .collect();
        holders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        PeakAttribution {
            peak_bytes: self.peak.total,
            prefill_bytes: self.peak.prefill,
            decode_bytes: self.peak.decode,
            t_s,
            holders,
        }
    }

    /// The finished report. A class's `device_busy_s` stays empty unless
    /// the class launched, so a single-class run leaves the other class's
    /// report at its default.
    pub(crate) fn into_report(self) -> EngineReport {
        let Self {
            policy,
            budget,
            mut prefill,
            mut decode,
            makespan_s,
            devices,
            peak,
            preemptions_prefill,
            preemptions_decode,
            ..
        } = self;
        if prefill.batches > 0 {
            prefill.device_busy_s = devices.iter().map(|d| d.busy_prefill_s).collect();
        }
        if decode.launches > 0 {
            decode.device_busy_s = devices.iter().map(|d| d.busy_decode_s).collect();
        }
        let device_util = devices
            .iter()
            .map(|d| DeviceUtil {
                busy_s: d.busy_prefill_s + d.busy_decode_s,
                idle_gaps: d.idle_gaps,
                launches: d.launches,
            })
            .collect();
        EngineReport {
            policy,
            launches: prefill.batches + decode.launches,
            prefill,
            decode,
            makespan_s,
            mem_budget_bytes: budget,
            mem_peak_bytes: peak.total,
            mem_peak_prefill_bytes: peak.prefill,
            mem_peak_decode_bytes: peak.decode,
            device_util,
            preemptions_prefill,
            preemptions_decode,
        }
    }

    /// Accounts one launch that started on `device`.
    fn dispatched(
        &mut self,
        key: LaunchKey,
        device: usize,
        start_s: f64,
        completion_s: f64,
        service_s: f64,
        cache_hit: bool,
    ) {
        let tally = &mut self.devices[device];
        if tally.launches > 0 && start_s > tally.last_completion_s {
            tally.idle_gaps += 1;
        }
        tally.launches += 1;
        tally.last_completion_s = completion_s;
        match key.class() {
            WorkClass::Prefill => {
                tally.busy_prefill_s += service_s;
                self.prefill.batches += 1;
                // A chunk chain looks its plan up once, on its first chunk;
                // later chunks repeat the chain's flag.
                if !matches!(key, LaunchKey::PrefillChunk(ck) if ck.index > 0) {
                    if cache_hit {
                        self.prefill.cache_hits += 1;
                    } else {
                        self.prefill.cache_misses += 1;
                    }
                }
                self.prefill.makespan_s = self.prefill.makespan_s.max(completion_s);
            }
            WorkClass::Decode => {
                tally.busy_decode_s += service_s;
                self.decode.launches += 1;
                self.decode.makespan_s = self.decode.makespan_s.max(completion_s);
            }
        }
        self.makespan_s = self.makespan_s.max(completion_s);
    }

    /// Adds `bytes` to `owner`'s live charge and notes the shared peak.
    fn charge(&mut self, owner: MemOwner, bytes: u64) -> bool {
        let held = match owner {
            MemOwner::PrefillLaunch(id) => {
                let slot = id as usize;
                if slot >= self.launch_charges.len() {
                    self.launch_charges.resize(slot + 1, None);
                }
                self.launch_floor = self.launch_floor.min(slot);
                self.launch_charges[slot].get_or_insert(0)
            }
            _ => self.owners.entry(owner).or_insert(0),
        };
        *held += bytes;
        self.peak.note(self.prefill_charged, self.kv_in_use)
    }

    /// Returns KV bytes, resident-token bytes and blocks to the pool
    /// (saturating: a release never drives occupancy negative).
    fn release_kv(&mut self, bytes: u64, used_bytes: u64, blocks: u64) {
        self.kv_in_use = self.kv_in_use.saturating_sub(bytes);
        self.kv_used = self.kv_used.saturating_sub(used_bytes);
        self.blocks_in_use = self.blocks_in_use.saturating_sub(blocks);
    }

    /// Records the decode-class charge high-water mark with its block
    /// count and fragmentation, plus the shared-prefix high-water mark.
    fn note_kv_peak(&mut self) {
        let charged = self.kv_in_use;
        if charged >= self.decode.kv_peak_bytes && charged > 0 {
            self.decode.kv_peak_bytes = charged;
            self.decode.kv_peak_blocks = self.blocks_in_use;
            self.decode.kv_frag_at_peak = 1.0 - self.kv_used as f64 / charged as f64;
        }
        self.decode.kv_shared_peak_bytes =
            self.decode.kv_shared_peak_bytes.max(self.kv_shared_in_use);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreemptMode;

    /// The double-release hazard: the ledger must tell a second release
    /// for the same owner from a live one, so the engine drops and counts
    /// it instead of letting saturating arithmetic absorb it.
    #[test]
    fn release_ledger_rejects_duplicate_releases() {
        let mut ledger = Ledger::new(SchedulePolicy::default(), 1, u64::MAX);
        let release = |owner, bytes| EventKind::BudgetRelease {
            owner,
            bytes,
            used_bytes: 0,
            blocks: 0,
            scheduled_s: 0.0,
        };
        let session = MemOwner::Session(7);
        ledger.apply(
            0.0,
            &EventKind::SessionOpen {
                session_id: 7,
                prompt_len: 16,
                charged_bytes: 64,
                used_bytes: 32,
                blocks: 1,
            },
        );
        assert_eq!(
            ledger.held(session),
            Some(64),
            "an admitted session is live"
        );
        ledger.apply(1.0, &release(session, 64));
        assert!(
            ledger.held(session).is_none(),
            "a second release of the same owner is a duplicate"
        );
        // A release for an owner never charged is also a duplicate.
        assert!(ledger.held(MemOwner::PrefillLaunch(3)).is_none());
        // An evicted session holds nothing but still owes its release.
        ledger.apply(
            2.0,
            &EventKind::KvGrow {
                session_id: 8,
                delta_bytes: 64,
                delta_blocks: 1,
            },
        );
        ledger.apply(
            3.0,
            &EventKind::Preempted {
                victim: PreemptVictim::Session {
                    session_id: 8,
                    mode: PreemptMode::Hold,
                    bytes: 64,
                    used_bytes: 0,
                    blocks: 1,
                },
            },
        );
        assert_eq!(ledger.held(MemOwner::Session(8)), Some(0));
        // Repeated charges keep one entry, and one release clears it.
        let group = MemOwner::PrefixGroup(1);
        for delta_bytes in [128, 0] {
            ledger.apply(
                4.0,
                &EventKind::PrefixShared {
                    group: 1,
                    session_id: 9,
                    delta_bytes,
                    delta_blocks: delta_bytes / 64,
                    used_delta_bytes: delta_bytes,
                    refs: 1,
                },
            );
        }
        assert_eq!(ledger.held(group), Some(128));
        ledger.apply(5.0, &release(group, 128));
        assert!(ledger.held(group).is_none());
        // Prefill launches, kept by launch id, follow the same rules.
        let launch = MemOwner::PrefillLaunch(5);
        for charged_bytes in [256, 0] {
            ledger.apply(
                6.0,
                &EventKind::PrefillJoin {
                    launch_id: 5,
                    members: 1,
                    charged_bytes,
                },
            );
        }
        assert_eq!(ledger.held(launch), Some(256));
        assert!(ledger.held(MemOwner::PrefillLaunch(3)).is_none());
        ledger.apply(7.0, &release(launch, 256));
        assert!(ledger.held(launch).is_none());
    }
}
