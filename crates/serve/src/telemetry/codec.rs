//! The log's byte encoding: one fixed-layout record per [`EngineEvent`].
//!
//! A record is a tag byte naming the variant, the event's `f64` time, then
//! the variant's fields in declaration order, each little-endian at its
//! full width: `u64` ids and byte counts take 8 bytes, `u32` counts 4, an
//! `f64` its 8 raw bits (so NaN payloads, `-0.0` and infinities survive),
//! and an `Option<f64>` a presence byte plus 8 bytes. A field-less enum
//! takes one byte ([`ByteCode`]); a [`LaunchKey`] a variant byte plus its
//! fields (its `usize` dimensions as `u64`); a [`MemOwner`] a variant byte
//! plus its id. A [`PreemptVictim`] picks one of two tags. So each tag, and
//! each key variant for the two tags that carry a key, has one size.
//! Nothing is narrowed: decoding returns the recorded event exactly.
//!
//! The one non-`Copy` field, a `PrefillArrival`'s workload name, is stored
//! once per run in the log's name table; its records carry the name's
//! `u32` index there.

use mas_dataflow::DataflowKind;
use mas_sim::TrackKind;

use super::{EngineEvent, EventKind, MemOwner, PreemptVictim, SealCause};
use crate::decode::DecodeRejectReason;
use crate::engine::{PreemptMode, SchedulePolicy};
use crate::key::{BatchKey, ChunkKey, DecodeKey, LaunchKey};
use crate::queue::RejectReason;

const RUN_START: u8 = 0;
const PREFILL_ARRIVAL: u8 = 1;
const PREFILL_REJECTED: u8 = 2;
const PREFILL_JOIN: u8 = 3;
const DECODE_ARRIVAL: u8 = 4;
const SESSION_OPEN: u8 = 5;
const SESSION_REJECTED: u8 = 6;
const DECODE_STEP_REJECTED: u8 = 7;
const KV_GROW: u8 = 8;
const PREFIX_SHARED: u8 = 9;
const DECODE_JOIN: u8 = 10;
const LAUNCH_DISPATCHED: u8 = 11;
const LAUNCH_STAGE: u8 = 12;
const PREFILL_COMPLETED: u8 = 13;
const DECODE_COMPLETED: u8 = 14;
const BUDGET_RELEASE: u8 = 15;
const PREEMPTED_LAUNCH: u8 = 16;
const PREEMPTED_SESSION: u8 = 17;
const SESSION_RESUMED: u8 = 18;

// Record sizes: the tag and the time (9 bytes), then the fields. The two
// records that carry a `LaunchKey` are appended in three parts: the tag,
// time and launch id, the key, and the remaining fields.
const RUN_START_BYTES: usize = 9 + 1 + 4 + 8 + 4 + 4 + 9;
pub(super) const PREFILL_ARRIVAL_BYTES: usize = 9 + 8 + 4 + 1 + 4 + 9;
const PREFILL_REJECTED_BYTES: usize = 9 + 8 + 1;
pub(super) const PREFILL_JOIN_BYTES: usize = 9 + 8 + 4 + 8;
pub(super) const DECODE_ARRIVAL_BYTES: usize = 9 + 8 + 4;
const SESSION_OPEN_BYTES: usize = 9 + 8 + 4 + 8 + 8 + 8;
const SESSION_REJECTED_BYTES: usize = 9 + 8 + 1;
const DECODE_STEP_REJECTED_BYTES: usize = 9 + 8 + 4 + 1;
const KV_GROW_BYTES: usize = 9 + 8 + 8 + 8;
const PREFIX_SHARED_BYTES: usize = 9 + 8 + 8 + 8 + 8 + 8 + 4;
pub(super) const DECODE_JOIN_BYTES: usize = 9 + 8 + 8 + 4 + 4 + 4 + 8;
const LAUNCH_STAGE_BYTES: usize = 9 + 8 + 4 + 1 + 4 + 8 + 8;
pub(super) const PREFILL_COMPLETED_BYTES: usize = 9 + 8 + 8;
pub(super) const DECODE_COMPLETED_BYTES: usize = 9 + 8 + 4 + 4 + 8;
const BUDGET_RELEASE_BYTES: usize = 9 + 9 + 8 + 8 + 8 + 8;
const PREEMPTED_SESSION_BYTES: usize = 9 + 8 + 1 + 8 + 8 + 8;
const SESSION_RESUMED_BYTES: usize = 9 + 8 + 8 + 4;
const LAUNCH_HEAD_BYTES: usize = 9 + 8;
const PREFILL_KEY_BYTES: usize = 1 + 1 + 8 + 8 + 8;
const DECODE_KEY_BYTES: usize = 1 + 8 + 8 + 8;
const CHUNK_KEY_BYTES: usize = 1 + 8 + 4 + 4;
const DISPATCHED_TAIL_BYTES: usize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 8 + 1 + 1;
const PREEMPTED_TAIL_BYTES: usize = 4 + 8;
/// The largest record: a `LaunchDispatched` with a prefill batch key.
pub(super) const MAX_RECORD_BYTES: usize =
    LAUNCH_HEAD_BYTES + PREFILL_KEY_BYTES + DISPATCHED_TAIL_BYTES;

/// A field-less enum stored as one byte.
trait ByteCode: Sized {
    fn code(self) -> u8;
    fn from_code(code: u8) -> Self;
}

/// Implements [`ByteCode`] from an explicit variant ↔ byte table. The
/// encoding match is exhaustive, so a new variant fails to compile until
/// it is given a byte.
macro_rules! byte_codes {
    ($ty:ty { $($code:literal => $variant:path),+ $(,)? }) => {
        impl ByteCode for $ty {
            #[inline]
            fn code(self) -> u8 {
                match self {
                    $($variant => $code,)+
                }
            }

            fn from_code(code: u8) -> Self {
                match code {
                    $($code => $variant,)+
                    _ => panic!("corrupt telemetry log: {} code {code}", stringify!($ty)),
                }
            }
        }
    };
}

impl ByteCode for bool {
    #[inline]
    fn code(self) -> u8 {
        u8::from(self)
    }

    fn from_code(code: u8) -> Self {
        match code {
            0 => false,
            1 => true,
            _ => panic!("corrupt telemetry log: bool code {code}"),
        }
    }
}

byte_codes!(SchedulePolicy {
    0 => SchedulePolicy::DecodePriority,
    1 => SchedulePolicy::PrefillPriority,
    2 => SchedulePolicy::FairShare,
});
byte_codes!(DataflowKind {
    0 => DataflowKind::LayerWise,
    1 => DataflowKind::SoftPipe,
    2 => DataflowKind::Flat,
    3 => DataflowKind::TileFlow,
    4 => DataflowKind::FuseMax,
    5 => DataflowKind::MasAttention,
});
byte_codes!(RejectReason {
    0 => RejectReason::InfeasibleWorkload,
    1 => RejectReason::DeadlineImpossible,
    2 => RejectReason::QueueFull,
    3 => RejectReason::MemoryPressure,
});
byte_codes!(DecodeRejectReason {
    0 => DecodeRejectReason::InfeasibleSession,
    1 => DecodeRejectReason::KvBudgetExceeded,
    2 => DecodeRejectReason::SessionLimit,
    3 => DecodeRejectReason::DeadlineImpossible,
    4 => DecodeRejectReason::UnknownSession,
    5 => DecodeRejectReason::KvPoolExhausted,
});
byte_codes!(SealCause {
    0 => SealCause::Window,
    1 => SealCause::Fill,
    2 => SealCause::Feasibility,
    3 => SealCause::Flush,
    4 => SealCause::Chain,
});
byte_codes!(TrackKind {
    0 => TrackKind::DmaIn,
    1 => TrackKind::Mac,
    2 => TrackKind::Vec,
    3 => TrackKind::Writeback,
});
byte_codes!(PreemptMode {
    0 => PreemptMode::Hold,
    1 => PreemptMode::Recompute,
});

/// One record (or record part) of exactly `N` bytes, built on the stack
/// at constant offsets and appended to the log with one copy.
struct Record<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Record<N> {
    /// An empty record part.
    #[inline(always)]
    fn part() -> Self {
        Self {
            buf: [0; N],
            len: 0,
        }
    }

    /// A record started with its tag and time.
    #[inline(always)]
    fn new(tag: u8, t_s: f64) -> Self {
        let mut record = Self::part();
        record.u8(tag).f64(t_s);
        record
    }

    #[inline(always)]
    fn put<const M: usize>(&mut self, bytes: [u8; M]) -> &mut Self {
        self.buf[self.len..self.len + M].copy_from_slice(&bytes);
        self.len += M;
        self
    }

    #[inline(always)]
    fn u8(&mut self, v: u8) -> &mut Self {
        self.put([v])
    }

    #[inline(always)]
    fn u32(&mut self, v: u32) -> &mut Self {
        self.put(v.to_le_bytes())
    }

    #[inline(always)]
    fn u64(&mut self, v: u64) -> &mut Self {
        self.put(v.to_le_bytes())
    }

    #[inline(always)]
    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    #[inline(always)]
    fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        self.code(v.is_some()).f64(v.unwrap_or(0.0))
    }

    #[inline(always)]
    fn code(&mut self, v: impl ByteCode) -> &mut Self {
        self.u8(v.code())
    }

    #[inline(always)]
    fn owner(&mut self, owner: MemOwner) -> &mut Self {
        match owner {
            MemOwner::PrefillLaunch(id) => self.u8(0).u64(id),
            MemOwner::Session(id) => self.u8(1).u64(id),
            MemOwner::PrefixGroup(id) => self.u8(2).u64(id),
        }
    }

    /// Appends the record, which must be exactly full (a constant check
    /// once inlined).
    #[inline(always)]
    fn append_to(&self, log: &mut Vec<u8>) {
        assert_eq!(self.len, N, "telemetry record size");
        log.extend_from_slice(&self.buf);
    }
}

/// Appends a [`LaunchKey`]: its variant byte, then its fields.
#[inline]
fn append_key(log: &mut Vec<u8>, key: LaunchKey) {
    match key {
        LaunchKey::Prefill(k) => Record::<PREFILL_KEY_BYTES>::part()
            .u8(0)
            .code(k.method)
            .u64(k.heads as u64)
            .u64(k.seq_len as u64)
            .u64(k.embed as u64)
            .append_to(log),
        LaunchKey::Decode(k) => Record::<DECODE_KEY_BYTES>::part()
            .u8(1)
            .u64(k.heads as u64)
            .u64(k.kv_heads as u64)
            .u64(k.embed as u64)
            .append_to(log),
        LaunchKey::PrefillChunk(k) => Record::<CHUNK_KEY_BYTES>::part()
            .u8(2)
            .u64(k.chain)
            .u32(k.index)
            .u32(k.of)
            .append_to(log),
    }
}

/// Appends the record of a prefill arrival whose workload name has index
/// `workload` in the log's name table.
#[inline]
pub(super) fn prefill_arrival(
    log: &mut Vec<u8>,
    t_s: f64,
    id: u64,
    workload: u32,
    method: DataflowKind,
    batch: u32,
    deadline_s: Option<f64>,
) {
    Record::<PREFILL_ARRIVAL_BYTES>::new(PREFILL_ARRIVAL, t_s)
        .u64(id)
        .u32(workload)
        .code(method)
        .u32(batch)
        .opt_f64(deadline_s)
        .append_to(log);
}

/// Appends the record of one event. `intern` maps a `PrefillArrival`'s
/// workload name to its index in the log's name table.
#[inline]
pub(super) fn encode(
    log: &mut Vec<u8>,
    t_s: f64,
    kind: &EventKind,
    intern: impl FnOnce(&str) -> u32,
) {
    match *kind {
        EventKind::RunStart {
            policy,
            devices,
            budget_bytes,
            max_batch,
            max_steps_per_launch,
            step_deadline_s,
        } => Record::<RUN_START_BYTES>::new(RUN_START, t_s)
            .code(policy)
            .u32(devices)
            .u64(budget_bytes)
            .u32(max_batch)
            .u32(max_steps_per_launch)
            .opt_f64(step_deadline_s)
            .append_to(log),
        EventKind::PrefillArrival {
            id,
            ref workload,
            method,
            batch,
            deadline_s,
        } => prefill_arrival(log, t_s, id, intern(workload), method, batch, deadline_s),
        EventKind::PrefillRejected { id, reason } => {
            Record::<PREFILL_REJECTED_BYTES>::new(PREFILL_REJECTED, t_s)
                .u64(id)
                .code(reason)
                .append_to(log);
        }
        EventKind::PrefillJoin {
            launch_id,
            members,
            charged_bytes,
        } => Record::<PREFILL_JOIN_BYTES>::new(PREFILL_JOIN, t_s)
            .u64(launch_id)
            .u32(members)
            .u64(charged_bytes)
            .append_to(log),
        EventKind::DecodeArrival {
            session_id,
            step_index,
        } => Record::<DECODE_ARRIVAL_BYTES>::new(DECODE_ARRIVAL, t_s)
            .u64(session_id)
            .u32(step_index)
            .append_to(log),
        EventKind::SessionOpen {
            session_id,
            prompt_len,
            charged_bytes,
            used_bytes,
            blocks,
        } => Record::<SESSION_OPEN_BYTES>::new(SESSION_OPEN, t_s)
            .u64(session_id)
            .u32(prompt_len)
            .u64(charged_bytes)
            .u64(used_bytes)
            .u64(blocks)
            .append_to(log),
        EventKind::SessionRejected { session_id, reason } => {
            Record::<SESSION_REJECTED_BYTES>::new(SESSION_REJECTED, t_s)
                .u64(session_id)
                .code(reason)
                .append_to(log);
        }
        EventKind::DecodeStepRejected {
            session_id,
            step_index,
            reason,
        } => Record::<DECODE_STEP_REJECTED_BYTES>::new(DECODE_STEP_REJECTED, t_s)
            .u64(session_id)
            .u32(step_index)
            .code(reason)
            .append_to(log),
        EventKind::KvGrow {
            session_id,
            delta_bytes,
            delta_blocks,
        } => Record::<KV_GROW_BYTES>::new(KV_GROW, t_s)
            .u64(session_id)
            .u64(delta_bytes)
            .u64(delta_blocks)
            .append_to(log),
        EventKind::PrefixShared {
            group,
            session_id,
            delta_bytes,
            delta_blocks,
            used_delta_bytes,
            refs,
        } => Record::<PREFIX_SHARED_BYTES>::new(PREFIX_SHARED, t_s)
            .u64(group)
            .u64(session_id)
            .u64(delta_bytes)
            .u64(delta_blocks)
            .u64(used_delta_bytes)
            .u32(refs)
            .append_to(log),
        EventKind::DecodeJoin {
            launch_id,
            session_id,
            step_index,
            context_len,
            members,
            token_bytes,
        } => Record::<DECODE_JOIN_BYTES>::new(DECODE_JOIN, t_s)
            .u64(launch_id)
            .u64(session_id)
            .u32(step_index)
            .u32(context_len)
            .u32(members)
            .u64(token_bytes)
            .append_to(log),
        EventKind::LaunchDispatched {
            launch_id,
            key,
            device,
            ready_s,
            start_s,
            completion_s,
            service_s,
            members,
            total_batch,
            energy_pj,
            cache_hit,
            cause,
        } => {
            Record::<LAUNCH_HEAD_BYTES>::new(LAUNCH_DISPATCHED, t_s)
                .u64(launch_id)
                .append_to(log);
            append_key(log, key);
            Record::<DISPATCHED_TAIL_BYTES>::part()
                .u32(device)
                .f64(ready_s)
                .f64(start_s)
                .f64(completion_s)
                .f64(service_s)
                .u32(members)
                .u32(total_batch)
                .f64(energy_pj)
                .code(cache_hit)
                .code(cause)
                .append_to(log);
        }
        EventKind::LaunchStage {
            launch_id,
            device,
            track,
            stage,
            start_s,
            end_s,
        } => Record::<LAUNCH_STAGE_BYTES>::new(LAUNCH_STAGE, t_s)
            .u64(launch_id)
            .u32(device)
            .code(track)
            .u32(stage)
            .f64(start_s)
            .f64(end_s)
            .append_to(log),
        EventKind::PrefillCompleted { id, launch_id } => {
            Record::<PREFILL_COMPLETED_BYTES>::new(PREFILL_COMPLETED, t_s)
                .u64(id)
                .u64(launch_id)
                .append_to(log);
        }
        EventKind::DecodeCompleted {
            session_id,
            step_index,
            context_len,
            launch_id,
        } => Record::<DECODE_COMPLETED_BYTES>::new(DECODE_COMPLETED, t_s)
            .u64(session_id)
            .u32(step_index)
            .u32(context_len)
            .u64(launch_id)
            .append_to(log),
        EventKind::BudgetRelease {
            owner,
            bytes,
            used_bytes,
            blocks,
            scheduled_s,
        } => Record::<BUDGET_RELEASE_BYTES>::new(BUDGET_RELEASE, t_s)
            .owner(owner)
            .u64(bytes)
            .u64(used_bytes)
            .u64(blocks)
            .f64(scheduled_s)
            .append_to(log),
        EventKind::Preempted {
            victim:
                PreemptVictim::Launch {
                    launch_id,
                    key,
                    device,
                    start_s,
                },
        } => {
            Record::<LAUNCH_HEAD_BYTES>::new(PREEMPTED_LAUNCH, t_s)
                .u64(launch_id)
                .append_to(log);
            append_key(log, key);
            Record::<PREEMPTED_TAIL_BYTES>::part()
                .u32(device)
                .f64(start_s)
                .append_to(log);
        }
        EventKind::Preempted {
            victim:
                PreemptVictim::Session {
                    session_id,
                    mode,
                    bytes,
                    used_bytes,
                    blocks,
                },
        } => Record::<PREEMPTED_SESSION_BYTES>::new(PREEMPTED_SESSION, t_s)
            .u64(session_id)
            .code(mode)
            .u64(bytes)
            .u64(used_bytes)
            .u64(blocks)
            .append_to(log),
        EventKind::SessionResumed {
            session_id,
            restored_used_bytes,
            recompute_tokens,
        } => Record::<SESSION_RESUMED_BYTES>::new(SESSION_RESUMED, t_s)
            .u64(session_id)
            .u64(restored_used_bytes)
            .u32(recompute_tokens)
            .append_to(log),
    }
}

/// Reads fields off the front of a record.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        head.try_into().expect("split at N")
    }

    #[inline]
    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    #[inline]
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    #[inline]
    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    #[inline]
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    #[inline]
    fn opt_f64(&mut self) -> Option<f64> {
        let present: bool = self.code();
        let v = self.f64();
        present.then_some(v)
    }

    #[inline]
    fn code<T: ByteCode>(&mut self) -> T {
        T::from_code(self.u8())
    }

    fn key(&mut self) -> LaunchKey {
        match self.u8() {
            0 => LaunchKey::Prefill(BatchKey {
                method: self.code(),
                heads: self.usize(),
                seq_len: self.usize(),
                embed: self.usize(),
            }),
            1 => LaunchKey::Decode(DecodeKey {
                heads: self.usize(),
                kv_heads: self.usize(),
                embed: self.usize(),
            }),
            2 => LaunchKey::PrefillChunk(ChunkKey {
                chain: self.u64(),
                index: self.u32(),
                of: self.u32(),
            }),
            code => panic!("corrupt telemetry log: launch key code {code}"),
        }
    }

    fn owner(&mut self) -> MemOwner {
        match self.u8() {
            0 => MemOwner::PrefillLaunch(self.u64()),
            1 => MemOwner::Session(self.u64()),
            2 => MemOwner::PrefixGroup(self.u64()),
            code => panic!("corrupt telemetry log: memory owner code {code}"),
        }
    }
}

/// Decodes a log's records in recording order. Struct fields below are
/// read in the order they are written, which is their encoding order.
#[derive(Clone)]
pub(super) struct Decoder<'a> {
    bytes: &'a [u8],
    workloads: &'a [String],
}

impl<'a> Decoder<'a> {
    /// A decoder of `bytes`, whose arrivals index `workloads`.
    pub(super) fn new(bytes: &'a [u8], workloads: &'a [String]) -> Self {
        Self { bytes, workloads }
    }
}

impl Iterator for Decoder<'_> {
    type Item = EngineEvent;

    fn next(&mut self) -> Option<EngineEvent> {
        let (&tag, rest) = self.bytes.split_first()?;
        let mut r = Reader(rest);
        let t_s = r.f64();
        let kind = match tag {
            RUN_START => EventKind::RunStart {
                policy: r.code(),
                devices: r.u32(),
                budget_bytes: r.u64(),
                max_batch: r.u32(),
                max_steps_per_launch: r.u32(),
                step_deadline_s: r.opt_f64(),
            },
            PREFILL_ARRIVAL => EventKind::PrefillArrival {
                id: r.u64(),
                workload: self.workloads[r.u32() as usize].clone(),
                method: r.code(),
                batch: r.u32(),
                deadline_s: r.opt_f64(),
            },
            PREFILL_REJECTED => EventKind::PrefillRejected {
                id: r.u64(),
                reason: r.code(),
            },
            PREFILL_JOIN => EventKind::PrefillJoin {
                launch_id: r.u64(),
                members: r.u32(),
                charged_bytes: r.u64(),
            },
            DECODE_ARRIVAL => EventKind::DecodeArrival {
                session_id: r.u64(),
                step_index: r.u32(),
            },
            SESSION_OPEN => EventKind::SessionOpen {
                session_id: r.u64(),
                prompt_len: r.u32(),
                charged_bytes: r.u64(),
                used_bytes: r.u64(),
                blocks: r.u64(),
            },
            SESSION_REJECTED => EventKind::SessionRejected {
                session_id: r.u64(),
                reason: r.code(),
            },
            DECODE_STEP_REJECTED => EventKind::DecodeStepRejected {
                session_id: r.u64(),
                step_index: r.u32(),
                reason: r.code(),
            },
            KV_GROW => EventKind::KvGrow {
                session_id: r.u64(),
                delta_bytes: r.u64(),
                delta_blocks: r.u64(),
            },
            PREFIX_SHARED => EventKind::PrefixShared {
                group: r.u64(),
                session_id: r.u64(),
                delta_bytes: r.u64(),
                delta_blocks: r.u64(),
                used_delta_bytes: r.u64(),
                refs: r.u32(),
            },
            DECODE_JOIN => EventKind::DecodeJoin {
                launch_id: r.u64(),
                session_id: r.u64(),
                step_index: r.u32(),
                context_len: r.u32(),
                members: r.u32(),
                token_bytes: r.u64(),
            },
            LAUNCH_DISPATCHED => EventKind::LaunchDispatched {
                launch_id: r.u64(),
                key: r.key(),
                device: r.u32(),
                ready_s: r.f64(),
                start_s: r.f64(),
                completion_s: r.f64(),
                service_s: r.f64(),
                members: r.u32(),
                total_batch: r.u32(),
                energy_pj: r.f64(),
                cache_hit: r.code(),
                cause: r.code(),
            },
            LAUNCH_STAGE => EventKind::LaunchStage {
                launch_id: r.u64(),
                device: r.u32(),
                track: r.code(),
                stage: r.u32(),
                start_s: r.f64(),
                end_s: r.f64(),
            },
            PREFILL_COMPLETED => EventKind::PrefillCompleted {
                id: r.u64(),
                launch_id: r.u64(),
            },
            DECODE_COMPLETED => EventKind::DecodeCompleted {
                session_id: r.u64(),
                step_index: r.u32(),
                context_len: r.u32(),
                launch_id: r.u64(),
            },
            BUDGET_RELEASE => EventKind::BudgetRelease {
                owner: r.owner(),
                bytes: r.u64(),
                used_bytes: r.u64(),
                blocks: r.u64(),
                scheduled_s: r.f64(),
            },
            PREEMPTED_LAUNCH => EventKind::Preempted {
                victim: PreemptVictim::Launch {
                    launch_id: r.u64(),
                    key: r.key(),
                    device: r.u32(),
                    start_s: r.f64(),
                },
            },
            PREEMPTED_SESSION => EventKind::Preempted {
                victim: PreemptVictim::Session {
                    session_id: r.u64(),
                    mode: r.code(),
                    bytes: r.u64(),
                    used_bytes: r.u64(),
                    blocks: r.u64(),
                },
            },
            SESSION_RESUMED => EventKind::SessionResumed {
                session_id: r.u64(),
                restored_used_bytes: r.u64(),
                recompute_tokens: r.u32(),
            },
            tag => panic!("corrupt telemetry log: event tag {tag}"),
        };
        self.bytes = r.0;
        Some(EngineEvent { t_s, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Telemetry;
    use super::*;

    const POLICIES: [SchedulePolicy; 3] = [
        SchedulePolicy::DecodePriority,
        SchedulePolicy::PrefillPriority,
        SchedulePolicy::FairShare,
    ];
    const REJECT_REASONS: [RejectReason; 4] = [
        RejectReason::InfeasibleWorkload,
        RejectReason::DeadlineImpossible,
        RejectReason::QueueFull,
        RejectReason::MemoryPressure,
    ];
    const DECODE_REJECT_REASONS: [DecodeRejectReason; 6] = [
        DecodeRejectReason::InfeasibleSession,
        DecodeRejectReason::KvBudgetExceeded,
        DecodeRejectReason::SessionLimit,
        DecodeRejectReason::DeadlineImpossible,
        DecodeRejectReason::UnknownSession,
        DecodeRejectReason::KvPoolExhausted,
    ];
    const SEAL_CAUSES: [SealCause; 5] = [
        SealCause::Window,
        SealCause::Fill,
        SealCause::Feasibility,
        SealCause::Flush,
        SealCause::Chain,
    ];
    const PREEMPT_MODES: [PreemptMode; 2] = [PreemptMode::Hold, PreemptMode::Recompute];

    /// Field values for test events. Integers count up from 1, so no two
    /// fields of one event are equal, or all sit at their type's maximum;
    /// floats cycle through `floats`.
    struct Fill {
        max_ints: bool,
        floats: Vec<f64>,
        n: u64,
    }

    impl Fill {
        fn new(max_ints: bool, floats: &[f64]) -> Self {
            Self {
                max_ints,
                floats: floats.to_vec(),
                n: 0,
            }
        }

        fn u64(&mut self) -> u64 {
            self.n += 1;
            if self.max_ints {
                u64::MAX
            } else {
                self.n
            }
        }

        fn u32(&mut self) -> u32 {
            if self.max_ints {
                u32::MAX
            } else {
                self.u64() as u32
            }
        }

        fn usize(&mut self) -> usize {
            if self.max_ints {
                usize::MAX
            } else {
                self.u64() as usize
            }
        }

        fn f64(&mut self) -> f64 {
            self.n += 1;
            self.floats[self.n as usize % self.floats.len()]
        }

        fn keys(&mut self) -> Vec<LaunchKey> {
            let mut keys: Vec<LaunchKey> = DataflowKind::all()
                .into_iter()
                .map(|method| {
                    LaunchKey::Prefill(BatchKey {
                        method,
                        heads: self.usize(),
                        seq_len: self.usize(),
                        embed: self.usize(),
                    })
                })
                .collect();
            keys.push(LaunchKey::Decode(DecodeKey {
                heads: self.usize(),
                kv_heads: self.usize(),
                embed: self.usize(),
            }));
            keys.push(LaunchKey::PrefillChunk(ChunkKey {
                chain: self.u64(),
                index: self.u32(),
                of: self.u32(),
            }));
            keys
        }

        /// Every event variant, with every value of each field-less enum
        /// it carries, every key and owner variant, and both `None` and
        /// `Some` deadlines.
        fn every_event(&mut self) -> Vec<EngineEvent> {
            let mut kinds = Vec::new();
            for policy in POLICIES {
                for step_deadline_s in [None, Some(self.f64())] {
                    kinds.push(EventKind::RunStart {
                        policy,
                        devices: self.u32(),
                        budget_bytes: self.u64(),
                        max_batch: self.u32(),
                        max_steps_per_launch: self.u32(),
                        step_deadline_s,
                    });
                }
            }
            for method in DataflowKind::all() {
                for (workload, deadline_s) in
                    [("BERT-Small", None), ("ünï \"q\"\n", Some(self.f64()))]
                {
                    kinds.push(EventKind::PrefillArrival {
                        id: self.u64(),
                        workload: workload.to_string(),
                        method,
                        batch: self.u32(),
                        deadline_s,
                    });
                }
            }
            for reason in REJECT_REASONS {
                kinds.push(EventKind::PrefillRejected {
                    id: self.u64(),
                    reason,
                });
            }
            kinds.push(EventKind::PrefillJoin {
                launch_id: self.u64(),
                members: self.u32(),
                charged_bytes: self.u64(),
            });
            kinds.push(EventKind::DecodeArrival {
                session_id: self.u64(),
                step_index: self.u32(),
            });
            kinds.push(EventKind::SessionOpen {
                session_id: self.u64(),
                prompt_len: self.u32(),
                charged_bytes: self.u64(),
                used_bytes: self.u64(),
                blocks: self.u64(),
            });
            for reason in DECODE_REJECT_REASONS {
                kinds.push(EventKind::SessionRejected {
                    session_id: self.u64(),
                    reason,
                });
                kinds.push(EventKind::DecodeStepRejected {
                    session_id: self.u64(),
                    step_index: self.u32(),
                    reason,
                });
            }
            kinds.push(EventKind::KvGrow {
                session_id: self.u64(),
                delta_bytes: self.u64(),
                delta_blocks: self.u64(),
            });
            kinds.push(EventKind::PrefixShared {
                group: self.u64(),
                session_id: self.u64(),
                delta_bytes: self.u64(),
                delta_blocks: self.u64(),
                used_delta_bytes: self.u64(),
                refs: self.u32(),
            });
            kinds.push(EventKind::DecodeJoin {
                launch_id: self.u64(),
                session_id: self.u64(),
                step_index: self.u32(),
                context_len: self.u32(),
                members: self.u32(),
                token_bytes: self.u64(),
            });
            for key in self.keys() {
                for cause in SEAL_CAUSES {
                    for cache_hit in [false, true] {
                        kinds.push(EventKind::LaunchDispatched {
                            launch_id: self.u64(),
                            key,
                            device: self.u32(),
                            ready_s: self.f64(),
                            start_s: self.f64(),
                            completion_s: self.f64(),
                            service_s: self.f64(),
                            members: self.u32(),
                            total_batch: self.u32(),
                            energy_pj: self.f64(),
                            cache_hit,
                            cause,
                        });
                    }
                }
                kinds.push(EventKind::Preempted {
                    victim: PreemptVictim::Launch {
                        launch_id: self.u64(),
                        key,
                        device: self.u32(),
                        start_s: self.f64(),
                    },
                });
            }
            for track in TrackKind::ALL {
                kinds.push(EventKind::LaunchStage {
                    launch_id: self.u64(),
                    device: self.u32(),
                    track,
                    stage: self.u32(),
                    start_s: self.f64(),
                    end_s: self.f64(),
                });
            }
            kinds.push(EventKind::PrefillCompleted {
                id: self.u64(),
                launch_id: self.u64(),
            });
            kinds.push(EventKind::DecodeCompleted {
                session_id: self.u64(),
                step_index: self.u32(),
                context_len: self.u32(),
                launch_id: self.u64(),
            });
            for owner in [
                MemOwner::PrefillLaunch(self.u64()),
                MemOwner::Session(self.u64()),
                MemOwner::PrefixGroup(self.u64()),
            ] {
                kinds.push(EventKind::BudgetRelease {
                    owner,
                    bytes: self.u64(),
                    used_bytes: self.u64(),
                    blocks: self.u64(),
                    scheduled_s: self.f64(),
                });
            }
            for mode in PREEMPT_MODES {
                kinds.push(EventKind::Preempted {
                    victim: PreemptVictim::Session {
                        session_id: self.u64(),
                        mode,
                        bytes: self.u64(),
                        used_bytes: self.u64(),
                        blocks: self.u64(),
                    },
                });
            }
            kinds.push(EventKind::SessionResumed {
                session_id: self.u64(),
                restored_used_bytes: self.u64(),
                recompute_tokens: self.u32(),
            });
            kinds
                .into_iter()
                .map(|kind| EngineEvent {
                    t_s: self.f64(),
                    kind,
                })
                .collect()
        }
    }

    /// The bits of every `f64` an event carries, the time first (`None`
    /// for an absent deadline).
    fn f64_bits(event: &EngineEvent) -> Vec<Option<u64>> {
        let floats = match event.kind {
            EventKind::RunStart {
                step_deadline_s: deadline,
                ..
            }
            | EventKind::PrefillArrival {
                deadline_s: deadline,
                ..
            } => vec![deadline],
            EventKind::LaunchDispatched {
                ready_s,
                start_s,
                completion_s,
                service_s,
                energy_pj,
                ..
            } => vec![ready_s, start_s, completion_s, service_s, energy_pj]
                .into_iter()
                .map(Some)
                .collect(),
            EventKind::LaunchStage { start_s, end_s, .. } => vec![Some(start_s), Some(end_s)],
            EventKind::BudgetRelease { scheduled_s, .. } => vec![Some(scheduled_s)],
            EventKind::Preempted {
                victim: PreemptVictim::Launch { start_s, .. },
            } => vec![Some(start_s)],
            _ => Vec::new(),
        };
        std::iter::once(Some(event.t_s))
            .chain(floats)
            .map(|v| v.map(f64::to_bits))
            .collect()
    }

    fn log_of(events: &[EngineEvent]) -> Telemetry {
        let mut log = Telemetry::recording(0, None);
        for event in events {
            log.record(event.t_s, &event.kind);
        }
        log
    }

    /// A quiet NaN and a signalling NaN, each with a payload.
    const NAN_PAYLOADS: [u64; 2] = [0x7ff8_0000_dead_beef, 0xfff0_0000_0000_0001];

    #[test]
    fn every_event_round_trips_bit_for_bit() {
        let nan = NAN_PAYLOADS.map(f64::from_bits);
        let float_sets: [&[f64]; 3] = [
            &[0.25, 1e-9, 3.5e3, 7.0, 1e300, 5e-324],
            &[nan[0], -0.0, f64::INFINITY, f64::NEG_INFINITY, nan[1], 0.0],
            &[
                -0.0,
                nan[1],
                0.0,
                f64::NEG_INFINITY,
                nan[0],
                f64::INFINITY,
                2.0,
            ],
        ];
        for max_ints in [false, true] {
            for floats in float_sets {
                let events = Fill::new(max_ints, floats).every_event();
                let log = log_of(&events);
                let decoded = log.events();
                assert_eq!(log.len(), events.len());
                assert_eq!(decoded.len(), events.len());
                for (back, event) in decoded.iter().zip(&events) {
                    if floats.iter().all(|v| !v.is_nan()) {
                        assert_eq!(back, event);
                    }
                    // Debug covers every non-float field exactly, the bits
                    // every float (NaN payloads and the sign of zero).
                    assert_eq!(format!("{back:?}"), format!("{event:?}"));
                    assert_eq!(f64_bits(back), f64_bits(event), "{event:?}");
                }
                // Two workload names, whatever the number of arrivals.
                assert_eq!(log.names.list.len(), 2);
            }
        }
    }

    /// The engine's clone-free arrival path writes the same record as
    /// [`Telemetry::record`].
    #[test]
    fn the_arrival_fast_path_encodes_like_record() {
        let events = Fill::new(false, &[0.5, 1.5]).every_event();
        let mut fast = Telemetry::recording(0, None);
        for event in &events {
            match &event.kind {
                EventKind::PrefillArrival {
                    id,
                    workload,
                    method,
                    batch,
                    deadline_s,
                } => fast.record_prefill_arrival(
                    event.t_s,
                    *id,
                    workload,
                    *method,
                    *batch,
                    *deadline_s,
                ),
                kind => fast.record(event.t_s, kind),
            }
        }
        assert_eq!(fast.bytes, log_of(&events).bytes);
    }

    /// Each distinct workload name is stored once, however many arrivals
    /// carry it, and decodes back.
    #[test]
    fn each_workload_name_is_stored_once_however_many_there_are() {
        let arrival = |i: usize| EngineEvent {
            t_s: i as f64,
            kind: EventKind::PrefillArrival {
                id: i as u64,
                workload: format!("net-{}", i % 20),
                method: DataflowKind::MasAttention,
                batch: 1,
                deadline_s: None,
            },
        };
        let events: Vec<EngineEvent> = (0..60).map(arrival).collect();
        let log = log_of(&events);
        assert_eq!(log.names.list.len(), 20);
        assert_eq!(log.events(), events);
        assert_eq!(log.encoded_bytes(), 60 * PREFILL_ARRIVAL_BYTES);
    }

    /// The variant of an event, with its key or victim variant where that
    /// changes the record's size.
    fn size_class(kind: &EventKind) -> String {
        let key_class = |key: &LaunchKey| match key {
            LaunchKey::Prefill(_) => "Prefill",
            LaunchKey::Decode(_) => "Decode",
            LaunchKey::PrefillChunk(_) => "PrefillChunk",
        };
        match kind {
            EventKind::LaunchDispatched { key, .. } => {
                format!("LaunchDispatched/{}", key_class(key))
            }
            EventKind::Preempted {
                victim: PreemptVictim::Launch { key, .. },
            } => format!("Preempted/Launch/{}", key_class(key)),
            EventKind::Preempted {
                victim: PreemptVictim::Session { .. },
            } => "Preempted/Session".to_string(),
            kind => format!("{kind:?}")
                .split([' ', '{'])
                .next()
                .unwrap()
                .to_string(),
        }
    }

    /// Each record's size in bytes, pinned: a field added or widened
    /// fails here before it bloats the log.
    #[test]
    fn every_record_has_its_pinned_size() {
        let pinned: [(&str, usize); 23] = [
            ("RunStart", 39),
            ("PrefillArrival", 35),
            ("PrefillRejected", 18),
            ("PrefillJoin", 29),
            ("DecodeArrival", 21),
            ("SessionOpen", 45),
            ("SessionRejected", 18),
            ("DecodeStepRejected", 22),
            ("KvGrow", 33),
            ("PrefixShared", 53),
            ("DecodeJoin", 45),
            ("LaunchDispatched/Prefill", 97),
            ("LaunchDispatched/Decode", 96),
            ("LaunchDispatched/PrefillChunk", 88),
            ("LaunchStage", 42),
            ("PrefillCompleted", 25),
            ("DecodeCompleted", 33),
            ("BudgetRelease", 50),
            ("Preempted/Launch/Prefill", 55),
            ("Preempted/Launch/Decode", 54),
            ("Preempted/Launch/PrefillChunk", 46),
            ("Preempted/Session", 42),
            ("SessionResumed", 29),
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut log = Telemetry::recording(0, None);
        for event in Fill::new(true, &[1.0]).every_event() {
            let before = log.encoded_bytes();
            log.record(event.t_s, &event.kind);
            let class = size_class(&event.kind);
            let &(_, size) = (pinned.iter())
                .find(|(name, _)| *name == class)
                .unwrap_or_else(|| panic!("no pinned size for {class}"));
            assert_eq!(log.encoded_bytes() - before, size, "{class}");
            seen.insert(class);
        }
        assert_eq!(seen.len(), pinned.len(), "every pinned class recorded");
        // The sizes the recording hint is built from.
        let size = |class: &str| pinned.iter().find(|(name, _)| *name == class).unwrap().1;
        assert_eq!(MAX_RECORD_BYTES, pinned.iter().map(|p| p.1).max().unwrap());
        assert_eq!(PREFILL_ARRIVAL_BYTES, size("PrefillArrival"));
        assert_eq!(PREFILL_JOIN_BYTES, size("PrefillJoin"));
        assert_eq!(PREFILL_COMPLETED_BYTES, size("PrefillCompleted"));
        assert_eq!(DECODE_ARRIVAL_BYTES, size("DecodeArrival"));
        assert_eq!(DECODE_JOIN_BYTES, size("DecodeJoin"));
        assert_eq!(DECODE_COMPLETED_BYTES, size("DecodeCompleted"));
    }
}
