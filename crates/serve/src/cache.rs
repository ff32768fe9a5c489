//! The shared, persistable schedule cache.
//!
//! Planning a batch — choosing a tiling (possibly via MCTS + GA search) and
//! simulating the resulting schedule — is a pure function of `(method,
//! workload shape, planner configuration)`, where the configuration spans
//! the hardware, the energy model and the tiling strategy with its tuner
//! budget and seed. The cache memoizes that function: tune once, replay the
//! plan for every subsequent request with the same key. Keys use the
//! workload *shape* `(batch, heads, seq_len, embed)` plus a
//! [`planning_fingerprint`] of the configuration, never the workload name,
//! so renamed but identical workloads share entries while caches built
//! under different planner configurations (e.g. heuristic vs. search-tuned)
//! never mix.
//!
//! Caches serialize to a versioned line-based text format ([`to_text`] /
//! [`from_text`], [`save`] / [`load`]) with float fields encoded as exact
//! IEEE-754 bit patterns, and [`merge`] combines caches from independent
//! processes: sharded Figure 7-style sweeps tune disjoint key sets in
//! parallel, then merge their caches into one equal to the jointly built
//! cache. Merging is commutative and associative (conflicts resolve by a
//! total order on entries), so shards can combine in any grouping.
//!
//! The format carries an integrity footer (entry count plus an FNV-1a
//! checksum of the entry lines), so a corrupted or truncated file — shard
//! caches travel between processes and machines — parses to an error
//! instead of panicking or silently dropping entries (pinned by property
//! test, `tests/cache_robustness.rs`).
//!
//! [`to_text`]: ScheduleCache::to_text
//! [`from_text`]: ScheduleCache::from_text
//! [`save`]: ScheduleCache::save
//! [`load`]: ScheduleCache::load
//! [`merge`]: ScheduleCache::merge

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use mas_attention::planner::TilingStrategy;
use mas_attention::PlannerConfig;
use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling};
use mas_sim::HardwareConfig;

/// Magic first line of the serialized cache format.
const FORMAT_HEADER: &str = "mas-serve-schedule-cache v2";

/// Prefix of the integrity footer (last line of the format).
const FOOTER_PREFIX: &str = "# entries=";

/// Incremental FNV-1a hasher for configuration fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    fn eat_f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// A 64-bit FNV-1a fingerprint of a hardware configuration, stable across
/// processes and platforms (floats hash by IEEE-754 bit pattern).
#[must_use]
pub fn hardware_fingerprint(hw: &HardwareConfig) -> u64 {
    let mut h = Fnv::new();
    h.eat(hw.name.as_bytes());
    for v in [hw.frequency_hz, hw.dram_bandwidth_bytes_per_s] {
        h.eat_f64(v);
    }
    for v in [
        hw.cores,
        hw.mac_array_rows,
        hw.mac_array_cols,
        hw.vec_lanes,
        hw.softmax_ops_per_element,
        hw.l1_bytes,
        hw.l0_bytes,
        hw.dram_bytes,
        hw.element_bytes,
    ] {
        h.eat_u64(v as u64);
    }
    for v in [hw.mac_fill_drain_cycles, hw.issue_overhead_cycles] {
        h.eat_u64(v);
    }
    h.0
}

/// A 64-bit fingerprint of everything a cached plan's *values* depend on
/// beyond the workload shape: the hardware, the energy model, the tiling
/// strategy and (for the search strategy) the tuner budget and seed. Two
/// planner configurations with equal fingerprints produce identical plans
/// for every key, so caches built under them may be merged;
/// differing fingerprints keep their entries disjoint instead of silently
/// mixing, say, heuristic plans into a search-tuned serving process.
#[must_use]
pub fn planning_fingerprint(config: &PlannerConfig) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(hardware_fingerprint(&config.hardware));
    for v in [
        config.energy.dram_pj_per_byte,
        config.energy.l1_pj_per_byte,
        config.energy.l0_pj_per_byte,
        config.energy.mac_pj_per_op,
        config.energy.vec_pj_per_op,
        config.energy.l1_bytes_per_mac_operand_element,
        config.energy.l0_bytes_per_op,
    ] {
        h.eat_f64(v);
    }
    match config.tiling {
        TilingStrategy::Heuristic => h.eat(b"heuristic"),
        TilingStrategy::Search => {
            // The tuner budget and seed both steer which tiling the
            // search lands on; `parallel` does not (bit-identical by test)
            // and is deliberately excluded.
            h.eat(b"search");
            for v in [
                config.tuner.mcts_iterations,
                config.tuner.mcts_rollout_batch,
                config.tuner.ga_population,
                config.tuner.ga_generations,
            ] {
                h.eat_u64(v as u64);
            }
            // The former latency-objective tag, kept so saved fingerprints stay valid.
            h.eat(b"lat");
            h.eat_u64(config.seed);
        }
    }
    h.0
}

/// Identity of one cached plan: the method, the workload *shape* and the
/// [`planning_fingerprint`] of the configuration that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// The dataflow method.
    pub method: DataflowKind,
    /// Workload batch dimension (after any micro-batch merging).
    pub batch: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Per-head embedding size.
    pub embed: usize,
    /// [`planning_fingerprint`] of the planner configuration (hardware,
    /// energy model, tiling strategy, tuner budget/seed).
    pub config_fingerprint: u64,
}

impl CacheKey {
    /// Builds the key for a `(method, workload, planner configuration)`
    /// triple.
    #[must_use]
    pub fn of(method: DataflowKind, workload: &AttentionWorkload, config: &PlannerConfig) -> Self {
        Self {
            method,
            batch: workload.batch,
            heads: workload.heads,
            seq_len: workload.seq_len,
            embed: workload.embed,
            config_fingerprint: planning_fingerprint(config),
        }
    }
}

/// One memoized plan: the chosen tiling plus the simulation outcome of the
/// schedule it produces (the quantities the serving runtime replays without
/// re-planning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedPlan {
    /// The tiling the planner chose.
    pub tiling: Tiling,
    /// Simulated execution cycles of the schedule.
    pub cycles: u64,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Simulated total energy in picojoules.
    pub energy_pj: f64,
    /// Simulated DRAM read traffic in bytes.
    pub dram_read_bytes: u64,
    /// Simulated DRAM write traffic in bytes.
    pub dram_write_bytes: u64,
    /// Whether the tiling came from search-based tuning (vs. the heuristic).
    pub tuned: bool,
}

impl CachedPlan {
    /// Total order used to resolve merge conflicts deterministically:
    /// lower-cost plans win, with exact bit-level tie-breaking so that
    /// `merge` is commutative and associative.
    fn rank(&self) -> (u64, u64, usize, usize, usize, usize, u64, u64, u64, bool) {
        (
            self.cycles,
            self.energy_pj.to_bits(),
            self.tiling.b_b,
            self.tiling.h_h,
            self.tiling.n_q,
            self.tiling.n_kv,
            self.seconds.to_bits(),
            self.dram_read_bytes,
            self.dram_write_bytes,
            self.tuned,
        )
    }
}

/// Errors loading or parsing a serialized cache.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed cache text.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache I/O error: {e}"),
            CacheError::Parse { line, reason } => {
                write!(f, "cache parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// The shared schedule cache. Equality compares entries only, so two caches
/// built by different processes (or via different merge orders) compare
/// equal when they memoize the same plans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleCache {
    entries: BTreeMap<CacheKey, CachedPlan>,
}

impl ScheduleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the plan for a key.
    #[must_use]
    pub fn lookup(&self, key: &CacheKey) -> Option<&CachedPlan> {
        self.entries.get(key)
    }

    /// Whether a key is memoized.
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a plan, or overrides an existing one deterministically: the
    /// lower-cost plan wins, ties breaking on exact bit patterns (the order
    /// [`ScheduleCache::merge`] resolves conflicts by).
    pub fn insert(&mut self, key: CacheKey, plan: CachedPlan) {
        self.entries
            .entry(key)
            .and_modify(|existing| {
                if plan.rank() < existing.rank() {
                    *existing = plan;
                }
            })
            .or_insert(plan);
    }

    /// Iterates entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&CacheKey, &CachedPlan)> {
        self.entries.iter()
    }

    /// Merges another cache into this one (set union; conflicting keys keep
    /// the lower-ranked plan). Commutative and associative: any grouping of
    /// shard merges produces the same cache as building jointly.
    pub fn merge(&mut self, other: &ScheduleCache) {
        for (key, plan) in &other.entries {
            self.insert(*key, *plan);
        }
    }

    /// Serializes the cache to the versioned text format. Deterministic:
    /// entries are emitted in key order with floats as exact bit patterns,
    /// so equal caches serialize identically. The final line is an integrity
    /// footer (entry count + FNV-1a checksum of the entry lines) that
    /// [`ScheduleCache::from_text`] verifies, so truncated or bit-flipped
    /// cache files are rejected instead of silently losing or corrupting
    /// entries.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut body = String::with_capacity(self.entries.len() * 96);
        for (k, p) in &self.entries {
            body.push_str(&format!(
                "m={} b={} h={} n={} e={} cfg={:016x} t={}/{}/{}/{} cyc={} s={:016x} epj={:016x} dr={} dw={} tuned={}\n",
                method_token(k.method),
                k.batch,
                k.heads,
                k.seq_len,
                k.embed,
                k.config_fingerprint,
                p.tiling.b_b,
                p.tiling.h_h,
                p.tiling.n_q,
                p.tiling.n_kv,
                p.cycles,
                p.seconds.to_bits(),
                p.energy_pj.to_bits(),
                p.dram_read_bytes,
                p.dram_write_bytes,
                u8::from(p.tuned),
            ));
        }
        let mut checksum = Fnv::new();
        checksum.eat(body.as_bytes());
        format!(
            "{FORMAT_HEADER}\n{body}{FOOTER_PREFIX}{} fnv={:016x}\n",
            self.entries.len(),
            checksum.0
        )
    }

    /// Parses a cache from the text format, verifying the integrity footer.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Parse`] on a bad header, a malformed line, a
    /// missing or misplaced footer (truncation), or a footer whose entry
    /// count or checksum does not match the entry lines (corruption). Never
    /// panics and never silently drops entries.
    pub fn from_text(text: &str) -> Result<Self, CacheError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim_end() == FORMAT_HEADER => {}
            other => {
                return Err(CacheError::Parse {
                    line: 1,
                    reason: format!(
                        "expected header {FORMAT_HEADER:?}, found {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                })
            }
        }
        let mut cache = ScheduleCache::new();
        let mut checksum = Fnv::new();
        let mut entry_lines: usize = 0;
        let mut footer: Option<(usize, usize, u64)> = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            if footer.is_some() {
                return Err(CacheError::Parse {
                    line: line_no,
                    reason: "content after the integrity footer".to_string(),
                });
            }
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(FOOTER_PREFIX) {
                let (count, fnv) = parse_footer(rest).map_err(|reason| CacheError::Parse {
                    line: line_no,
                    reason,
                })?;
                footer = Some((line_no, count, fnv));
                continue;
            }
            let (key, plan) = parse_entry(line).map_err(|reason| CacheError::Parse {
                line: line_no,
                reason,
            })?;
            checksum.eat(line.as_bytes());
            checksum.eat(b"\n");
            entry_lines += 1;
            cache.insert(key, plan);
        }
        let Some((footer_line, count, fnv)) = footer else {
            return Err(CacheError::Parse {
                line: text.lines().count().max(1),
                reason: "missing integrity footer (truncated cache?)".to_string(),
            });
        };
        if count != entry_lines {
            return Err(CacheError::Parse {
                line: footer_line,
                reason: format!("footer claims {count} entries, found {entry_lines}"),
            });
        }
        if fnv != checksum.0 {
            return Err(CacheError::Parse {
                line: footer_line,
                reason: format!(
                    "checksum mismatch: footer fnv={fnv:016x}, entries hash to {:016x}",
                    checksum.0
                ),
            });
        }
        Ok(cache)
    }

    /// Writes the cache to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CacheError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Reads a cache from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] on filesystem failure and
    /// [`CacheError::Parse`] on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text)
    }
}

/// Stable serialization token of a method (the enum variant name).
fn method_token(method: DataflowKind) -> &'static str {
    match method {
        DataflowKind::LayerWise => "LayerWise",
        DataflowKind::SoftPipe => "SoftPipe",
        DataflowKind::Flat => "Flat",
        DataflowKind::TileFlow => "TileFlow",
        DataflowKind::FuseMax => "FuseMax",
        DataflowKind::MasAttention => "MasAttention",
    }
}

fn method_from_token(token: &str) -> Result<DataflowKind, String> {
    Ok(match token {
        "LayerWise" => DataflowKind::LayerWise,
        "SoftPipe" => DataflowKind::SoftPipe,
        "Flat" => DataflowKind::Flat,
        "TileFlow" => DataflowKind::TileFlow,
        "FuseMax" => DataflowKind::FuseMax,
        "MasAttention" => DataflowKind::MasAttention,
        other => return Err(format!("unknown method token {other:?}")),
    })
}

/// Parses the footer payload after [`FOOTER_PREFIX`]: `"<count> fnv=<hex>"`.
fn parse_footer(rest: &str) -> Result<(usize, u64), String> {
    let mut parts = rest.split_whitespace();
    let count = parts
        .next()
        .ok_or_else(|| "footer missing entry count".to_string())?
        .parse::<usize>()
        .map_err(|e| format!("footer entry count: {e}"))?;
    let fnv_field = parts
        .next()
        .ok_or_else(|| "footer missing fnv field".to_string())?;
    let fnv_hex = fnv_field
        .strip_prefix("fnv=")
        .ok_or_else(|| format!("footer field {fnv_field:?} is not fnv=<hex>"))?;
    // The canonical emitter writes exactly 16 lowercase hex digits; the
    // footer is the one line its own checksum cannot cover, so reject any
    // non-canonical spelling (`from_str_radix` alone would let a case-flipped
    // digit — a single-bit corruption — parse back to the same value).
    if fnv_hex.len() != 16
        || !fnv_hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(format!(
            "footer fnv {fnv_hex:?} is not 16 lowercase hex digits"
        ));
    }
    let fnv = u64::from_str_radix(fnv_hex, 16).map_err(|e| format!("footer fnv: {e}"))?;
    if let Some(extra) = parts.next() {
        return Err(format!("unexpected footer token {extra:?}"));
    }
    Ok((count, fnv))
}

fn parse_entry(line: &str) -> Result<(CacheKey, CachedPlan), String> {
    let mut fields: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for token in line.split_whitespace() {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| format!("token {token:?} is not key=value"))?;
        fields.insert(k, v);
    }
    let get = |name: &str| -> Result<&str, String> {
        fields
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing field {name:?}"))
    };
    let usize_of = |name: &str| -> Result<usize, String> {
        get(name)?
            .parse::<usize>()
            .map_err(|e| format!("field {name:?}: {e}"))
    };
    let u64_of = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("field {name:?}: {e}"))
    };
    let bits_of = |name: &str| -> Result<u64, String> {
        u64::from_str_radix(get(name)?, 16).map_err(|e| format!("field {name:?}: {e}"))
    };

    let tiling_str = get("t")?;
    let parts: Vec<&str> = tiling_str.split('/').collect();
    if parts.len() != 4 {
        return Err(format!("tiling {tiling_str:?} must have four factors"));
    }
    let factor = |i: usize| -> Result<usize, String> {
        let v = parts[i]
            .parse::<usize>()
            .map_err(|e| format!("tiling factor {:?}: {e}", parts[i]))?;
        if v == 0 {
            return Err("tiling factors must be non-zero".to_string());
        }
        Ok(v)
    };

    let key = CacheKey {
        method: method_from_token(get("m")?)?,
        batch: usize_of("b")?,
        heads: usize_of("h")?,
        seq_len: usize_of("n")?,
        embed: usize_of("e")?,
        config_fingerprint: bits_of("cfg")?,
    };
    let plan = CachedPlan {
        tiling: Tiling {
            b_b: factor(0)?,
            h_h: factor(1)?,
            n_q: factor(2)?,
            n_kv: factor(3)?,
        },
        cycles: u64_of("cyc")?,
        seconds: f64::from_bits(bits_of("s")?),
        energy_pj: f64::from_bits(bits_of("epj")?),
        dram_read_bytes: u64_of("dr")?,
        dram_write_bytes: u64_of("dw")?,
        tuned: get("tuned")? == "1",
    };
    Ok((key, plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::edge_default()
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig::default()
    }

    fn key(method: DataflowKind, seq: usize) -> CacheKey {
        CacheKey::of(method, &AttentionWorkload::new("w", 1, 8, seq, 64), &cfg())
    }

    fn plan(cycles: u64) -> CachedPlan {
        CachedPlan {
            tiling: Tiling {
                b_b: 1,
                h_h: 1,
                n_q: 64,
                n_kv: 128,
            },
            cycles,
            seconds: cycles as f64 / 3.75e9,
            energy_pj: cycles as f64 * 1.5,
            dram_read_bytes: 1024,
            dram_write_bytes: 512,
            tuned: false,
        }
    }

    #[test]
    fn keys_ignore_workload_names() {
        let a = CacheKey::of(
            DataflowKind::Flat,
            &AttentionWorkload::new("alpha", 1, 8, 256, 64),
            &cfg(),
        );
        let b = CacheKey::of(
            DataflowKind::Flat,
            &AttentionWorkload::new("beta", 1, 8, 256, 64),
            &cfg(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_hardware() {
        let edge = hardware_fingerprint(&hw());
        let tiny = hardware_fingerprint(&HardwareConfig::tiny_test());
        assert_ne!(edge, tiny);
        let mut tweaked = hw();
        tweaked.l1_bytes += 1;
        assert_ne!(edge, hardware_fingerprint(&tweaked));
        assert_eq!(edge, hardware_fingerprint(&hw()), "fingerprint is stable");
    }

    #[test]
    fn planning_fingerprint_covers_strategy_energy_and_budget() {
        use mas_search::tuner::TunerConfig;

        let base = planning_fingerprint(&cfg());
        assert_eq!(base, planning_fingerprint(&cfg()), "stable");

        // Heuristic vs. search plans must never share keys.
        let search = PlannerConfig {
            tiling: TilingStrategy::Search,
            ..cfg()
        };
        assert_ne!(base, planning_fingerprint(&search));
        // Saved caches stay valid only while these values hold.
        assert_eq!(base, 0x5b95_1f37_0b3d_d8b4);
        assert_eq!(planning_fingerprint(&search), 0x6876_6b74_228b_351e);

        // Under search, the tuner budget and seed steer the chosen tiling.
        let bigger_budget = PlannerConfig {
            tuner: TunerConfig::full(),
            ..search.clone()
        };
        assert_ne!(
            planning_fingerprint(&search),
            planning_fingerprint(&bigger_budget)
        );
        let other_seed = PlannerConfig {
            seed: search.seed + 1,
            ..search.clone()
        };
        assert_ne!(
            planning_fingerprint(&search),
            planning_fingerprint(&other_seed)
        );
        // `parallel` is excluded: it is bit-identical to serial by test.
        let serial_tuner = PlannerConfig {
            tuner: TunerConfig::quick().serial(),
            ..search.clone()
        };
        let parallel_tuner = PlannerConfig {
            tuner: TunerConfig::quick(),
            ..search
        };
        assert_eq!(
            planning_fingerprint(&serial_tuner),
            planning_fingerprint(&parallel_tuner)
        );

        // A different energy model yields different cached energy values.
        let mut hot = cfg();
        hot.energy.dram_pj_per_byte *= 2.0;
        assert_ne!(base, planning_fingerprint(&hot));

        // Heuristic plans ignore the tuner budget/seed, so those fields are
        // excluded from the heuristic fingerprint.
        let heuristic_other_seed = PlannerConfig {
            seed: cfg().seed + 1,
            ..cfg()
        };
        assert_eq!(base, planning_fingerprint(&heuristic_other_seed));
    }

    #[test]
    fn text_round_trip_is_exact() {
        let mut cache = ScheduleCache::new();
        cache.insert(key(DataflowKind::MasAttention, 512), plan(12345));
        cache.insert(key(DataflowKind::Flat, 256), plan(999));
        // A plan with awkward float values survives bit-exactly.
        let mut p = plan(7);
        p.seconds = 1.0e-9 + f64::EPSILON;
        p.energy_pj = -0.0;
        p.tuned = true;
        cache.insert(key(DataflowKind::FuseMax, 196), p);

        let text = cache.to_text();
        let back = ScheduleCache::from_text(&text).unwrap();
        assert_eq!(back, cache);
        assert_eq!(back.to_text(), text, "serialization is canonical");
    }

    #[test]
    fn malformed_text_is_rejected_with_line_numbers() {
        assert!(matches!(
            ScheduleCache::from_text("bogus"),
            Err(CacheError::Parse { line: 1, .. })
        ));
        let text = format!("{FORMAT_HEADER}\nm=Nope b=1 h=1 n=1 e=1 cfg=0 t=1/1/1/1 cyc=0 s=0 epj=0 dr=0 dw=0 tuned=0\n");
        assert!(matches!(
            ScheduleCache::from_text(&text),
            Err(CacheError::Parse { line: 2, .. })
        ));
        let text = format!("{FORMAT_HEADER}\nm=Flat b=1\n");
        assert!(matches!(
            ScheduleCache::from_text(&text),
            Err(CacheError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn truncated_text_is_rejected_never_silently_shortened() {
        let mut cache = ScheduleCache::new();
        cache.insert(key(DataflowKind::MasAttention, 512), plan(1));
        cache.insert(key(DataflowKind::Flat, 256), plan(2));
        let text = cache.to_text();
        // Any prefix that loses data — including cuts at line boundaries,
        // which the pre-footer format accepted as a valid smaller cache —
        // must error. (The one exception is the cut that removes only the
        // final newline: the footer line is still complete and nothing is
        // lost.)
        for cut in 0..text.len() - 1 {
            assert!(
                matches!(
                    ScheduleCache::from_text(&text[..cut]),
                    Err(CacheError::Parse { .. })
                ),
                "prefix of {cut} bytes must not parse"
            );
        }
        let no_final_newline = &text[..text.len() - 1];
        assert_eq!(ScheduleCache::from_text(no_final_newline).unwrap(), cache);
    }

    #[test]
    fn footer_mismatches_are_rejected() {
        let mut cache = ScheduleCache::new();
        cache.insert(key(DataflowKind::Flat, 256), plan(9));
        let text = cache.to_text();

        // Tampered entry content under an untouched footer: checksum catches
        // it even though the line itself still parses.
        let tampered = text.replacen("dr=1024", "dr=1025", 1);
        assert_ne!(tampered, text);
        let err = ScheduleCache::from_text(&tampered).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Wrong entry count.
        let wrong_count = text.replacen("# entries=1", "# entries=2", 1);
        let err = ScheduleCache::from_text(&wrong_count).unwrap_err();
        assert!(err.to_string().contains("entries"), "{err}");

        // Content after the footer.
        let trailing = format!("{text}m=Flat b=1\n");
        let err = ScheduleCache::from_text(&trailing).unwrap_err();
        assert!(
            err.to_string().contains("after the integrity footer"),
            "{err}"
        );

        // Malformed footer payload.
        let bad_footer = text.replacen("fnv=", "sum=", 1);
        assert!(ScheduleCache::from_text(&bad_footer).is_err());
    }

    #[test]
    fn empty_cache_round_trips_through_the_footer() {
        let cache = ScheduleCache::new();
        let text = cache.to_text();
        assert!(text.contains("# entries=0"));
        assert_eq!(ScheduleCache::from_text(&text).unwrap(), cache);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut a = ScheduleCache::new();
        a.insert(key(DataflowKind::Flat, 256), plan(100));
        a.insert(key(DataflowKind::MasAttention, 512), plan(200));
        let mut b = ScheduleCache::new();
        b.insert(key(DataflowKind::MasAttention, 512), plan(150)); // conflict
        b.insert(key(DataflowKind::FuseMax, 196), plan(300));
        let mut c = ScheduleCache::new();
        c.insert(key(DataflowKind::Flat, 256), plan(100)); // duplicate of a
        c.insert(key(DataflowKind::TileFlow, 512), plan(400));

        let merged = |x: &ScheduleCache, y: &ScheduleCache| {
            let mut out = x.clone();
            out.merge(y);
            out
        };
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        assert_eq!(ab, ba, "merge(a,b) == merge(b,a)");

        let ab_c = merged(&ab, &c);
        let a_bc = merged(&a, &merged(&b, &c));
        assert_eq!(ab_c, a_bc, "merge is associative");

        // The conflicting key resolved to the lower-cost plan on both sides.
        assert_eq!(
            ab.lookup(&key(DataflowKind::MasAttention, 512))
                .unwrap()
                .cycles,
            150
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut cache = ScheduleCache::new();
        cache.insert(key(DataflowKind::MasAttention, 512), plan(42));
        let path =
            std::env::temp_dir().join(format!("mas-serve-cache-test-{}.txt", std::process::id()));
        cache.save(&path).unwrap();
        let back = ScheduleCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, cache);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            ScheduleCache::load("/nonexistent/mas-serve-cache.txt"),
            Err(CacheError::Io(_))
        ));
    }
}
