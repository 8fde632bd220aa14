//! Resumable sweep campaigns with content-addressed result caching.
//!
//! [`run_sweep`](crate::sweep::run_sweep) is one-shot and in-memory: every
//! invocation recomputes the full grid and holds every observation until
//! the end. The paper's figures want millions of rounds per point, where
//! that design pays the full recompute on every code change and grows
//! memory with round count. This module turns the sweep engine into a
//! **restartable results system**:
//!
//! * **Content-addressed blocks.** The unit of work is a *seed block* —
//!   one contiguous range `[start, end)` of a grid point's rounds, with
//!   per-round seeds fixed by
//!   [`seed_block`](tocttou_sim::rng::seed_block) regardless of
//!   scheduling. Its cache key is an FNV-1a hash (the same construction
//!   as the detection fingerprints) over the *scenario fingerprint* —
//!   engine schema version plus the full `Debug` rendering of the built
//!   [`Scenario`], which transitively covers the cost model, machine
//!   spec, victim, attacker and layout — chained with the point's seed
//!   and the block bounds.
//!   Because every simulated round is a pure function of (scenario, seed),
//!   equal keys imply equal results; any change to a fingerprint input
//!   changes the key and silently invalidates exactly the affected blocks.
//! * **Append-only store.** Finished blocks land in `blocks.jsonl`, one
//!   JSON record per line, plus a human-readable `manifest.json`. A killed
//!   campaign resumes by scanning the store and computing only the missing
//!   keys; a re-run after a code change recomputes only what the
//!   fingerprint invalidated. A partial final line (SIGKILL mid-write) is
//!   detected and truncated away on the next scan.
//! * **Work-stealing compute.** Missing blocks run on the crate's one round
//!   executor — the same long-lived pooled workers and shared atomic
//!   cursor as the sweep engine — and each finished block is appended to
//!   the store the moment it completes. Its line is written a field at a
//!   time, each round's record on its own, so no value tree of the whole
//!   block is ever built.
//! * **Fold as written.** When a run will leave the store complete, the
//!   sink that writes a block also folds it into the aggregate; only the
//!   blocks the store already held are read back, located by the one scan
//!   made before compute. Blocks fold point by point in round order
//!   through the executor's in-order cursor, the one the sweep engine
//!   uses: metrics and forensics merge as a block arrives, and a computed
//!   block's observations wait only until every earlier block has folded.
//!   Peak memory is bounded by about one block per worker, the per-point
//!   accumulators and the store index, flat in the total round count. A
//!   warm replay reads every block through the same fold, one stored block
//!   at a time. A run that [`max_blocks`](CampaignConfig::max_blocks)
//!   stops before the store is complete folds nothing.
//!
//! The one-shot [`run_sweep`](crate::sweep::run_sweep) is kept as the
//! byte-identity oracle, in the same spirit as the warm/cold boot and
//! sorted-vector/heap queue oracles: a completed campaign's
//! [`aggregate`](CampaignOutcome::aggregate) serializes byte-for-byte
//! identically to `run_sweep` on the same grid, at any `--jobs` value and
//! either boot mode, whether computed in one shot, resumed after an
//! interruption, or replayed entirely from cache.
//!
//! Campaigns always run with `collect_ld` off: L/D extraction is a
//! one-shot tracing concern (`--collect-ld` on the `sweep` binary), not a
//! bulk-statistics one, and the store persists only what aggregation
//! needs.

use crate::executor::{blocks, execute, Block, InOrder, Order, Plan};
use crate::grid::Grid;
use crate::monte_carlo::{fnv1a, PointAcc, RoundObs, DETECTION_FINGERPRINT_SEED};
use crate::sweep::SweepOutcome;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tocttou_os::forensics::ForensicsSnapshot;
use tocttou_os::metrics::MetricsSnapshot;
use tocttou_workloads::scenario::Scenario;

/// Version of the engine + store schema baked into every cache key.
///
/// Bump this whenever simulation semantics or the stored block layout
/// change: every existing key stops matching and the whole store is
/// recomputed, which is the only safe reading of "the code changed under
/// the cache".
///
/// v2: the per-round record gained the per-round forensics milestones
/// (`window_closed`, `min_miss_ns`, `strike_hit`) that drive the
/// rare-event estimator's stratum splitting.
pub const ENGINE_SCHEMA_VERSION: u32 = 2;

/// The content fingerprint of one built scenario.
///
/// FNV-1a over [`ENGINE_SCHEMA_VERSION`] and the scenario's full `Debug`
/// rendering. The `Debug` form transitively covers everything that
/// determines a round's result — name, machine spec (including every cost
/// model field), victim, attacker and layout — so editing any of them
/// yields a new fingerprint, while re-running an unchanged tree reproduces
/// the old one exactly.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    let h = fnv1a(
        DETECTION_FINGERPRINT_SEED,
        &ENGINE_SCHEMA_VERSION.to_le_bytes(),
    );
    fnv1a(h, format!("{scenario:?}").as_bytes())
}

/// The content-addressed cache key of one seed block: the scenario
/// fingerprint chained with the point's base seed and the block's round
/// range. Deliberately independent of `--jobs`, boot mode and scheduling —
/// everything that cannot change the block's results.
pub fn block_key(scenario_fp: u64, point_seed: u64, start: u64, end: u64) -> u64 {
    let h = fnv1a(scenario_fp, &point_seed.to_le_bytes());
    let h = fnv1a(h, &start.to_le_bytes());
    fnv1a(h, &end.to_le_bytes())
}

/// Options for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The parameter grid to cover.
    pub grid: Grid,
    /// Monte-Carlo rounds per grid point.
    pub rounds: u64,
    /// Campaign-level base seed; point *p* runs rounds at
    /// `base_seed + p.seed_salt + i`, exactly like the sweep engine.
    pub base_seed: u64,
    /// Worker threads for the compute phase (`0` = auto, `1` = serial).
    /// Results are bit-identical for every value.
    pub jobs: usize,
    /// Cold-boot every round instead of resuming each point's warm
    /// checkpoint — the oracle path, byte-identical to the warm default
    /// and deliberately absent from the cache key.
    pub cold: bool,
    /// Rounds per seed block — the unit of caching and resumability.
    /// Clamped to at least 1.
    pub block: u64,
    /// Stop after computing this many missing blocks (the store stays
    /// valid and a later run resumes). `None` runs to completion.
    pub max_blocks: Option<u64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            grid: Grid::default(),
            rounds: 200,
            base_seed: 0x7061_7065,
            jobs: 1,
            cold: false,
            block: 100,
            max_blocks: None,
        }
    }
}

/// What one round persists to the store: the fields of
/// [`RoundObs`](crate::monte_carlo::RoundObs) minus the L/D trace sample
/// (campaigns never collect L/D), plus the forensics milestones the
/// rare-event estimator splits strata on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ObsRecord {
    pub(crate) success: bool,
    pub(crate) flagged: bool,
    pub(crate) window_us: Option<f64>,
    pub(crate) detect_latency_us: Option<f64>,
    pub(crate) detect_fingerprint: u64,
    pub(crate) window_closed: bool,
    pub(crate) min_miss_ns: Option<u64>,
    pub(crate) strike_hit: bool,
}

impl ObsRecord {
    pub(crate) fn from_obs(obs: &RoundObs) -> Self {
        ObsRecord {
            success: obs.success,
            flagged: obs.flagged,
            window_us: obs.window_us,
            detect_latency_us: obs.detect_latency_us,
            detect_fingerprint: obs.detect_fingerprint,
            window_closed: obs.window_closed,
            min_miss_ns: obs.min_miss_ns,
            strike_hit: obs.strike_hit,
        }
    }

    pub(crate) fn into_obs(self) -> RoundObs {
        RoundObs {
            success: self.success,
            window_us: self.window_us,
            sample: None,
            flagged: self.flagged,
            detect_latency_us: self.detect_latency_us,
            detect_fingerprint: self.detect_fingerprint,
            window_closed: self.window_closed,
            min_miss_ns: self.min_miss_ns,
            strike_hit: self.strike_hit,
        }
    }
}

/// One finished seed block, as stored on one `blocks.jsonl` line.
///
/// `point`, `start` and `end` describe the run that *wrote* the record;
/// lookups go purely by `key`, so a record written under an older grid
/// layout is still found (or correctly ignored) by its content address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct BlockRecord {
    pub(crate) key: u64,
    pub(crate) point: usize,
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) obs: Vec<ObsRecord>,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) forensics: ForensicsSnapshot,
}

/// The human-readable store summary, rewritten after every run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// [`ENGINE_SCHEMA_VERSION`] of the writing engine.
    pub schema_version: u32,
    /// Rounds per grid point of the last run's config.
    pub rounds_per_point: u64,
    /// Base seed of the last run's config.
    pub base_seed: u64,
    /// Seed-block size of the last run's config.
    pub block: u64,
    /// Grid points of the last run's config.
    pub points: u64,
    /// Blocks the last run's grid needs in total.
    pub total_blocks: u64,
    /// How many of them the store already holds.
    pub done_blocks: u64,
}

impl std::fmt::Display for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign store: {}/{} blocks ({} points × {} rounds, block {}, seed {:#x}, schema v{})",
            self.done_blocks,
            self.total_blocks,
            self.points,
            self.rounds_per_point,
            self.block,
            self.base_seed,
            self.schema_version
        )
    }
}

/// What one [`run_campaign`] invocation did.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Blocks the grid needs in total.
    pub total_blocks: u64,
    /// Blocks served from the store without recomputation.
    pub cached_blocks: u64,
    /// Blocks computed (and persisted) by this invocation.
    pub computed_blocks: u64,
    /// Blocks still missing (non-zero only under
    /// [`max_blocks`](CampaignConfig::max_blocks)).
    pub remaining_blocks: u64,
    /// The streamed aggregate — present only when the store covers the
    /// whole grid; byte-identical to [`run_sweep`](crate::sweep::run_sweep)
    /// on the same grid with `collect_ld` off.
    pub aggregate: Option<SweepOutcome>,
}

impl std::fmt::Display for CampaignOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign: {} blocks ({} cached, {} computed, {} remaining)",
            self.total_blocks, self.cached_blocks, self.computed_blocks, self.remaining_blocks
        )
    }
}

/// One seed block in a run's expected schedule (and, before it is
/// computed, the unit of missing work), with its cache key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Missing {
    pub(crate) block: Block,
    pub(crate) key: u64,
}

/// Rounds `[start, end)` of point `point` as keyed blocks of at most
/// `size` rounds, in ascending round order.
pub(crate) fn keyed_blocks(
    point: usize,
    scenario: &Scenario,
    point_seed: u64,
    (start, end): (u64, u64),
    size: u64,
) -> impl Iterator<Item = Missing> {
    let fp = scenario_fingerprint(scenario);
    blocks(point, start, end, size).map(move |block| Missing {
        block,
        key: block_key(fp, point_seed, block.start, block.end),
    })
}

/// Location of one stored block line: `(byte offset, byte length)`.
pub(crate) type LineSpan = (u64, u64);

pub(crate) fn blocks_path(store: &Path) -> PathBuf {
    store.join("blocks.jsonl")
}

fn manifest_path(store: &Path) -> PathBuf {
    store.join("manifest.json")
}

/// Reads a store's manifest, if one exists.
///
/// # Errors
///
/// Propagates I/O failures other than the file being absent, and parse
/// failures of an existing manifest.
pub fn read_manifest(store: &Path) -> std::io::Result<Option<Manifest>> {
    match std::fs::read_to_string(manifest_path(store)) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| std::io::Error::other(format!("bad manifest: {e}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Extracts the cache key from a stored block line without parsing the
/// whole record: every line this engine writes starts with `{"key":N,`
/// (serde emits fields in declaration order). The scan is the hot half of
/// a warm-cache replay, and the full record is parsed — and validated —
/// during aggregation anyway, so a prefix read keeps cache hits cheap.
fn line_key(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"key\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Scans `blocks.jsonl`, returning the key → line-span index and
/// truncating a torn final line (a kill mid-append) so the file is safe to
/// append to again. Lines that don't parse are skipped; only the trailing
/// torn region is removed.
pub(crate) fn scan_store(path: &Path) -> std::io::Result<HashMap<u64, LineSpan>> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let total_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut index = HashMap::new();
    let mut offset = 0u64;
    let mut good_end = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)? as u64;
        if n == 0 {
            break;
        }
        let complete = line.ends_with('\n');
        if complete {
            good_end = offset + n;
            // Only the key matters for the index; the record is re-read
            // (and fully validated) lazily during aggregation, so the scan
            // stays cheap and memory-flat. Foreign lines (hand-edited or
            // written by a different serializer) fall back to a full parse
            // before being skipped.
            let trimmed = line.trim_end();
            let key = line_key(trimmed).or_else(|| {
                serde_json::from_str::<serde_json::Value>(trimmed)
                    .ok()?
                    .get("key")?
                    .as_u64()
            });
            if let Some(key) = key {
                index.insert(key, (offset, n));
            }
        }
        offset += n;
    }
    if good_end < total_len {
        // Torn tail: drop it so the next append starts on a line boundary.
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(good_end)?;
    }
    Ok(index)
}

/// Runs (or resumes) a campaign against the store directory.
///
/// Missing blocks are computed and appended; when the store then covers
/// the whole grid, the aggregate folds computed blocks as they are written
/// and stored ones as they are read back. See the [module docs](self) for
/// the caching and identity contract.
///
/// # Errors
///
/// Propagates store I/O failures and corrupt stored records. Simulation
/// itself is infallible.
pub fn run_campaign(store: &Path, cfg: &CampaignConfig) -> std::io::Result<CampaignOutcome> {
    std::fs::create_dir_all(store)?;
    let path = blocks_path(store);
    // An empty grid or `rounds = 0` computes nothing, yet still aggregates.
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let (scenarios, point_seeds, expected) = schedule(cfg);
    let total_blocks = expected.len() as u64;

    let index = scan_store(&path)?;
    // Each missing block's place in the schedule, which is the fold order.
    let missing_at: Vec<usize> = (0..expected.len())
        .filter(|&i| !index.contains_key(&expected[i].key))
        .collect();
    let missing: Vec<Missing> = missing_at.iter().map(|&i| expected[i]).collect();
    let cached_blocks = total_blocks - missing.len() as u64;
    let computed_blocks = cfg
        .max_blocks
        .map_or(missing.len() as u64, |m| m.min(missing.len() as u64));
    let remaining_blocks = missing.len() as u64 - computed_blocks;
    let plan = Plan {
        scenarios: &scenarios,
        seed_bases: &point_seeds,
        collect_ld: false,
        jobs: cfg.jobs,
        cold: cfg.cold,
    };

    let aggregate = if remaining_blocks == 0 {
        let mut fold = StoreFold {
            expected: &expected,
            index: &index,
            file: std::fs::File::open(&path)?,
            buf: Vec::new(),
            order: InOrder::default(),
            accs: scenarios.iter().map(|_| PointAcc::new()).collect(),
        };
        {
            let fold = Mutex::new(&mut fold);
            compute_blocks(&path, &plan, &missing, Order::Index, |m, record| {
                let mut fold = fold.lock().expect("campaign fold poisoned");
                fold.accs[record.point].merge_counters(&record.metrics, &record.forensics);
                fold.order.file(missing_at[m], record.obs);
                fold.advance()
            })?;
        }
        fold.advance()?;
        Some(SweepOutcome::assemble(
            &cfg.grid,
            cfg.rounds,
            cfg.base_seed,
            false,
            &scenarios,
            fold.accs,
        ))
    } else {
        compute_blocks(
            &path,
            &plan,
            &missing[..computed_blocks as usize],
            Order::Any,
            |_, _| Ok(()),
        )?;
        None
    };

    let manifest = Manifest {
        schema_version: ENGINE_SCHEMA_VERSION,
        rounds_per_point: cfg.rounds,
        base_seed: cfg.base_seed,
        block: cfg.block.max(1),
        points: cfg.grid.points.len() as u64,
        total_blocks,
        done_blocks: cached_blocks + computed_blocks,
    };
    std::fs::write(
        manifest_path(store),
        serde_json::to_string_pretty(&manifest).expect("manifest serialization is infallible")
            + "\n",
    )?;
    Ok(CampaignOutcome {
        total_blocks,
        cached_blocks,
        computed_blocks,
        remaining_blocks,
        aggregate,
    })
}

/// A config's per-point scenarios and seeds, and its deterministic block
/// schedule in point-major, ascending-round order — the aggregation
/// order, and the order missing work is claimed in.
fn schedule(cfg: &CampaignConfig) -> (Vec<Scenario>, Vec<u64>, Vec<Missing>) {
    let (scenarios, point_seeds) = cfg.grid.lanes(cfg.base_seed);
    let expected = scenarios
        .iter()
        .enumerate()
        .flat_map(|(p, s)| keyed_blocks(p, s, point_seeds[p], (0, cfg.rounds), cfg.block))
        .collect();
    (scenarios, point_seeds, expected)
}

/// The aggregate of a run that leaves the store complete, folded in the
/// schedule's order: computed blocks as their sink files them, stored
/// blocks read back by the scan made before compute when the cursor
/// reaches them.
struct StoreFold<'a> {
    expected: &'a [Missing],
    index: &'a HashMap<u64, LineSpan>,
    file: std::fs::File,
    buf: Vec<u8>,
    order: InOrder<Vec<ObsRecord>>,
    accs: Vec<PointAcc>,
}

impl StoreFold<'_> {
    /// Folds every block from the cursor on that is at hand, stopping at
    /// the first computed block that has not arrived.
    fn advance(&mut self) -> std::io::Result<()> {
        let StoreFold {
            expected,
            index,
            file,
            buf,
            order,
            accs,
        } = self;
        while let Some((i, obs)) = order.pop_or(|i| -> std::io::Result<_> {
            let Some(item) = expected.get(i) else {
                return Ok(None);
            };
            let Some(&span) = index.get(&item.key) else {
                return Ok(None);
            };
            let record = read_block(file, span, buf, item)?;
            accs[item.block.point].merge_counters(&record.metrics, &record.forensics);
            Ok(Some(record.obs))
        })? {
            accs[expected[i].block.point].fold_obs(obs.into_iter().map(ObsRecord::into_obs));
        }
        Ok(())
    }
}

/// Computes the missing blocks on the round executor. Each finished block
/// is appended to the store as one line, and its record is then handed to
/// `on_record` with its index in `missing`, on the worker that ran it.
pub(crate) fn compute_blocks(
    path: &Path,
    plan: &Plan<'_>,
    missing: &[Missing],
    order: Order,
    on_record: impl Fn(usize, BlockRecord) -> std::io::Result<()> + Sync,
) -> std::io::Result<()> {
    let writer = Mutex::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?,
    );
    let items: Vec<Block> = missing.iter().map(|m| m.block).collect();
    execute(plan, &items, order, |idx, obs, pool| {
        let Missing { block, key } = missing[idx];
        let record = BlockRecord {
            key,
            point: block.point,
            start: block.start,
            end: block.end,
            obs: obs.iter().map(ObsRecord::from_obs).collect(),
            metrics: pool.drain_metrics(),
            forensics: pool.drain_forensics(),
        };
        let line = block_line(&record);
        {
            // One line per lock hold, flushed before release: lines never
            // interleave and a finished block is durable the moment the
            // lock drops.
            let mut file = writer.lock().expect("store writer poisoned");
            file.write_all(line.as_bytes())
                .and_then(|()| file.flush())?;
        }
        drop(line);
        on_record(idx, record)
    })
}

/// The store line of one block: exactly `serde_json::to_string(record)`
/// and a newline, written field by field and round by round, so only one
/// round's value tree exists at a time. The derived `Serialize` is the
/// reference; debug builds check the bytes against it and that the line
/// parses back to `record`.
fn block_line(record: &BlockRecord) -> String {
    let json = |v: &dyn Serialize| serde_json::to_string(v).expect("serialization is infallible");
    let BlockRecord {
        key,
        point,
        start,
        end,
        obs,
        metrics,
        forensics,
    } = record;
    let mut line = String::new();
    write!(
        line,
        "{{\"key\":{key},\"point\":{point},\"start\":{start},\"end\":{end},\"obs\":["
    )
    .expect("writing to a String cannot fail");
    for (i, o) in obs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&json(o));
    }
    line.push_str("],\"metrics\":");
    line.push_str(&json(metrics));
    line.push_str(",\"forensics\":");
    line.push_str(&json(forensics));
    line.push('}');
    debug_assert_eq!(
        line,
        json(record),
        "block line differs from its serialization"
    );
    debug_assert!(
        serde_json::from_str::<BlockRecord>(&line).is_ok_and(|back| back == *record),
        "block line does not parse back to its record"
    );
    line.push('\n');
    line
}

/// Re-reads one stored block by its line span and validates it against the
/// expected schedule entry (round count must match the block bounds).
pub(crate) fn read_block(
    file: &mut std::fs::File,
    (offset, len): LineSpan,
    buf: &mut Vec<u8>,
    item: &Missing,
) -> std::io::Result<BlockRecord> {
    file.seek(SeekFrom::Start(offset))?;
    buf.resize(len as usize, 0);
    file.read_exact(buf)?;
    let text = std::str::from_utf8(buf)
        .map_err(|e| std::io::Error::other(format!("stored block is not UTF-8: {e}")))?;
    let record: BlockRecord = serde_json::from_str(text.trim_end())
        .map_err(|e| std::io::Error::other(format!("corrupt stored block: {e}")))?;
    if record.obs.len() as u64 != item.block.rounds() {
        return Err(std::io::Error::other(format!(
            "stored block {:#x} holds {} rounds, expected {}",
            item.key,
            record.obs.len(),
            item.block.rounds()
        )));
    }
    Ok(record)
}

/// What [`compact_store`] removed and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Block lines surviving compaction (one per live expected key).
    pub kept: u64,
    /// Lines dropped: superseded duplicates, records orphaned by config or
    /// code changes, and unparseable foreign lines.
    pub dropped: u64,
    /// `blocks.jsonl` size before, in bytes (after torn-tail healing).
    pub bytes_before: u64,
    /// `blocks.jsonl` size after, in bytes.
    pub bytes_after: u64,
}

impl std::fmt::Display for CompactStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compacted: kept {} blocks, dropped {} lines, {} → {} bytes",
            self.kept, self.dropped, self.bytes_before, self.bytes_after
        )
    }
}

/// Rewrites `blocks.jsonl` keeping only the records the config's grid
/// still addresses — the *last* occurrence of each expected key — and
/// dropping everything else: superseded duplicates, blocks orphaned by a
/// grid/seed/schema change, torn tails and foreign lines. Surviving lines
/// are copied byte-for-byte (never re-serialized) in deterministic
/// point-major order, so a subsequent aggregate is identical to the
/// pre-compaction one and a second compaction is a no-op.
///
/// The rewrite goes through a temp file in the store directory followed by
/// an atomic rename: a kill mid-compaction leaves the original intact.
///
/// # Errors
///
/// Propagates store I/O failures. A missing store compacts to itself
/// (zero kept, zero dropped).
pub fn compact_store(store: &Path, cfg: &CampaignConfig) -> std::io::Result<CompactStats> {
    let path = blocks_path(store);
    let index = scan_store(&path)?; // heals any torn tail first
    let bytes_before = match std::fs::metadata(&path) {
        Ok(m) => m.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    let total_lines = if bytes_before == 0 {
        0u64
    } else {
        let mut reader = BufReader::new(std::fs::File::open(&path)?);
        let mut n = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            n += 1;
        }
        n
    };
    if bytes_before == 0 {
        return Ok(CompactStats {
            kept: 0,
            dropped: 0,
            bytes_before: 0,
            bytes_after: 0,
        });
    }

    let (_, _, expected) = schedule(cfg);

    let tmp = store.join("blocks.jsonl.tmp");
    let mut kept = 0u64;
    {
        let mut file = std::fs::File::open(&path)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let mut buf = Vec::new();
        for item in &expected {
            let Some(&(offset, len)) = index.get(&item.key) else {
                continue;
            };
            file.seek(SeekFrom::Start(offset))?;
            buf.resize(len as usize, 0);
            file.read_exact(&mut buf)?;
            out.write_all(&buf)?;
            kept += 1;
        }
        out.flush()?;
    }
    std::fs::rename(&tmp, &path)?;
    let bytes_after = std::fs::metadata(&path)?.len();
    Ok(CompactStats {
        kept,
        dropped: total_lines - kept,
        bytes_before,
        bytes_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Family, GridKind};

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            grid: GridKind::D.build(Family::ViSmp, 1024, 2),
            rounds: 12,
            base_seed: 0xCAFE,
            jobs: 1,
            cold: false,
            block: 5,
            max_blocks: None,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let cfg = small_cfg();
        let s0 = cfg.grid.points[0].scenario();
        assert_eq!(
            scenario_fingerprint(&s0),
            scenario_fingerprint(&cfg.grid.points[0].scenario()),
            "same point, same fingerprint"
        );
        assert_ne!(
            scenario_fingerprint(&s0),
            scenario_fingerprint(&cfg.grid.points[1].scenario()),
            "different d_scale, different fingerprint"
        );
        let k = block_key(1, 2, 0, 5);
        assert_ne!(k, block_key(3, 2, 0, 5), "scenario fp is hashed");
        assert_ne!(k, block_key(1, 9, 0, 5), "point seed is hashed");
        assert_ne!(k, block_key(1, 2, 5, 10), "block bounds are hashed");
        assert_eq!(k, block_key(1, 2, 0, 5), "pure function of inputs");
    }

    #[test]
    fn campaign_completes_resumes_and_replays_from_cache() {
        let dir = std::env::temp_dir().join(format!("campaign-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg();
        // 12 rounds / block 5 → blocks of 5, 5, 2 per point; 6 total.

        // Interrupted start: only 2 blocks land.
        let partial = run_campaign(
            &dir,
            &CampaignConfig {
                max_blocks: Some(2),
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(partial.total_blocks, 6);
        assert_eq!(partial.computed_blocks, 2);
        assert_eq!(partial.remaining_blocks, 4);
        assert!(partial.aggregate.is_none());
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(manifest.done_blocks, 2);

        // Resume finishes the rest and aggregates.
        let resumed = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(resumed.cached_blocks, 2);
        assert_eq!(resumed.computed_blocks, 4);
        let first = resumed.aggregate.expect("store is complete");

        // Warm replay computes nothing and reproduces the bytes.
        let warm = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(warm.computed_blocks, 0);
        assert_eq!(warm.cached_blocks, 6);
        assert_eq!(
            serde_json::to_string(&warm.aggregate.unwrap()).unwrap(),
            serde_json::to_string(&first).unwrap()
        );
        assert_eq!(read_manifest(&dir).unwrap().unwrap().done_blocks, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_lines_and_preserves_the_aggregate() {
        let dir = std::env::temp_dir().join(format!("campaign-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg();
        let done = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(done.remaining_blocks, 0);
        let oracle = serde_json::to_string(&done.aggregate.unwrap()).unwrap();
        let path = blocks_path(&dir);

        // Pollute the store: a superseding re-append of the first block
        // (its earlier copy becomes a dead duplicate), an orphan from a
        // different base seed, and a foreign hand-written line.
        let first_line = {
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines().next().unwrap().to_string() + "\n"
        };
        let orphan_cfg = CampaignConfig {
            base_seed: 0xBEEF,
            ..cfg.clone()
        };
        run_campaign(&dir, &orphan_cfg).unwrap();
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(first_line.as_bytes()).unwrap();
            f.write_all(b"{\"not\":\"a block\"}\n").unwrap();
        }
        let bloated = std::fs::metadata(&path).unwrap().len();

        let stats = compact_store(&dir, &cfg).unwrap();
        assert_eq!(stats.kept, 6, "one line per live block");
        // 6 orphaned (other seed) + 1 duplicate + 1 foreign line dropped.
        assert_eq!(stats.dropped, 8);
        assert_eq!(stats.bytes_before, bloated);
        assert!(stats.bytes_after < stats.bytes_before);

        // The aggregate is byte-identical and served fully from cache.
        let replay = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(replay.computed_blocks, 0);
        assert_eq!(
            serde_json::to_string(&replay.aggregate.unwrap()).unwrap(),
            oracle
        );

        // Idempotent: a second compaction moves nothing.
        let again = compact_store(&dir, &cfg).unwrap();
        assert_eq!(again.kept, 6);
        assert_eq!(again.dropped, 0);
        assert_eq!(again.bytes_before, again.bytes_after);

        // An absent store compacts to the empty stats.
        let empty_dir = dir.join("nothing-here");
        std::fs::create_dir_all(&empty_dir).unwrap();
        let none = compact_store(&empty_dir, &cfg).unwrap();
        assert_eq!(none.kept, 0);
        assert_eq!(none.dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_foreign_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("campaign-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg();
        let done = run_campaign(&dir, &cfg).unwrap();
        let oracle = serde_json::to_string(&done.aggregate.unwrap()).unwrap();

        // A line nested a million levels deep reaches the fallback parse in
        // `scan_store`; it must fail there with an error, not overflow the
        // stack. A lone surrogate escape must fail just as cleanly.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(blocks_path(&dir))
                .unwrap();
            f.write_all("[".repeat(1_000_000).as_bytes()).unwrap();
            f.write_all(b"\n{\"key\":\"\\ud800\"}\n").unwrap();
        }
        let replay = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(replay.computed_blocks, 0);
        assert_eq!(
            serde_json::to_string(&replay.aggregate.unwrap()).unwrap(),
            oracle
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_lines_equal_the_derived_serialization() {
        let mc = crate::monte_carlo::run_mc(
            &Scenario::vi_smp(1024),
            &crate::monte_carlo::McConfig {
                rounds: 4,
                ..Default::default()
            },
        );
        assert!(mc.metrics.total_samples() > 0, "histograms are non-empty");
        let none = ObsRecord {
            success: false,
            flagged: false,
            window_us: None,
            detect_latency_us: None,
            detect_fingerprint: 0,
            window_closed: false,
            min_miss_ns: None,
            strike_hit: false,
        };
        let some = ObsRecord {
            success: true,
            flagged: true,
            window_us: Some(0.1 + 0.2),
            detect_latency_us: Some(std::f64::consts::PI * 1e-7),
            detect_fingerprint: u64::MAX,
            window_closed: true,
            min_miss_ns: Some(u64::MAX - 1),
            strike_hit: true,
        };
        let records = [
            BlockRecord {
                key: u64::MAX,
                point: 0,
                start: 0,
                end: 0,
                obs: Vec::new(),
                metrics: MetricsSnapshot::default(),
                forensics: ForensicsSnapshot::default(),
            },
            BlockRecord {
                key: 1,
                point: 7,
                start: 5,
                end: 8,
                obs: vec![none.clone(), some, none],
                metrics: mc.metrics,
                forensics: mc.forensics,
            },
        ];
        for record in &records {
            let line = block_line(record);
            let body = line.strip_suffix('\n').expect("a line ends in a newline");
            assert!(!body.contains('\n'), "one line per block");
            assert_eq!(body, serde_json::to_string(record).unwrap());
            let back: BlockRecord = serde_json::from_str(body).unwrap();
            assert_eq!(back, *record);
            assert_eq!(line_key(body), Some(record.key));
        }
    }

    /// Every line of a store parses, deserializes and serializes back to
    /// exactly its own bytes.
    fn assert_lines_reserialise(path: &Path) {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.is_empty(), "{} is empty", path.display());
        for line in text.lines() {
            let record: BlockRecord = serde_json::from_str(line).unwrap();
            assert_eq!(serde_json::to_string(&record).unwrap(), line);
        }
    }

    #[test]
    fn stored_lines_reserialise_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("campaign-reser-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig {
            grid: GridKind::Taxonomy.build(Family::ViSmp, 1024, 0),
            rounds: 10,
            ..small_cfg()
        };
        run_campaign(&dir, &cfg).unwrap();
        assert_lines_reserialise(&blocks_path(&dir));

        let estimate_dir = dir.join("estimate");
        crate::estimate::run_estimate(
            &Scenario::vi_uniprocessor(2048),
            &crate::estimate::EstimateConfig {
                max_rounds: 512,
                store: Some(estimate_dir.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_lines_reserialise(&blocks_path(&estimate_dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_truncated_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("campaign-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg();
        let done = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(done.remaining_blocks, 0);
        let oracle = serde_json::to_string(&done.aggregate.unwrap()).unwrap();

        // Simulate a kill mid-append: chop the last line in half.
        let path = blocks_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - text.trim_end().rsplit('\n').next().unwrap().len() / 2 - 1;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(keep as u64)
            .unwrap();

        let healed = run_campaign(&dir, &cfg).unwrap();
        assert_eq!(healed.computed_blocks, 1, "only the torn block recomputes");
        assert_eq!(
            serde_json::to_string(&healed.aggregate.unwrap()).unwrap(),
            oracle
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
