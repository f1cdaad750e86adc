//! The tenant-tagged, group-commit job log.
//!
//! This log is *logical* command logging for a whole runtime shard:
//! every job a shard worker is about to execute is staged as one record,
//! and a whole drained queue batch is made durable with **one** fsync — the
//! group commit that amortizes the ~ms-scale sync across every job
//! already sitting in the shard's bounded queue. The engine is
//! deterministic given a job sequence (proved by
//! `tests/runtime_equivalence.rs`), so replaying the log through fresh
//! engines reproduces every tenant bit-identically — event logs,
//! consumption windows, error bookkeeping and open transactions
//! included.
//!
//! Unlike the cold metadata files (`meta.chi`, `snap.chi` — text, read
//! once at startup), the job log sits on the ingestion hot path and its
//! byte volume is paid again at every fsync, so records are **binary**:
//! varint-packed external events cost ~4 bytes where the decimal text
//! rendering cost ~10, and on a bandwidth-bound disk that ratio is the
//! durable-throughput ratio. One group per sync:
//!
//! ```text
//! 'G' | seq: u64 LE | body_len: u32 LE | body | lane_fnv(body): u64 LE
//! ```
//!
//! where `body` is a FIFO run of `tenant: varint | payload_len: varint |
//! payload` records (see [`JobRecord::encode_into`] for the payload
//! grammar).
//!
//! Torn-tail handling: a group is accepted only when its frame is
//! complete, the sequence is dense, and the checksum verifies; anything
//! else cuts the group and the rest of the file. The ack path above this layer only answers a job after
//! its group synced, so an acknowledged job is never in a torn group.

use crate::codec::{decode_value, encode_value};
use crate::{PersistError, Result};
use chimera_exec::Op;
use chimera_model::{AttrId, ClassId, Oid, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Frame constants: magic byte, header (magic + seq + body_len) and
/// trailer (checksum) sizes.
const GROUP_MAGIC: u8 = b'G';
const HEADER_LEN: usize = 1 + 8 + 4;
const TRAILER_LEN: usize = 8;

/// The durable form of one runtime job — `chimera_runtime::Job` minus
/// the test-only gate, defined here so the persistence layer stays below
/// the runtime in the crate graph. Trigger definitions travel as source
/// text (re-parsed deterministically at replay), not as lowered
/// structures.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecord {
    /// `Engine::begin`.
    Begin,
    /// `Engine::exec_block` — one transaction line.
    ExecBlock(Vec<Op>),
    /// `Engine::raise_external` — `(class, channel, oid)` occurrences.
    RaiseExternal(Vec<(ClassId, u32, Oid)>),
    /// `Engine::commit`.
    Commit,
    /// `Engine::rollback`.
    Rollback,
    /// Tenant-local trigger definitions as concrete source text.
    DefineTriggerSource(String),
}

/// Payload tags.
const JOB_BEGIN: u8 = 0x01;
const JOB_COMMIT: u8 = 0x02;
const JOB_ROLLBACK: u8 = 0x03;
const JOB_EXEC: u8 = 0x04;
const JOB_RAISE: u8 = 0x05;
const JOB_TRIGSRC: u8 = 0x06;

/// Op tags inside an `ExecBlock` payload.
const OP_CREATE: u8 = 0x10;
const OP_MODIFY: u8 = 0x11;
const OP_DELETE: u8 = 0x12;
const OP_SPECIALIZE: u8 = 0x13;
const OP_GENERALIZE: u8 = 0x14;
const OP_SELECT: u8 = 0x15;

impl JobRecord {
    /// Encode as a standalone payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the payload encoding to `out` — the staging hot path (a
    /// 256-event block is 256 event items; every byte here is written
    /// *and* fsynced, so the grammar is varint-packed binary):
    ///
    /// ```text
    /// payload   := 0x01 | 0x02 | 0x03                      # begin/commit/rollback
    ///            | 0x04 nops:varint op*                    # exec block
    ///            | 0x05 nevents:varint (class chan oid)*   # raise, all varint
    ///            | 0x06 utf8-source-bytes                  # trigger source
    /// op        := 0x10 class ninits (attr value)*         # create
    ///            | 0x11 oid attr value                     # modify
    ///            | 0x12 oid | 0x13 oid class | 0x14 oid class
    ///            | 0x15 class deep:u8
    /// value     := len:varint utf8 of crate::codec::encode_value
    /// ```
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            JobRecord::Begin => out.push(JOB_BEGIN),
            JobRecord::Commit => out.push(JOB_COMMIT),
            JobRecord::Rollback => out.push(JOB_ROLLBACK),
            JobRecord::ExecBlock(ops) => {
                out.push(JOB_EXEC);
                push_varint(out, ops.len() as u64);
                for op in ops {
                    encode_op(out, op);
                }
            }
            JobRecord::RaiseExternal(evs) => {
                out.push(JOB_RAISE);
                push_varint(out, evs.len() as u64);
                for (class, chan, oid) in evs {
                    push_varint(out, class.0 as u64);
                    push_varint(out, *chan as u64);
                    push_varint(out, oid.0);
                }
            }
            JobRecord::DefineTriggerSource(src) => {
                out.push(JOB_TRIGSRC);
                out.extend_from_slice(src.as_bytes());
            }
        }
    }

    /// Decode a payload produced by [`JobRecord::encode`]. The whole
    /// slice must be consumed — trailing bytes are corruption.
    pub fn decode(payload: &[u8]) -> Result<JobRecord> {
        let mut cur = Cur::new(payload);
        let job = match cur.u8()? {
            JOB_BEGIN => JobRecord::Begin,
            JOB_COMMIT => JobRecord::Commit,
            JOB_ROLLBACK => JobRecord::Rollback,
            JOB_EXEC => {
                let n = cur.varint()? as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(decode_op(&mut cur)?);
                }
                JobRecord::ExecBlock(ops)
            }
            JOB_RAISE => {
                let n = cur.varint()? as usize;
                let mut evs = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    let class = ClassId(cur.varint()? as u32);
                    let chan = cur.varint()? as u32;
                    let oid = Oid(cur.varint()?);
                    evs.push((class, chan, oid));
                }
                JobRecord::RaiseExternal(evs)
            }
            JOB_TRIGSRC => {
                let src = std::str::from_utf8(cur.rest())
                    .map_err(|_| corrupt("trigger source is not UTF-8"))?;
                return Ok(JobRecord::DefineTriggerSource(src.to_string()));
            }
            t => return Err(corrupt(&format!("unknown job tag 0x{t:02x}"))),
        };
        if !cur.at_end() {
            return Err(corrupt("trailing bytes after job payload"));
        }
        Ok(job)
    }
}

fn corrupt(what: &str) -> PersistError {
    PersistError::Corrupt(format!("job record: {what}"))
}

/// LEB128 unsigned varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Bounds-checked little-endian cursor over a payload slice.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| corrupt("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint overruns 64 bits"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("unexpected end of payload"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Create { class, inits } => {
            out.push(OP_CREATE);
            push_varint(out, class.0 as u64);
            push_varint(out, inits.len() as u64);
            for (attr, value) in inits {
                push_varint(out, attr.0 as u64);
                encode_val(out, value);
            }
        }
        Op::Modify { oid, attr, value } => {
            out.push(OP_MODIFY);
            push_varint(out, oid.0);
            push_varint(out, attr.0 as u64);
            encode_val(out, value);
        }
        Op::Delete { oid } => {
            out.push(OP_DELETE);
            push_varint(out, oid.0);
        }
        Op::Specialize { oid, class } => {
            out.push(OP_SPECIALIZE);
            push_varint(out, oid.0);
            push_varint(out, class.0 as u64);
        }
        Op::Generalize { oid, class } => {
            out.push(OP_GENERALIZE);
            push_varint(out, oid.0);
            push_varint(out, class.0 as u64);
        }
        Op::Select { class, deep } => {
            out.push(OP_SELECT);
            push_varint(out, class.0 as u64);
            out.push(u8::from(*deep));
        }
    }
}

fn decode_op(cur: &mut Cur<'_>) -> Result<Op> {
    Ok(match cur.u8()? {
        OP_CREATE => {
            let class = ClassId(cur.varint()? as u32);
            let n = cur.varint()? as usize;
            let mut inits = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let attr = AttrId(cur.varint()? as u32);
                inits.push((attr, decode_val(cur)?));
            }
            Op::Create { class, inits }
        }
        OP_MODIFY => Op::Modify {
            oid: Oid(cur.varint()?),
            attr: AttrId(cur.varint()? as u32),
            value: decode_val(cur)?,
        },
        OP_DELETE => Op::Delete {
            oid: Oid(cur.varint()?),
        },
        OP_SPECIALIZE => Op::Specialize {
            oid: Oid(cur.varint()?),
            class: ClassId(cur.varint()? as u32),
        },
        OP_GENERALIZE => Op::Generalize {
            oid: Oid(cur.varint()?),
            class: ClassId(cur.varint()? as u32),
        },
        OP_SELECT => {
            let class = ClassId(cur.varint()? as u32);
            let deep = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("bad select depth flag")),
            };
            Op::Select { class, deep }
        }
        t => return Err(corrupt(&format!("unknown op tag 0x{t:02x}"))),
    })
}

/// Values ride as length-prefixed [`crate::codec`] text — exec blocks
/// are orders of magnitude rarer than external events, so they borrow
/// the cold codec rather than a second value grammar.
fn encode_val(out: &mut Vec<u8>, v: &Value) {
    let text = encode_value(v);
    push_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn decode_val(cur: &mut Cur<'_>) -> Result<Value> {
    let len = cur.varint()? as usize;
    let tok = std::str::from_utf8(cur.take(len)?)
        .map_err(|_| corrupt("value token is not UTF-8"))?;
    decode_value(tok)
}

/// One durable group: the jobs that shared one fsync.
#[derive(Debug, Clone, PartialEq)]
pub struct JobGroup {
    /// Group sequence number (dense, continuing the snapshot's).
    pub seq: u64,
    /// `(tenant, job)` in execution order.
    pub jobs: Vec<(u64, JobRecord)>,
}

impl JobGroup {
    /// On-disk bytes of this group (header, records, checksum).
    /// Useful to tests computing group byte boundaries in a log file.
    pub fn render(&self) -> Vec<u8> {
        let mut body = Vec::new();
        for (tenant, job) in &self.jobs {
            stage_record(&mut body, *tenant, job, &mut Vec::new());
        }
        frame_group(self.seq, &body)
    }
}

/// Assemble the full on-disk frame for one group body.
fn frame_group(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + TRAILER_LEN);
    out.push(GROUP_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&lane_fnv(body).to_le_bytes());
    out
}

/// Append one `tenant | payload_len | payload` record to `body`,
/// using `scratch` to learn the payload length without allocating.
fn stage_record(body: &mut Vec<u8>, tenant: u64, job: &JobRecord, scratch: &mut Vec<u8>) {
    scratch.clear();
    job.encode_into(scratch);
    push_varint(body, tenant);
    push_varint(body, scratch.len() as u64);
    body.extend_from_slice(scratch);
}

/// FNV-1a driven over 8-byte little-endian lanes (zero-padded tail)
/// with the length folded in at the end. 8× fewer serial multiplies
/// than byte-wise [`crate::fnv1a`] — this runs over every staged job
/// byte on the group-commit hot path. The zero-padding is why the
/// length fold matters: without it, trailing NULs would be invisible.
fn lane_fnv(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^ bytes.len() as u64
}

/// Result of reading a job log file.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLogOutcome {
    /// Every fully durable group, in sequence order.
    pub groups: Vec<JobGroup>,
    /// Bytes of the valid prefix (where a torn tail, if any, starts).
    pub valid_len: u64,
    /// Description of the torn tail, when one was cut.
    pub torn: Option<String>,
}

/// The group-commit job log file: stage any number of jobs, then make
/// them durable together with one [`JobLog::sync`].
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    file: BufWriter<File>,
    next_seq: u64,
    staged: Vec<u8>,
    scratch: Vec<u8>,
    staged_jobs: u32,
}

impl JobLog {
    /// Open (or create) the log for appending; `next_seq` must continue
    /// the sequence read back by [`JobLog::read`].
    pub fn open_append(path: &Path, next_seq: u64) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JobLog {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            next_seq,
            staged: Vec::new(),
            scratch: Vec::new(),
            staged_jobs: 0,
        })
    }

    /// The log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number the next synced group will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Jobs staged into the open group (not yet durable).
    pub fn staged_jobs(&self) -> u32 {
        self.staged_jobs
    }

    /// Stage one job into the open group. Cheap: an in-memory append,
    /// no I/O until [`JobLog::sync`].
    pub fn stage(&mut self, tenant: u64, job: &JobRecord) {
        stage_record(&mut self.staged, tenant, job, &mut self.scratch);
        self.staged_jobs += 1;
    }

    /// Group commit: write the staged jobs as one checksummed group,
    /// flush, and fsync — the single sync the whole batch shares.
    /// Returns the group's sequence number, or `None` when nothing was
    /// staged (no I/O at all).
    pub fn sync(&mut self) -> Result<Option<u64>> {
        if self.staged_jobs == 0 {
            return Ok(None);
        }
        if self.staged.len() > u32::MAX as usize {
            return Err(PersistError::Corrupt("job group exceeds 4 GiB".into()));
        }
        let seq = self.next_seq;
        let mut header = [0u8; HEADER_LEN];
        header[0] = GROUP_MAGIC;
        header[1..9].copy_from_slice(&seq.to_le_bytes());
        header[9..13].copy_from_slice(&(self.staged.len() as u32).to_le_bytes());
        let crc = lane_fnv(&self.staged);
        self.file.write_all(&header)?;
        self.file.write_all(&self.staged)?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.staged.clear();
        self.staged_jobs = 0;
        self.next_seq += 1;
        Ok(Some(seq))
    }

    /// Truncate the log to empty (after a snapshot compaction) and
    /// restart the sequence at `next_seq`. Staged jobs survive — they
    /// belong to the next group.
    pub fn truncate(&mut self, next_seq: u64) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().set_len(0)?;
        self.file.get_ref().sync_data()?;
        self.next_seq = next_seq;
        Ok(())
    }

    /// Read and verify a job log. Never fails on a torn tail — the valid
    /// prefix is returned and the tail described in
    /// [`JobLogOutcome::torn`]. A missing file reads as empty.
    pub fn read(path: &Path, first_seq: u64) -> Result<JobLogOutcome> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let mut groups = Vec::new();
        let mut valid_len = 0u64;
        let mut expected_seq = first_seq;
        let mut pos = 0usize;
        let mut torn = None;

        while pos < bytes.len() {
            let rest = &bytes[pos..];
            if rest.len() < HEADER_LEN {
                torn = Some("truncated group header".into());
                break;
            }
            if rest[0] != GROUP_MAGIC {
                torn = Some(format!("bad group magic 0x{:02x}", rest[0]));
                break;
            }
            let seq = u64::from_le_bytes(rest[1..9].try_into().unwrap());
            if seq != expected_seq {
                torn = Some(format!(
                    "sequence gap: expected {expected_seq}, found {seq}"
                ));
                break;
            }
            let body_len = u32::from_le_bytes(rest[9..13].try_into().unwrap()) as usize;
            let frame_len = HEADER_LEN + body_len + TRAILER_LEN;
            if rest.len() < frame_len {
                torn = Some(format!("group {seq} truncated before checksum"));
                break;
            }
            let body = &rest[HEADER_LEN..HEADER_LEN + body_len];
            let crc = u64::from_le_bytes(
                rest[HEADER_LEN + body_len..frame_len].try_into().unwrap(),
            );
            if crc != lane_fnv(body) {
                torn = Some(format!("checksum mismatch for group {seq}"));
                break;
            }
            match parse_body(body) {
                Ok(jobs) => groups.push(JobGroup { seq, jobs }),
                Err(e) => {
                    // the checksum verified, so this is a writer bug or
                    // targeted corruption, not a torn write — but the
                    // recovery contract is the same: cut here
                    torn = Some(format!("bad job record in group {seq}: {e}"));
                    break;
                }
            }
            pos += frame_len;
            valid_len = pos as u64;
            expected_seq += 1;
        }

        Ok(JobLogOutcome {
            groups,
            valid_len,
            torn,
        })
    }

    /// Drop the torn tail in place, leaving only the valid prefix.
    pub fn repair(path: &Path, outcome: &JobLogOutcome) -> Result<()> {
        if outcome.torn.is_some() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(outcome.valid_len)?;
            f.sync_data()?;
        }
        Ok(())
    }
}

/// Parse a checksum-verified group body into `(tenant, job)` records.
fn parse_body(body: &[u8]) -> Result<Vec<(u64, JobRecord)>> {
    let mut cur = Cur::new(body);
    let mut jobs = Vec::new();
    while !cur.at_end() {
        let tenant = cur.varint()?;
        let len = cur.varint()? as usize;
        let payload = cur.take(len)?;
        jobs.push((tenant, JobRecord::decode(payload)?));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::Value;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chimera-persist-joblog-tests");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.log", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn sample_jobs() -> Vec<JobRecord> {
        vec![
            JobRecord::Begin,
            JobRecord::ExecBlock(vec![
                Op::Create {
                    class: ClassId(0),
                    inits: vec![(AttrId(0), Value::Int(5)), (AttrId(1), Value::Null)],
                },
                Op::Modify {
                    oid: Oid(3),
                    attr: AttrId(1),
                    value: Value::Str("a b,c\n%".into()),
                },
                Op::Delete { oid: Oid(9) },
                Op::Specialize {
                    oid: Oid(1),
                    class: ClassId(2),
                },
                Op::Generalize {
                    oid: Oid(1),
                    class: ClassId(0),
                },
                Op::Select {
                    class: ClassId(1),
                    deep: true,
                },
            ]),
            JobRecord::RaiseExternal(vec![(ClassId(0), 1, Oid(0)), (ClassId(2), 7, Oid(4))]),
            JobRecord::Commit,
            JobRecord::Rollback,
            JobRecord::DefineTriggerSource(
                "define trigger t\n  events create(stock)\n  actions create(stock)\nend".into(),
            ),
        ]
    }

    #[test]
    fn job_records_round_trip() {
        for job in sample_jobs() {
            let bytes = job.encode();
            assert_eq!(JobRecord::decode(&bytes).unwrap(), job, "{job:?}");
        }
    }

    #[test]
    fn compact_external_events() {
        // the hot record: small ids must cost ~4 bytes per event, not
        // the ~10 of a decimal text rendering
        let evs: Vec<_> = (0..256u64)
            .map(|i| (ClassId(0), 1000 + (i % 16) as u32, Oid(i % 32 + 1)))
            .collect();
        let bytes = JobRecord::RaiseExternal(evs.clone()).encode();
        assert!(
            bytes.len() <= 4 + 4 * evs.len(),
            "raise payload too fat: {} bytes for {} events",
            bytes.len(),
            evs.len()
        );
        assert_eq!(
            JobRecord::decode(&bytes).unwrap(),
            JobRecord::RaiseExternal(evs)
        );
    }

    #[test]
    fn malformed_job_payloads_are_rejected() {
        for (name, payload) in [
            ("empty", vec![]),
            ("unknown tag", vec![0xFFu8]),
            ("exec: missing op", vec![JOB_EXEC, 0x01]),
            ("exec: bad op tag", vec![JOB_EXEC, 0x01, 0x7f]),
            ("raise: truncated events", vec![JOB_RAISE, 0x02, 0x00]),
            ("trailing bytes", vec![JOB_BEGIN, 0x00]),
            ("trigsrc: bad utf8", vec![JOB_TRIGSRC, 0xFF]),
            ("unterminated varint", vec![JOB_RAISE, 0x80]),
        ] {
            assert!(JobRecord::decode(&payload).is_err(), "`{name}` must fail");
        }
    }

    #[test]
    fn group_commit_round_trip_and_empty_sync() {
        let path = tmp("round");
        let mut log = JobLog::open_append(&path, 1).unwrap();
        assert_eq!(log.sync().unwrap(), None); // nothing staged: no I/O
        log.stage(7, &JobRecord::Begin);
        log.stage(7, &JobRecord::Commit);
        log.stage(9, &JobRecord::Rollback);
        assert_eq!(log.staged_jobs(), 3);
        assert_eq!(log.sync().unwrap(), Some(1));
        log.stage(7, &JobRecord::Begin);
        assert_eq!(log.sync().unwrap(), Some(2));
        let out = JobLog::read(&path, 1).unwrap();
        assert!(out.torn.is_none());
        assert_eq!(out.groups.len(), 2);
        assert_eq!(out.groups[0].seq, 1);
        assert_eq!(
            out.groups[0].jobs,
            vec![
                (7, JobRecord::Begin),
                (7, JobRecord::Commit),
                (9, JobRecord::Rollback)
            ]
        );
        assert_eq!(out.groups[1].jobs, vec![(7, JobRecord::Begin)]);
    }

    #[test]
    fn torn_tail_cut_at_every_byte() {
        let path = tmp("torn");
        let mut log = JobLog::open_append(&path, 1).unwrap();
        for (i, job) in sample_jobs().into_iter().enumerate() {
            log.stage(i as u64, &job);
            if i % 2 == 1 {
                log.sync().unwrap();
            }
        }
        log.sync().unwrap();
        let full = fs::read(&path).unwrap();
        let complete = JobLog::read(&path, 1).unwrap();
        assert_eq!(complete.groups.len(), 3);
        let boundaries: Vec<u64> = {
            let mut v = vec![0];
            let mut acc = 0;
            for g in &complete.groups {
                acc += g.render().len() as u64;
                v.push(acc);
            }
            v
        };
        assert_eq!(*boundaries.last().unwrap(), full.len() as u64);
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let out = JobLog::read(&path, 1).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(out.groups.len(), expect, "cut at byte {cut}");
            assert_eq!(out.valid_len, boundaries[expect]);
            if (cut as u64) != boundaries[expect] {
                assert!(out.torn.is_some(), "cut at {cut} must report a torn tail");
            }
            JobLog::repair(&path, &out).unwrap();
            assert_eq!(fs::metadata(&path).unwrap().len(), out.valid_len);
        }
    }

    #[test]
    fn bit_flips_inside_a_group_are_caught() {
        let path = tmp("flip");
        let mut log = JobLog::open_append(&path, 1).unwrap();
        for job in sample_jobs() {
            log.stage(3, &job);
        }
        log.sync().unwrap();
        let full = fs::read(&path).unwrap();
        // flip one bit in the middle of the body
        let mut corrupted = full.clone();
        let mid = HEADER_LEN + (corrupted.len() - HEADER_LEN - TRAILER_LEN) / 2;
        corrupted[mid] ^= 0x40;
        fs::write(&path, &corrupted).unwrap();
        let out = JobLog::read(&path, 1).unwrap();
        assert!(out.groups.is_empty());
        assert!(out.torn.unwrap().contains("checksum mismatch"));
    }

    #[test]
    fn sequence_gap_and_truncate() {
        let path = tmp("gap");
        let mut log = JobLog::open_append(&path, 5).unwrap();
        log.stage(1, &JobRecord::Begin);
        log.sync().unwrap();
        let out = JobLog::read(&path, 1).unwrap();
        assert!(out.groups.is_empty());
        assert!(out.torn.unwrap().contains("sequence gap"));
        log.truncate(9).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        log.stage(1, &JobRecord::Commit);
        assert_eq!(log.sync().unwrap(), Some(9));
        let out = JobLog::read(&path, 9).unwrap();
        assert_eq!(out.groups.len(), 1);
    }
}
