//! Per-shard tenant snapshots (job-log compaction).
//!
//! Recovery must reproduce each tenant bit-identically. Snapshots are
//! only taken at *safe points*, with no tenant in an open transaction,
//! and the engine ends every transaction at rest: its Event Base cut and
//! every rule reset at the end instant. So a tenant between transactions
//! is its committed objects, its clock (the cut: the logical length of
//! its event base, which is also the stamp of its last occurrence), its
//! tenant-local trigger sources, its engine statistics and the shard's
//! error bookkeeping, and that is all a snapshot carries. With it
//! captured, the job log ([`crate::joblog`]) can be truncated at the
//! snapshot's sequence and replay continues from there; a transaction
//! still open at the crash is reproduced by replaying its logged jobs.
//!
//! Format (line-oriented text, FNV-1a 64 checksummed, like every other
//! durable file in this crate):
//!
//! ```text
//! V <seq> <tenant-count>
//! T <tenant> <jobs-applied> <job-errors> <next-oid> <nobj> <cut> <nsrc>
//! L -  |  L +<escaped-last-error>
//! S <blocks> <events> <considerations> <executions> <commits> <rollbacks>
//! P <oid> <class> <attrs>          × nobj
//! D <escaped-trigger-source>       × nsrc
//! C <seq> <fnv1a-of-body>
//! ```

use crate::codec::{decode_object, encode_object, escape, unescape};
use crate::{fnv1a, PersistError, Result};
use chimera_model::Object;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Everything needed to rebuild one tenant bit-identically (given the
/// shared schema and runtime-wide trigger set, which live in config).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Raw tenant id.
    pub tenant: u64,
    /// Jobs durably applied to this tenant (snapshot + log prefix
    /// accounting for the recovery oracle).
    pub jobs_applied: u64,
    /// Failed-job count (shard error bookkeeping).
    pub job_errors: u64,
    /// Most recent job error, if any.
    pub last_error: Option<String>,
    /// Committed objects, as the store reports them.
    pub objects: Vec<Object>,
    /// OID allocation counter.
    pub next_oid: u64,
    /// The event base's cut: its logical length and clock at the last
    /// transaction end, where the engine dropped every occurrence.
    pub cut: u64,
    /// Tenant-local trigger definitions, in definition order, as source
    /// text (re-parsed deterministically at restore).
    pub trigger_sources: Vec<String>,
    /// `EngineStats` as the fixed-order array
    /// `[blocks, events, considerations, executions, commits, rollbacks]`.
    pub stats: [u64; 6],
}

/// A whole shard's durable tenants at one job-log sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Last job-log group sequence the snapshot covers; recovery replays
    /// groups `seq + 1, seq + 2, …` on top.
    pub seq: u64,
    /// Tenants in stable (sorted) order.
    pub tenants: Vec<TenantSnapshot>,
}

impl ShardSnapshot {
    fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("V {} {}\n", self.seq, self.tenants.len()));
        for t in &self.tenants {
            body.push_str(&format!(
                "T {} {} {} {} {} {} {}\n",
                t.tenant,
                t.jobs_applied,
                t.job_errors,
                t.next_oid,
                t.objects.len(),
                t.cut,
                t.trigger_sources.len(),
            ));
            match &t.last_error {
                Some(e) => body.push_str(&format!("L +{}\n", escape(e))),
                None => body.push_str("L -\n"),
            }
            body.push_str(&format!(
                "S {} {} {} {} {} {}\n",
                t.stats[0], t.stats[1], t.stats[2], t.stats[3], t.stats[4], t.stats[5]
            ));
            for obj in &t.objects {
                body.push_str(&format!("P {}\n", encode_object(obj)));
            }
            for src in &t.trigger_sources {
                body.push_str(&format!("D {}\n", escape(src)));
            }
        }
        let crc = fnv1a(body.as_bytes());
        format!("{body}C {} {crc:016x}\n", self.seq)
    }

    /// Write atomically and durably: temp file, fsync, rename over
    /// `path`, then fsync the directory. A crash at any point leaves
    /// either the previous snapshot or this one, and once this returns
    /// the rename itself survives a crash — the caller truncates the job
    /// log next, and must never pair an empty log with the old snapshot.
    pub fn write(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        crate::sync_parent(path)
    }

    /// Read and verify. `Ok(None)` when the file does not exist;
    /// `Err(Corrupt)` when it exists but fails validation.
    pub fn read(path: &Path) -> Result<Option<ShardSnapshot>> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let corrupt = |what: &str| PersistError::Corrupt(format!("shard snapshot: {what}"));
        let text = String::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8"))?;
        // Check the terminator's checksum over the body before parsing
        // any record, so damage anywhere in the file reads as this one
        // typed error instead of as whichever record it garbled.
        let unterminated = text
            .strip_suffix('\n')
            .ok_or_else(|| corrupt("missing terminator"))?;
        let (body, term) = text.split_at(unterminated.rfind('\n').map_or(0, |i| i + 1));
        let (term_seq, crc) = term
            .strip_prefix("C ")
            .and_then(|rest| rest.trim_end_matches('\n').split_once(' '))
            .and_then(|(s, c)| Some((s.parse::<u64>().ok()?, u64::from_str_radix(c, 16).ok()?)))
            .ok_or_else(|| corrupt("bad terminator"))?;
        if crc != fnv1a(body.as_bytes()) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut lines = body.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty"))?;
        let (seq, count) = header
            .strip_prefix("V ")
            .and_then(|s| s.split_once(' '))
            .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<usize>().ok()?)))
            .ok_or_else(|| corrupt("bad header"))?;
        let mut tenants = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            tenants.push(read_tenant(&mut lines, &corrupt)?);
        }
        if term_seq != seq || lines.next().is_some() {
            return Err(corrupt("terminator mismatch"));
        }
        Ok(Some(ShardSnapshot { seq, tenants }))
    }
}

fn read_tenant<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    corrupt: &dyn Fn(&str) -> PersistError,
) -> Result<TenantSnapshot> {
    let header = lines.next().ok_or_else(|| corrupt("truncated tenants"))?;
    let mut nums = header
        .strip_prefix("T ")
        .ok_or_else(|| corrupt("expected tenant header"))?
        .split(' ')
        .map(|s| s.parse::<u64>());
    let mut next = || -> Result<u64> {
        nums.next()
            .and_then(|r| r.ok())
            .ok_or_else(|| corrupt("bad tenant header"))
    };
    let tenant = next()?;
    let jobs_applied = next()?;
    let job_errors = next()?;
    let next_oid = next()?;
    let nobj = next()? as usize;
    let cut = next()?;
    let nsrc = next()? as usize;
    if nums.next().is_some() {
        return Err(corrupt("bad tenant header"));
    }

    let err_line = lines.next().ok_or_else(|| corrupt("missing error line"))?;
    let last_error = match err_line
        .strip_prefix("L ")
        .ok_or_else(|| corrupt("expected error line"))?
    {
        "-" => None,
        some => Some(unescape(
            some.strip_prefix('+')
                .ok_or_else(|| corrupt("bad error line"))?,
        )?),
    };

    let stats_line = lines.next().ok_or_else(|| corrupt("missing stats line"))?;
    let stat_vals: Vec<u64> = stats_line
        .strip_prefix("S ")
        .ok_or_else(|| corrupt("expected stats line"))?
        .split(' ')
        .map(|s| s.parse::<u64>())
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| corrupt("bad stats line"))?;
    let stats: [u64; 6] = stat_vals
        .try_into()
        .map_err(|_| corrupt("bad stats arity"))?;

    let cap = |n: usize| n.min(1 << 16);
    let mut objects = Vec::with_capacity(cap(nobj));
    for _ in 0..nobj {
        let line = lines.next().ok_or_else(|| corrupt("truncated objects"))?;
        let payload = line
            .strip_prefix("P ")
            .ok_or_else(|| corrupt("expected object record"))?;
        objects.push(decode_object(payload)?);
    }
    let mut trigger_sources = Vec::with_capacity(cap(nsrc));
    for _ in 0..nsrc {
        let line = lines.next().ok_or_else(|| corrupt("truncated sources"))?;
        let esc = line
            .strip_prefix("D ")
            .ok_or_else(|| corrupt("expected source record"))?;
        trigger_sources.push(unescape(esc)?);
    }
    Ok(TenantSnapshot {
        tenant,
        jobs_applied,
        job_errors,
        last_error,
        objects,
        next_oid,
        cut,
        trigger_sources,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::{ClassId, Oid, Value};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chimera-persist-shardsnap-tests");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.chi", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn snap() -> ShardSnapshot {
        ShardSnapshot {
            seq: 11,
            tenants: vec![
                TenantSnapshot {
                    tenant: 3,
                    jobs_applied: 17,
                    job_errors: 2,
                    last_error: Some("no active transaction, with spaces\n".into()),
                    objects: vec![Object {
                        oid: Oid(1),
                        class: ClassId(0),
                        attrs: vec![Value::Int(5), Value::Str("a b".into())],
                    }],
                    next_oid: 2,
                    cut: 40,
                    trigger_sources: vec!["define trigger t\n  …\nend".into()],
                    stats: [1, 2, 3, 4, 5, 6],
                },
                TenantSnapshot {
                    tenant: 9,
                    jobs_applied: 0,
                    job_errors: 0,
                    last_error: None,
                    objects: vec![],
                    next_oid: 0,
                    cut: 0,
                    trigger_sources: vec![],
                    stats: [0; 6],
                },
            ],
        }
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("round");
        let s = snap();
        s.write(&path).unwrap();
        assert_eq!(ShardSnapshot::read(&path).unwrap(), Some(s));
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn rename_leaves_no_tmp_behind() {
        let path = tmp("atomic");
        snap().write(&path).unwrap();
        let mut next = snap();
        next.seq += 1;
        next.write(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(ShardSnapshot::read(&path).unwrap(), Some(next));
    }

    #[test]
    fn missing_file_is_none() {
        assert_eq!(
            ShardSnapshot::read(Path::new("/nonexistent/shard.chi")).unwrap(),
            None
        );
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let path = tmp("flip");
        snap().write(&path).unwrap();
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x01;
            fs::write(&path, &dirty).unwrap();
            // typed as snapshot damage wherever it lands, record bytes
            // included: the checksum is checked before any record parses
            match ShardSnapshot::read(&path) {
                Err(PersistError::Corrupt(m)) if m.starts_with("shard snapshot:") => {}
                Ok(Some(s)) => panic!("flip at byte {i} went undetected: {s:?}"),
                other => panic!("unexpected outcome for flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let path = tmp("trunc");
        snap().write(&path).unwrap();
        let clean = fs::read(&path).unwrap();
        for cut in (0..clean.len()).step_by(7) {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                ShardSnapshot::read(&path).is_err(),
                "truncation at {cut} must be detected"
            );
        }
    }
}
