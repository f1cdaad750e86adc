//! Full-fidelity per-shard tenant snapshots (job-log compaction).
//!
//! The redo-log snapshot in [`crate::snapshot`] captures one engine's
//! *object store* — enough for the transaction-scoped durability model of
//! [`crate::durable`]. The runtime's durable tenants need more: recovery
//! must reproduce each tenant bit-identically, so a shard snapshot also
//! carries the event base, trigger sources, per-rule processing stamps,
//! engine statistics and the shard's error bookkeeping. With all of that
//! captured, the job log ([`crate::joblog`]) can be truncated at the
//! snapshot's sequence and replay continues from there.
//!
//! The event base is per-transaction: the engine cuts it at every
//! transaction start, so a tenant snapshot carries only the cut (the
//! logical length at the last transaction start) and the live tail after
//! it — O(one transaction), however long the tenant has lived.
//!
//! Format (line-oriented text, FNV-1a 64 checksummed, like every other
//! durable file in this crate):
//!
//! ```text
//! V <seq> <tenant-count>
//! T <tenant> <jobs-applied> <job-errors> <next-oid> <nobj> <cut> <nev> <nsrc> <nrule>
//! L <escaped-last-error|->
//! S <blocks> <events> <considerations> <executions> <commits> <rollbacks>
//! P <oid> <class> <attrs>          × nobj
//! E <class>:<kind> <oid>           × nev (the live tail)
//! D <escaped-trigger-source>       × nsrc
//! R <escaped-name> <t> <lc> <lcons> <cu> <w>   × nrule
//! C <seq> <fnv1a-of-body>
//! ```
//!
//! Snapshots are only taken at *safe points* (no tenant in an open
//! transaction): the object store snapshot reflects committed state, and
//! any in-flight transaction is instead reproduced by replaying the job
//! log tail.

use crate::codec::{decode_object, encode_object, escape, unescape};
use crate::{fnv1a, PersistError, Result};
use chimera_events::{EventKind, EventType};
use chimera_model::{AttrId, ClassId, Object, Oid};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// One rule's processing stamps — mirrors `chimera_rules::RuleState`
/// field-for-field (timestamps as raw `u64`).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStampRec {
    /// Trigger name (the rule-table key).
    pub name: String,
    /// `RuleState::triggered`.
    pub triggered: bool,
    /// `RuleState::last_consideration` (raw timestamp).
    pub last_consideration: u64,
    /// `RuleState::last_consumption` (raw timestamp).
    pub last_consumption: u64,
    /// `RuleState::checked_upto` (raw timestamp).
    pub checked_upto: u64,
    /// `RuleState::witness`.
    pub witness: bool,
}

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
    /// The event base's cut: its logical length at the last transaction
    /// start, where the engine dropped every earlier occurrence.
    pub cut: u64,
    /// The live tail of the event base, the occurrences after `cut`, as
    /// `(type, oid)` pairs in log order. Positioning a fresh event base
    /// at `cut` and replaying them reproduces eids and timestamps exactly
    /// (both are assigned densely per append).
    pub events: Vec<(EventType, Oid)>,
    /// Tenant-local trigger definitions, in definition order, as source
    /// text (re-parsed deterministically at restore).
    pub trigger_sources: Vec<String>,
    /// Per-rule processing stamps, restored *after* triggers are
    /// (re)defined.
    pub rules: Vec<RuleStampRec>,
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

fn encode_event_type(ty: &EventType) -> String {
    let kind = match ty.kind {
        EventKind::Create => "c".to_string(),
        EventKind::Delete => "d".to_string(),
        EventKind::Modify(attr) => format!("m{}", attr.0),
        EventKind::Generalize => "g".to_string(),
        EventKind::Specialize => "s".to_string(),
        EventKind::Select => "q".to_string(),
        EventKind::External(chan) => format!("x{chan}"),
    };
    format!("{}:{kind}", ty.class.0)
}

fn decode_event_type(tok: &str) -> Result<EventType> {
    let bad = || PersistError::Corrupt(format!("event type token `{tok}`"));
    let (class, kind) = tok.split_once(':').ok_or_else(bad)?;
    let class: u32 = class.parse().map_err(|_| bad())?;
    let kind = match kind {
        "c" => EventKind::Create,
        "d" => EventKind::Delete,
        "g" => EventKind::Generalize,
        "s" => EventKind::Specialize,
        "q" => EventKind::Select,
        _ => {
            if let Some(n) = kind.strip_prefix('m') {
                EventKind::Modify(AttrId(n.parse().map_err(|_| bad())?))
            } else if let Some(n) = kind.strip_prefix('x') {
                EventKind::External(n.parse().map_err(|_| bad())?)
            } else {
                return Err(bad());
            }
        }
    };
    Ok(EventType {
        class: ClassId(class),
        kind,
    })
}

impl ShardSnapshot {
    fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("V {} {}\n", self.seq, self.tenants.len()));
        for t in &self.tenants {
            body.push_str(&format!(
                "T {} {} {} {} {} {} {} {} {}\n",
                t.tenant,
                t.jobs_applied,
                t.job_errors,
                t.next_oid,
                t.objects.len(),
                t.cut,
                t.events.len(),
                t.trigger_sources.len(),
                t.rules.len(),
            ));
            match &t.last_error {
                Some(e) => body.push_str(&format!("L {}\n", escape(e))),
                None => body.push_str("L -\n"),
            }
            body.push_str(&format!(
                "S {} {} {} {} {} {}\n",
                t.stats[0], t.stats[1], t.stats[2], t.stats[3], t.stats[4], t.stats[5]
            ));
            for obj in &t.objects {
                body.push_str(&format!("P {}\n", encode_object(obj)));
            }
            for (ty, oid) in &t.events {
                body.push_str(&format!("E {} {}\n", encode_event_type(ty), oid.0));
            }
            for src in &t.trigger_sources {
                body.push_str(&format!("D {}\n", escape(src)));
            }
            for r in &t.rules {
                body.push_str(&format!(
                    "R {} {} {} {} {} {}\n",
                    escape(&r.name),
                    u8::from(r.triggered),
                    r.last_consideration,
                    r.last_consumption,
                    r.checked_upto,
                    u8::from(r.witness),
                ));
            }
        }
        let crc = fnv1a(body.as_bytes());
        format!("{body}C {} {crc:016x}\n", self.seq)
    }

    /// Write atomically (temp file + fsync + rename), same crash
    /// guarantee as [`crate::snapshot::Snapshot::write`].
    pub fn write(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
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
    let nev = next()? as usize;
    let nsrc = next()? as usize;
    let nrule = next()? as usize;
    if nums.next().is_some() {
        return Err(corrupt("bad tenant header"));
    }

    let err_line = lines.next().ok_or_else(|| corrupt("missing error line"))?;
    let last_error = match err_line
        .strip_prefix("L ")
        .ok_or_else(|| corrupt("expected error line"))?
    {
        "-" => None,
        esc => Some(unescape(esc)?),
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
    let mut events = Vec::with_capacity(cap(nev));
    for _ in 0..nev {
        let line = lines.next().ok_or_else(|| corrupt("truncated events"))?;
        let (ty, oid) = line
            .strip_prefix("E ")
            .and_then(|s| s.split_once(' '))
            .ok_or_else(|| corrupt("expected event record"))?;
        let oid: u64 = oid.parse().map_err(|_| corrupt("bad event oid"))?;
        events.push((decode_event_type(ty)?, Oid(oid)));
    }
    let mut trigger_sources = Vec::with_capacity(cap(nsrc));
    for _ in 0..nsrc {
        let line = lines.next().ok_or_else(|| corrupt("truncated sources"))?;
        let esc = line
            .strip_prefix("D ")
            .ok_or_else(|| corrupt("expected source record"))?;
        trigger_sources.push(unescape(esc)?);
    }
    let mut rules = Vec::with_capacity(cap(nrule));
    for _ in 0..nrule {
        let line = lines.next().ok_or_else(|| corrupt("truncated rules"))?;
        let toks: Vec<&str> = line
            .strip_prefix("R ")
            .ok_or_else(|| corrupt("expected rule record"))?
            .split(' ')
            .collect();
        let [name, t, lc, lcons, cu, w] = toks[..] else {
            return Err(corrupt("bad rule arity"));
        };
        let flag = |s: &str| -> Result<bool> {
            match s {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(corrupt("bad rule flag")),
            }
        };
        let ts = |s: &str| -> Result<u64> { s.parse().map_err(|_| corrupt("bad rule stamp")) };
        rules.push(RuleStampRec {
            name: unescape(name)?,
            triggered: flag(t)?,
            last_consideration: ts(lc)?,
            last_consumption: ts(lcons)?,
            checked_upto: ts(cu)?,
            witness: flag(w)?,
        });
    }
    Ok(TenantSnapshot {
        tenant,
        jobs_applied,
        job_errors,
        last_error,
        objects,
        next_oid,
        cut,
        events,
        trigger_sources,
        rules,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::Value;
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
                    events: vec![
                        (EventType::create(ClassId(0)), Oid(1)),
                        (
                            EventType {
                                class: ClassId(0),
                                kind: EventKind::Modify(AttrId(1)),
                            },
                            Oid(1),
                        ),
                        (
                            EventType {
                                class: ClassId(2),
                                kind: EventKind::External(7),
                            },
                            Oid(0),
                        ),
                    ],
                    trigger_sources: vec!["define trigger t\n  …\nend".into()],
                    rules: vec![RuleStampRec {
                        name: "watch low".into(),
                        triggered: true,
                        last_consideration: 4,
                        last_consumption: 2,
                        checked_upto: 5,
                        witness: false,
                    }],
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
                    events: vec![],
                    trigger_sources: vec![],
                    rules: vec![],
                    stats: [0; 6],
                },
            ],
        }
    }

    #[test]
    fn event_type_round_trips() {
        for ty in [
            EventType::create(ClassId(0)),
            EventType {
                class: ClassId(1),
                kind: EventKind::Delete,
            },
            EventType {
                class: ClassId(2),
                kind: EventKind::Modify(AttrId(13)),
            },
            EventType {
                class: ClassId(3),
                kind: EventKind::Generalize,
            },
            EventType {
                class: ClassId(4),
                kind: EventKind::Specialize,
            },
            EventType {
                class: ClassId(5),
                kind: EventKind::Select,
            },
            EventType {
                class: ClassId(6),
                kind: EventKind::External(42),
            },
        ] {
            let tok = encode_event_type(&ty);
            assert_eq!(decode_event_type(&tok).unwrap(), ty, "`{tok}`");
        }
        for tok in ["", "1", "1:z", "x:c", "1:m", "1:mx", "1:x"] {
            assert!(decode_event_type(tok).is_err(), "`{tok}` must fail");
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
