//! The wire form of a repair report.
//!
//! A `RepairReport` proper owns event buffers, provenance trees, and a DAG;
//! the reply a client needs is much smaller: what got repaired, how the
//! schedule looked, cache behavior, and timings. This struct is that
//! projection. Two deliberate omissions keep replies byte-stable across
//! debug and release builds (the golden-transcript test runs in both):
//!
//! * raw `KernelStats` are excluded — debug builds re-typecheck merged
//!   declarations inside `admit_checked`, inflating kernel counters in a
//!   build-dependent way (the tracer is paused there, so *event-derived*
//!   metrics counters agree across builds and are included);
//! * all wall-clock fields are zeroed when a request asks for
//!   `"deterministic":true` replies.

use crate::json::Value;
use crate::WireError;

/// The flattened, serializable projection of a repair report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReportWire {
    /// `(old, new)` pairs actually repaired by this run.
    pub repaired: Vec<(String, String)>,
    /// Worker cap the run used.
    pub jobs: u64,
    /// Number of waves in the schedule.
    pub waves: u64,
    /// Widest wave.
    pub max_width: u64,
    /// In-memory subterm lift cache hits/misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Constants lifted (fresh work, including persistent-cache replays).
    pub constants_lifted: u64,
    /// Subterm visits performed by the lift.
    pub visits: u64,
    /// Persistent (cross-run) cache hits/misses, when enabled.
    pub persist_hits: u64,
    pub persist_misses: u64,
    /// Wall-clock time of the repair work itself, excluding queue wait
    /// (zeroed in deterministic replies).
    pub wall_ns: u64,
    /// Event-derived metrics counters (stable across builds; see module
    /// docs), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Incremental accounting `{changed, replayed, skipped}` for
    /// differential runs; `None` (and absent on the wire) for cold runs,
    /// so cold replies stay byte-identical to pre-incremental ones.
    pub incr: Option<IncrWire>,
    /// Automatic-search accounting (see `core::auto`); `None` (and absent
    /// on the wire) for plain runs, so non-auto replies stay byte-identical
    /// to pre-auto ones.
    pub auto: Option<AutoWire>,
}

/// Version stamp of the [`AutoWire`] payload. Readers that see a different
/// version must not guess at field meanings.
pub const AUTO_WIRE_VERSION: u64 = 1;

/// The wire form of an automatic-search report (see `core::auto`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AutoWire {
    /// Description of the winning candidate configuration, when one
    /// checked; absent on the wire when the search was exhausted.
    pub winner: Option<String>,
    /// Candidates actually run through the kernel oracle.
    pub tried: u64,
    /// Candidates skipped by the process-wide failure cache.
    pub skipped_cache: u64,
    /// Candidates the oracle rejected.
    pub rejected: u64,
    /// False when the candidate loop stopped early (deadline/cancel) — a
    /// partial report.
    pub complete: bool,
    /// Per-candidate `(description, verdict, error_class, cost_ns)` rows in
    /// enumeration order; `error_class` is empty for accepted candidates
    /// and `cost_ns` is zeroed in deterministic replies.
    pub candidates: Vec<(String, String, String, u64)>,
    /// The minimized failing sub-module, when the minimizer ran.
    pub reproducer: Option<ReproWire>,
}

/// The wire form of a minimized reproducer (see `core::minimize`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReproWire {
    /// The minimized work list, in original order.
    pub names: Vec<String>,
    /// The preserved error class.
    pub class: String,
    /// The replayable reduction seed.
    pub seed: u64,
    /// Constant count of the original work list.
    pub original: u64,
    /// Oracle invocations the reduction spent.
    pub steps: u64,
}

impl AutoWire {
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("v".into(), Value::UInt(AUTO_WIRE_VERSION))];
        if let Some(w) = &self.winner {
            fields.push(("winner".into(), Value::str(w)));
        }
        fields.push(("tried".into(), Value::UInt(self.tried)));
        fields.push(("skipped_cache".into(), Value::UInt(self.skipped_cache)));
        fields.push(("rejected".into(), Value::UInt(self.rejected)));
        fields.push(("complete".into(), Value::Bool(self.complete)));
        fields.push((
            "candidates".into(),
            Value::Arr(
                self.candidates
                    .iter()
                    .map(|(desc, verdict, class, cost)| {
                        Value::Arr(vec![
                            Value::str(desc),
                            Value::str(verdict),
                            Value::str(class),
                            Value::UInt(*cost),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(r) = &self.reproducer {
            fields.push((
                "reproducer".into(),
                Value::Obj(vec![
                    (
                        "names".into(),
                        Value::Arr(r.names.iter().map(Value::str).collect()),
                    ),
                    ("class".into(), Value::str(&r.class)),
                    ("seed".into(), Value::UInt(r.seed)),
                    ("original".into(), Value::UInt(r.original)),
                    ("steps".into(), Value::UInt(r.steps)),
                ]),
            ));
        }
        Value::Obj(fields)
    }

    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let version = v
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| WireError::Shape("auto report is missing `v`".into()))?;
        if version != AUTO_WIRE_VERSION {
            return Err(WireError::Shape(format!(
                "auto report version {version} is not supported (want {AUTO_WIRE_VERSION})"
            )));
        }
        let n = |k: &str| -> Result<u64, WireError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError::Shape(format!("auto report is missing `{k}`")))
        };
        let winner = match v.get("winner") {
            None | Some(Value::Null) => None,
            Some(w) => Some(
                w.as_str()
                    .ok_or_else(|| WireError::Shape("auto `winner` must be a string".into()))?
                    .to_string(),
            ),
        };
        let complete = v
            .get("complete")
            .and_then(Value::as_bool)
            .ok_or_else(|| WireError::Shape("auto report is missing `complete`".into()))?;
        let candidates = v
            .get("candidates")
            .and_then(Value::as_arr)
            .ok_or_else(|| WireError::Shape("auto report is missing `candidates`".into()))?
            .iter()
            .map(|row| {
                let items = row
                    .as_arr()
                    .filter(|items| items.len() == 4)
                    .ok_or_else(|| {
                        WireError::Shape("auto candidate row must have 4 entries".into())
                    })?;
                match (
                    items[0].as_str(),
                    items[1].as_str(),
                    items[2].as_str(),
                    items[3].as_u64(),
                ) {
                    (Some(d), Some(ve), Some(c), Some(cost)) => {
                        Ok((d.to_string(), ve.to_string(), c.to_string(), cost))
                    }
                    _ => Err(WireError::Shape(
                        "auto candidate row must be [str, str, str, uint]".into(),
                    )),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reproducer = match v.get("reproducer") {
            None | Some(Value::Null) => None,
            Some(obj) => {
                let rn = |k: &str| -> Result<u64, WireError> {
                    obj.get(k).and_then(Value::as_u64).ok_or_else(|| {
                        WireError::Shape(format!("auto `reproducer` is missing `{k}`"))
                    })
                };
                let names = obj
                    .get("names")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| WireError::Shape("auto `reproducer` is missing `names`".into()))?
                    .iter()
                    .map(|s| {
                        s.as_str().map(str::to_string).ok_or_else(|| {
                            WireError::Shape("reproducer names must be strings".into())
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let class = obj
                    .get("class")
                    .and_then(Value::as_str)
                    .ok_or_else(|| WireError::Shape("auto `reproducer` is missing `class`".into()))?
                    .to_string();
                Some(ReproWire {
                    names,
                    class,
                    seed: rn("seed")?,
                    original: rn("original")?,
                    steps: rn("steps")?,
                })
            }
        };
        Ok(AutoWire {
            winner,
            tried: n("tried")?,
            skipped_cache: n("skipped_cache")?,
            rejected: n("rejected")?,
            complete,
            candidates,
            reproducer,
        })
    }
}

/// The wire form of the incremental counters (see `core::incr`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrWire {
    /// Work-list inputs whose source digest changed since the snapshot.
    pub changed: u64,
    /// Constants re-lifted fresh (the invalidated downstream closure).
    pub replayed: u64,
    /// Constants not re-lifted (persist replays or already mapped).
    pub skipped: u64,
}

impl ReportWire {
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "repaired".into(),
                Value::Arr(
                    self.repaired
                        .iter()
                        .map(|(f, t)| Value::Arr(vec![Value::str(f), Value::str(t)]))
                        .collect(),
                ),
            ),
            ("jobs".into(), Value::UInt(self.jobs)),
            ("waves".into(), Value::UInt(self.waves)),
            ("max_width".into(), Value::UInt(self.max_width)),
            ("cache_hits".into(), Value::UInt(self.cache_hits)),
            ("cache_misses".into(), Value::UInt(self.cache_misses)),
            (
                "constants_lifted".into(),
                Value::UInt(self.constants_lifted),
            ),
            ("visits".into(), Value::UInt(self.visits)),
            ("persist_hits".into(), Value::UInt(self.persist_hits)),
            ("persist_misses".into(), Value::UInt(self.persist_misses)),
            ("wall_ns".into(), Value::UInt(self.wall_ns)),
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(i) = &self.incr {
            fields.push((
                "incr".into(),
                Value::Obj(vec![
                    ("changed".into(), Value::UInt(i.changed)),
                    ("replayed".into(), Value::UInt(i.replayed)),
                    ("skipped".into(), Value::UInt(i.skipped)),
                ]),
            ));
        }
        if let Some(a) = &self.auto {
            fields.push(("auto".into(), a.to_value()));
        }
        Value::Obj(fields)
    }

    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let n = |k: &str| -> Result<u64, WireError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError::Shape(format!("report is missing counter `{k}`")))
        };
        let repaired = v
            .get("repaired")
            .and_then(Value::as_arr)
            .ok_or_else(|| WireError::Shape("report is missing `repaired`".into()))?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .filter(|items| items.len() == 2)
                    .ok_or_else(|| WireError::Shape("repaired entry must be a pair".into()))?;
                match (items[0].as_str(), items[1].as_str()) {
                    (Some(f), Some(t)) => Ok((f.to_string(), t.to_string())),
                    _ => Err(WireError::Shape("repaired entry must hold strings".into())),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let counters = v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or_else(|| WireError::Shape("report is missing `counters`".into()))?
            .iter()
            .map(|(k, c)| {
                c.as_u64()
                    .map(|c| (k.clone(), c))
                    .ok_or_else(|| WireError::Shape(format!("counter `{k}` must be an integer")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let incr = match v.get("incr") {
            None | Some(Value::Null) => None,
            Some(obj) => {
                let ni = |k: &str| -> Result<u64, WireError> {
                    obj.get(k)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| WireError::Shape(format!("report `incr` is missing `{k}`")))
                };
                Some(IncrWire {
                    changed: ni("changed")?,
                    replayed: ni("replayed")?,
                    skipped: ni("skipped")?,
                })
            }
        };
        let auto = match v.get("auto") {
            None | Some(Value::Null) => None,
            Some(obj) => Some(AutoWire::from_value(obj)?),
        };
        Ok(ReportWire {
            repaired,
            jobs: n("jobs")?,
            waves: n("waves")?,
            max_width: n("max_width")?,
            cache_hits: n("cache_hits")?,
            cache_misses: n("cache_misses")?,
            constants_lifted: n("constants_lifted")?,
            visits: n("visits")?,
            persist_hits: n("persist_hits")?,
            persist_misses: n("persist_misses")?,
            wall_ns: n("wall_ns")?,
            counters,
            incr,
            auto,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let r = ReportWire {
            repaired: vec![("Old.rev".into(), "New.rev".into())],
            jobs: 2,
            waves: 3,
            max_width: 4,
            cache_hits: 10,
            cache_misses: 5,
            constants_lifted: 1,
            visits: 99,
            persist_hits: 1,
            persist_misses: 0,
            wall_ns: 12345,
            counters: vec![("lift.constants".into(), 1)],
            incr: None,
            auto: None,
        };
        let v = Value::parse(&r.to_value().to_string()).unwrap();
        assert_eq!(ReportWire::from_value(&v).unwrap(), r);
        // A cold report's wire text never mentions incremental fields, and
        // a plain (non-auto) one never mentions the auto search.
        assert!(!r.to_value().to_string().contains("incr"));
        assert!(!r.to_value().to_string().contains("auto"));
    }

    #[test]
    fn incremental_report_roundtrip() {
        let r = ReportWire {
            repaired: vec![("Old.rev".into(), "New.rev".into())],
            incr: Some(IncrWire {
                changed: 1,
                replayed: 2,
                skipped: 11,
            }),
            ..ReportWire::default()
        };
        let v = Value::parse(&r.to_value().to_string()).unwrap();
        assert_eq!(ReportWire::from_value(&v).unwrap(), r);
    }

    #[test]
    fn auto_report_roundtrip() {
        let r = ReportWire {
            repaired: vec![("Old.rev".into(), "New.rev".into())],
            auto: Some(AutoWire {
                winner: Some("mapping#0 eta=on smart_elim=on cache=on".into()),
                tried: 2,
                skipped_cache: 1,
                rejected: 1,
                complete: true,
                candidates: vec![
                    (
                        "mapping#0 eta=on smart_elim=off cache=on".into(),
                        "rejected".into(),
                        "lang".into(),
                        10,
                    ),
                    (
                        "mapping#0 eta=on smart_elim=on cache=on".into(),
                        "accepted".into(),
                        String::new(),
                        20,
                    ),
                ],
                reproducer: None,
            }),
            ..ReportWire::default()
        };
        let v = Value::parse(&r.to_value().to_string()).unwrap();
        assert_eq!(ReportWire::from_value(&v).unwrap(), r);
    }

    #[test]
    fn exhausted_auto_report_with_reproducer_roundtrips() {
        let a = AutoWire {
            winner: None,
            tried: 8,
            skipped_cache: 0,
            rejected: 8,
            complete: true,
            candidates: Vec::new(),
            reproducer: Some(ReproWire {
                names: vec!["Old.clash".into()],
                class: "kernel".into(),
                seed: 17,
                original: 14,
                steps: 21,
            }),
        };
        let v = Value::parse(&a.to_value().to_string()).unwrap();
        assert_eq!(AutoWire::from_value(&v).unwrap(), a);
        // Exhausted searches carry no `winner` key at all.
        assert!(!a.to_value().to_string().contains("winner"));
    }

    #[test]
    fn future_auto_versions_are_rejected_not_guessed() {
        let a = AutoWire {
            complete: true,
            ..AutoWire::default()
        };
        let text = a
            .to_value()
            .to_string()
            .replace("\"v\":1", &format!("\"v\":{}", AUTO_WIRE_VERSION + 1));
        let v = Value::parse(&text).unwrap();
        assert!(AutoWire::from_value(&v).is_err());
    }
}
