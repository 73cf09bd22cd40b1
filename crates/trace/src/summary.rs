//! Human-readable flamegraph-style rendering of an event stream.
//!
//! Nesting is recovered from timestamps: all tracers in a run share one
//! epoch, so a lift span belongs to the wave span whose `[t_ns, t_ns +
//! dur_ns]` window contains its start. The output is indentation-based —
//! run, then waves in index order, then each wave's per-constant lifts
//! with worker attribution and a proportional duration bar — followed by a
//! kernel-probe tally.

use crate::metrics::fmt_ns;
use crate::{Event, EventKind};

/// Width of the proportional duration bar next to each lift span.
const BAR: usize = 20;

/// Renders the flamegraph-style text summary of a finished run's events.
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("(no trace events)\n");
        return out;
    }

    let run = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Run { .. }));
    let total_ns = run.map(|e| e.dur_ns).unwrap_or_else(|| {
        events
            .iter()
            .map(|e| e.t_ns + e.dur_ns)
            .max()
            .unwrap_or(0)
            .saturating_sub(events.iter().map(|e| e.t_ns).min().unwrap_or(0))
    });
    match run {
        Some(Event {
            kind: EventKind::Run { jobs },
            ..
        }) => out.push_str(&format!("run  jobs={jobs}  total={}\n", fmt_ns(total_ns))),
        _ => out.push_str(&format!("run  total={}\n", fmt_ns(total_ns))),
    }

    let mut waves: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Wave { .. }))
        .collect();
    waves.sort_by_key(|e| match e.kind {
        EventKind::Wave { wave, .. } => wave,
        _ => unreachable!(),
    });

    let mut lifts: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LiftConstant { .. }))
        .collect();
    lifts.sort_by_key(|e| e.t_ns);
    let max_lift_ns = lifts.iter().map(|e| e.dur_ns).max().unwrap_or(0).max(1);
    let name_width = lifts
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LiftConstant { name } => Some(name.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    let mut shown = vec![false; lifts.len()];
    let render_lift = |out: &mut String, lift: &Event, indent: &str| {
        if let EventKind::LiftConstant { name } = &lift.kind {
            let filled = ((lift.dur_ns as u128 * BAR as u128) / max_lift_ns as u128) as usize;
            let bar: String = "█".repeat(filled.min(BAR)) + &"·".repeat(BAR - filled.min(BAR));
            out.push_str(&format!(
                "{indent}{name:<name_width$}  w{:<2} {bar} {}\n",
                lift.worker,
                fmt_ns(lift.dur_ns)
            ));
        }
    };

    for wave in &waves {
        let (idx, width) = match wave.kind {
            EventKind::Wave { wave, width } => (wave, width),
            _ => unreachable!(),
        };
        let merge_ns = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::WaveMerge { wave } if wave == idx => Some(e.dur_ns),
                _ => None,
            })
            .unwrap_or(0);
        out.push_str(&format!(
            "  wave {idx}  width={width}  span={}  merge={}\n",
            fmt_ns(wave.dur_ns),
            fmt_ns(merge_ns)
        ));
        let (lo, hi) = (wave.t_ns, wave.t_ns + wave.dur_ns);
        for (i, lift) in lifts.iter().enumerate() {
            if !shown[i] && lift.t_ns >= lo && lift.t_ns <= hi {
                shown[i] = true;
                render_lift(&mut out, lift, "    ");
            }
        }
    }
    // Lifts outside any wave window (e.g. a single-constant repair with no
    // scheduler, or clock-skew stragglers) still get listed.
    for (i, lift) in lifts.iter().enumerate() {
        if !shown[i] {
            render_lift(&mut out, lift, "  ");
        }
    }

    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let whnf = count(&|k| matches!(k, EventKind::Whnf));
    let conv = count(&|k| matches!(k, EventKind::Conv));
    if whnf + conv > 0 {
        out.push_str(&format!("  kernel: whnf calls {whnf}, conv calls {conv}\n"));
    }
    let rollbacks: u32 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Rollback { dropped } => Some(dropped),
            _ => None,
        })
        .sum();
    if rollbacks > 0 {
        out.push_str(&format!("  rollbacks: {rollbacks} declarations dropped\n"));
    }
    if let Some(EventKind::Incr {
        changed,
        replayed,
        skipped,
    }) = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Incr { .. }))
        .map(|e| &e.kind)
    {
        out.push_str(&format!(
            "  incremental: changed={changed} replayed={replayed} skipped={skipped}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, dur_ns: u64, worker: u32, kind: EventKind) -> Event {
        Event {
            t_ns,
            dur_ns,
            worker,
            kind,
        }
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        assert_eq!(render(&[]), "(no trace events)\n");
    }

    #[test]
    fn nests_lifts_under_their_wave_by_timestamp() {
        let events = vec![
            ev(0, 10_000, 0, EventKind::Run { jobs: 2 }),
            ev(100, 4_000, 0, EventKind::Wave { wave: 0, width: 2 }),
            ev(3_900, 200, 0, EventKind::WaveMerge { wave: 0 }),
            ev(
                200,
                1_000,
                1,
                EventKind::LiftConstant {
                    name: "Old.rev".into(),
                },
            ),
            ev(
                250,
                2_000,
                2,
                EventKind::LiftConstant {
                    name: "Old.app".into(),
                },
            ),
            ev(5_000, 3_000, 0, EventKind::Wave { wave: 1, width: 1 }),
            ev(
                5_100,
                2_500,
                1,
                EventKind::LiftConstant {
                    name: "Old.rev_involutive".into(),
                },
            ),
            ev(10, 0, 1, EventKind::Conv),
            ev(12, 0, 1, EventKind::Whnf),
        ];
        let text = render(&events);
        let wave0 = text.find("wave 0").unwrap();
        let wave1 = text.find("wave 1").unwrap();
        let rev = text.find("Old.rev ").unwrap();
        let invol = text.find("Old.rev_involutive").unwrap();
        assert!(wave0 < rev && rev < wave1, "Old.rev listed under wave 0");
        assert!(wave1 < invol, "involutive listed under wave 1");
        assert!(text.contains("w1"), "worker attribution shown");
        assert!(text.contains("kernel: whnf calls 1, conv calls 1"));
        assert!(text.contains("jobs=2"));
    }

    #[test]
    fn lift_without_wave_is_still_listed() {
        let events = vec![ev(
            0,
            500,
            0,
            EventKind::LiftConstant {
                name: "Old.length".into(),
            },
        )];
        let text = render(&events);
        assert!(text.contains("Old.length"));
    }
}
