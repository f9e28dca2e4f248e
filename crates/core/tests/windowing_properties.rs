//! Property-based tests for pane-based window assembly: the windower must
//! deliver every pane to exactly the windows that contain it, never
//! duplicate a window, and tolerate any watermark cadence.

use proptest::prelude::*;
use sa_types::{EventTime, Window, WindowSpec};
use streamapprox::PaneWindower;

fn pane(start: i64, len: i64) -> Window {
    Window::new(
        EventTime::from_millis(start),
        EventTime::from_millis(start + len),
    )
}

/// Advances to `wm` and copies out what each completed window was lent.
fn advance(windower: &mut PaneWindower<usize>, wm: EventTime) -> Vec<(Window, Vec<usize>)> {
    let mut done = Vec::new();
    windower.advance(wm, |w, panes| {
        done.push((w, panes.iter().map(|(_, p)| **p).collect()))
    });
    done
}

fn finish(windower: &mut PaneWindower<usize>) -> Vec<(Window, Vec<usize>)> {
    let mut done = Vec::new();
    windower.finish(|w, panes| done.push((w, panes.iter().map(|(_, p)| **p).collect())));
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Feeding contiguous panes and advancing with arbitrary watermark
    /// steps: every emitted window carries exactly the panes whose start
    /// lies inside it, windows are emitted once, in end order, and a final
    /// finish() drains the rest.
    #[test]
    fn panes_route_to_exactly_their_windows(
        pane_count in 1usize..60,
        pane_factor in 1i64..4,
        overlap in 1i64..4,
        wm_steps in proptest::collection::vec(1i64..5_000, 1..30),
    ) {
        // pane length divides slide; slide divides size.
        let pane_ms = 100 * pane_factor;
        let slide = pane_ms; // one pane per slide
        let size = slide * overlap;
        let spec = WindowSpec::sliding_millis(size, slide);
        let mut windower: PaneWindower<usize> = PaneWindower::new(spec);

        let mut emitted: Vec<(Window, Vec<usize>)> = Vec::new();
        let mut next_pane = 0usize;
        let mut wm = 0i64;
        for step in wm_steps {
            // Add all panes that would have closed by the new watermark.
            wm += step;
            while (next_pane as i64 + 1) * pane_ms <= wm {
                windower.add_pane(pane(next_pane as i64 * pane_ms, pane_ms), next_pane);
                next_pane += 1;
            }
            emitted.extend(advance(&mut windower, EventTime::from_millis(wm)));
        }
        // Add any stragglers and flush.
        while next_pane < pane_count {
            windower.add_pane(pane(next_pane as i64 * pane_ms, pane_ms), next_pane);
            next_pane += 1;
        }
        emitted.extend(finish(&mut windower));

        // Windows unique and ordered by end.
        for pair in emitted.windows(2) {
            prop_assert!(pair[0].0.end <= pair[1].0.end);
            prop_assert_ne!(pair[0].0, pair[1].0);
        }
        // Every window's payload is exactly the panes it contains (among
        // panes added before it was emitted — guaranteed by construction).
        for (w, panes) in &emitted {
            let expected: Vec<usize> = (0..next_pane)
                .filter(|&p| {
                    let start = p as i64 * pane_ms;
                    start >= w.start.as_millis() && start < w.end.as_millis()
                })
                .collect();
            prop_assert_eq!(panes.clone(), expected, "window {}", w);
        }
        // Every pane that has a fully-closed window appears somewhere.
        let covered: std::collections::BTreeSet<usize> =
            emitted.iter().flat_map(|(_, ps)| ps.iter().copied()).collect();
        if let Some((last_window, _)) = emitted.last() {
            for p in 0..next_pane {
                let start = p as i64 * pane_ms;
                if start < last_window.end.as_millis() {
                    prop_assert!(covered.contains(&p), "pane {} lost", p);
                }
            }
        }
    }

    /// advance is idempotent for a non-advancing watermark and never
    /// re-emits a window.
    #[test]
    fn watermark_monotonicity(
        panes in 1usize..40,
        replays in 1usize..5,
    ) {
        let spec = WindowSpec::sliding_millis(1_000, 500);
        let mut windower: PaneWindower<usize> = PaneWindower::new(spec);
        for p in 0..panes {
            windower.add_pane(pane(p as i64 * 500, 500), p);
        }
        let wm = EventTime::from_millis(panes as i64 * 500);
        let first = advance(&mut windower, wm);
        for _ in 0..replays {
            prop_assert!(advance(&mut windower, wm).is_empty());
            let earlier = EventTime::from_millis(wm.as_millis() - 250);
            prop_assert!(advance(&mut windower, earlier).is_empty());
        }
        // finish drains the remaining tail exactly once.
        let tail = finish(&mut windower);
        let all: Vec<Window> = first.iter().chain(&tail).map(|(w, _)| *w).collect();
        let mut dedup = all.clone();
        dedup.dedup();
        prop_assert_eq!(all, dedup);
        prop_assert!(finish(&mut windower).is_empty());
    }
}
