//! The span recorder and its self-time arithmetic.

use hbar_benchmark::spans::{episodes, probe_durations, self_times, Recorder, Span};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        episode: 0,
        probe: false,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_time() {
    let spans = [
        span("episode", 0, 100, None),
        // Adjacent children: both count in full.
        span("profile", 10, 40, Some(0)),
        span("tune", 40, 60, Some(0)),
        // Nested: the grandchild reduces its parent, not the root.
        span("measure", 15, 35, Some(1)),
    ];
    assert_eq!(self_times(&spans), [50, 10, 20, 20]);
}

#[test]
fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
    let spans = [
        span("episode", 100, 200, None),
        span("a", 110, 150, Some(0)),
        span("b", 140, 170, Some(0)), // overlaps `a` by 10
        span("c", 190, 230, Some(0)), // overhangs the parent by 30
        span("d", 120, 130, Some(0)), // inside `a`
    ];
    // Covered: [110, 170) ∪ [190, 200) = 70.
    assert_eq!(self_times(&spans)[0], 30);
}

#[test]
fn episode_sums_leave_probes_out_and_add_up_to_the_root() {
    let mut spans = vec![
        span("episode", 0, 1_000, None),
        span("profile", 0, 600, Some(0)),
        span("measure", 100, 200, Some(1)),
        span("measure", 300, 450, Some(1)),
        span("tune", 600, 900, Some(0)),
        span("classify", 1_000, 1_500, None),
        span("inner", 1_100, 1_200, Some(5)),
        span("episode", 2_000, 2_400, None),
        span("tune", 2_000, 2_300, Some(7)),
    ];
    spans[5].probe = true;
    let eps = episodes(&spans);
    assert_eq!(eps.len(), 2, "the probe is not an operation");
    let ns = |seconds: f64| (seconds * 1e9).round() as u64;
    let first = &eps[0];
    assert_eq!(ns(first.root_s), 1_000);
    assert_eq!(ns(first.root_self_s), 100);
    assert_eq!(ns(first.total("measure")), 250);
    assert_eq!(ns(first.self_time("profile")), 350);
    assert_eq!(first.total("classify"), 0.0);
    assert_eq!(first.total("inner"), 0.0);
    assert_eq!(ns(first.self_sum_s()), ns(first.root_s));
    assert_eq!(ns(eps[1].total("tune")), 300);
    assert_eq!(ns(probe_durations(&spans, "classify")[0]), 500);
}

#[test]
fn recorder_nests_by_scope_and_records_nothing_while_disabled() {
    let rec = Recorder::default();
    {
        let _quiet = rec.span("episode");
    }
    assert!(rec.spans().is_empty(), "disabled by default");

    rec.set_enabled(true);
    rec.set_episode(7);
    {
        let _root = rec.span("episode");
        {
            let _child = rec.span("profile");
            let _grandchild = rec.span("measure");
        }
        let _second = rec.span("tune");
    }
    {
        let _probe = rec.probe("classify");
    }
    let spans = rec.spans();
    let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.probe)).collect();
    assert_eq!(
        shape,
        [
            ("episode", None, false),
            ("profile", Some(0), false),
            ("measure", Some(1), false),
            ("tune", Some(0), false),
            ("classify", None, true),
        ]
    );
    for s in &spans {
        assert_eq!(s.episode, 7);
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = s.parent {
            assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
        }
    }
    let eps = episodes(&spans);
    assert_eq!(eps.len(), 1);
    assert!((eps[0].self_sum_s() - eps[0].root_s).abs() < 1e-12);
}
