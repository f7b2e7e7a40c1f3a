//! Self-tests of the benchmark itself: deterministic captures, a reference
//! check that catches a flipped verdict, a traced decomposition that agrees
//! with ingest, workloads that load the layers they exist for, and hash
//! rules that can never match.  They build full-size workloads, so run them
//! with `--release`.

use std::collections::HashSet;

use borderpatrol::core::offline::SignatureDatabase;
use borderpatrol::core::wire::WireFrame;
use borderpatrol::netsim::netfilter::Verdict;
use wirebench::trace::{Spans, TracedPlane};
use wirebench::{hash_rule, Capture, Deployment, Reference, Tally, Workload, HASH_RULES};

#[test]
fn same_seed_gives_a_byte_identical_capture() {
    let deployment = Deployment::new().unwrap();
    for workload in [Workload::SteadyFleet, Workload::ConnectStorm] {
        let a = Capture::record(workload, 7, &deployment).unwrap();
        let b = Capture::record(workload, 7, &deployment).unwrap();
        let c = Capture::record(workload, 8, &deployment).unwrap();
        assert!(
            a.digest == b.digest,
            "{}: same seed, different capture",
            workload.name()
        );
        assert!(
            a.batch_frames() == b.batch_frames(),
            "{}: corruption differs",
            workload.name()
        );
        assert!(
            a.digest != c.digest,
            "{}: the seed does not reach the capture",
            workload.name()
        );
    }
}

#[test]
fn a_flipped_verdict_is_caught() {
    let deployment = Deployment::new().unwrap();
    let capture = Capture::record(Workload::ConnectStorm, 3, &deployment).unwrap();
    let reference = Reference::build(&capture, &deployment).unwrap();
    let batch = capture.batches[0].clone();
    let agreeing: Vec<Verdict> = batch
        .clone()
        .map(|i| match reference.accept[i] {
            true => Verdict::Accept,
            false => Verdict::Drop {
                reason: "reference".into(),
            },
        })
        .collect();
    let mut tally = Tally::default();
    tally.check(&capture, &reference, batch.clone(), &agreeing);
    assert_eq!(tally.failed(), 0);

    // Flip an adversarial or corrupted frame, then a legitimate one.
    let must_drop = batch.clone().find(|&i| capture.must_drop(i)).unwrap();
    let legit = batch.clone().find(|&i| !capture.must_drop(i)).unwrap();
    for (flipped, fail_open) in [(must_drop, 1), (legit, 0)] {
        let mut verdicts = agreeing.clone();
        verdicts[flipped - batch.start] = match reference.accept[flipped] {
            true => Verdict::Drop {
                reason: "flipped".into(),
            },
            false => Verdict::Accept,
        };
        let mut tally = Tally::default();
        tally.check(&capture, &reference, batch.clone(), &verdicts);
        assert_eq!((tally.failed(), tally.fail_open), (1, fail_open));
    }

    // A reference that accepts an adversarial frame, or miscounts the
    // legitimate ones, fails its validation.
    let adversarial = (0..capture.len())
        .find(|&i| capture.origin[i] != 0)
        .unwrap();
    let mut wrong = Reference {
        accept: reference.accept.clone(),
    };
    wrong.accept[adversarial] = true;
    assert!(wrong.validate(&capture).is_err());
    let legit = (0..capture.len())
        .find(|&i| capture.origin[i] == 0)
        .unwrap();
    wrong.accept[adversarial] = false;
    wrong.accept[legit] = !wrong.accept[legit];
    assert!(wrong.validate(&capture).is_err());
}

/// Distinct flows (5-tuples) in one cycle of the capture.
fn live_flows(capture: &Capture) -> usize {
    let mut flows = HashSet::new();
    for batch in capture.batch_frames() {
        for frame in batch {
            if let Ok(view) = WireFrame::parse(frame) {
                flows.insert((view.source(), view.destination(), view.protocol()));
            }
        }
    }
    flows.len()
}

#[test]
fn traced_decomposition_agrees_and_each_workload_loads_its_layer() {
    let deployment = Deployment::new().unwrap();
    for workload in Workload::ALL {
        let capture = Capture::record(workload, 5, &deployment).unwrap();
        let reference = Reference::build(&capture, &deployment).unwrap();
        let frames = capture.batch_frames();
        let mut plane = TracedPlane::new(&deployment).unwrap();
        let mut spans = Spans::default();
        let warm = plane
            .drive(
                workload,
                &capture,
                &reference,
                &frames,
                frames.len(),
                &mut spans,
            )
            .unwrap();
        let before = plane.stats();
        spans.recording = true;
        let counts = plane
            .drive(
                workload,
                &capture,
                &reference,
                &frames,
                frames.len(),
                &mut spans,
            )
            .unwrap();
        let after = plane.stats();
        let again = plane
            .drive(
                workload,
                &capture,
                &reference,
                &frames,
                frames.len(),
                &mut spans,
            )
            .unwrap();
        let name = workload.name();
        assert_eq!(
            warm.mismatches + counts.mismatches + again.mismatches,
            0,
            "{name}: decomposition disagrees"
        );
        assert_eq!(counts.tally, again.tally, "{name}: cycles differ");
        assert_eq!(counts.tally.frames, capture.len() as u64);

        let hits = (after.flow_hits - before.flow_hits) as f64;
        let misses = (after.flow_misses - before.flow_misses) as f64;
        let evictions = (after.flow_evictions - before.flow_evictions) as f64;
        match workload {
            Workload::SteadyFleet => {
                assert!(
                    hits / (hits + misses) >= 0.99,
                    "{name}: hit ratio {}",
                    hits / (hits + misses)
                );
                assert_eq!(counts.tally.failed(), 0);
            }
            Workload::ConnectStorm => {
                assert_eq!(hits, 0.0, "{name}: flow hits");
                assert!(
                    (evictions - misses).abs() <= 0.01 * misses,
                    "{name}: {evictions} evictions for {misses} inserts"
                );
                assert!(
                    after.dropped_wire > before.dropped_wire,
                    "{name}: no wire errors"
                );
                assert_eq!(counts.tally.failed(), 0);
            }
            Workload::PolicyChurn => {
                let per_commit = misses / counts.transactions.len() as f64;
                let flows = live_flows(&capture) as f64;
                assert!(
                    (per_commit / flows - 1.0).abs() <= 0.1,
                    "{name}: {per_commit} misses per commit, {flows} live flows"
                );
                // The known fail-open after a commit shows, and repeats.
                assert!(
                    counts.tally.fail_open > 0,
                    "{name}: the post-commit fail-open vanished"
                );
            }
        }
    }
}

#[test]
fn no_hash_rule_matches_a_tag_in_the_database() {
    let deployment = Deployment::new().unwrap();
    let db = SignatureDatabase::from_json(&deployment.db_json).unwrap();
    let tags: HashSet<&str> = db.iter().map(|(tag, _)| tag).collect();
    assert!(!tags.is_empty());
    // The deployment's rules and the ones churn transactions add.
    for i in 0..2 * HASH_RULES {
        let rule = hash_rule(i);
        assert!(
            !tags.contains(rule.target()),
            "hash rule {i} names a deployed app"
        );
    }
}
