//! Every workload end to end at toy size, plus the failure accounting:
//! a wrong digest, a corrupted plan body, a 4xx and a wrong solver record
//! must each count as failed.

use pm_bench::{Generation, PmdConfig, PmdService};
use pm_benchmark::http::Conn;
use pm_benchmark::serve::{plan_body, plan_matches, response_ok, Class, Stream};
use pm_benchmark::{optimal, run, Sizes, Workload};
use pm_sdwan::{ControllerId, SdWanBuilder};

const END_TO_END: [&str; 5] = ["setup_s", "rss_mb", "ops_per_s", "p50_us", "solve_p50_us"];

#[test]
fn every_workload_runs_correctly_at_toy_size() {
    for w in Workload::ALL {
        let out = run(w, &Sizes::toy(), 42, 0.3);
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            w.name(),
            out.failed,
            out.attempted
        );
        assert!(out.attempted > 0, "{}", w.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
        let json = out.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(pm_obs::json::parse(&json).is_ok(), "{json}");
    }
}

#[test]
fn the_seed_draws_the_request_stream_and_nothing_else() {
    let sets = |seed| {
        let mut stream = Stream::new(seed, 0, 32, 3);
        (0..100).map(|_| stream.next_set()).collect::<Vec<_>>()
    };
    assert_eq!(sets(5), sets(5));
    assert_ne!(sets(5), sets(6));
    let digest = |seed| {
        let out = run(Workload::Sweep1k, &Sizes::toy(), seed, 0.05);
        out.notes
            .iter()
            .find(|(k, _)| k == "rows_fnv64")
            .map(|(_, v)| v.clone())
            .expect("the sweep reports its row digest")
    };
    assert_eq!(digest(5), digest(6));
}

#[test]
fn a_wrong_digest_counts_as_failed() {
    let mut sizes = Sizes::toy();
    sizes.expected.sweep_digest = Some(0xbad);
    let out = run(Workload::Sweep1k, &sizes, 42, 0.05);
    assert_eq!(out.failed, 1);
    assert!(!out.correct());
}

#[test]
fn a_wrong_solver_record_counts_as_failed() {
    let pool = optimal::pool(1);
    let s = optimal::solve(&pool[0]);
    assert_eq!(optimal::check(&s, 0, &[]), 0);
    assert_eq!(optimal::check(&s, 0, &[(s.nodes, s.objective)]), 0);
    assert_eq!(optimal::check(&s, 0, &[(s.nodes + 1, s.objective)]), 1);
    assert_eq!(optimal::check(&s, 0, &[(s.nodes, s.objective + 0.5)]), 1);
}

#[test]
fn corrupted_plans_and_error_statuses_count_as_failed() {
    let cfg = PmdConfig {
        horizon: 2,
        jobs: 2,
        workers: 2,
        ..Default::default()
    };
    let svc = PmdService::start(
        "127.0.0.1:0",
        Box::new(move |id| {
            let net = SdWanBuilder::att_paper_setup()
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Generation::build(id, net, &cfg))
        }),
        cfg,
    )
    .expect("pmd starts");
    let gen = svc.generation();
    let mut conn = Conn::connect(svc.local_addr()).expect("connect");
    let mut body = Vec::new();
    let mut last = 0;

    for (set, class) in [
        (vec![ControllerId(1), ControllerId(4)], Class::Store),
        (
            vec![ControllerId(0), ControllerId(2), ControllerId(5)],
            Class::Solve,
        ),
    ] {
        let status = conn
            .send("POST", "/plan", &plan_body(&set), &mut body)
            .expect("request");
        assert!(response_ok(status, &body, class, &mut last));
        assert!(plan_matches(&gen, &set, &body));
        // The same response for the other class is a failure too.
        let other = if class == Class::Store {
            Class::Solve
        } else {
            Class::Store
        };
        assert!(!response_ok(status, &body, other, &mut last));

        let text = String::from_utf8(body.clone()).expect("UTF-8 body");
        let at = text.find("\"plan\": \"").expect("plan field") + "\"plan\": \"".len();
        let mut corrupted = text.into_bytes();
        corrupted[at] = if corrupted[at] == b'x' { b'y' } else { b'x' };
        assert!(!plan_matches(&gen, &set, &corrupted));
        assert!(!plan_matches(&gen, &set, b"not json"));
    }

    // A 4xx from the server: an out-of-range controller index.
    let status = conn
        .send("POST", "/plan", "{\"controllers\": [99]}", &mut body)
        .expect("request");
    assert_eq!(status, 400);
    assert!(!response_ok(status, &body, Class::Store, &mut last));
    // An older generation stamp than already seen is a failure as well.
    let mut newer = 2;
    let status = conn
        .send("POST", "/plan", &plan_body(&[ControllerId(3)]), &mut body)
        .expect("request");
    assert!(!response_ok(status, &body, Class::Store, &mut newer));
}
