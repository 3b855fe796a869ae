//! Profiling and session metrics under the partition-parallel engine.
//!
//! The profiler's telescope invariant — the sum of every node's *self*
//! counters equals the query totals — must survive the engine's
//! fragment-plan merging.  The session metrics must record the
//! serial/parallel query split and the worker count, and the parallel
//! path must be reachable through the surface language
//! (`Database::execute`).

mod common;

use excess::algebra::expr::Expr;
use excess::db::metrics_json;

fn profiled_plans() -> Vec<Expr> {
    let s = || Expr::named("S");
    vec![
        // Chunked selection.
        s().select(common::grp_pred()),
        // GRP exchange + hash DE.
        s().group_by(Expr::input().extract("grp")).dup_elim(),
        // Pipeline: map, union, dedup.
        s().set_apply(Expr::input().extract("name"))
            .add_union(Expr::named("T").set_apply(Expr::input().extract("name")))
            .dup_elim(),
    ]
}

#[test]
fn precise_profiles_telescope_to_query_totals() {
    for plan in profiled_plans() {
        let mut db = common::database();
        db.set_threads(3);
        let (_, profile) = db.run_plan_parallel_profiled(&plan).unwrap();
        assert_eq!(
            profile.sum_of_self_counters(),
            db.last_counters(),
            "precise profile of {plan} does not telescope"
        );
        assert_eq!(profile.total, db.last_counters());
    }
}

#[test]
fn parallel_profiled_counters_match_serial_profiled() {
    for plan in profiled_plans() {
        let mut serial_db = common::database();
        let (serial_value, _) = serial_db.run_plan_profiled(&plan).unwrap();

        let mut db = common::database();
        db.set_threads(3);
        let (value, _) = db.run_plan_parallel_profiled(&plan).unwrap();
        assert_eq!(serial_value, value, "{plan}");
        assert_eq!(
            serial_db.last_counters(),
            db.last_counters(),
            "profiling must not change the work accounting of {plan}"
        );
    }
}

#[test]
fn session_metrics_split_serial_and_parallel_queries() {
    let mut db = common::database();
    let plan = Expr::named("S").select(common::grp_pred());

    db.run_plan(&plan).unwrap();
    db.set_threads(4);
    db.run_plan_parallel(&plan).unwrap();
    db.run_plan_parallel(&plan).unwrap();

    let m = db.metrics();
    assert_eq!(m.queries, 3);
    assert_eq!(m.serial_queries, 1);
    assert_eq!(m.parallel_queries, 2);
    assert_eq!(m.workers, 4);
    let text = m.to_string();
    assert!(
        text.contains("execution: 1 serial, 2 parallel (4 workers)"),
        "{text}"
    );
    let json = metrics_json(m);
    assert!(json.contains("\"parallel_queries\":2"), "{json}");
    assert!(json.contains("\"workers\":4"), "{json}");
}

#[test]
fn whole_plan_fallbacks_are_recorded_as_serial_queries() {
    // A plan the engine refuses to partition (it mints OIDs) runs — and
    // is accounted — serially even under a parallel config.
    let mut db = common::database();
    db.set_threads(4);
    let plan = Expr::named("OneTup").make_ref("Person2Cell").deref();
    db.run_plan_parallel(&plan).unwrap();
    assert_eq!(db.metrics().parallel_queries, 0);
    assert_eq!(db.metrics().serial_queries, 1);
}

#[test]
fn execute_routes_retrieves_through_the_parallel_engine() {
    let mut db = common::database();
    db.set_threads(3);
    let out = db
        .execute("retrieve (P.name) from P in S where P.grp = 1")
        .unwrap();
    assert!(out.to_string().contains('n'), "{out}");
    assert_eq!(db.metrics().parallel_queries, 1);
    let report = db.last_exec_report().expect("retrieve journals execution");
    assert_eq!(report.workers, 3);
    assert!(report.parallel_nodes() > 0, "events: {:?}", report.events);

    // Updates stay serial: only retrieves route through the engine.
    db.execute("append to S (name: \"n9\", grp: 9)").unwrap();
    assert_eq!(db.metrics().parallel_queries, 1);
}
