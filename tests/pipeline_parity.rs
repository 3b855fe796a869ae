//! Pipeline parity: `Database::execute` and `Session::query` hand their
//! translated plans to the same optimize → lower → execute → record
//! pipeline.  On the same data, optimizer mode, and (serial) engine they
//! must agree on everything that pipeline decides and records, so any
//! future divergence between the two paths fails here.

use excess_bench::server_mix::{server_mix_db, MIX};
use excess_core::canon::canonical_form;
use excess_db::{OptimizerMode, QueryRecord, VersionedDb};

fn last_record(records: impl Iterator<Item = QueryRecord>) -> QueryRecord {
    records.last().expect("the pipeline records every query")
}

fn phase_names(phases: &[(&'static str, u64)]) -> Vec<&'static str> {
    phases.iter().map(|(name, _)| *name).collect()
}

fn assert_parity(mode: OptimizerMode) {
    let mut db = server_mix_db(60);
    db.set_threads(1);
    db.set_optimizer_mode(mode);
    let vdb = VersionedDb::new(db.clone());
    let mut session = vdb.begin_session();
    session.optimizer_mode = mode;

    for (label, src) in MIX {
        let value = db
            .execute(src)
            .unwrap_or_else(|e| panic!("{label}: database: {e}"));
        let db_record = last_record(db.telemetry().recorder.records().cloned());

        let before = session.metrics().counters;
        let out = session
            .query(src)
            .unwrap_or_else(|e| panic!("{label}: session: {e}"));
        let session_counters = session.metrics().counters.diff(&before);
        let session_record = last_record(session.telemetry().recorder.records().cloned());

        assert_eq!(
            canonical_form(&value, db.store()),
            session.canon(&out.value),
            "{label} ({mode:?}): canonical values differ"
        );
        assert_eq!(
            db_record.plan_hash, out.plan_hash,
            "{label} ({mode:?}): plan hashes differ"
        );
        assert_eq!(
            phase_names(&db_record.phase_us),
            phase_names(&out.phase_us),
            "{label} ({mode:?}): phases differ"
        );
        assert_eq!(
            db_record.kernels, session_record.kernels,
            "{label} ({mode:?}): kernel choices differ"
        );
        assert_eq!(
            db_record.engine, session_record.engine,
            "{label} ({mode:?}): engines differ"
        );
        assert_eq!(
            db.last_counters(),
            session_counters,
            "{label} ({mode:?}): counters differ"
        );
    }
    drop(session);
    vdb.shutdown();
}

#[test]
fn database_and_session_agree_under_memo_search() {
    assert_parity(OptimizerMode::Memo);
}

#[test]
fn database_and_session_agree_under_greedy_search() {
    assert_parity(OptimizerMode::Greedy);
}
