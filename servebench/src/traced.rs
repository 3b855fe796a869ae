//! The traced run: an in-process replay of a workload's generated
//! requests that calls each layer's public entry point in the order
//! `Session::run_retrieve` and the committer call them, with a span
//! around every call.
//!
//! Reads are replayed against a real [`Session`] (its `refresh` is timed
//! as is); the committer's steps are replayed on the benchmark's own copy
//! of the master database, and the same commit is then sent through the
//! real committer so the session sees it.  Every replayed read result
//! must be canon-identical to the expected result the wire run checks
//! against.

use crate::check::Expected;
use crate::workload::{commit_text, Request, Stream, Workload};
use excess_bench::server_mix::server_mix_db;
use excess_core::canon::canonical_form;
use excess_core::counters::Counters;
use excess_core::eval::EvalCtx;
use excess_core::expr::Expr;
use excess_core::physical::{evaluate_physical, PhysOp};
use excess_db::{value_json, Database, Generation, Session, VersionedDb};
use excess_lang::ast::{QExpr, Retrieve, Stmt};
use excess_lang::parse_program;
use excess_lang::translate::{translate_retrieve, TranslateCtx};
use excess_optimizer::{
    apply_extent_indexes_journaled, cost_of, lower_journaled, Optimizer, RewriteJournal, RuleCtx,
    Statistics,
};
use excess_telemetry::fnv1a64;
use excess_types::{ObjectStore, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`lang.parse`, …) or request kind (`request`, `commit`).
    pub name: &'static str,
    /// `MIX` label of the read it belongs to.
    pub label: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the start of the run.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Spans in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, label: Option<usize>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            label,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let label = self.spans[parent].label;
        let span = self.open(name, label, Some(parent));
        let out = f();
        self.close(span);
        out
    }
}

/// Work counts summed over the replayed reads.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Reads replayed.
    pub reads: u64,
    /// Result rows over all reads.
    pub rows: u64,
    /// Plans the memo search enumerated.
    pub plans_enumerated: u64,
    /// Memo members after exploration.
    pub memo_members: u64,
    /// `HashEquiJoin` (row or columnar) choices in the lowered plans.
    pub hash_join_kernels: u64,
    /// Evaluator counters.
    pub counters: Counters,
}

/// What a traced replay recorded.
pub struct Traced {
    /// Every span.
    pub spans: Vec<Span>,
    /// Work counts.
    pub counts: Counts,
}

/// The reader side: a real session plus the private state
/// `Session::run_retrieve` keeps (session-local ranges, scratch store).
struct Reader {
    session: Session,
    ranges: HashMap<String, QExpr>,
    scratch: ObjectStore,
}

/// The committer side: the benchmark's copy of the master database and
/// the generation it last published.
struct Committer {
    master: Database,
    published: Arc<Generation>,
}

fn rows_of(v: &Value) -> u64 {
    match v {
        Value::Set(s) => s.len(),
        Value::Array(a) => a.len() as u64,
        _ => 1,
    }
}

impl Reader {
    fn refresh(&mut self, tr: &mut Tracer) {
        let span = tr.open("db.refresh", None, None);
        self.session.refresh();
        tr.close(span);
        self.scratch = (*self.session.snapshot().store).clone();
    }

    fn read(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        req: &Request,
        expected: &Expected,
    ) -> Result<(), String> {
        let snapshot = self.session.snapshot().clone();
        let stats = self.session.effective_stats();
        let root = tr.open("request", Some(req.label), None);
        let stmts = tr
            .time("lang.parse", root, || parse_program(&req.text))
            .map_err(|e| format!("parse `{}`: {e}", req.text))?;
        let mut value = None;
        for stmt in stmts {
            match stmt {
                Stmt::RangeDecl { var, source } => {
                    self.ranges.insert(var, source);
                }
                Stmt::Retrieve(r) if r.into.is_none() => {
                    value = Some(self.retrieve(tr, root, counts, &r, &snapshot, &stats)?);
                }
                _ => return Err(format!("`{}` is not a read", req.text)),
            }
        }
        let value = value.ok_or_else(|| format!("`{}` retrieves nothing", req.text))?;
        let canon = tr.time("core.canon", root, || canonical_form(&value, &self.scratch));
        let json = tr.time("db.serialize", root, || value_json(&canon));
        tr.close(root);
        counts.reads += 1;
        let want = expected.get(&req.text, snapshot.number)?;
        if json != want {
            return Err(format!(
                "traced `{}` at generation {}: expected {want}, got {json}",
                req.text, snapshot.number
            ));
        }
        Ok(())
    }

    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        root: usize,
        counts: &mut Counts,
        r: &Retrieve,
        snapshot: &Generation,
        stats: &Statistics,
    ) -> Result<Value, String> {
        let mut ranges = (*snapshot.ranges).clone();
        ranges.extend(self.ranges.clone());
        let tc = TranslateCtx {
            registry: &snapshot.registry,
            schemas: &*snapshot.catalog,
            ranges: &ranges,
            methods: &snapshot.methods,
            this_type: None,
            params: vec![],
        };
        let (plan, _) = tr
            .time("lang.translate", root, || translate_retrieve(r, &tc))
            .map_err(|e| format!("translate: {e}"))?;

        let ctx = RuleCtx {
            registry: &snapshot.registry,
            schemas: &*snapshot.catalog,
        };
        let opt = Optimizer::standard();
        let (best, run) = tr.time("optimizer.search", root, || {
            opt.optimize_memo_journaled(&plan, &ctx, stats)
        });
        counts.plans_enumerated += run.journal.plans_enumerated as u64;
        counts.memo_members += run.snapshot.members as u64;
        let mut journal = run.journal;
        let plan = tr.time("optimizer.index", root, || {
            apply_extent_indexes_journaled(&best.plan, stats, &ctx, &mut journal)
        });

        let cost = cost_of(&plan, stats);
        let mut journal = RewriteJournal {
            steps: Vec::new(),
            refused: Vec::new(),
            plans_enumerated: 1,
            max_plans: 0,
            initial_cost: cost,
            final_cost: cost,
        };
        let physical = tr.time("optimizer.lower", root, || {
            lower_journaled(&plan, stats, &mut journal)
        });
        // The session fingerprints every lowered plan.
        std::hint::black_box(fnv1a64(format!("{physical:?}").as_bytes()));
        counts.hash_join_kernels += physical
            .choices
            .values()
            .filter(|c| {
                matches!(
                    c.op,
                    PhysOp::HashEquiJoin { .. } | PhysOp::ColumnarHashEquiJoin { .. }
                )
            })
            .count() as u64;

        let scratch = &mut self.scratch;
        let (out, counters) = tr.time("core.execute", root, || {
            let mut ctx = EvalCtx::new(&snapshot.registry, scratch, &*snapshot.catalog);
            (evaluate_physical(&physical, &mut ctx), ctx.counters)
        });
        let value = out.map_err(|e| format!("execute: {e}"))?;
        counts.counters += counters;
        counts.rows += rows_of(&value);
        Ok(value)
    }
}

/// Objects a write program targets: the dirty set the committer hands to
/// its statistics refresh.
fn targets(src: &str) -> Result<BTreeSet<String>, String> {
    let stmts = parse_program(src).map_err(|e| format!("parse `{src}`: {e}"))?;
    Ok(stmts
        .into_iter()
        .filter_map(|s| match s {
            Stmt::Append { target, .. } | Stmt::Delete { target, .. } => Some(target),
            _ => None,
        })
        .collect())
}

impl Committer {
    /// Replay the committer's steps for one single-request batch.
    fn commit(&mut self, tr: &mut Tracer, src: &str) -> Result<(), String> {
        let root = tr.open("commit", None, None);
        let mut trial = tr.time("db.commit.clone", root, || self.master.clone());
        tr.time("db.commit.apply", root, || trial.execute(src))
            .map_err(|e| format!("replayed commit `{src}`: {e}"))?;
        self.master = trial;
        let touched = targets(src)?;
        tr.time("db.commit.stats", root, || {
            for name in &touched {
                self.master.refresh_stats_for(name);
            }
        });
        let prev = self.published.clone();
        let chunked: Vec<String> = prev.catalog.chunked_names().map(str::to_string).collect();
        for name in chunked {
            self.master.ensure_chunks_for(&Expr::named(&name));
        }
        let master = &self.master;
        self.published = tr.time("db.commit.publish", root, || {
            Arc::new(Generation {
                number: prev.number + 1,
                registry: prev.registry.clone(),
                catalog: Arc::new(master.catalog().clone()),
                store: Arc::new(master.store().clone()),
                ranges: prev.ranges.clone(),
                methods: prev.methods.clone(),
                stats: Arc::new(master.statistics().clone()),
            })
        });
        tr.close(root);
        Ok(())
    }
}

/// Replay `trace_passes` rounds of passes over every reader stream of `w`
/// under `seed`, with one commit after each round, and check every
/// result.
pub fn replay(w: &Workload, seed: u64, expected: &Expected) -> Result<Traced, String> {
    let base = server_mix_db(w.scale);
    let vdb = VersionedDb::new(base.clone());
    let result = replay_on(w, seed, expected, base, &vdb);
    vdb.shutdown();
    result
}

fn replay_on(
    w: &Workload,
    seed: u64,
    expected: &Expected,
    master: Database,
    vdb: &VersionedDb,
) -> Result<Traced, String> {
    let session = vdb.begin_session();
    let scratch = (*session.snapshot().store).clone();
    let mut reader = Reader {
        session,
        ranges: HashMap::new(),
        scratch,
    };
    let mut committer = Committer {
        master,
        published: vdb.current(),
    };
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut commits = 0;
    let mut commit = |tr: &mut Tracer, committer: &mut Committer| -> Result<(), String> {
        let src = commit_text(commits);
        committer.commit(tr, src)?;
        // Advance the session's database through the real committer.
        let (_, generation) = vdb.commit(src)?;
        if generation != committer.published.number {
            return Err(format!(
                "replayed generation {} but the committer published {generation}",
                committer.published.number
            ));
        }
        commits += 1;
        Ok(())
    };
    let mut streams: Vec<Stream> = (0..w.readers).map(|i| Stream::new(w, seed, i)).collect();
    for _ in 0..w.trace_passes {
        for stream in &mut streams {
            for req in stream.next_pass() {
                reader.read(&mut tr, &mut counts, &req, expected)?;
            }
            reader.refresh(&mut tr);
        }
        commit(&mut tr, &mut committer)?;
    }
    Ok(Traced {
        spans: tr.spans,
        counts,
    })
}
