//! The query pipeline shared by [`Database`](crate::Database) and
//! [`Session`](crate::Session): optimize → property rewrites → lower →
//! execute → record.
//!
//! A run works over a borrowed read-only [`View`] (type registry, catalog,
//! statistics), the object store evaluation may mint temporaries in, and
//! the [`RunState`] it records into.  A `Database` passes its own store
//! and its options; a `Session` passes its scratch store and runs
//! serially, row at a time, without property rewrites or spans.  Whatever
//! the caller, the same code picks the plan, runs it, and records it, so
//! the two paths cannot drift apart.

use crate::catalog::DbCatalog;
use crate::error::DbResult;
use crate::metrics::SessionMetrics;
use crate::stats::collect_object_statistics;
use excess_core::counters::Counters;
use excess_core::eval::EvalCtx;
use excess_core::expr::Expr;
use excess_core::physical::{evaluate_physical, PhysOp, PhysicalPlan};
use excess_core::profile::{path_string, NodePath, Profile};
use excess_exec::{run_parallel_plan, ExecConfig, ExecReport};
use excess_optimizer::{
    annotate_columnar, apply_extent_indexes_journaled, cost_of, elide_proven_guards,
    estimate_physical, lower_journaled, JournalStep, MemoSnapshot, Optimizer, OptimizerMode,
    RewriteJournal, RuleCtx, Statistics, COLUMNAR_RULE, REOPTIMIZE_RULE,
};
use excess_telemetry::{fnv1a64, QueryRecord, QueryTrace, Span, Telemetry};
use excess_types::{ObjectStore, TypeRegistry, Value};
use std::time::Instant;

/// What one query run produced: the value plus the provenance a server
/// wants to report per response.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The program's last `retrieve` result (`true` for programs of only
    /// `range of` declarations).
    pub value: Value,
    /// Result occurrences (multiset cardinality / array length / 1).
    pub rows: u64,
    /// The generation the session was pinned to (0 for a [`Database`](crate::Database)).
    pub generation: u64,
    /// Fingerprint of the lowered plan (0 for declaration-only programs).
    pub plan_hash: u64,
    /// Per-phase wall time, in order.
    pub phase_us: Vec<(&'static str, u64)>,
    /// Total wall time across the phases.
    pub total_us: u64,
}

/// One feedback-driven re-optimization: what triggered it, which
/// statistics were corrected from the observed cardinalities, and how the
/// re-derived plan compares to the one it replaces.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// Label of the query whose plan was re-derived.
    pub label: String,
    /// The worst recorded q-error that triggered the re-optimization.
    pub trigger_q_error: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// `(extent, rows_before, rows_after)` for every corrected object.
    pub corrected: Vec<(String, f64, f64)>,
    /// Estimated cost of the old plan under the corrected statistics.
    pub cost_before: f64,
    /// Estimated cost of the re-derived plan (corrected statistics).
    pub cost_after: f64,
    /// Physical plan hash before the re-lower.
    pub plan_hash_before: u64,
    /// Physical plan hash after the re-lower.
    pub plan_hash_after: u64,
    /// The re-derived logical plan.
    pub plan: Expr,
}

impl ReoptReport {
    /// Human-readable block, as `explain_analyze`, the REPL, and the
    /// server's `.reoptimize` print it.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "re-optimization: q-error {:.1} > threshold {:.1}",
            self.trigger_q_error, self.threshold
        );
        for (name, before, after) in &self.corrected {
            let _ = writeln!(out, "  corrected {name}: rows {before:.0} -> {after:.0}");
        }
        let _ = writeln!(
            out,
            "  cost {:.0} -> {:.0}; plan hash {:016x} -> {:016x}",
            self.cost_before, self.cost_after, self.plan_hash_before, self.plan_hash_after
        );
        out
    }
}

/// The read-only state a run plans and evaluates against.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    pub(crate) registry: &'a TypeRegistry,
    pub(crate) catalog: &'a DbCatalog,
    pub(crate) stats: &'a Statistics,
}

impl<'a> View<'a> {
    fn rule_ctx(&self) -> RuleCtx<'a> {
        RuleCtx {
            registry: self.registry,
            schemas: self.catalog,
        }
    }
}

/// Per-run switches.  Spans are not among them: they follow the
/// recording state's `telemetry.spans_enabled`.
#[derive(Clone, Copy)]
pub(crate) struct RunOptions {
    /// Run the mode-dispatched plan search (and extent-index substitution).
    pub(crate) optimize: bool,
    /// Memoized search or the legacy greedy pass.
    pub(crate) mode: OptimizerMode,
    /// Property-licensed rewrites after optimization, guard elision after
    /// lowering.
    pub(crate) property_rewrites: bool,
    /// Upgrade chunk-safe kernels to their columnar variants (the caller
    /// has encoded the chunks).
    pub(crate) columnar: bool,
    /// Serial (`workers == 1`) or partition-parallel execution.
    pub(crate) exec: ExecConfig,
}

/// Everything runs record into, across runs.
#[derive(Clone, Default)]
pub(crate) struct RunState {
    pub(crate) metrics: SessionMetrics,
    pub(crate) telemetry: Telemetry,
    /// Memo picture of the last memo-mode optimization.
    pub(crate) last_memo: Option<MemoSnapshot>,
    /// Label, optimized logical plan, and physical plan hash of the last
    /// query — what a re-optimization re-derives.
    pub(crate) last_plan: Option<(String, Expr, u64)>,
    /// Work counters of the most recent evaluation.
    pub(crate) last_counters: Counters,
    /// Execution journal of the most recent parallel evaluation.
    pub(crate) last_exec_report: Option<ExecReport>,
}

/// Occurrences in a query result (what the flight recorder reports as
/// `rows`): multiset cardinality with duplicates, array length, 1 for
/// scalars and tuples.
fn value_rows(v: &Value) -> u64 {
    match v {
        Value::Set(s) => s.len(),
        Value::Array(a) => a.len() as u64,
        _ => 1,
    }
}

/// Deterministic fingerprint of a lowered plan: FNV-1a over the debug
/// rendering (logical tree plus every kernel choice), so the same plan
/// hashes identically across runs and sessions.
pub(crate) fn plan_hash_of(plan: &PhysicalPlan) -> u64 {
    fnv1a64(format!("{plan:?}").as_bytes())
}

/// The extent a plan node reads: walk the logical tree to the node at
/// `path` (profiler child indexing) and take the leftmost named object
/// under it, if any — how feedback observations get attributed to a
/// concrete [`Statistics`] entry.
fn extent_at(plan: &Expr, path: &[usize]) -> Option<String> {
    fn first_named(e: &Expr) -> Option<String> {
        if let Expr::Named(n) = e {
            return Some(n.clone());
        }
        e.children().into_iter().find_map(first_named)
    }
    let mut node = plan;
    for &i in path {
        node = *node.children().get(i)?;
    }
    first_named(node)
}

/// An empty journal that starts and ends at `cost`.
fn journal_at(cost: f64, plans_enumerated: usize) -> RewriteJournal {
    RewriteJournal {
        steps: Vec::new(),
        refused: Vec::new(),
        plans_enumerated,
        max_plans: 0,
        initial_cost: cost,
        final_cost: cost,
    }
}

/// Rule-based optimization plus extent-index substitution, dispatched on
/// `mode` and journaled: every accepted rule firing (memo steps carry the
/// group id as their path), the plans-enumerated tally, and every rewrite
/// the soundness gate refused.  In memo mode the plan is explored as
/// group transformations seeded with the greedy trajectory, and the
/// memo's picture is kept as `last_memo`.  In greedy mode the legacy pass
/// runs on both the plan and its desugared form (several fusion rules
/// only match the primitive shapes); the cheaper result wins.  The
/// journal is folded into the session metrics.
pub(crate) fn optimize(
    view: View<'_>,
    mode: OptimizerMode,
    state: &mut RunState,
    plan: &Expr,
) -> (Expr, RewriteJournal) {
    let ctx = view.rule_ctx();
    let opt = Optimizer::standard();
    let (best, mut journal) = match mode {
        OptimizerMode::Memo => {
            let (best, run) = opt.optimize_memo_journaled(plan, &ctx, view.stats);
            state.last_memo = Some(run.snapshot);
            (best.plan, run.journal)
        }
        OptimizerMode::Greedy => {
            let (a, ja) = opt.optimize_greedy_journaled(plan, &ctx, view.stats);
            let (b, jb) = opt.optimize_greedy_journaled(&plan.desugar(), &ctx, view.stats);
            if b.cost < a.cost {
                (b.plan, jb)
            } else {
                (a.plan, ja)
            }
        }
    };
    let best = apply_extent_indexes_journaled(&best, view.stats, &ctx, &mut journal);
    state.metrics.record_journal(&journal);
    (best, journal)
}

/// Property-licensed rewrites against the stored data, journaled under
/// `property-licensed` and folded into the session metrics.
pub(crate) fn property_rewrites(
    view: View<'_>,
    state: &mut RunState,
    plan: &Expr,
) -> (Expr, RewriteJournal) {
    let mut journal = journal_at(cost_of(plan, view.stats), 0);
    let out = excess_optimizer::apply_property_rewrites_journaled(
        plan,
        view.catalog,
        view.stats,
        &view.rule_ctx(),
        &mut journal,
    );
    state.metrics.record_journal(&journal);
    (out, journal)
}

/// Lower under the view's statistics, journaled as `physical-lowering`.
/// With `columnar`, chunk-safe kernel choices are upgraded to their
/// `Columnar*` variants against the chunks the catalog holds: one
/// accepted `columnar-lowering` step when anything upgraded, one refused
/// step per candidate that kept its row kernel.  Both journals are folded
/// into the session metrics; the returned journal is their concatenation.
pub(crate) fn lower(
    view: View<'_>,
    state: &mut RunState,
    plan: &Expr,
    columnar: bool,
) -> (PhysicalPlan, RewriteJournal) {
    let mut journal = journal_at(cost_of(plan, view.stats), 1);
    let mut pp = lower_journaled(plan, view.stats, &mut journal);
    state.metrics.record_journal(&journal);
    if columnar {
        let before = journal.final_cost;
        let (accepted, refused) = annotate_columnar(&mut pp, view.catalog);
        let mut delta = journal_at(before, 0);
        delta.refused = refused;
        if !accepted.is_empty() {
            let after = estimate_physical(&pp, view.stats).cost;
            delta.steps.push(JournalStep {
                rule: COLUMNAR_RULE,
                path: Vec::new(),
                cost_before: before,
                cost_after: after,
                plan: plan.clone(),
            });
            delta.final_cost = after;
        }
        state.metrics.record_journal(&delta);
        journal.steps.extend(delta.steps);
        journal.refused.extend(delta.refused);
        journal.final_cost = delta.final_cost;
    }
    (pp, journal)
}

/// Elide proven-redundant hash-join runtime guards, counting each elision
/// under `lowering.guard_elisions`.
pub(crate) fn elide_guards(
    view: View<'_>,
    state: &mut RunState,
    physical: &mut PhysicalPlan,
) -> Vec<(NodePath, String)> {
    let elided = elide_proven_guards(physical, view.catalog);
    state
        .telemetry
        .registry
        .add("lowering.guard_elisions", elided.len() as u64);
    elided
}

/// Evaluate on the serial engine (profiled on request) and record the
/// run's counters.
pub(crate) fn run_serial(
    view: View<'_>,
    store: &mut ObjectStore,
    state: &mut RunState,
    plan: &PhysicalPlan,
    profile: bool,
) -> DbResult<(Value, Option<Profile>)> {
    let started = Instant::now();
    let (out, counters, profile) = {
        let mut ctx = EvalCtx::new(view.registry, store, view.catalog);
        if profile {
            ctx.enable_tracing();
        }
        let out = evaluate_physical(plan, &mut ctx);
        (out, ctx.counters, ctx.take_profile())
    };
    state.last_counters = counters;
    state.metrics.record_query(counters, started.elapsed());
    Ok((out?, profile))
}

/// Evaluate on the partition-parallel engine under `exec` (profiled on
/// request) and record the run's counters and execution journal.  The
/// engine partitions by the plan's kernel choices; nodes without one
/// (a [`PhysicalPlan::passthrough`] plan) probe their inputs.
pub(crate) fn run_parallel_engine(
    view: View<'_>,
    store: &mut ObjectStore,
    state: &mut RunState,
    plan: &PhysicalPlan,
    exec: ExecConfig,
    profile: bool,
) -> DbResult<(Value, Option<Profile>)> {
    let started = Instant::now();
    let schemas = Some(view.catalog as &dyn excess_core::infer::SchemaCatalog);
    let out = run_parallel_plan(
        plan,
        view.registry,
        store,
        view.catalog,
        schemas,
        exec,
        profile,
    );
    let wall = started.elapsed();
    let out = out?;
    state.last_counters = out.counters;
    // A whole-plan serial fallback is accounted as a serial query.
    let effective_workers = if out.report.worker_stats.is_empty() {
        1
    } else {
        out.report.workers
    };
    state
        .metrics
        .record_query_mode(out.counters, wall, effective_workers);
    state.last_exec_report = Some(out.report);
    Ok((out.value, out.profile))
}

/// Feed every lowered node with an estimate and a measured profile entry
/// into the misestimation log.
pub(crate) fn observe_nodes(
    state: &mut RunState,
    physical: &PhysicalPlan,
    profile: &Profile,
    plan_hash: u64,
) {
    for (path, choice) in &physical.choices {
        let (Some(est), Some(node)) = (choice.est_rows, profile.node(path)) else {
            continue;
        };
        state.telemetry.feedback.observe(
            plan_hash,
            &path_string(path),
            &choice.op.to_string(),
            extent_at(&physical.logical, path).as_deref(),
            est,
            node.rows_out as f64,
        );
    }
}

/// Turn a profile's preorder node list into nested operator spans.
///
/// Each profile node becomes one `op:` span carrying its *self* counters
/// as numeric attributes, so summing any counter over the returned
/// subtrees telescopes exactly to the profile total — the PR 1 invariant
/// (`sum_of_self_counters() == total`) re-exposed on the span tree.
/// Nesting follows path prefixes; merged parallel profiles (several
/// fragment roots) yield several root spans.  Start offsets are not
/// recorded per node by the profiler, so children share the execute
/// phase's start and carry their `total_wall` as duration — containment
/// (child ⊆ parent interval) still holds because a child's total wall is
/// bounded by its parent's.
fn profile_spans(profile: &Profile, start_us: u64) -> Vec<Span> {
    fn is_ancestor(a: &[usize], b: &[usize]) -> bool {
        b.len() > a.len() && b[..a.len()] == *a
    }
    fn pop_into(stack: &mut Vec<(NodePath, Span)>, roots: &mut Vec<Span>) {
        let (_, done) = stack.pop().expect("caller checked non-empty");
        match stack.last_mut() {
            Some((_, parent)) => parent.children.push(done),
            None => roots.push(done),
        }
    }
    let mut roots: Vec<Span> = Vec::new();
    let mut stack: Vec<(NodePath, Span)> = Vec::new();
    for n in &profile.nodes {
        let mut span = Span::new(
            format!("op:{} {}", n.label, path_string(&n.path)),
            "op",
            start_us,
            n.total_wall.as_micros() as u64,
        )
        .with_meta("path", path_string(&n.path))
        .with_num("calls", n.calls)
        .with_num("rows_in", n.rows_in)
        .with_num("rows_out", n.rows_out)
        .with_num("self_us", n.self_wall.as_micros() as u64);
        for (name, v) in n.self_counters.named_fields() {
            span = span.with_num(name, v);
        }
        while matches!(stack.last(), Some((p, _)) if !is_ancestor(p, &n.path)) {
            pop_into(&mut stack, &mut roots);
        }
        stack.push((n.path.clone(), span));
    }
    while !stack.is_empty() {
        pop_into(&mut stack, &mut roots);
    }
    roots
}

/// Run one translated plan through the pipeline: optimize (when enabled)
/// → property rewrites (when enabled) → lower (columnar upgrade and guard
/// elision when enabled) → execute on the serial or parallel engine →
/// record.  `pre_phases` carries the phases timed before this call
/// (parse, translate).
///
/// Recording is always on: registry counters and latency histograms, a
/// flight-recorder [`QueryRecord`] labelled `label`, misestimation
/// feedback, and `last_plan` for a later re-optimization.  Feedback is
/// root-level unless spans are on; then execution is profiled, every
/// lowered node with an estimate is observed, and a full [`QueryTrace`]
/// is assembled.
pub(crate) fn run(
    view: View<'_>,
    store: &mut ObjectStore,
    state: &mut RunState,
    opts: RunOptions,
    label: &str,
    plan: &Expr,
    pre_phases: &[(&'static str, u64)],
) -> DbResult<QueryOutcome> {
    let spans = state.telemetry.spans_enabled;
    // The trace timeline starts at the first pre-phase: pre-phase spans
    // occupy [0, base) and everything timed here is offset by `base`.
    let base: u64 = pre_phases.iter().map(|(_, us)| us).sum();
    let origin = Instant::now();
    let now = || base + origin.elapsed().as_micros() as u64;
    let mut phases: Vec<(&'static str, u64)> = pre_phases.to_vec();
    let mut phase_spans: Vec<Span> = Vec::new();
    if spans {
        let mut cursor = 0u64;
        for (name, us) in pre_phases {
            phase_spans.push(Span::new(*name, "phase", cursor, *us));
            cursor += us;
        }
        // Infer + verify run only under spans: translation has already
        // inferred, and the parallel engine re-verifies on its own —
        // these spans exist to show the layers, not to gate execution.
        let t0 = now();
        let inferred = excess_core::infer::infer_closed(plan, view.catalog, view.registry);
        let dur = now().saturating_sub(t0);
        phases.push(("infer", dur));
        let mut s = Span::new("infer", "phase", t0, dur);
        if let Ok(ty) = &inferred {
            s = s.with_meta("schema", ty.to_string());
        }
        phase_spans.push(s);

        let t0 = now();
        let report = excess_core::verify::verify(plan, view.catalog, view.registry);
        let dur = now().saturating_sub(t0);
        phases.push(("verify", dur));
        phase_spans.push(
            Span::new("verify", "phase", t0, dur)
                .with_num("errors", report.error_count() as u64)
                .with_num("lints", report.lint_count() as u64),
        );
    }

    // Optimize (journaled), with one child span per accepted and refused
    // rewrite.
    let plan = if opts.optimize {
        let t0 = now();
        let (optimized, journal) = optimize(view, opts.mode, state, plan);
        let dur = now().saturating_sub(t0);
        phases.push(("optimize", dur));
        if spans {
            let mut s = Span::new("optimize", "phase", t0, dur)
                .with_num("plans_enumerated", journal.plans_enumerated as u64)
                .with_num("rewrites_applied", journal.steps.len() as u64)
                .with_num("rewrites_refused", journal.refused.len() as u64);
            for step in &journal.steps {
                s.children.push(
                    Span::new(format!("rewrite:{}", step.rule), "rewrite", t0, 0)
                        .with_meta("path", path_string(&step.path))
                        .with_meta("cost_before", format!("{:.0}", step.cost_before))
                        .with_meta("cost_after", format!("{:.0}", step.cost_after)),
                );
            }
            for refused in &journal.refused {
                s.children.push(
                    Span::new(format!("refused:{}", refused.rule), "rewrite", t0, 0)
                        .with_meta("path", path_string(&refused.path))
                        .with_meta("reason", refused.reason.clone()),
                );
            }
            phase_spans.push(s);
        }
        optimized
    } else {
        plan.clone()
    };

    // Property-licensed rewrites: simplifications licensed by proofs from
    // the stored data rather than cost estimates.
    let plan = if opts.property_rewrites {
        let t0 = now();
        let (rewritten, journal) = property_rewrites(view, state, &plan);
        let dur = now().saturating_sub(t0);
        phases.push(("properties", dur));
        if spans {
            let mut s = Span::new("properties", "phase", t0, dur)
                .with_num("rewrites_applied", journal.steps.len() as u64)
                .with_num("rewrites_refused", journal.refused.len() as u64);
            for step in &journal.steps {
                s.children.push(
                    Span::new(format!("rewrite:{}", step.rule), "rewrite", t0, 0)
                        .with_meta("path", path_string(&step.path)),
                );
            }
            phase_spans.push(s);
        }
        rewritten
    } else {
        plan
    };

    // Lower (journaled), with one child span per exercised kernel choice.
    let t0 = now();
    let (mut physical, _) = lower(view, state, &plan, opts.columnar);
    if opts.property_rewrites {
        // Guard elision: substitute the analysis's proofs for the hash
        // kernel's per-occurrence key checks.
        let _ = elide_guards(view, state, &mut physical);
    }
    let dur = now().saturating_sub(t0);
    phases.push(("lower", dur));
    if spans {
        let mut s = Span::new("lower", "phase", t0, dur);
        for (path, choice) in &physical.choices {
            if matches!(choice.op, PhysOp::PassThrough) {
                continue;
            }
            let mut child = Span::new(
                format!("choose:{} {}", path_string(path), choice.op),
                "lower",
                t0,
                0,
            )
            .with_meta("why", choice.why.clone());
            if let Some(est) = choice.est_rows {
                child = child.with_meta("est_rows", format!("{est:.0}"));
            }
            s.children.push(child);
        }
        phase_spans.push(s);
    }
    let plan_hash = plan_hash_of(&physical);
    state.last_plan = Some((label.to_string(), plan, plan_hash));

    // Execute: profiled when spans are on (the profile becomes the
    // operator span subtree and feeds the misestimation log).
    let exec_start = now();
    let parallel = opts.exec.is_parallel();
    let (value, profile) = if parallel {
        run_parallel_engine(view, store, state, &physical, opts.exec, spans)?
    } else {
        run_serial(view, store, state, &physical, spans)?
    };
    let exec_dur = now().saturating_sub(exec_start);
    phases.push(("execute", exec_dur));

    let engine = if parallel {
        format!("parallel({})", opts.exec.workers)
    } else {
        "serial".to_string()
    };
    let rows = value_rows(&value);

    // Always-on: registry counters + histograms + flight recorder.
    let telemetry = &mut state.telemetry;
    let total_us: u64 = phases.iter().map(|(_, us)| us).sum();
    telemetry.registry.inc("queries");
    telemetry.registry.inc(if parallel {
        "queries.parallel"
    } else {
        "queries.serial"
    });
    telemetry.registry.observe("query_us", total_us);
    for (name, us) in &phases {
        telemetry.registry.observe(&format!("phase.{name}_us"), *us);
    }
    for (name, v) in state.last_counters.named_fields() {
        telemetry.registry.add(&format!("work.{name}"), v);
    }
    let kernels: Vec<(String, String)> = physical
        .choices
        .iter()
        .filter(|(_, c)| !matches!(c.op, PhysOp::PassThrough))
        .map(|(path, c)| (path_string(path), c.op.to_string()))
        .collect();
    let root = physical.choices.get(&Vec::new());
    let root_est = root.and_then(|c| c.est_rows);
    telemetry.recorder.record(QueryRecord {
        query: label.to_string(),
        plan_hash,
        engine: engine.clone(),
        rows,
        phase_us: phases.clone(),
        kernels,
        est_rows: root_est,
        actual_rows: Some(rows),
    });

    // Misestimation feedback — the signal a re-optimization acts on: per
    // node from the profile, or the root's estimate vs the result size.
    match &profile {
        Some(profile) => observe_nodes(state, &physical, profile, plan_hash),
        None => {
            if let (Some(root), Some(est)) = (root, root_est) {
                telemetry.feedback.observe(
                    plan_hash,
                    "root",
                    &root.op.to_string(),
                    extent_at(&physical.logical, &[]).as_deref(),
                    est,
                    rows as f64,
                );
            }
        }
    }

    // Opt-in: the assembled span tree.
    if spans {
        if let Some(profile) = &profile {
            let mut exec_span = Span::new("execute", "phase", exec_start, exec_dur)
                .with_meta("engine", engine.clone())
                .with_num("rows", rows);
            if let (true, Some(report)) = (parallel, &state.last_exec_report) {
                for w in &report.worker_stats {
                    exec_span.children.push(
                        Span::new(
                            format!("worker:{}", w.worker),
                            "worker",
                            exec_start + w.started.as_micros() as u64,
                            w.finished.saturating_sub(w.started).as_micros() as u64,
                        )
                        .on_lane(w.worker as u32 + 1)
                        .with_num("tasks", w.tasks)
                        .with_num("occurrences", w.occurrences)
                        .with_num("busy_us", w.busy.as_micros() as u64),
                    );
                }
            }
            exec_span
                .children
                .extend(profile_spans(profile, exec_start));
            phase_spans.push(exec_span);
        }
        let mut root = Span::new("query", "phase", 0, total_us).with_meta("engine", engine.clone());
        root.children = phase_spans;
        state.telemetry.last_trace = Some(QueryTrace {
            query: label.to_string(),
            engine,
            plan_hash,
            root,
        });
    }

    Ok(QueryOutcome {
        value,
        rows,
        generation: 0,
        plan_hash,
        phase_us: phases,
        total_us,
    })
}

/// Re-derive the last query's plan when its worst recorded q-error
/// exceeds `threshold`, correcting `stats` first.  The correction rule:
/// an observation at a scan-shaped node snaps the extent's row count to
/// the observed cardinality ([`Statistics::observe_extent_rows`]); an
/// observation anywhere else — a group, a distinct, a join, whose output
/// size says nothing about the extent's — re-collects the extent from
/// `catalog` and `store`.  Then the mode-dispatched search and the
/// lowering re-run under the corrected statistics, and the re-derivation
/// is journaled as one `reoptimize` step.
///
/// `None` when no query has run, nothing past the threshold was observed
/// for its plan, or the statistics were never collected (shape defaults
/// have no baseline worth correcting).
pub(crate) fn reoptimize(
    registry: &TypeRegistry,
    catalog: &DbCatalog,
    store: &ObjectStore,
    stats: &mut Statistics,
    mode: OptimizerMode,
    state: &mut RunState,
    threshold: f64,
) -> Option<ReoptReport> {
    if stats.objects.is_empty() {
        return None;
    }
    let (label, plan, plan_hash) = state.last_plan.clone()?;
    let mut trigger = 1.0f64;
    let mut fixes: Vec<(String, bool, f64)> = Vec::new();
    for e in state.telemetry.feedback.entries() {
        if e.plan_hash != plan_hash || e.max_q_error <= threshold {
            continue;
        }
        trigger = trigger.max(e.max_q_error);
        let Some(extent) = &e.extent else { continue };
        if fixes.iter().any(|(n, _, _)| n == extent) {
            continue;
        }
        fixes.push((extent.clone(), e.op.contains("Scan"), e.mean_actual()));
    }
    if fixes.is_empty() {
        return None;
    }
    let mut corrected = Vec::new();
    for (extent, is_scan, actual) in fixes {
        let before = stats.object(&extent).rows;
        if is_scan {
            stats.observe_extent_rows(&extent, actual);
        } else {
            collect_object_statistics(catalog, store, &extent, stats);
        }
        corrected.push((extent.clone(), before, stats.object(&extent).rows));
    }
    let view = View {
        registry,
        catalog,
        stats,
    };
    let cost_before = cost_of(&plan, stats);
    let (new_plan, _) = optimize(view, mode, state, &plan);
    let (physical, _) = lower(view, state, &new_plan, false);
    let cost_after = cost_of(&new_plan, stats);
    let new_hash = plan_hash_of(&physical);
    // One `reoptimize` journal step for the re-derivation itself (the
    // inner optimize and lower recorded their own journals above).
    let mut journal = journal_at(cost_before, 1);
    journal.steps.push(JournalStep {
        rule: REOPTIMIZE_RULE,
        path: Vec::new(),
        cost_before,
        cost_after,
        plan: new_plan.clone(),
    });
    journal.final_cost = cost_after;
    state.metrics.record_journal(&journal);
    state.telemetry.registry.inc("reoptimize.triggered");
    state.telemetry.recorder.record(QueryRecord {
        query: format!("reoptimize({label})"),
        plan_hash: new_hash,
        engine: "reoptimize".to_string(),
        rows: 0,
        phase_us: Vec::new(),
        kernels: Vec::new(),
        est_rows: None,
        actual_rows: None,
    });
    state.last_plan = Some((label.clone(), new_plan.clone(), new_hash));
    Some(ReoptReport {
        label,
        trigger_q_error: trigger,
        threshold,
        corrected,
        cost_before,
        cost_after,
        plan_hash_before: plan_hash,
        plan_hash_after: new_hash,
        plan: new_plan,
    })
}
