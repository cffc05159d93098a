// Dsms: the top-level facade — a miniature data stream management system
// that ties every subsystem together the way Section 1 describes the
// dynamic-query-optimization loop:
//
//   register streams -> install CQL queries -> execute -> collect runtime
//   statistics (StatsTap) -> re-optimize (rules) -> migrate the running
//   plan (MigrationController, GenMig) -> keep executing.
//
// Each installed query owns its window operators, a per-stream StatsTap, a
// MigrationController hosting the physical plan, and a result sink. Input
// feeds are shared: a stream registered once can drive any number of
// queries (the source fans out). A sharded query replaces that wiring with
// a par::Coordinator whose router is one more operator on the feeds'
// sources and whose merge releases into the same kind of sink. One executor
// drives both kinds, and one checkpoint commit covers the whole engine.

#ifndef GENMIG_ENGINE_DSMS_H_
#define GENMIG_ENGINE_DSMS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/store.h"
#include "cql/parser.h"
#include "migration/controller.h"
#include "migration/trigger_policy.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/serve.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "opt/calibrator.h"
#include "opt/rules.h"
#include "opt/stats_tap.h"
#include "par/coordinator.h"
#include "plan/executor.h"

namespace genmig {

class Dsms {
 public:
  struct Options {
    /// Horizon of the per-query statistics taps (application time).
    Duration stats_horizon = 5000;
    /// Application-time period of the cost-feedback auto-migration loop
    /// (DESIGN.md "calibrate -> cost -> trigger"), the engine's only
    /// automatic migration trigger: every period the engine folds observed
    /// per-operator metrics into each query's CostCalibrator, re-costs the
    /// running plan (observed rates) against rule-enumerated candidates
    /// (calibrated estimates), feeds the cost ratio into the query's
    /// CostRatioPolicy and, when the policy fires, starts the migration in
    /// the same pass. 0 disables the loop (ReoptimizeNow() stays available).
    Duration calibration_period = 0;
    /// Both ReoptimizeNow() and the calibration loop migrate only when the
    /// running plan costs at least 1 + cost_margin times the best candidate.
    double cost_margin = 0.25;
    /// The trigger re-arms only after the ratio drops back to
    /// 1 + cost_margin - cost_hysteresis (oscillation guard).
    double cost_hysteresis = 0.1;
    /// Post-migration cool-down: no auto-triggered migration within this
    /// many application-time units of the previous one.
    Duration migration_cooldown = 5000;
    /// GenMig variant used for migrations.
    MigrationController::GenMigOptions::Variant variant =
        MigrationController::GenMigOptions::Variant::kCoalesce;
    /// Application-time period of the metric time-series sampler: every
    /// period the engine snapshots the registry (rates, queue depths, state
    /// bytes, interval end-to-end latency quantiles) into one journal event,
    /// read back by timeline(). 0 disables sampling. Every installed query
    /// (controller, boxes, migration machinery, shared windows/taps, sinks)
    /// reports to the engine-owned registry; under GENMIG_NO_METRICS the
    /// hooks compile out and the registry stays empty.
    Duration timeline_period = 0;
    /// TCP port of the embedded telemetry HTTP server (obs/serve.h), which
    /// exposes /metrics (Prometheus text exposition), /healthz and /status
    /// (JSON engine snapshot) while the engine runs. -1 (default) disables
    /// the server; 0 binds an ephemeral port — read the bound port from
    /// telemetry_port(). A failed bind is non-fatal (server stays off).
    int telemetry_port = -1;
    /// Bind address of the telemetry server. Loopback by default: telemetry
    /// is an operator port, not a public service.
    std::string telemetry_host = "127.0.0.1";
    /// In-memory ring capacity of the event journal (obs/journal.h), the
    /// engine's one store of control-rate events: trigger evaluations,
    /// migration phase transitions, disorder-delta adaptations, checkpoints
    /// and timeline samples. The journal always records; the ring bounds
    /// what journal(), tracer() and timeline() retain. Migration counts stay
    /// exact beyond it.
    size_t journal_capacity = 4096;
    /// Non-empty: every journal event is also appended to this JSONL file
    /// (one self-contained JSON object per line, line buffered), so the
    /// full history outlives the ring.
    std::string journal_spill_path;
    /// Worker shards of the parallel executor (src/par). Queries whose plans
    /// are hash-partitionable (par::AnalyzePlan) run as `shards` independent
    /// plan replicas on their own threads, recombined by a deterministic
    /// temporal merge on one more thread; other queries fall back to the
    /// single-threaded engine. The executor feeds a parallel query's router
    /// on the engine thread, as it feeds a single-threaded query's windows;
    /// results go into the same per-query sink. The router always ships
    /// rows to the shards in batches of up to
    /// par::Coordinator::Options::batch_size (256) rows, whatever
    /// executor.batch_size says, over queues of the coordinator's default
    /// capacity.
    int shards = 1;
    /// Ignored; every stateless chain is fused (plan/compile.h). Kept
    /// because perfbench/ sets it.
    bool fuse_stateless = false;
    /// Knobs of the engine's one executor; executor.batch_size > 1 turns on
    /// vectorized (TupleBatch) injection. They also decide the order in
    /// which a sharded query's router sees the feeds.
    Executor::Options executor;
    /// Durable-state directory (src/ckpt). Non-empty: Checkpoint()/Restore()
    /// become available and, with checkpoint_period > 0, the engine commits
    /// incremental checkpoints on the store's background thread. Each commit
    /// holds the engine's "engine/" blobs and, under the key prefix
    /// "par/q<i>/", a marker cut of every parallel (sharded) query taken at
    /// the same executor position. Empty (default): checkpointing is off.
    std::string checkpoint_dir;
    /// Application-time period of automatic checkpoints (0 = only explicit
    /// Checkpoint() calls persist state).
    Duration checkpoint_period = 0;
  };

  using QueryId = int;

  Dsms() : Dsms(Options{}) {}
  explicit Dsms(Options options);
  ~Dsms();

  // --- Setup -----------------------------------------------------------------

  /// Registers a named input stream with its schema and (finite) data.
  void RegisterStream(const std::string& name, Schema schema,
                      MaterializedStream data);
  void RegisterRawStream(const std::string& name, Schema schema,
                         const std::vector<TimedTuple>& raw) {
    RegisterStream(name, std::move(schema), ToPhysicalStream(raw));
  }

  /// Registers a stream whose data is in *arrival* order (bounded
  /// out-of-order, e.g. a recorded trace): a DisorderBuffer reorders it
  /// under the given lateness allowance, its monotone low-watermark flows
  /// downstream as heartbeats, and too-late elements are dropped
  /// (DisorderStats).
  void RegisterDisorderedStream(const std::string& name, Schema schema,
                                MaterializedStream arrivals,
                                DisorderBuffer::Options disorder);
  void RegisterRawDisorderedStream(const std::string& name, Schema schema,
                                   const std::vector<TimedTuple>& raw,
                                   DisorderBuffer::Options disorder) {
    RegisterDisorderedStream(name, std::move(schema),
                             ToPhysicalArrivals(raw), disorder);
  }

  /// Disorder counters of a registered stream (all-default for ordered or
  /// unknown streams), read live from the executor's reordering stage.
  struct DisorderInfo {
    bool disordered = false;
    DisorderBuffer::Stats stats;
    Timestamp watermark = Timestamp::MinInstant();
    int64_t delta = 0;
  };
  DisorderInfo DisorderStats(const std::string& name) const;

  /// Installs a continuous CQL query; results accumulate in Results(id).
  Result<QueryId> InstallQuery(const std::string& cql_text);
  /// Installs a pre-built (windowed) logical plan.
  Result<QueryId> InstallPlan(LogicalPtr plan);

  // --- Execution ----------------------------------------------------------------

  /// One executor step; false, like RunToCompletion() returning, once every
  /// feed is exhausted and every parallel query has finished.
  bool Step() {
    if (exec_.Step()) return true;
    Finish();
    return false;
  }
  /// Runs the executor up to application time `t`; finishes the engine as
  /// RunToCompletion() does once every feed is pushed.
  void RunUntil(Timestamp t) {
    exec_.RunUntil(t);
    if (exec_.finished()) RunToCompletion();
  }
  /// Drives the executor to the end of every feed and waits for every
  /// parallel query and its broadcast migrations to finish. Returns with no
  /// checkpoint commit in flight.
  void RunToCompletion() {
    exec_.RunToCompletion();
    Finish();
  }
  Timestamp current_time() const { return exec_.current_time(); }

  /// Schedules a GenMig of a *parallel* query to `new_plan` when routing
  /// reaches application time `at`, or at the next routed row when it
  /// already did (one T_split broadcast to every shard; the new plan must
  /// partition identically). FailedPrecondition once the query finished.
  /// Single-threaded queries migrate via ReoptimizeNow() or the calibration
  /// loop.
  Status ScheduleMigration(QueryId id, LogicalPtr new_plan, Timestamp at);

  // --- Durable state (ISSUE 10) ----------------------------------------------

  /// Synchronously commits a checkpoint of every feed cursor, operator
  /// state, migration-controller phase (including an in-flight GenMig's
  /// T_split) and cost-model memory, with every sharded query's marker cut
  /// at the same position, to Options::checkpoint_dir. FailedPrecondition
  /// when checkpointing is off or a query, or a shard of one, sits in a
  /// transient migration phase (kWaitingTimestamps/kDraining resolve within
  /// a bounded number of steps — retry); the periodic path skips the round.
  Status Checkpoint();

  /// Restores engine + query state from the newest intact checkpoint.
  /// Call on a freshly constructed Dsms after re-registering the same
  /// streams (same names and data) and re-installing the same queries in
  /// the same order (and migrations scheduled) as the checkpointed run;
  /// then resume stepping — the output tail is snapshot-equivalent to the
  /// uninterrupted run. NotFound when the directory holds no checkpoint;
  /// DataLoss when every candidate is torn, the registered topology does
  /// not match, or a sharded cut has the unresumable layout of a router
  /// that ran on its own thread.
  Status Restore();

  /// Store counters (all zero when checkpointing is off).
  ckpt::Store::StatsSnapshot CheckpointStats() const;

  // --- Results & introspection ---------------------------------------------------

  /// The query's sink: every result so far. A running sharded query's merge
  /// thread writes it: reading it before the query finished is an error.
  const MaterializedStream& Results(QueryId id) const {
    const Query& query = *queries_.at(static_cast<size_t>(id));
    GENMIG_CHECK(!query.parallel || !query.coordinator->running());
    return query.sink.collected();
  }

  struct QueryInfo {
    LogicalPtr plan;               // Currently running (windowed) plan.
    double estimated_cost = 0.0;   // Under the current statistics.
    int migrations_completed = 0;
    /// Single-threaded queries only (false / 0 for a sharded query).
    bool migration_in_progress = false;
    size_t result_count = 0;       // Results(id).size().
    size_t state_bytes = 0;
    /// True when the query runs on the sharded parallel executor.
    bool parallel = false;
    int shards = 1;
  };
  QueryInfo Info(QueryId id) const;

  /// Number of shared windowed-source subplans currently instantiated
  /// (subquery sharing: at most one per distinct (stream, window)).
  size_t shared_subplan_count() const { return shared_.size(); }

  /// Statistics catalog assembled from the queries' taps.
  StatsCatalog CurrentStats() const;

  /// Introspection of the per-query cost-feedback auto-migration loop
  /// (all zeros / MinInstant while Options::calibration_period is 0).
  struct AutoReoptStatus {
    size_t calibrations = 0;  // Completed calibrate->cost passes.
    double last_ratio = 0.0;  // running cost / best candidate cost.
    Timestamp last_calibration = Timestamp::MinInstant();
    /// Last calibration at which the ratio crossed 1.0 from below (the cost
    /// crossover the trigger is expected to react to).
    Timestamp last_crossover = Timestamp::MinInstant();
    /// Last time the trigger fired and armed a migration.
    Timestamp last_armed = Timestamp::MinInstant();
    int fires = 0;  // Auto-triggered migrations started.
  };
  const AutoReoptStatus& AutoStatus(QueryId id) const {
    return queries_.at(static_cast<size_t>(id))->auto_status;
  }

  // --- Observability ------------------------------------------------------------

  /// Per-operator runtime metrics of every installed query (empty under
  /// GENMIG_NO_METRICS).
  const obs::MetricsRegistry& metrics() const { return registry_; }
  obs::MetricsRegistry& metrics() { return registry_; }
  /// Phase-transition trace of every migration performed by this engine: a
  /// view over the journal's kMigrationPhase events.
  const obs::MigrationTracer& tracer() const { return tracer_; }
  /// Metric time-series retained by the journal, oldest first (empty unless
  /// Options::timeline_period > 0).
  std::vector<obs::MetricSample> timeline() const {
    return obs::Samples(journal_);
  }
  /// Chrome-trace / Perfetto JSON: migration phase spans + timeline counter
  /// tracks; load the written file in chrome://tracing or ui.perfetto.dev.
  std::string ExportChromeTraceJson() const {
    return obs::ToChromeTrace(registry_, &journal_);
  }

  /// Event journal: every trigger evaluation, migration phase transition,
  /// disorder adaptation, checkpoint and timeline sample, as structured
  /// events (obs/journal.h). Thread-safe; records regardless of
  /// telemetry_port.
  const obs::EventJournal& journal() const { return journal_; }
  obs::EventJournal& journal() { return journal_; }

  /// Bound port of the telemetry HTTP server, or -1 when disabled / the
  /// bind failed. Resolves Options::telemetry_port == 0 (ephemeral).
  int telemetry_port() const {
    return telemetry_ != nullptr && telemetry_->running() ? telemetry_->port()
                                                         : -1;
  }
  /// Requests the telemetry server answered so far (0 when disabled).
  uint64_t telemetry_requests() const {
    return telemetry_ != nullptr ? telemetry_->requests_served() : 0;
  }

  /// The /metrics payload: the registry in Prometheus text exposition format
  /// plus engine-level series (app time, query count, migrations, journal
  /// events). Safe to call from any thread. Empty under GENMIG_NO_METRICS.
  std::string MetricsText() const;
  /// The /status payload: a JSON snapshot of registered queries, migration
  /// state, the auto-reoptimization loop, per-shard watermarks/lag and
  /// disordered-stream horizons. Call from the engine thread (the HTTP
  /// handler serves a cached copy refreshed on engine progress).
  std::string StatusJson();

  /// Engine-wide runtime snapshot: cumulative totals plus end-to-end sink
  /// latency (aggregated over every query sink's e2e histogram, sharded
  /// queries included).
  struct RuntimeStats {
    uint64_t elements_in = 0;
    uint64_t elements_out = 0;
    uint64_t state_bytes = 0;
    uint64_t sink_latency_count = 0;  ///< Stamped elements seen by sinks.
    double sink_p50_ns = 0.0;
    double sink_p99_ns = 0.0;
    size_t timeline_samples = 0;
    int migrations = 0;
  };
  RuntimeStats Stats() const;

  // --- Dynamic query optimization ---------------------------------------------

  /// Re-costs every idle single-threaded query under the current (calibrated)
  /// statistics and starts a GenMig migration where the running plan costs
  /// at least 1 + Options::cost_margin times the best rewrite — the same
  /// comparison the calibration loop makes, without its hysteresis latch and
  /// cool-down. Returns the number of migrations started.
  int ReoptimizeNow();

 private:
  struct Query {
    LogicalPtr plan;      // Windowed logical plan currently running.
    LogicalPtr stripped;  // StripWindows(plan); pairs with the hosted box.
    /// Windowed plan the active (old) box runs while a migration is in
    /// flight: StartGenMigTo overwrites `plan` with the target at migration
    /// START, but a checkpoint cut inside the parallel phase must recompile
    /// the old box from the plan it actually executes.
    LogicalPtr prev_plan;
    std::vector<std::string> source_names;
    std::vector<logical::LeafWindowSpec> leaf_windows;
    std::vector<StatsTap*> taps;  // One per input port (shared subplans).
    std::unique_ptr<MigrationController> controller;
    CollectorSink sink{"sink"};
    // Cost-feedback auto-migration loop (calibration_period > 0 only).
    CostCalibrator calibrator;
    CostRatioPolicy cost_policy;
    AutoReoptStatus auto_status;
    // Sharded execution (Options::shards > 1 and a partitionable plan):
    // the coordinator replaces the wiring above; its merge fills `sink`.
    bool parallel = false;
    std::unique_ptr<par::Coordinator> coordinator;
  };

  /// A shared windowed-source subplan (Section 1: "save system resources by
  /// subquery sharing"): one window operator + statistics tap per distinct
  /// (stream, window spec), fanned out to every query that uses it.
  struct SharedSubplan {
    std::unique_ptr<Operator> window;  // Null for unwindowed sources.
    std::unique_ptr<StatsTap> tap;
  };

  Result<QueryId> Install(LogicalPtr plan);
  /// The QueryInfo fields both kinds of query share: results (from the
  /// sink), migrations, parallel and shards, plus the controller's
  /// in-progress flag and state bytes for a single-threaded query. Leaves
  /// plan and cost unset, so callers that refresh often do not re-cost.
  QueryInfo RuntimeInfo(const Query& query) const;
  StatsTap* SharedTap(const std::string& stream,
                      const logical::LeafWindowSpec& spec);
  /// Throttled entry of the calibrate -> cost -> trigger loop (after_step).
  void MaybeCalibrate();
  /// Throttled timeline sampling (after_step; timeline_period > 0 only).
  void MaybeSampleTimeline();
  /// One calibration pass over every single-threaded query: observe the
  /// hosted box, re-cost running vs. candidates, update the policy signal
  /// and, when the policy fires, start the migration.
  void CalibrateAndArm(Timestamp now);
  /// The one migrate-or-not comparison: the running plan's cost against the
  /// cheapest rule-enumerated rewrite, both under the query's calibrated
  /// statistics (`base` overlaid with its observations).
  struct CostCheck {
    double running = 0.0;
    LogicalPtr best;  // Null when no rewrite exists.
    double best_cost = 0.0;
    double ratio = 0.0;  // running / best_cost; 0 without a rewrite.
  };
  CostCheck CostAgainstBest(const Query& query,
                            const StatsCatalog& base) const;
  /// Compiles `candidate` and starts a GenMig migration of `query` to it.
  void StartGenMigTo(Query* query, const LogicalPtr& candidate);
  /// GenMig options derived from the query's leaf windows.
  MigrationController::GenMigOptions GenMigOptionsFor(const Query& query) const;
  /// /metrics handler body (503 under GENMIG_NO_METRICS).
  obs::HttpResponse MetricsResponse() const;
  /// Rebuilds the cached /status JSON. Engine thread only: it walks live
  /// query structures; the HTTP handler just copies the cached string.
  void RefreshStatusCache();
  /// Wall-clock-throttled RefreshStatusCache (after_step, telemetry on).
  void MaybeRefreshStatus();
  /// Registers the /metrics, /healthz and /status handlers and starts the
  /// server (constructor helper; resets telemetry_ when the bind fails).
  void SetupTelemetry();
  /// One checkpoint round: the engine's blobs and each sharded query's cut.
  struct Round {
    std::vector<ckpt::Blob> blobs;
    std::vector<std::pair<size_t, std::shared_ptr<par::CkptCapture>>> cuts;
  };
  /// Serializes the engine's live blob set (engine cursor, feeds, shared
  /// subplans, every scalar query) and starts every sharded query's cut.
  /// FailedPrecondition when any scalar query is in a transient migration
  /// phase.
  Status CollectBlobs(Round* round);
  /// Waits for the round's cuts and commits it: async through CommitAsync
  /// (a failed cut skips the round), else synchronously.
  Status CommitRound(Round round, bool async);
  /// Moves the periodic rounds on: commits round_, begins a due one.
  void AdvanceRounds(bool wait);
  /// The end of the feeds: joins the parallel queries, settles checkpoints.
  void Finish();
  /// Serialized state of `op`, reusing the previous serialization while the
  /// operator's ckpt_version is unchanged (per-operator dirty tracking).
  const std::string& CachedOpBytes(const std::string& key, const Operator& op);
  /// Throttled periodic round (after_step): makes a round due.
  void MaybeCheckpoint();

  Options options_;
  Executor exec_;
  cql::Catalog catalog_;
  std::map<std::string, int> feeds_;  // Stream name -> executor feed.
  std::map<std::pair<std::string, logical::LeafWindowSpec>, SharedSubplan>
      shared_;
  std::vector<std::unique_ptr<Query>> queries_;
  Timestamp last_calibration_ = Timestamp::MinInstant();
  Timestamp last_timeline_sample_ = Timestamp::MinInstant();
  obs::MetricsRegistry registry_;
  obs::EventJournal journal_;
  obs::MigrationTracer tracer_{&journal_};
  obs::TimelineSampler timeline_sampler_{&registry_, &journal_};
  std::unique_ptr<ckpt::Store> ckpt_store_;  // Null when checkpointing is off.
  /// key -> (ckpt_version at serialization, serialized bytes): operators
  /// that saw no input since the last checkpoint skip re-serialization, so
  /// the CPU cost of a periodic checkpoint tracks churn, not total state
  /// (the store's hash dedup does the same for the IO).
  std::map<std::string, std::pair<uint64_t, std::string>> ckpt_cache_;
  Timestamp last_checkpoint_ = Timestamp::MinInstant();
  std::optional<Round> round_;  // Periodic round awaiting its cuts.
  bool round_due_ = false;      // A period elapsed; its round not begun.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  /// Engine progress mirrored for the server thread: current application
  /// time (after_step) and installed query count. The /status body itself is
  /// built on the engine thread and cached under status_mu_.
  std::atomic<int64_t> app_time_t_{Timestamp::MinInstant().t};
  std::atomic<uint64_t> query_count_{0};
  mutable std::mutex status_mu_;
  std::string status_json_ = "{}\n";
  uint64_t last_status_refresh_ns_ = 0;
};

}  // namespace genmig

#endif  // GENMIG_ENGINE_DSMS_H_
