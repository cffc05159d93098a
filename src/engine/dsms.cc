#include "engine/dsms.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "ckpt/box_codec.h"
#include "obs/clock.h"
#include "ops/count_window.h"
#include "ops/stateless.h"
#include "plan/compile.h"

namespace genmig {

namespace {

/// Key prefix of the engine's own blobs, and of sharded query `qi`'s cut.
/// Each commit is scoped to one prefix, so neither overwrites the other.
constexpr char kEngineScope[] = "engine/";
std::string ShardedScope(size_t qi) {
  return "par/q" + std::to_string(qi) + "/";
}

}  // namespace

Dsms::Dsms(Options options)
    : options_(options),
      exec_(options.executor),
      journal_(obs::EventJournal::Options{options.journal_capacity,
                                          options.journal_spill_path}) {
  if (!options_.checkpoint_dir.empty()) {
    ckpt_store_ = std::make_unique<ckpt::Store>(options_.checkpoint_dir);
    // Every begin/commit/abort lands in the journal, the engine's under
    // subject "engine" and a sharded query's cut under "par/q<i>"; the
    // observer may fire on the store's background thread — Append is
    // thread-safe, and the app-time stamp reads the atomic mirror.
    ckpt_store_->SetEventObserver([this](const ckpt::Store::Event& e) {
      obs::JournalEvent ev;
      ev.kind = obs::JournalEvent::Kind::kCheckpoint;
      ev.app_time =
          Timestamp(app_time_t_.load(std::memory_order_relaxed), 0);
      ev.subject = e.scope.substr(0, e.scope.size() - 1);
      const char* phase = e.phase == ckpt::Store::Event::Phase::kBegin
                              ? "begin"
                              : e.phase == ckpt::Store::Event::Phase::kCommit
                                    ? "commit"
                                    : "abort";
      ev.strs.emplace_back("phase", phase);
      if (!e.message.empty()) ev.strs.emplace_back("error", e.message);
      ev.nums.emplace_back("seq", static_cast<double>(e.seq));
      ev.nums.emplace_back("bytes", static_cast<double>(e.bytes));
      ev.nums.emplace_back("written_bytes",
                           static_cast<double>(e.written_bytes));
      ev.nums.emplace_back("duration_ns", static_cast<double>(e.duration_ns));
      journal_.Append(std::move(ev));
    });
  }
  if (options_.telemetry_port >= 0) SetupTelemetry();
  const bool periodic_ckpt =
      ckpt_store_ != nullptr && options_.checkpoint_period > 0;
  if (options_.calibration_period > 0 || options_.timeline_period > 0 ||
      periodic_ckpt || telemetry_ != nullptr) {
    exec_.after_step = [this, periodic_ckpt]() {
      app_time_t_.store(exec_.current_time().t, std::memory_order_relaxed);
      if (options_.calibration_period > 0) MaybeCalibrate();
      if (options_.timeline_period > 0) MaybeSampleTimeline();
      if (periodic_ckpt) MaybeCheckpoint();
      if (telemetry_ != nullptr) MaybeRefreshStatus();
    };
  }
}

Dsms::~Dsms() {
  // Stop serving before any engine structure the handlers read goes away.
  if (telemetry_ != nullptr) telemetry_->Stop();
  journal_.Flush();
}

void Dsms::SetupTelemetry() {
  obs::TelemetryServer::Options topt;
  topt.host = options_.telemetry_host;
  topt.port = options_.telemetry_port;
  telemetry_ = std::make_unique<obs::TelemetryServer>(topt);
  telemetry_->Handle("/metrics", [this] { return MetricsResponse(); });
  telemetry_->Handle("/healthz", [] {
    obs::HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  telemetry_->Handle("/status", [this] {
    obs::HttpResponse r;
    r.content_type = "application/json; charset=utf-8";
    std::lock_guard<std::mutex> lock(status_mu_);
    r.body = status_json_;
    return r;
  });
  // A taken port or missing loopback is an observability degradation, not an
  // engine failure.
  if (!telemetry_->Start()) telemetry_.reset();
}

void Dsms::RegisterStream(const std::string& name, Schema schema,
                          MaterializedStream data) {
  GENMIG_CHECK(feeds_.count(name) == 0);
  catalog_.Register(name, std::move(schema));
  feeds_[name] = exec_.AddFeed(name, std::move(data));
  // Attached sources stamp a sampled ingress wall-clock onto elements — the
  // input of the sinks' end-to-end latency attribution.
  exec_.source(feeds_[name])->AttachMetrics(&registry_);
}

void Dsms::RegisterDisorderedStream(const std::string& name, Schema schema,
                                    MaterializedStream arrivals,
                                    DisorderBuffer::Options disorder) {
  GENMIG_CHECK(feeds_.count(name) == 0);
  // Every delta retarget of this feed's buffer lands in the journal.
  disorder.on_adapt = [this, name](int64_t old_delta, int64_t new_delta,
                                   double quantile, uint64_t arrivals_seen) {
    obs::JournalEvent ev;
    ev.kind = obs::JournalEvent::Kind::kDisorderAdapt;
    ev.subject = name;
    ev.nums.emplace_back("old_delta", static_cast<double>(old_delta));
    ev.nums.emplace_back("new_delta", static_cast<double>(new_delta));
    ev.nums.emplace_back("lateness_quantile", quantile);
    ev.nums.emplace_back("arrivals", static_cast<double>(arrivals_seen));
    journal_.Append(std::move(ev));
  };
  catalog_.Register(name, std::move(schema));
  feeds_[name] = exec_.AddDisorderedFeed(name, std::move(arrivals), disorder);
  exec_.source(feeds_[name])->AttachMetrics(&registry_);
}

Dsms::DisorderInfo Dsms::DisorderStats(const std::string& name) const {
  DisorderInfo info;
  auto it = feeds_.find(name);
  if (it == feeds_.end() || !exec_.feed_disordered(it->second)) return info;
  const DisorderBuffer* buffer = exec_.feed_buffer(it->second);
  info.disordered = true;
  info.stats = buffer->stats();
  info.watermark = buffer->watermark();
  info.delta = buffer->delta();
  return info;
}

Result<Dsms::QueryId> Dsms::InstallQuery(const std::string& cql_text) {
  Result<LogicalPtr> plan = cql::ParseQuery(cql_text, catalog_);
  if (!plan.ok()) return plan.status();
  return Install(plan.value());
}

Result<Dsms::QueryId> Dsms::InstallPlan(LogicalPtr plan) {
  return Install(std::move(plan));
}

StatsTap* Dsms::SharedTap(const std::string& stream,
                          const logical::LeafWindowSpec& spec) {
  auto key = std::make_pair(stream, spec);
  auto it = shared_.find(key);
  if (it != shared_.end()) return it->second.tap.get();

  SharedSubplan subplan;
  const std::string tag =
      stream + "#" + std::to_string(shared_.size());
  if (spec.kind == LogicalNode::WindowKind::kCount) {
    subplan.window = std::make_unique<CountWindow>("cw_" + tag, spec.rows);
  } else {
    subplan.window = std::make_unique<StatelessChain>(
        "w_" + tag, StatelessChain::Window(spec.window));
  }
  subplan.tap =
      std::make_unique<StatsTap>("tap_" + tag, options_.stats_horizon);
  exec_.ConnectFeed(feeds_.at(stream), subplan.window.get(), 0);
  subplan.window->ConnectTo(0, subplan.tap.get(), 0);
  subplan.window->AttachMetrics(&registry_);
  subplan.tap->AttachMetrics(&registry_);
  StatsTap* tap = subplan.tap.get();
  shared_.emplace(std::move(key), std::move(subplan));
  return tap;
}

Result<Dsms::QueryId> Dsms::Install(LogicalPtr plan) {
  auto query = std::make_unique<Query>();
  query->plan = plan;
  query->stripped = logical::StripWindows(plan);
  query->source_names = logical::CollectSourceNames(*plan);
  query->leaf_windows = logical::CollectLeafWindowSpecs(*plan);
  for (const std::string& name : query->source_names) {
    if (feeds_.count(name) == 0) {
      return Status::NotFound("stream '" + name + "' is not registered");
    }
  }

  query->sink.AttachMetrics(&registry_);

  // Partitionable plans run on the sharded executor when requested; the
  // analysis failing is the documented fallback to the single-threaded
  // engine below (shards = 1 semantics).
  if (options_.shards > 1) {
    par::Coordinator::Options copt;
    copt.shards = options_.shards;
    copt.registry = &registry_;
    copt.tracer = &tracer_;
    // The coordinator's marker cuts commit into the engine's store under the
    // query's key prefix, replacing only its previous cut. Without an engine
    // part in the store, Restore() would reject the manifest: drop the cut.
    if (ckpt_store_ != nullptr && options_.checkpoint_period > 0) {
      copt.checkpoint_period = options_.checkpoint_period;
      copt.on_cut = [this, scope = ShardedScope(queries_.size())](
                        std::vector<ckpt::Blob> blobs) {
        if (ckpt_store_->stats().seq == 0) return;
        for (ckpt::Blob& blob : blobs) blob.key.insert(0, scope);
        ckpt_store_->CommitAsync(std::move(blobs), scope);
      };
    }
    auto coordinator =
        std::make_unique<par::Coordinator>(plan, &query->sink, copt);
    if (coordinator->spec().ok) {
      query->parallel = true;
      query->coordinator = std::move(coordinator);
      queries_.push_back(std::move(query));
      query_count_.store(queries_.size(), std::memory_order_relaxed);
      if (telemetry_ != nullptr) RefreshStatusCache();
      return static_cast<QueryId>(queries_.size()) - 1;
    }
  }

  // Name built with append: "q" + to_string trips a GCC 12 -Wrestrict false
  // positive (GCC bug 105651) under -O2.
  std::string qname = "q";
  qname.append(std::to_string(queries_.size()));
  query->controller = std::make_unique<MigrationController>(
      qname, CompilePlan(*query->stripped));
  query->controller->ConnectTo(0, &query->sink, 0);
  if (options_.calibration_period > 0) {
    // Observations must outlive a few calibration periods (a pass is skipped
    // while a migration is in flight) before the cost model falls back to
    // estimates; widen the default staleness window accordingly.
    CostCalibrator::Options copt;
    copt.stale_after =
        std::max(copt.stale_after, 4 * options_.calibration_period);
    query->calibrator = CostCalibrator(copt);
    CostRatioPolicy::Options popt;
    popt.margin = options_.cost_margin;
    popt.hysteresis = options_.cost_hysteresis;
    popt.cooldown = options_.migration_cooldown;
    query->cost_policy = CostRatioPolicy(popt);
  }
  query->controller->AttachMetricsRecursive(&registry_);
  query->controller->SetTracer(&tracer_);

  // Per input port: (shared) feed -> window -> StatsTap, fanned out into
  // this query's controller.
  for (size_t i = 0; i < query->source_names.size(); ++i) {
    StatsTap* tap =
        SharedTap(query->source_names[i], query->leaf_windows[i]);
    tap->ConnectTo(0, query->controller.get(), static_cast<int>(i));
    query->taps.push_back(tap);
  }

  queries_.push_back(std::move(query));
  query_count_.store(queries_.size(), std::memory_order_relaxed);
  if (telemetry_ != nullptr) RefreshStatusCache();
  return static_cast<QueryId>(queries_.size()) - 1;
}

void Dsms::RunToCompletion() {
  // Sharded cuts need an engine part in the store (see RunToCompletion's
  // contract): commit one now if there is none.
  const bool sharded_cuts =
      ckpt_store_ != nullptr && options_.checkpoint_period > 0 &&
      std::any_of(queries_.begin(), queries_.end(),
                  [](const auto& q) { return q->parallel; });
  if (sharded_cuts) {
    ckpt_store_->WaitIdle();
    if (ckpt_store_->stats().seq == 0) (void)Checkpoint();
  }
  // Parallel queries first: they consume the immutable feed data on their
  // own threads and barrier on migration completion, so AutoStatus, Info()
  // and metrics are coherent by the time the single-threaded engine (and
  // its after_step hooks) runs.
  for (auto& query : queries_) {
    if (!query->parallel || query->coordinator == nullptr) continue;
    // The router reads ordered feeds in place: nothing touches them until
    // the coordinator's threads are joined. A disordered feed is reordered
    // once here, by a buffer with the feed's options; the executor's own
    // buffer counts and journals the same arrivals, so this pass reports
    // nothing.
    par::InputRefs inputs;
    std::map<std::string, MaterializedStream> reordered;
    for (const std::string& name : query->source_names) {
      const int feed = feeds_.at(name);
      if (const DisorderBuffer* buffer = exec_.feed_buffer(feed)) {
        DisorderBuffer::Options opt = buffer->options();
        opt.on_adapt = nullptr;
        auto [it, inserted] = reordered.try_emplace(name);
        if (inserted) it->second = Reorder(exec_.feed_elements(feed), opt);
        inputs[name] = &it->second;
      } else {
        inputs[name] = &exec_.feed_elements(feed);
      }
    }
    const Status started = query->coordinator->Start(inputs);
    GENMIG_CHECK(started.ok());
    query->coordinator->Wait();
    query->coordinator->WaitMigrationsComplete();
  }
  // The last cut is durable before the executor pass, so that pass's
  // periodic commits never find the store busy with it.
  if (sharded_cuts) ckpt_store_->WaitIdle();
  exec_.RunToCompletion();
  // Nothing is left in flight on return: CheckpointStats(), the journal and
  // the directory agree with each other and from run to run.
  if (ckpt_store_ != nullptr) ckpt_store_->WaitIdle();
  journal_.Flush();
  app_time_t_.store(exec_.current_time().t, std::memory_order_relaxed);
  if (telemetry_ != nullptr) RefreshStatusCache();
}

Status Dsms::ScheduleMigration(QueryId id, LogicalPtr new_plan,
                               Timestamp at) {
  Query& query = *queries_.at(static_cast<size_t>(id));
  if (!query.parallel) {
    return Status::FailedPrecondition(
        "query does not run on the parallel executor; use ReoptimizeNow() "
        "or the auto-migration loop");
  }
  MigrationController::GenMigOptions base;
  base.variant = options_.variant;
  Status s = query.coordinator->ScheduleGenMig(std::move(new_plan), at, base);
  return s;
}

// --- Durable state (ISSUE 10) --------------------------------------------------

namespace {

#ifndef GENMIG_NO_METRICS
int64_t WallNs() {  // Only the checkpoint-age gauge of MetricsText reads it.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
#endif

/// Deterministic blob-key suffix of a shared windowed subplan: independent
/// of installation order, unlike the operator-name tag.
std::string SharedKeySuffix(const std::string& stream,
                            const logical::LeafWindowSpec& spec) {
  std::string key = "engine/shared/" + stream + "/";
  key += spec.kind == LogicalNode::WindowKind::kCount ? 'c' : 't';
  key += ':' + std::to_string(spec.window) + ':' + std::to_string(spec.rows);
  return key;
}

}  // namespace

const std::string& Dsms::CachedOpBytes(const std::string& key,
                                       const Operator& op) {
  auto& slot = ckpt_cache_[key];
  if (slot.second.empty() || slot.first != op.ckpt_version()) {
    StateEnc enc;
    op.CkptExport(&enc);
    slot.first = op.ckpt_version();
    slot.second = enc.Take();
  }
  return slot.second;
}

Status Dsms::CollectBlobs(std::vector<ckpt::Blob>* blobs) {
  // The cut must be consistent: defer while any controller sits in a
  // transient phase (it resolves within a bounded number of steps).
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const Query& q = *queries_[qi];
    if (!q.parallel && !q.controller->CkptReady()) {
      return Status::FailedPrecondition(
          "query q" + std::to_string(qi) +
          " is in a transient migration phase; checkpoint deferred");
    }
  }
  auto add = [blobs](std::string key, std::string bytes) {
    blobs->push_back(ckpt::Blob{std::move(key), std::move(bytes), "main"});
  };
  // Executor cursor + the engine's own app-time throttles (restoring them
  // keeps the periodic loops' next firing aligned with the original run).
  {
    StateEnc enc;
    exec_.CkptExportCursor(&enc);
    // Slot of a removed periodic re-optimization throttle, kept so old and
    // new checkpoints share one layout; runs without it always wrote this.
    enc.Ts(Timestamp::MinInstant());
    enc.Ts(last_calibration_);
    enc.Ts(last_timeline_sample_);
    add("engine/cursor", enc.Take());
  }
  for (const auto& [name, idx] : feeds_) {
    StateEnc enc;
    exec_.CkptExportFeed(idx, &enc);
    add("engine/feeds/" + name, enc.Take());
  }
  // Shared windowed-source subplans (window operator state + statistics
  // tap). Count windows are stateful; time windows are pure interval
  // rewrites and carry no state.
  for (const auto& [key, sub] : shared_) {
    StateEnc enc;
    const bool wstate = sub.window != nullptr && sub.window->CkptStateful();
    enc.Bool(wstate);
    if (wstate) sub.window->CkptExport(&enc);
    sub.tap->CkptExport(&enc);
    add(SharedKeySuffix(key.first, key.second), enc.Take());
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const Query& q = *queries_[qi];
    if (q.parallel) continue;  // Its coordinator's cuts carry its state.
    const std::string base = "engine/q" + std::to_string(qi) + "/";
    ckpt::ExportController(
        base, *q.controller, ckpt::HostedPlans{q.plan, q.prev_plan},
        "main", blobs, [this](const std::string& key, const Operator& op) {
          return CachedOpBytes(key, op);
        });
    // Not via CachedOpBytes: the sink grows every step, so the version
    // cache would re-encode the entire result log at every cut. The
    // amortized path appends only the post-previous-cut elements.
    add(base + "sink", q.sink.CkptExportAmortized());
    {
      StateEnc enc;
      q.calibrator.CkptExport(&enc);
      add(base + "cal", enc.Take());
    }
  }
  return Status::OK();
}

Status Dsms::Checkpoint() {
  if (ckpt_store_ == nullptr) {
    return Status::FailedPrecondition("Options::checkpoint_dir is empty");
  }
  std::vector<ckpt::Blob> blobs;
  Status s = CollectBlobs(&blobs);
  if (!s.ok()) return s;
  // A periodic async commit still in flight must not interleave with (or
  // outrank) this explicit one.
  ckpt_store_->WaitIdle();
  s = ckpt_store_->Commit(std::move(blobs), kEngineScope);
  if (s.ok()) last_checkpoint_ = exec_.current_time();
  return s;
}

void Dsms::MaybeCheckpoint() {
  const Timestamp now = exec_.current_time();
  if (last_checkpoint_ == Timestamp::MinInstant()) {
    last_checkpoint_ = now;
    return;
  }
  if (now.t - last_checkpoint_.t < options_.checkpoint_period) return;
  last_checkpoint_ = now;
  std::vector<ckpt::Blob> blobs;
  // A transient migration phase defers to the next period; a still-busy
  // store skips the round (the next one supersedes it anyway).
  if (!CollectBlobs(&blobs).ok()) return;
  ckpt_store_->CommitAsync(std::move(blobs), kEngineScope);
}

ckpt::Store::StatsSnapshot Dsms::CheckpointStats() const {
  return ckpt_store_ != nullptr ? ckpt_store_->stats()
                                : ckpt::Store::StatsSnapshot{};
}

Status Dsms::Restore() {
  if (ckpt_store_ == nullptr) {
    return Status::FailedPrecondition("Options::checkpoint_dir is empty");
  }
  std::map<std::string, std::string> blobs;
  Status s = ckpt_store_->Load(&blobs);
  if (!s.ok()) return s;
  ckpt_cache_.clear();
  auto find = [&blobs](const std::string& key) -> const std::string* {
    auto it = blobs.find(key);
    return it == blobs.end() ? nullptr : &it->second;
  };
  {
    const std::string* b = find("engine/cursor");
    if (b == nullptr) return Status::DataLoss("checkpoint lacks engine/cursor");
    StateDec dec(*b);
    if (!exec_.CkptImportCursor(&dec)) {
      return Status::DataLoss("engine/cursor is corrupt");
    }
    dec.Ts();  // The removed throttle's slot (see CollectBlobs).
    last_calibration_ = dec.Ts();
    last_timeline_sample_ = dec.Ts();
    if (!dec.ok()) return Status::DataLoss("engine/cursor is corrupt");
  }
  for (const auto& [name, idx] : feeds_) {
    const std::string* b = find("engine/feeds/" + name);
    if (b == nullptr) {
      return Status::DataLoss("checkpoint lacks feed '" + name +
                              "' (stream set mismatch?)");
    }
    StateDec dec(*b);
    if (!exec_.CkptImportFeed(idx, &dec)) {
      return Status::DataLoss("feed '" + name +
                              "' blob is corrupt or mismatched");
    }
  }
  for (auto& [key, sub] : shared_) {
    const std::string k = SharedKeySuffix(key.first, key.second);
    const std::string* b = find(k);
    if (b == nullptr) return Status::DataLoss("checkpoint lacks '" + k + "'");
    StateDec dec(*b);
    if (dec.Bool()) {
      if (sub.window == nullptr || !sub.window->CkptImport(&dec)) {
        return Status::DataLoss("'" + k + "' window state is corrupt");
      }
    }
    if (!sub.tap->CkptImport(&dec) || !dec.ok()) {
      return Status::DataLoss("'" + k + "' tap state is corrupt");
    }
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    Query* q = queries_[qi].get();
    if (q->parallel) {
      // The query's latest cut, prefix stripped. Without one (no cut had
      // committed, or an older layout kept cuts in a "q<i>par" subdirectory)
      // it recomputes from its immutable feeds.
      const std::string scope = ShardedScope(qi);
      std::map<std::string, std::string> cut;
      for (auto it = blobs.lower_bound(scope);
           it != blobs.end() && it->first.rfind(scope, 0) == 0; ++it) {
        cut.emplace(it->first.substr(scope.size()), std::move(it->second));
      }
      Status ps = cut.empty() ? Status::OK() : q->coordinator->Restore(cut);
      if (!ps.ok()) return ps;
      continue;
    }
    const std::string base = "engine/q" + std::to_string(qi) + "/";
    ckpt::HostedPlans plans;
    Status cs = ckpt::ImportController(
        base, blobs,
        [q](const LogicalPtr& plan) {
          Box box = CompilePlan(*logical::StripWindows(plan));
          box.ReorderInputs(q->source_names);
          return box;
        },
        q->controller.get(), &plans);
    if (!cs.ok()) return cs;
    q->plan = plans.plan;
    q->stripped = logical::StripWindows(q->plan);
    q->prev_plan = plans.old_plan;
    const std::string* sinkb = find(base + "sink");
    if (sinkb == nullptr) {
      return Status::DataLoss("checkpoint lacks '" + base + "sink'");
    }
    StateDec sdec(*sinkb);
    if (!q->sink.CkptImport(&sdec) || !sdec.ok()) {
      return Status::DataLoss("'" + base + "sink' is corrupt");
    }
    const std::string* calb = find(base + "cal");
    if (calb == nullptr) {
      return Status::DataLoss("checkpoint lacks '" + base + "cal'");
    }
    StateDec caldec(*calb);
    if (!q->calibrator.CkptImport(&caldec)) {
      return Status::DataLoss("'" + base + "cal' is corrupt");
    }
  }
  app_time_t_.store(exec_.current_time().t, std::memory_order_relaxed);
  last_checkpoint_ = exec_.current_time();
  if (telemetry_ != nullptr) RefreshStatusCache();
  return Status::OK();
}

StatsCatalog Dsms::CurrentStats() const {
  StatsCatalog catalog;
  // Streams observed by several queries: any tap works; the last one wins.
  // Parallel queries bypass the tap wiring and contribute nothing.
  for (const auto& query : queries_) {
    for (size_t i = 0; i < query->taps.size(); ++i) {
      catalog.SetSource(query->source_names[i],
                        query->taps[i]->Snapshot());
    }
  }
  return catalog;
}

Dsms::QueryInfo Dsms::RuntimeInfo(const Query& query) const {
  QueryInfo info;
  info.result_count = query.sink.count();
  info.parallel = query.parallel;
  if (query.parallel) {
    info.shards = options_.shards;
    info.migrations_completed = query.coordinator->migrations_completed();
  } else {
    info.migrations_completed = query.controller->migrations_completed();
    info.migration_in_progress = query.controller->migration_in_progress();
    info.state_bytes = query.controller->StateBytes();
  }
  return info;
}

Dsms::QueryInfo Dsms::Info(QueryId id) const {
  const Query& query = *queries_.at(static_cast<size_t>(id));
  QueryInfo info = RuntimeInfo(query);
  info.plan = query.plan;
  info.estimated_cost = EstimateCost(*query.plan, CurrentStats());
  return info;
}

void Dsms::StartGenMigTo(Query* query, const LogicalPtr& candidate) {
  query->prev_plan = query->plan;  // The old box keeps running this plan.
  query->stripped = logical::StripWindows(candidate);
  Box new_box = CompilePlan(*query->stripped);
  new_box.ReorderInputs(query->source_names);
  query->controller->StartGenMig(std::move(new_box), GenMigOptionsFor(*query));
  query->plan = candidate;
}

MigrationController::GenMigOptions Dsms::GenMigOptionsFor(
    const Query& query) const {
  MigrationController::GenMigOptions opts;
  opts.variant = options_.variant;
  Duration max_window = 0;
  bool any_count = false;
  for (const logical::LeafWindowSpec& spec : query.leaf_windows) {
    max_window = std::max(max_window, spec.window);
    any_count |= spec.kind == LogicalNode::WindowKind::kCount;
  }
  // Count windows have no a-priori bound on validity length; derive
  // T_split from the old box's states instead (Optimization 2).
  opts.end_timestamp_split = any_count;
  opts.window = max_window;
  return opts;
}

Dsms::CostCheck Dsms::CostAgainstBest(const Query& query,
                                      const StatsCatalog& base) const {
  // Calibrated catalog + observed-rate overlay: with no observations yet
  // (calibration loop off, or nothing folded) this degrades to the plain
  // estimate-driven comparison.
  const StatsCatalog stats = query.calibrator.Calibrated(base);
  CostCheck check;
  check.running = EstimatePlan(*query.plan, stats, &query.calibrator).cost;
  check.best = rules::BestCandidate(query.plan, stats, &query.calibrator,
                                    &check.best_cost);
  if (check.best != nullptr) {
    check.ratio = check.running / std::max(check.best_cost, 1e-12);
  }
  return check;
}

int Dsms::ReoptimizeNow() {
  const StatsCatalog base = CurrentStats();
  int started = 0;
  for (auto& query : queries_) {
    if (query->parallel) continue;  // Migrates via ScheduleMigration().
    if (query->controller->migration_in_progress()) continue;
    const CostCheck check = CostAgainstBest(*query, base);
    if (check.best == nullptr || check.ratio < 1.0 + options_.cost_margin) {
      continue;
    }
    StartGenMigTo(query.get(), check.best);
    ++started;
  }
  return started;
}

void Dsms::MaybeCalibrate() {
  const Timestamp now = exec_.current_time();
  if (last_calibration_ == Timestamp::MinInstant()) {
    last_calibration_ = now;
    return;
  }
  if (now.t - last_calibration_.t < options_.calibration_period) return;
  last_calibration_ = now;
  CalibrateAndArm(now);
}

void Dsms::MaybeSampleTimeline() {
  const Timestamp now = exec_.current_time();
  if (last_timeline_sample_ != Timestamp::MinInstant() &&
      now.t - last_timeline_sample_.t < options_.timeline_period) {
    return;
  }
  last_timeline_sample_ = now;
  bool migrating = false;
  for (const auto& query : queries_) {
    migrating |= RuntimeInfo(*query).migration_in_progress;
  }
  timeline_sampler_.Sample(now, migrating);
}

Dsms::RuntimeStats Dsms::Stats() const {
  RuntimeStats stats;
  stats.elements_in = registry_.TotalElementsIn();
  stats.elements_out = registry_.TotalElementsOut();
  stats.state_bytes = registry_.TotalStateBytes();
  // Aggregate the sinks' end-to-end histograms bucket-wise so the quantiles
  // cover every query's stamped traffic.
  std::array<uint64_t, obs::LatencyHistogram::kBuckets> e2e{};
  for (const obs::OperatorMetrics& m : registry_.operators()) {
    if (m.e2e_ns.count() == 0) continue;
    stats.sink_latency_count += m.e2e_ns.count();
    for (size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
      e2e[i] += m.e2e_ns.bucket(i);
    }
  }
  stats.sink_p50_ns = obs::LatencyHistogram::QuantileFromCounts(
      e2e, stats.sink_latency_count, 0.5);
  stats.sink_p99_ns = obs::LatencyHistogram::QuantileFromCounts(
      e2e, stats.sink_latency_count, 0.99);
  stats.timeline_samples = timeline().size();
  stats.migrations = tracer_.migration_count();
  return stats;
}

void Dsms::CalibrateAndArm(Timestamp now) {
  const StatsCatalog base = CurrentStats();
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    Query* q = queries_[qi].get();
    if (q->parallel) continue;
    MigrationController& controller = *q->controller;
    if (controller.migration_in_progress()) {
      // Two boxes are live and their counters overlap; skip the observation
      // pass and let the staleness window age the previous one out.
      q->calibrator.AdvanceTime(now);
    } else {
      q->calibrator.ObservePlanBox(*q->stripped, controller.active_box(), now);
    }
    ++q->auto_status.calibrations;
    q->auto_status.last_calibration = now;

    const CostCheck check = CostAgainstBest(*q, base);
    const double previous = q->auto_status.last_ratio;
    q->auto_status.last_ratio = check.ratio;
    if (check.ratio > 1.0 && previous <= 1.0) {
      q->auto_status.last_crossover = now;
    }
    q->cost_policy.UpdateSignal(check.ratio);
    const std::string subject = "q" + std::to_string(qi);
    // Journal the evaluation's inputs; a firing appends its own record.
    obs::JournalEvent ev;
    ev.kind = obs::JournalEvent::Kind::kTriggerEval;
    ev.app_time = now;
    ev.subject = subject;
    ev.strs.emplace_back("policy", "cost_ratio");
    ev.nums.emplace_back("running_cost", check.running);
    ev.nums.emplace_back("candidate_cost", check.best_cost);
    ev.nums.emplace_back("ratio", check.ratio);
    ev.nums.emplace_back("margin", options_.cost_margin);
    ev.nums.emplace_back("hysteresis", options_.cost_hysteresis);
    ev.nums.emplace_back("armed", q->cost_policy.armed() ? 1.0 : 0.0);
    ev.nums.emplace_back("fired", 0.0);
    journal_.Append(std::move(ev));

    // The decision: one plan hosted, a live stream left to migrate for, and
    // the policy's margin, latch and cool-down all agree.
    if (check.best == nullptr || controller.migration_in_progress() ||
        controller.all_inputs_eos() ||
        !q->cost_policy.ShouldFire(now, controller.last_completion())) {
      continue;
    }
    StartGenMigTo(q, check.best);
    q->auto_status.last_armed = now;
    ++q->auto_status.fires;
    obs::JournalEvent fired;
    fired.kind = obs::JournalEvent::Kind::kTriggerEval;
    fired.app_time = now;
    fired.subject = subject;
    fired.strs.emplace_back("policy", "cost_ratio");
    fired.nums.emplace_back("ratio", check.ratio);
    fired.nums.emplace_back("armed", 1.0);
    fired.nums.emplace_back("fired", 1.0);
    // T_split is fixed once every input showed a start timestamp, which is
    // usually at once; otherwise the migration trace records it later.
    if (controller.phase() == MigrationController::Phase::kParallel) {
      fired.nums.emplace_back("t_split",
                              static_cast<double>(controller.t_split().t));
    }
    journal_.Append(std::move(fired));
  }
}

std::string Dsms::MetricsText() const {
#ifdef GENMIG_NO_METRICS
  return "";
#else
  std::string out = obs::RenderPrometheus(registry_);
  char buf[48];
  auto head = [&out](const char* name, const char* help, const char* type) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    out += name;
  };
  auto u64 = [&](const char* name, const char* help, const char* type,
                 uint64_t value) {
    head(name, help, type);
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
    out += buf;
  };
  // Engine-level series on top of the per-operator registry. Everything
  // read here is an atomic mirror or internally locked — this runs on the
  // telemetry server thread.
  const int64_t app_t = app_time_t_.load(std::memory_order_relaxed);
  if (app_t != Timestamp::MinInstant().t) {
    head("genmig_engine_app_time",
         "Engine application time (executor progress).", "gauge");
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", app_t);
    out += buf;
  }
  u64("genmig_engine_queries", "Installed continuous queries.", "gauge",
      query_count_.load(std::memory_order_relaxed));
  u64("genmig_engine_migrations_total", "Plan migrations started.", "counter",
      static_cast<uint64_t>(tracer_.migration_count()));
  u64("genmig_engine_journal_events_total",
      "Decision-journal events appended.", "counter",
      journal_.total_appended());
  if (ckpt_store_ != nullptr) {
    const ckpt::Store::StatsSnapshot cs = ckpt_store_->stats();
    u64("genmig_ckpt_seq", "Sequence of the last committed checkpoint.",
        "gauge", cs.seq);
    u64("genmig_ckpt_commits_total", "Checkpoint commits that succeeded.",
        "counter", cs.commits);
    u64("genmig_ckpt_bytes", "Live bytes of the last committed checkpoint.",
        "gauge", cs.bytes);
    u64("genmig_ckpt_written_bytes",
        "Bytes the last (incremental) commit actually wrote.", "gauge",
        cs.written_bytes);
    u64("genmig_ckpt_duration_ns", "Duration of the last checkpoint commit.",
        "gauge", cs.duration_ns);
    u64("genmig_ckpt_failures_total", "Checkpoint commits that failed.",
        "counter", cs.failures);
    head("genmig_ckpt_age_seconds",
         "Wall-clock seconds since the last committed checkpoint (-1 = "
         "never).",
         "gauge");
    double age = -1.0;
    if (cs.last_commit_wall_ns > 0) {
      age = std::max(
          0.0, static_cast<double>(WallNs() - cs.last_commit_wall_ns) / 1e9);
    }
    std::snprintf(buf, sizeof(buf), " %.3f\n", age);
    out += buf;
  }
  if (telemetry_ != nullptr) {
    u64("genmig_telemetry_requests_total",
        "Requests answered by the telemetry server.", "counter",
        telemetry_->requests_served());
  }
  return out;
#endif
}

obs::HttpResponse Dsms::MetricsResponse() const {
  obs::HttpResponse r;
#ifdef GENMIG_NO_METRICS
  r.status = 503;
  r.body = "metrics compiled out (GENMIG_NO_METRICS)\n";
#else
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = MetricsText();
#endif
  return r;
}

void Dsms::MaybeRefreshStatus() {
  const uint64_t now_ns = obs::MonotonicNowNs();
  if (last_status_refresh_ns_ != 0 &&
      now_ns - last_status_refresh_ns_ < 50'000'000ull) {
    return;
  }
  last_status_refresh_ns_ = now_ns;
  RefreshStatusCache();
}

void Dsms::RefreshStatusCache() {
  std::string out;
  out.reserve(1024);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"app_time\": %" PRId64 ", \"migrations_total\": %d"
                ", \"journal_events\": %" PRIu64,
                exec_.current_time().t, tracer_.migration_count(),
                journal_.total_appended());
  out += buf;
  if (ckpt_store_ != nullptr) {
    const ckpt::Store::StatsSnapshot cs = ckpt_store_->stats();
    std::snprintf(buf, sizeof(buf),
                  ", \"checkpoint\": {\"seq\": %" PRIu64
                  ", \"commits\": %" PRIu64 ", \"failures\": %" PRIu64
                  ", \"bytes\": %" PRIu64 ", \"written_bytes\": %" PRIu64
                  ", \"duration_ns\": %" PRIu64 "}",
                  cs.seq, cs.commits, cs.failures, cs.bytes, cs.written_bytes,
                  cs.duration_ns);
    out += buf;
  }
  out += ", \"queries\": [";
  for (size_t i = 0; i < queries_.size(); ++i) {
    const Query& q = *queries_[i];
    if (i) out += ", ";
    const QueryInfo info = RuntimeInfo(q);
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"q%zu\", \"parallel\": %s"
                  ", \"shards\": %d, \"migrations_completed\": %d"
                  ", \"migration_in_progress\": %s, \"results\": %zu"
                  ", \"state_bytes\": %zu",
                  i, i, info.parallel ? "true" : "false", info.shards,
                  info.migrations_completed,
                  info.migration_in_progress ? "true" : "false",
                  info.result_count, info.state_bytes);
    out += buf;
    if (q.parallel) {
      const par::Coordinator& c = *q.coordinator;
      std::snprintf(buf, sizeof(buf),
                    ", \"source_front\": %" PRId64 ", \"t_split\": %" PRId64,
                    c.source_front().t, c.t_split().t);
      out += buf;
      out += ", \"shard_watermarks\": [";
      for (int k = 0; k < c.shards(); ++k) {
        if (k) out += ", ";
        std::snprintf(buf, sizeof(buf),
                      "{\"shard\": %d, \"watermark\": %" PRId64
                      ", \"lag\": %" PRId64 "}",
                      k, c.shard_watermark(k).t, c.shard_watermark_lag(k));
        out += buf;
      }
      out += "]";
    } else {
      const AutoReoptStatus& a = q.auto_status;
      std::snprintf(buf, sizeof(buf),
                    ", \"auto\": {\"calibrations\": %zu, \"last_ratio\": %.6g"
                    ", \"fires\": %d, \"last_armed\": %" PRId64 "}",
                    a.calibrations, a.last_ratio, a.fires, a.last_armed.t);
      out += buf;
    }
    out += "}";
  }
  out += "], \"streams\": [";
  bool first = true;
  for (const auto& [name, feed] : feeds_) {
    if (!exec_.feed_disordered(feed)) continue;
    if (!first) out += ", ";
    first = false;
    const DisorderInfo info = DisorderStats(name);
    out += "{\"name\": ";
    obs::AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf),
                  ", \"watermark\": %" PRId64 ", \"delta\": %" PRId64
                  ", \"arrived\": %" PRIu64 ", \"dropped_late\": %" PRIu64
                  ", \"adaptations\": %" PRIu64 "}",
                  info.watermark.t, info.delta, info.stats.arrived,
                  info.stats.dropped_late, info.stats.adaptations);
    out += buf;
  }
  out += "]}\n";
  std::lock_guard<std::mutex> lock(status_mu_);
  status_json_ = std::move(out);
}

std::string Dsms::StatusJson() {
  RefreshStatusCache();
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_json_;
}

}  // namespace genmig
