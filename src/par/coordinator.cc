#include "par/coordinator.h"

#include <algorithm>
#include <utility>

#include "stream/state_codec.h"

namespace genmig {
namespace par {

namespace {

/// Leading field of the "router" blob. Routers that walked the feeds on
/// their own thread began it with their cursor count instead; their cuts
/// were committed apart from the engine's part and cannot be resumed.
constexpr uint32_t kRouterBlobTag = 0x52545232;  // "RTR2"

}  // namespace

/// The routing operator: one input port per plan leaf, fed by the leaf's
/// feed Source on the engine thread, and no outputs.
class Coordinator::Router : public Operator {
 public:
  Router(Coordinator* c, const Executor* exec, std::vector<int> port_feeds)
      : Operator("par/router", static_cast<int>(port_feeds.size()), 0),
        c_(c),
        exec_(exec),
        port_feeds_(std::move(port_feeds)),
        ends_element_(port_feeds_.size(), true),
        shipped_eos_(port_feeds_.size(), false),
        acc_(port_feeds_.size(), std::vector<TupleBatch>(c->shards_.size())),
        born_(port_feeds_.size(), std::vector<uint64_t>(c->shards_.size())),
        suppressed_(port_feeds_.size(),
                    std::vector<size_t>(c->shards_.size(), 0)) {
    // A source feeding several leaves (a self-join) pushes each element into
    // its ports in ascending order; the element counts as routed after the
    // last one.
    for (size_t p = 0; p + 1 < port_feeds_.size(); ++p) {
      for (size_t q = p + 1; q < port_feeds_.size(); ++q) {
        if (port_feeds_[q] == port_feeds_[p]) ends_element_[p] = false;
      }
    }
  }

  bool finished() const { return eos_count_ == port_feeds_.size(); }
  Timestamp max_routed() const { return max_routed_; }
  bool any_routed() const { return any_routed_; }
  void Restore(Timestamp max_routed, bool any_routed) {
    max_routed_ = max_routed;
    any_routed_ = any_routed;
  }

  void FlushAll() {
    for (size_t p = 0; p < acc_.size(); ++p) {
      for (size_t s = 0; s < acc_[p].size(); ++s) Flush(p, s);
    }
  }

 protected:
  void OnElement(int in_port, const StreamElement& element) override {
    const size_t p = static_cast<size_t>(in_port);
    Route(p, element.tuple.field(c_->spec_.ports[p].column),
          element.interval.start, [&element](TupleBatch* rows) {
            rows->AppendRow(element.tuple, element.interval, element.epoch,
                            element.ingress_ns);
          });
    if (ends_element_[p]) FireDue();
  }

  // Migrations fire after the whole batch: its later rows are still
  // pending on this port, below the promise the broadcast would make.
  void OnBatch(int in_port, const TupleBatch& batch) override {
    const size_t p = static_cast<size_t>(in_port);
    const size_t column = c_->spec_.ports[p].column;
    for (size_t r = 0; r < batch.size(); ++r) {
      Route(p, batch.at(column, r), batch.start(r),
            [&batch, r](TupleBatch* rows) { rows->AppendRowFrom(batch, r); });
    }
    if (ends_element_[p]) FireDue();
  }

  // Starts no thread: a restored feed re-delivers its EOS before the cut's
  // state is back, and the shards must handle it after that.
  void OnInputEos(int in_port) override {
    const size_t p = static_cast<size_t>(in_port);
    // Never-fired migrations (scheduled past the end of the data) still
    // fire, provided anything was routed at all — matching the
    // single-threaded engine, where a drain-time migration runs against
    // final state. They go out before the last port's EOS.
    if (eos_count_ + 1 == port_feeds_.size() && any_routed_) {
      for (Scheduled& s : c_->scheduled_) {
        if (!s.fired) Broadcast(&s);
      }
    }
    for (size_t s = 0; s < acc_[p].size(); ++s) {
      Flush(p, s);
      ShardInMsg msg;
      msg.kind = ShardInMsg::Kind::kEos;
      msg.port = in_port;
      c_->shards_[s]->input().Push(std::move(msg));
    }
    shipped_eos_[p] = true;
    if (++eos_count_ < port_feeds_.size()) return;
    for (auto& shard : c_->shards_) shard->input().Close();
  }

 private:
  /// Routes one row of port `p` whose partition column holds `key`;
  /// `append` adds it to a TupleBatch.
  template <typename AppendFn>
  void Route(size_t p, const Value& key, Timestamp start, AppendFn append) {
    c_->EnsureStarted();
    const size_t nshards = c_->shards_.size();
    const size_t batch_size = c_->options_.batch_size;
    if (max_routed_ < start) {
      max_routed_ = start;
      // Publish the source front for the shards' watermark-lag gauges
      // (relaxed single-writer store; a stale read only under-reports lag).
      c_->source_front_.store(start.t, std::memory_order_relaxed);
    }
    const size_t owner = OwnerShard(key, nshards);
    // Each port's rows arrive ordered by start, so the accumulator stays
    // ordered for free.
    TupleBatch& rows = acc_[p][owner];
    if (rows.empty()) born_[p][owner] = routed_;
    append(&rows);
    if (rows.size() >= batch_size) Flush(p, owner);
    // A heartbeat at time t to (p, s) must not overtake pending rows starting
    // before t (the shard-side ordering check rejects them), so a heartbeat
    // flushes its accumulator first. Thin heartbeats to the batch size so
    // they do not defeat the batching they ride alongside.
    for (size_t s = 0; s < nshards; ++s) {
      if (s == owner || ++suppressed_[p][s] < batch_size) continue;
      suppressed_[p][s] = 0;
      Flush(p, s);
      ShardInMsg msg;
      msg.kind = ShardInMsg::Kind::kHeartbeat;
      msg.port = static_cast<int>(p);
      msg.time = start;
      c_->shards_[s]->input().Push(std::move(msg));
    }
    if (!ends_element_[p]) return;

    ++routed_;
    // A port that carries few rows fills its batches rarely and, until
    // then, holds back its shards' watermarks, output and state expiry. So
    // a batch also ships once batch_size * ports * shards rows were routed
    // since its first row: an accumulator that gets its fair share of the
    // rows fills in about that many, so the age limit cuts only quieter
    // ports' batches.
    const uint64_t max_age = batch_size * acc_.size() * nshards;
    for (size_t q = 0; q < acc_.size(); ++q) {
      for (size_t s = 0; s < nshards; ++s) {
        if (!acc_[q][s].empty() && routed_ - born_[q][s] >= max_age) {
          Flush(q, s);
        }
      }
    }
    c_->elements_routed_.fetch_add(1, std::memory_order_relaxed);
    any_routed_ = true;
  }

  /// Fires scheduled migrations once routing reached their instant.
  void FireDue() {
    for (Scheduled& s : c_->scheduled_) {
      if (!s.fired && s.at <= max_routed_) Broadcast(&s);
    }
  }

  void Flush(size_t p, size_t s) {
    TupleBatch& pending = acc_[p][s];
    if (pending.empty()) return;
    ShardInMsg msg;
    msg.kind = ShardInMsg::Kind::kBatch;
    msg.port = static_cast<int>(p);
    msg.batch = std::move(pending);
    c_->shards_[s]->input().Push(std::move(msg));
    pending.Clear();
  }

  void Broadcast(Scheduled* scheduled) {
    scheduled->fired = true;
    // The broadcast's heartbeats must not overtake accumulated rows.
    FlushAll();

    // One T_split valid on every shard: greater than every start instant
    // any replica has seen (<= max_routed_), plus the window slack w and the
    // +1 chronon of Section 4. eps = 1 keeps the split strictly between the
    // chronon grid points, exactly like the local computation.
    const Timestamp forced(max_routed_.t + c_->spec_.max_window + 1, 1);

    auto order = std::make_shared<MigrationOrder>();
    order->new_plan = scheduled->new_stripped;
    for (const PortKey& port : c_->spec_.ports) {
      // Shards name inputs after the leaf order of the OLD plan; CompilePlan
      // names new boxes the same way, so the identity order re-binds ports.
      order->input_order.push_back(port.source);
    }
    order->options = scheduled->base;
    order->options.window = c_->spec_.max_window;
    order->options.min_split = forced;

    for (auto& shard : c_->shards_) {
      for (size_t p = 0; p < port_feeds_.size(); ++p) {
        if (shipped_eos_[p]) continue;  // An ended input counts as observed.
        // Unthinned per-port heartbeat, so every controller port fixes its
        // t_Si inside StartGenMig and max(local, forced) == forced on every
        // shard. The promise holds for every policy and batch size: nothing
        // routed on this port starts above max_routed_, and the executor
        // pushes nothing into it below its feed's smallest pending start.
        ShardInMsg hb;
        hb.kind = ShardInMsg::Kind::kHeartbeat;
        hb.port = static_cast<int>(p);
        hb.time = std::min(max_routed_, exec_->pending_start(port_feeds_[p]));
        shard->input().Push(std::move(hb));
      }
      ShardInMsg mig;
      mig.kind = ShardInMsg::Kind::kMigrate;
      mig.order = order;
      shard->input().Push(std::move(mig));
    }

    c_->t_split_t_.store(forced.t, std::memory_order_relaxed);
    c_->t_split_eps_.store(forced.eps, std::memory_order_relaxed);
    c_->t_split_set_.store(true, std::memory_order_release);
  }

  Coordinator* c_;
  const Executor* exec_;
  std::vector<int> port_feeds_;      // Executor feed per port.
  std::vector<bool> ends_element_;   // Last port its feed's element reaches.
  std::vector<bool> shipped_eos_;
  size_t eos_count_ = 0;
  // Per (port, shard): row accumulator, the routed count at its first row,
  // and suppressed heartbeats since the last one sent. Accumulators are
  // empty at every cut; the counters restart at zero after a restore
  // (thinning only affects watermark timing, never content).
  std::vector<std::vector<TupleBatch>> acc_;
  std::vector<std::vector<uint64_t>> born_;
  std::vector<std::vector<size_t>> suppressed_;
  uint64_t routed_ = 0;
  Timestamp max_routed_ = Timestamp::MinInstant();
  bool any_routed_ = false;
};

Coordinator::Coordinator(LogicalPtr windowed_plan, CollectorSink* sink,
                         Options options)
    : windowed_plan_(std::move(windowed_plan)),
      sink_(sink),
      options_(std::move(options)) {
  GENMIG_CHECK(windowed_plan_ != nullptr);
  GENMIG_CHECK(sink_ != nullptr);
  GENMIG_CHECK(options_.shards >= 1);
  GENMIG_CHECK(options_.queue_capacity >= 1);
  GENMIG_CHECK(options_.batch_size >= 1);
  spec_ = AnalyzePlan(*windowed_plan_);
  if (spec_.ok) stripped_plan_ = logical::StripWindows(windowed_plan_);
}

Coordinator::~Coordinator() { Wait(); }

Status Coordinator::ScheduleGenMig(LogicalPtr new_windowed_plan, Timestamp at,
                                   MigrationController::GenMigOptions base) {
  if (!spec_.ok) {
    return Status::FailedPrecondition("plan is not partitionable: " +
                                      spec_.reason);
  }
  if (finished()) {
    return Status::FailedPrecondition(
        "the query has finished; nothing is left to migrate");
  }
  GENMIG_CHECK(new_windowed_plan != nullptr);
  // The new plan must partition identically: routing decisions were made
  // against the old spec and cannot be revisited for in-flight state.
  PartitionSpec new_spec = AnalyzePlan(*new_windowed_plan);
  if (!new_spec.ok) {
    return Status::InvalidArgument("new plan is not partitionable: " +
                                   new_spec.reason);
  }
  if (new_spec.ports.size() != spec_.ports.size()) {
    return Status::InvalidArgument("new plan has a different leaf count");
  }
  // Leaves may be reordered (that is what ReorderInputs handles), but the
  // per-source partition column and window must be unchanged.
  auto sorted_keys = [](const PartitionSpec& s) {
    std::vector<std::tuple<std::string, size_t, Duration>> keys;
    keys.reserve(s.ports.size());
    for (const PortKey& p : s.ports) {
      keys.emplace_back(p.source, p.column, p.window);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  if (sorted_keys(new_spec) != sorted_keys(spec_)) {
    return Status::InvalidArgument(
        "new plan partitions differently (source/column/window mismatch); "
        "old: " + spec_.ToString() + " new: " + new_spec.ToString());
  }
  Scheduled s;
  s.new_stripped = logical::StripWindows(new_windowed_plan);
  s.at = at;
  s.base = base;
  scheduled_.push_back(std::move(s));
  return Status::OK();
}

Status Coordinator::BuildRuntime() {
  if (merge_ != nullptr) return Status::OK();
  if (!spec_.ok) {
    return Status::FailedPrecondition("plan is not partitionable: " +
                                      spec_.reason);
  }

  out_queue_ = std::make_unique<BoundedQueue<ShardOutMsg>>(
      options_.queue_capacity);
  merge_ = std::make_unique<MergeSink>(options_.shards, out_queue_.get(),
                                       sink_, options_.registry);

  std::vector<std::string> port_sources;
  std::vector<Duration> port_windows;
  for (const PortKey& port : spec_.ports) {
    port_sources.push_back(port.source);
    port_windows.push_back(port.window);
  }
  for (int s = 0; s < options_.shards; ++s) {
    ShardRuntime::Config config;
    config.shard_id = s;
    config.stripped_plan = stripped_plan_;
    config.port_sources = port_sources;
    config.port_windows = port_windows;
    config.queue_capacity = options_.queue_capacity;
    config.out = out_queue_.get();
    config.registry = options_.registry;
    config.tracer = options_.tracer;
    config.source_front = &source_front_;
    shards_.push_back(std::make_unique<ShardRuntime>(std::move(config)));
  }
  return Status::OK();
}

Status Coordinator::Connect(Executor* exec,
                            const std::map<std::string, int>& feeds) {
  GENMIG_CHECK(router_ == nullptr);
  Status built = BuildRuntime();
  if (!built.ok()) return built;
  std::vector<int> port_feeds;
  for (const PortKey& port : spec_.ports) {
    auto it = feeds.find(port.source);
    if (it == feeds.end()) {
      return Status::NotFound("no input stream named '" + port.source + "'");
    }
    port_feeds.push_back(it->second);
  }
  router_ = std::make_unique<Router>(this, exec, port_feeds);
  for (size_t p = 0; p < port_feeds.size(); ++p) {
    exec->ConnectFeed(port_feeds[p], router_.get(), static_cast<int>(p));
  }
  return Status::OK();
}

Status Coordinator::Run(InputMap inputs) {
  Executor exec;
  std::map<std::string, int> feeds;
  for (auto& [name, stream] : inputs) {
    feeds[name] = exec.AddFeed(name, std::move(stream));
  }
  Status status = Connect(&exec, feeds);
  if (!status.ok()) return status;
  exec.RunToCompletion();
  Wait();
  return Status::OK();
}

void Coordinator::EnsureStarted() {
  if (started_) return;
  started_ = true;
  merge_->Start();
  for (auto& shard : shards_) shard->Start();
}

bool Coordinator::finished() const {
  return router_ != nullptr && router_->finished();
}

std::shared_ptr<CkptCapture> Coordinator::BeginCut() {
  GENMIG_CHECK(router_ != nullptr);
  // The merge aligns one cut at a time.
  GENMIG_CHECK(last_cut_ == nullptr || last_cut_->done);
  auto capture = std::make_shared<CkptCapture>();
  StateEnc enc;
  enc.U32(kRouterBlobTag);
  enc.Ts(router_->max_routed());
  enc.Bool(router_->any_routed());
  enc.U64(elements_routed_.load(std::memory_order_relaxed));
  enc.U32(static_cast<uint32_t>(scheduled_.size()));
  for (const Scheduled& sc : scheduled_) enc.Bool(sc.fired);
  enc.Bool(t_split_set_.load(std::memory_order_relaxed));
  enc.Ts(Timestamp(t_split_t_.load(std::memory_order_relaxed),
                   t_split_eps_.load(std::memory_order_relaxed)));
  capture->Add(ckpt::Blob{"router", enc.Take(), "main"});
  last_cut_ = capture;

  if (finished()) {
    // The shard queues are closed: capture the final state once drained.
    Wait();
    for (auto& shard : shards_) shard->CaptureCheckpoint(capture.get());
    merge_->CaptureJoined(capture.get());
    return capture;
  }
  // The markers travel in-band (FIFO) behind every row routed so far, so
  // each shard captures after exactly those messages, and the merge aligns
  // its own capture on the forwarded markers (see CkptCapture).
  EnsureStarted();
  router_->FlushAll();
  for (auto& shard : shards_) {
    ShardInMsg msg;
    msg.kind = ShardInMsg::Kind::kCheckpoint;
    msg.capture = capture;
    shard->input().Push(std::move(msg));
  }
  return capture;
}

Status Coordinator::Restore(const std::map<std::string, std::string>& all,
                            const std::string& prefix) {
  GENMIG_CHECK(router_ != nullptr);  // Connect() built the runtime.
  GENMIG_CHECK(!started_);
  std::map<std::string, std::string> blobs;
  for (auto it = all.lower_bound(prefix);
       it != all.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    blobs.emplace(it->first.substr(prefix.size()), it->second);
  }
  auto it = blobs.find("router");
  if (it == blobs.end()) {
    return Status::DataLoss("checkpoint lacks '" + prefix + "router'");
  }
  StateDec dec(it->second);
  if (dec.U32() != kRouterBlobTag) {
    return Status::DataLoss(
        "the sharded cut has the layout of a router that walked the feeds on "
        "its own thread (per-stream cursors, committed apart from the "
        "engine's part); it cannot be resumed");
  }
  const Timestamp max_routed = dec.Ts();
  const bool any_routed = dec.Bool();
  const uint64_t routed = dec.U64();
  const uint32_t nscheduled = dec.U32();
  if (dec.ok() && nscheduled != scheduled_.size()) {
    return Status::DataLoss(
        "checkpointed run had a different migration schedule");
  }
  for (uint32_t i = 0; i < nscheduled && dec.ok(); ++i) {
    scheduled_[i].fired = dec.Bool();
  }
  const bool split_set = dec.Bool();
  const Timestamp split = dec.Ts();
  if (!dec.AtEnd()) {
    return Status::DataLoss("the 'router' blob is corrupt");
  }

  for (auto& shard : shards_) {
    Status s = shard->CkptRestore(blobs);
    if (!s.ok()) return s;
  }
  auto mb = blobs.find("merge");
  if (mb == blobs.end()) {
    return Status::DataLoss("checkpoint lacks the 'merge' blob");
  }
  if (!merge_->CkptImport(mb->second)) {
    return Status::DataLoss("the 'merge' blob is corrupt");
  }

  router_->Restore(max_routed, any_routed);
  elements_routed_.store(routed, std::memory_order_relaxed);
  if (any_routed) {
    source_front_.store(max_routed.t, std::memory_order_relaxed);
  }
  if (split_set) {
    t_split_t_.store(split.t, std::memory_order_relaxed);
    t_split_eps_.store(split.eps, std::memory_order_relaxed);
    t_split_set_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

void Coordinator::Wait() {
  if (merge_ == nullptr || joined_) return;
  // The shards may hold routed EOS messages only.
  EnsureStarted();
  // Closed already once every port's EOS was routed; closing here ends a
  // run that is torn down mid-stream.
  for (auto& shard : shards_) shard->input().Close();
  for (auto& shard : shards_) shard->Join();
  out_queue_->Close();
  merge_->Join();
  joined_ = true;
}

int Coordinator::migrations_completed() const {
  int min = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int done = shards_[s]->migrations_completed();
    if (s == 0 || done < min) min = done;
  }
  return min;
}

Timestamp Coordinator::t_split() const {
  if (!t_split_set_.load(std::memory_order_acquire)) {
    return Timestamp::MinInstant();
  }
  return Timestamp(t_split_t_.load(std::memory_order_relaxed),
                   t_split_eps_.load(std::memory_order_relaxed));
}

}  // namespace par
}  // namespace genmig
