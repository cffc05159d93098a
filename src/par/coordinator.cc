#include "par/coordinator.h"

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "stream/state_codec.h"

namespace genmig {
namespace par {

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

Coordinator::~Coordinator() {
  if (started_ && !joined_) Wait();
}

Status Coordinator::ScheduleGenMig(LogicalPtr new_windowed_plan, Timestamp at,
                                   MigrationController::GenMigOptions base) {
  GENMIG_CHECK(!started_);
  if (!spec_.ok) {
    return Status::FailedPrecondition("plan is not partitionable: " +
                                      spec_.reason);
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
  if (merge_ != nullptr) return Status::OK();  // Restore() already built it.
  if (!spec_.ok) {
    return Status::FailedPrecondition("plan is not partitionable: " +
                                      spec_.reason);
  }

  out_queue_ = std::make_unique<BoundedQueue<ShardOutMsg>>(
      options_.queue_capacity);
  merge_ = std::make_unique<MergeSink>(options_.shards, out_queue_.get(),
                                       sink_, options_.registry);
  if (options_.on_cut) {
    merge_->on_checkpoint = [this](std::shared_ptr<CkptCapture> capture) {
      std::vector<ckpt::Blob> blobs;
      bool failed = false;
      {
        std::lock_guard<std::mutex> lock(capture->mu);
        failed = capture->failed;
        blobs = std::move(capture->blobs);
      }
      if (!failed) options_.on_cut(std::move(blobs));
      ckpt_inflight_.store(false, std::memory_order_release);
    };
  }

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
    config.on_progress = [this] {
      // Wakes WaitMigrationsComplete(); the lock pairs the shard's release
      // store with the barrier's predicate re-check.
      std::lock_guard<std::mutex> lock(progress_mu_);
      progress_cv_.notify_all();
    };
    shards_.push_back(std::make_unique<ShardRuntime>(std::move(config)));
  }
  return Status::OK();
}

Status Coordinator::Start(InputMap inputs) {
  GENMIG_CHECK(!started_);  // The router may still be reading owned_inputs_.
  owned_inputs_ = std::move(inputs);
  InputRefs refs;
  for (const auto& [name, stream] : owned_inputs_) refs.emplace(name, &stream);
  return Start(refs);
}

Status Coordinator::Start(const InputRefs& inputs) {
  GENMIG_CHECK(!started_);
  Status built = BuildRuntime();
  if (!built.ok()) return built;
  for (const PortKey& port : spec_.ports) {
    if (inputs.find(port.source) == inputs.end()) {
      return Status::NotFound("no input stream named '" + port.source + "'");
    }
  }
  started_ = true;

  merge_->Start();
  for (auto& shard : shards_) shard->Start();
  router_ = std::thread([this, inputs] { RouterMain(inputs); });
  return Status::OK();
}

Status Coordinator::Restore(const std::map<std::string, std::string>& blobs) {
  GENMIG_CHECK(!started_);
  Status s = BuildRuntime();
  if (!s.ok()) return s;

  auto it = blobs.find("router");
  if (it == blobs.end()) {
    return Status::DataLoss("checkpoint lacks the 'router' blob");
  }
  StateDec dec(it->second);
  auto restore = std::make_unique<RouterRestore>();
  const uint32_t ncursors = dec.U32();
  for (uint32_t c = 0; c < ncursors && dec.ok(); ++c) {
    std::string name = dec.Str();
    RouterRestore::CursorState state;
    state.pos = dec.U64();
    state.injected = dec.U64();
    // A router that reordered this stream itself wrote its buffer here and
    // counted `pos` in arrivals, not in the reordered rows it reads now.
    if (dec.Bool()) {
      return Status::DataLoss("checkpoint has disorder state for '" + name +
                              "' but the stream is not disordered now");
    }
    dec.Bool();  // Unused fields, kept for the blob layout (initiate_cut).
    dec.Stream();
    restore->cursors.emplace(std::move(name), std::move(state));
  }
  restore->max_routed = dec.Ts();
  restore->any_routed = dec.Bool();
  const uint64_t routed = dec.U64();
  const uint32_t nscheduled = dec.U32();
  if (dec.ok() && nscheduled != scheduled_.size()) {
    return Status::DataLoss(
        "checkpointed run had a different migration schedule");
  }
  int fired_count = 0;
  for (uint32_t i = 0; i < nscheduled && dec.ok(); ++i) {
    const bool fired = dec.Bool();
    scheduled_[i].fired = fired;
    if (fired) ++fired_count;
  }
  const int64_t active_idx = dec.I64();
  restore->has_last_ckpt = dec.Bool();
  restore->last_ckpt_t = dec.I64();
  const bool split_set = dec.Bool();
  const Timestamp split = dec.Ts();
  dec.U8();  // Unused fields, kept for the blob layout (initiate_cut).
  dec.Ts();
  if (!dec.AtEnd()) {
    return Status::DataLoss("the 'router' blob is corrupt");
  }
  if (active_idx >= static_cast<int64_t>(scheduled_.size()) ||
      (active_idx >= 0 && !scheduled_[static_cast<size_t>(active_idx)].fired)) {
    return Status::DataLoss("the 'router' blob names an invalid active plan");
  }

  // Cuts are only taken migration-quiescent, so every fired broadcast had
  // completed on every shard; the hosted plan is the last-broadcast target.
  const LogicalPtr active_plan =
      active_idx < 0 ? nullptr
                     : scheduled_[static_cast<size_t>(active_idx)].new_stripped;
  for (auto& shard : shards_) {
    s = shard->CkptRestore(blobs, active_plan);
    if (!s.ok()) return s;
  }
  auto mb = blobs.find("merge");
  if (mb == blobs.end()) {
    return Status::DataLoss("checkpoint lacks the 'merge' blob");
  }
  if (!merge_->CkptImport(mb->second)) {
    return Status::DataLoss("the 'merge' blob is corrupt");
  }

  elements_routed_.store(routed, std::memory_order_relaxed);
  if (restore->any_routed) {
    source_front_.store(restore->max_routed.t, std::memory_order_relaxed);
  }
  broadcasts_fired_.store(fired_count, std::memory_order_release);
  if (split_set) {
    t_split_t_.store(split.t, std::memory_order_relaxed);
    t_split_eps_.store(split.eps, std::memory_order_relaxed);
    t_split_set_.store(true, std::memory_order_release);
  }
  active_plan_idx_ = static_cast<int>(active_idx);
  router_restore_ = std::move(restore);
  return Status::OK();
}

void Coordinator::Broadcast(Scheduled* scheduled, Timestamp max_routed) {
  scheduled->fired = true;
  active_plan_idx_ = static_cast<int>(scheduled - scheduled_.data());

  // One T_split valid on every shard: greater than every start instant any
  // replica has seen (<= max_routed), plus the window slack w and the +1
  // chronon of Section 4. eps = 1 keeps the split strictly between the
  // chronon grid points, exactly like the local computation.
  const Timestamp forced(max_routed.t + spec_.max_window + 1, 1);

  auto order = std::make_shared<MigrationOrder>();
  order->new_plan = scheduled->new_stripped;
  order->input_order.clear();
  for (size_t i = 0; i < spec_.ports.size(); ++i) {
    // Shards name inputs after the leaf order of the OLD plan; CompilePlan
    // names new boxes the same way, so the identity order re-binds ports.
    order->input_order.push_back(spec_.ports[i].source);
  }
  order->options = scheduled->base;
  order->options.window = spec_.max_window;
  order->options.min_split = forced;

  for (auto& shard : shards_) {
    for (size_t port = 0; port < spec_.ports.size(); ++port) {
      // Unthinned per-port heartbeat: every controller port reaches t_Si >=
      // its true local max, so TryEnterParallel fires synchronously inside
      // StartGenMig and max(local, forced) == forced on every shard. The
      // promise is sound for every port: the router always routes the
      // smallest pending front, and every input is ordered by start, so no
      // stream can still deliver below max_routed.
      ShardInMsg hb;
      hb.kind = ShardInMsg::Kind::kHeartbeat;
      hb.port = static_cast<int>(port);
      hb.time = max_routed;
      shard->input().Push(std::move(hb));
    }
    ShardInMsg mig;
    mig.kind = ShardInMsg::Kind::kMigrate;
    mig.order = order;
    shard->input().Push(std::move(mig));
  }

  t_split_t_.store(forced.t, std::memory_order_relaxed);
  t_split_eps_.store(forced.eps, std::memory_order_relaxed);
  t_split_set_.store(true, std::memory_order_release);
  broadcasts_fired_.fetch_add(1, std::memory_order_release);
}

void Coordinator::RouterMain(const InputRefs& inputs) {
  // Distinct streams in deterministic (map) order, with a read cursor each.
  struct Cursor {
    const std::string* name = nullptr;
    const MaterializedStream* stream = nullptr;
    size_t pos = 0;
    uint64_t injected = 0;  // For ingress sampling.
  };
  std::vector<Cursor> cursors;
  for (const auto& [name, stream] : inputs) {
    // Only route streams the plan references.
    bool used = false;
    for (const PortKey& port : spec_.ports) used |= (port.source == name);
    if (!used) continue;
    Cursor c;
    c.name = &name;
    c.stream = stream;
    cursors.push_back(c);
  }

  // Ports fed by each stream, precomputed (stream index -> port list).
  std::vector<std::vector<size_t>> ports_of(cursors.size());
  for (size_t ci = 0; ci < cursors.size(); ++ci) {
    for (size_t p = 0; p < spec_.ports.size(); ++p) {
      if (spec_.ports[p].source == *cursors[ci].name) {
        ports_of[ci].push_back(p);
      }
    }
  }

  const size_t nshards = static_cast<size_t>(options_.shards);
  // Suppressed-element counters for heartbeat thinning, per (port, shard).
  std::vector<std::vector<size_t>> suppressed(
      spec_.ports.size(), std::vector<size_t>(nshards, 0));

  // A heartbeat at time t to (p, s) must not overtake pending rows starting
  // before t (the shard-side ordering check rejects them), so a heartbeat
  // flushes its accumulator first. Thin heartbeats to the batch size so
  // they do not defeat the batching they ride alongside.
  const size_t hb_every = options_.batch_size;
  // Per (port, shard) row accumulators, shipped as one kBatch message each.
  std::vector<std::vector<TupleBatch>> acc(spec_.ports.size(),
                                           std::vector<TupleBatch>(nshards));
  // A port that carries few rows fills its batches rarely and, until then,
  // holds back its shards' watermarks, output and state expiry. So a batch
  // also ships once batch_size * ports * shards rows were routed since its
  // first row: an accumulator that gets its fair share of the rows fills in
  // about that many, so the age limit cuts only quieter ports' batches.
  const uint64_t max_age = options_.batch_size * spec_.ports.size() * nshards;
  std::vector<std::vector<uint64_t>> born(spec_.ports.size(),
                                          std::vector<uint64_t>(nshards));
  uint64_t routed = 0;
  auto flush = [&](size_t p, size_t s) {
    TupleBatch& pending = acc[p][s];
    if (pending.empty()) return;
    ShardInMsg msg;
    msg.kind = ShardInMsg::Kind::kBatch;
    msg.port = static_cast<int>(p);
    msg.batch = std::move(pending);
    shards_[s]->input().Push(std::move(msg));
    pending.Clear();
  };
  auto flush_all = [&] {
    for (size_t p = 0; p < spec_.ports.size(); ++p) {
      for (size_t s = 0; s < nshards; ++s) flush(p, s);
    }
  };

  Timestamp max_routed = Timestamp::MinInstant();
  bool any_routed = false;
  bool have_last_ckpt = false;
  int64_t last_ckpt_t = 0;

  // Resume from a restored cut (ISSUE 10): every cursor picks up at its
  // captured position. Suppressed-heartbeat counters restart at zero —
  // heartbeat thinning only affects watermark timing (buffering), never
  // content.
  if (router_restore_ != nullptr) {
    for (Cursor& c : cursors) {
      auto rit = router_restore_->cursors.find(*c.name);
      GENMIG_CHECK(rit != router_restore_->cursors.end());
      RouterRestore::CursorState& st = rit->second;
      GENMIG_CHECK(st.pos <= c.stream->size());
      c.pos = static_cast<size_t>(st.pos);
      c.injected = st.injected;
    }
    max_routed = router_restore_->max_routed;
    any_routed = router_restore_->any_routed;
    have_last_ckpt = router_restore_->has_last_ckpt;
    last_ckpt_t = router_restore_->last_ckpt_t;
    router_restore_.reset();
  }

  // Periodic marker-based cut (ISSUE 10): the router captures its own
  // cursor state HERE — the exact position in the global routed
  // order — then pushes a kCheckpoint marker into every shard queue. The
  // marker travels in-band (FIFO), so each shard captures after exactly the
  // messages routed before the cut, and the merge aligns its own capture on
  // the forwarded markers (see CkptCapture).
  const Duration ckpt_period = options_.checkpoint_period;
  const bool ckpt_on = options_.on_cut && ckpt_period > 0;
  auto initiate_cut = [&] {
    flush_all();  // Accumulated rows must reach the shards before markers.
    auto capture = std::make_shared<CkptCapture>();
    StateEnc enc;
    enc.U32(static_cast<uint32_t>(cursors.size()));
    for (const Cursor& c : cursors) {
      enc.Str(*c.name);
      enc.U64(c.pos);
      enc.U64(c.injected);
      // Blobs keep the layout of routers that reordered disordered streams
      // themselves, so checkpoints of ordered runs restore across versions.
      // Their disorder fields are written as such a router wrote them for an
      // ordered stream: no buffer, not flushed, no pending rows, and a
      // horizon unset before the broadcast and vacuous after it.
      enc.Bool(false);
      enc.Bool(false);
      enc.Stream(MaterializedStream());
    }
    enc.Ts(max_routed);
    enc.Bool(any_routed);
    enc.U64(elements_routed_.load(std::memory_order_relaxed));
    enc.U32(static_cast<uint32_t>(scheduled_.size()));
    for (const Scheduled& sc : scheduled_) enc.Bool(sc.fired);
    enc.I64(active_plan_idx_);
    enc.Bool(have_last_ckpt);
    enc.I64(last_ckpt_t);
    const bool split_set = t_split_set_.load(std::memory_order_relaxed);
    enc.Bool(split_set);
    enc.Ts(Timestamp(t_split_t_.load(std::memory_order_relaxed),
                     t_split_eps_.load(std::memory_order_relaxed)));
    enc.U8(split_set ? 1 : 0);
    enc.Ts(split_set ? Timestamp::MaxInstant() : Timestamp(0, 0));
    ckpt::Blob blob;
    blob.key = "router";
    blob.group = "main";
    blob.bytes = enc.Take();
    capture->Add(std::move(blob));
    ckpt_inflight_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      ShardInMsg msg;
      msg.kind = ShardInMsg::Kind::kCheckpoint;
      msg.capture = capture;
      shard->input().Push(std::move(msg));
    }
  };

  while (true) {
    // Global temporal order over the stream fronts: the stream with the
    // smallest next start (ties: lowest stream index). Deterministic
    // because the input is data, not thread timing.
    size_t best = cursors.size();
    for (size_t ci = 0; ci < cursors.size(); ++ci) {
      const Cursor& c = cursors[ci];
      if (c.pos >= c.stream->size()) continue;
      if (best == cursors.size() ||
          (*c.stream)[c.pos].interval.start <
              (*cursors[best].stream)[cursors[best].pos].interval.start) {
        best = ci;
      }
    }
    if (best == cursors.size()) break;  // All streams exhausted.

    Cursor& cur = cursors[best];
    const StreamElement& element = (*cur.stream)[cur.pos++];
    uint64_t ingress_ns = element.ingress_ns;
#ifndef GENMIG_NO_METRICS
    if (options_.registry != nullptr && ingress_ns == 0 &&
        (cur.injected++ & obs::MetricsRegistry::kSampleMask) == 0) {
      ingress_ns = obs::MonotonicNowNs();
    }
#endif

    if (max_routed < element.interval.start) {
      max_routed = element.interval.start;
      // Publish the source front for the shards' watermark-lag gauges
      // (relaxed single-writer store; a stale read only under-reports lag).
      source_front_.store(max_routed.t, std::memory_order_relaxed);
    }

    for (size_t p : ports_of[best]) {
      const size_t owner = OwnerShard(element.tuple, spec_.ports[p].column,
                                      nshards);
      // Rows land in global temporal order, so the accumulator stays
      // ordered by t_start for free.
      TupleBatch& rows = acc[p][owner];
      if (rows.empty()) born[p][owner] = routed;
      rows.AppendRow(element.tuple, element.interval, element.epoch,
                     ingress_ns);
      if (rows.size() >= options_.batch_size) flush(p, owner);
      for (size_t s = 0; s < nshards; ++s) {
        if (s == owner || ++suppressed[p][s] < hb_every) continue;
        suppressed[p][s] = 0;
        flush(p, s);
        ShardInMsg msg;
        msg.kind = ShardInMsg::Kind::kHeartbeat;
        msg.port = static_cast<int>(p);
        msg.time = element.interval.start;
        shards_[s]->input().Push(std::move(msg));
      }
    }
    ++routed;
    for (size_t p = 0; p < spec_.ports.size(); ++p) {
      for (size_t s = 0; s < nshards; ++s) {
        if (!acc[p][s].empty() && routed - born[p][s] >= max_age) flush(p, s);
      }
    }
    elements_routed_.fetch_add(1, std::memory_order_relaxed);
    any_routed = true;

    // Fire scheduled migrations once routing reached their instant. After
    // at least one element: T_split derives from max_routed, and the
    // controller needs a nonempty timestamp history anyway.
    for (Scheduled& s : scheduled_) {
      if (!s.fired && any_routed && s.at <= max_routed) {
        // The broadcast's unthinned heartbeats must not overtake
        // accumulated rows (which all start <= their port's promise).
        flush_all();
        Broadcast(&s, max_routed);
      }
    }

    // Cuts are only taken migration-quiescent: every broadcast completed on
    // every shard, so no split/merge machinery needs capturing. A cut whose
    // period elapsed during a migration fires at the next quiescent element.
    if (ckpt_on && !ckpt_inflight_.load(std::memory_order_acquire) &&
        migrations_completed() >=
            broadcasts_fired_.load(std::memory_order_acquire)) {
      if (!have_last_ckpt) {
        have_last_ckpt = true;  // Period starts at the first routed element.
        last_ckpt_t = max_routed.t;
      } else if (max_routed.t - last_ckpt_t >= ckpt_period) {
        last_ckpt_t = max_routed.t;
        initiate_cut();
      }
    }
  }

  // Never-fired migrations (scheduled past the end of the data) still fire,
  // provided anything was routed at all — matching the single-threaded
  // engine, where a drain-time migration runs against final state.
  flush_all();
  for (Scheduled& s : scheduled_) {
    if (!s.fired && any_routed) Broadcast(&s, max_routed);
  }

  for (auto& shard : shards_) {
    for (size_t p = 0; p < spec_.ports.size(); ++p) {
      ShardInMsg msg;
      msg.kind = ShardInMsg::Kind::kEos;
      msg.port = static_cast<int>(p);
      shard->input().Push(std::move(msg));
    }
    shard->input().Close();
  }
}

void Coordinator::Wait() {
  GENMIG_CHECK(started_);
  if (joined_) return;
  router_.join();
  for (auto& shard : shards_) shard->Join();
  out_queue_->Close();
  merge_->Join();
  joined_ = true;
  // Final wakeup: shards can no longer publish progress.
  std::lock_guard<std::mutex> lock(progress_mu_);
  progress_cv_.notify_all();
}

Status Coordinator::Run(InputMap inputs) {
  Status status = Start(std::move(inputs));
  if (status.ok()) Wait();
  return status;
}

void Coordinator::WaitMigrationsComplete() {
  GENMIG_CHECK(started_);
  std::unique_lock<std::mutex> lock(progress_mu_);
  progress_cv_.wait(lock, [this] {
    return migrations_completed() >=
           broadcasts_fired_.load(std::memory_order_acquire);
  });
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
