// StatsTap: a transparent pass-through that maintains the runtime statistics
// the optimizer's cost model needs — stream rate and per-column distinct
// counts over a sliding horizon. One tap per input stream feeds the
// StatsCatalog ("a DSMS keeps a plethora of runtime statistics", Section 1).

#ifndef GENMIG_OPT_STATS_TAP_H_
#define GENMIG_OPT_STATS_TAP_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops/operator.h"
#include "opt/stats.h"

namespace genmig {

class StatsTap : public Operator {
 public:
  /// `horizon`: application-time span over which rate and distinct counts
  /// are measured.
  StatsTap(std::string name, Duration horizon)
      : Operator(std::move(name), 1, 1), horizon_(horizon) {
    GENMIG_CHECK_GT(horizon, 0);
  }

  /// Elements per time unit over the horizon.
  double Rate() const {
    if (arrivals_.empty()) return 0.0;
    return static_cast<double>(arrivals_.size()) /
           static_cast<double>(horizon_);
  }

  /// Distinct values of `column` seen within the horizon.
  double Distinct(size_t column) const {
    if (column >= last_seen_.size() || arrivals_.empty()) return 0.0;
    const Timestamp cutoff = arrivals_.back() - horizon_;
    size_t count = 0;
    for (const auto& [value, seen] : last_seen_[column]) {
      if (seen >= cutoff) ++count;
    }
    return static_cast<double>(count);
  }

  // --- Checkpointing (ISSUE 10) ------------------------------------------
  // The sliding-horizon rate/distinct statistics feed every re-optimization
  // decision; restored cold they would stall the cost model for a full
  // horizon after recovery.
  bool CkptStateful() const override { return true; }
  void CkptExport(StateEnc* enc) const override {
    enc->U64(arrivals_.size());
    for (const Timestamp& t : arrivals_) enc->Ts(t);
    enc->U64(last_seen_.size());
    for (const auto& m : last_seen_) {
      enc->U64(m.size());
      for (const auto& [value, seen] : m) {
        enc->Val(value);
        enc->Ts(seen);
      }
    }
    enc->U64(last_prune_size_);
  }
  bool CkptImport(StateDec* dec) override {
    arrivals_.clear();
    const uint64_t n = dec->U64();
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      arrivals_.push_back(dec->Ts());
    }
    last_seen_.clear();
    const uint64_t cols = dec->U64();
    for (uint64_t c = 0; c < cols && dec->ok(); ++c) {
      last_seen_.emplace_back();
      const uint64_t entries = dec->U64();
      for (uint64_t i = 0; i < entries && dec->ok(); ++i) {
        Value value = dec->Val();
        const Timestamp seen = dec->Ts();
        last_seen_.back().emplace(std::move(value), seen);
      }
    }
    last_prune_size_ = static_cast<size_t>(dec->U64());
    return dec->ok();
  }

  /// Current statistics snapshot for the catalog.
  SourceStats Snapshot() const {
    SourceStats stats;
    stats.rate = Rate();
    for (size_t c = 0; c < last_seen_.size(); ++c) {
      stats.distinct_per_column[c] = std::max(1.0, Distinct(c));
    }
    return stats;
  }

 protected:
  void OnElement(int, const StreamElement& element) override {
    const Timestamp now = element.interval.start;
    Observe(now, element.tuple.size(),
            [&element](size_t c) -> const Value& {
              return element.tuple.field(c);
            });
    PruneArrivals(now);
    Emit(0, element);
  }

  /// Same statistics as a row-by-row replay: the arrivals are pruned once,
  /// at the last row, while the distinct-map sweep is checked per row so
  /// that it erases exactly what the replay would (the maps, and with them
  /// the checkpoint bytes, stay identical).
  void OnBatch(int, const TupleBatch& batch) override {
    for (size_t i = 0; i < batch.size(); ++i) {
      Observe(batch.start(i), batch.num_columns(),
              [&batch, i](size_t c) -> const Value& { return batch.at(c, i); });
    }
    PruneArrivals(batch.start(batch.size() - 1));
    EmitBatch(0, batch);
  }

 private:
  /// Records one arrival at `now`; `value(c)` is its value in column c.
  template <typename ValueAt>
  void Observe(Timestamp now, size_t columns, const ValueAt& value) {
    arrivals_.push_back(now);
    if (last_seen_.size() < columns) last_seen_.resize(columns);
    for (size_t c = 0; c < columns; ++c) last_seen_[c][value(c)] = now;
    MaybeSweepDistinct(now);
  }

  void PruneArrivals(Timestamp now) {
    const Timestamp cutoff = now - horizon_;
    while (!arrivals_.empty() && arrivals_.front() < cutoff) {
      arrivals_.pop_front();
    }
  }

  // Amortize the distinct-map pruning: only sweep when maps grew
  // substantially since the last sweep.
  void MaybeSweepDistinct(Timestamp now) {
    size_t total = 0;
    for (const auto& m : last_seen_) total += m.size();
    if (total < 2 * last_prune_size_ + 16) return;
    const Timestamp cutoff = now - horizon_;
    for (auto& m : last_seen_) {
      for (auto it = m.begin(); it != m.end();) {
        it = it->second < cutoff ? m.erase(it) : std::next(it);
      }
    }
    last_prune_size_ = 0;
    for (const auto& m : last_seen_) last_prune_size_ += m.size();
  }

  const Duration horizon_;
  std::deque<Timestamp> arrivals_;
  std::vector<std::unordered_map<Value, Timestamp, ValueHash>> last_seen_;
  size_t last_prune_size_ = 0;
};

}  // namespace genmig

#endif  // GENMIG_OPT_STATS_TAP_H_
