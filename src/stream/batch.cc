#include "stream/batch.h"

#include "common/check.h"

namespace genmig {

void TupleBatch::Clear() {
  rows_ = 0;
  for (auto& col : columns_) col.clear();
  t_start_.clear();
  t_end_.clear();
  epoch_.clear();
  ingress_ns_.clear();
}

void TupleBatch::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
  t_start_.reserve(rows);
  t_end_.reserve(rows);
  epoch_.reserve(rows);
  ingress_ns_.reserve(rows);
}

void TupleBatch::EnsureArity(size_t arity) {
  if (rows_ == 0 && columns_.size() != arity) {
    columns_.assign(arity, {});
  }
  GENMIG_CHECK_EQ(columns_.size(), arity);
}

void TupleBatch::Append(const StreamElement& element) {
  AppendRow(element.tuple, element.interval, element.epoch,
            element.ingress_ns);
}

void TupleBatch::AppendRow(const Tuple& tuple, TimeInterval interval,
                           uint32_t epoch, uint64_t ingress_ns) {
  GENMIG_CHECK(interval.Valid());
  EnsureArity(tuple.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(tuple.field(c));
  }
  t_start_.push_back(interval.start);
  t_end_.push_back(interval.end);
  epoch_.push_back(epoch);
  ingress_ns_.push_back(ingress_ns);
  ++rows_;
}

void TupleBatch::AppendRowFrom(const TupleBatch& other, size_t row,
                               TimeInterval interval) {
  GENMIG_CHECK(interval.Valid());
  EnsureArity(other.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(other.columns_[c][row]);
  }
  t_start_.push_back(interval.start);
  t_end_.push_back(interval.end);
  epoch_.push_back(other.epoch_[row]);
  ingress_ns_.push_back(other.ingress_ns_[row]);
  ++rows_;
}

void TupleBatch::AppendColumnsFrom(const TupleBatch& other,
                                   const std::vector<size_t>& cols) {
  if (other.rows_ == 0) return;
  EnsureArity(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    GENMIG_CHECK_LT(cols[c], other.num_columns());
    const std::vector<Value>& src = other.columns_[cols[c]];
    columns_[c].insert(columns_[c].end(), src.begin(), src.end());
  }
  t_start_.insert(t_start_.end(), other.t_start_.begin(), other.t_start_.end());
  t_end_.insert(t_end_.end(), other.t_end_.begin(), other.t_end_.end());
  epoch_.insert(epoch_.end(), other.epoch_.begin(), other.epoch_.end());
  ingress_ns_.insert(ingress_ns_.end(), other.ingress_ns_.begin(),
                     other.ingress_ns_.end());
  rows_ += other.rows_;
}

void TupleBatch::AppendFilteredFrom(const TupleBatch& other,
                                    const std::vector<uint8_t>& keep) {
  if (other.rows_ == 0) return;
  GENMIG_CHECK_EQ(keep.size(), other.rows_);
  EnsureArity(other.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<Value>& dst = columns_[c];
    const std::vector<Value>& src = other.columns_[c];
    for (size_t r = 0; r < other.rows_; ++r) {
      if (keep[r]) dst.push_back(src[r]);
    }
  }
  size_t kept = 0;
  for (size_t r = 0; r < other.rows_; ++r) {
    if (!keep[r]) continue;
    ++kept;
    t_start_.push_back(other.t_start_[r]);
    t_end_.push_back(other.t_end_[r]);
    epoch_.push_back(other.epoch_[r]);
    ingress_ns_.push_back(other.ingress_ns_[r]);
  }
  rows_ += kept;
}

Tuple TupleBatch::RowTuple(size_t row) const {
  Tuple t;
  t.Reserve(columns_.size());
  for (const auto& col : columns_) t.Append(col[row]);
  return t;
}

StreamElement TupleBatch::Row(size_t row) const {
  StreamElement e(RowTuple(row), interval(row), epoch_[row]);
  e.ingress_ns = ingress_ns_[row];
  return e;
}

bool TupleBatch::OrderedByStart() const {
  for (size_t i = 1; i < rows_; ++i) {
    if (t_start_[i] < t_start_[i - 1]) return false;
  }
  return true;
}

TupleBatch TupleBatch::FromStream(const MaterializedStream& stream,
                                  size_t begin, size_t count) {
  GENMIG_CHECK_LE(begin + count, stream.size());
  TupleBatch batch;
  batch.Reserve(count);
  for (size_t i = 0; i < count; ++i) batch.Append(stream[begin + i]);
  return batch;
}

MaterializedStream TupleBatch::ToStream() const {
  MaterializedStream out;
  out.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) out.push_back(Row(i));
  return out;
}

std::string TupleBatch::ToString() const {
  std::string out = "batch[" + std::to_string(rows_) + " x " +
                    std::to_string(columns_.size()) + "]";
  if (rows_ > 0) {
    out += " " + Row(0).ToString();
    if (rows_ > 1) out += " .. " + Row(rows_ - 1).ToString();
  }
  return out;
}

}  // namespace genmig
