// Shared helpers for genmig tests.

#ifndef GENMIG_TESTS_TEST_UTIL_H_
#define GENMIG_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ops/sink.h"
#include "ops/source.h"

namespace genmig {
namespace testutil {

/// Single-int-field element, interval [s, e).
inline StreamElement El(int64_t value, int64_t s, int64_t e,
                        uint32_t epoch = 0) {
  return StreamElement(Tuple::OfInts({value}),
                       TimeInterval(Timestamp(s), Timestamp(e)), epoch);
}

/// Two-int-field element.
inline StreamElement El2(int64_t v0, int64_t v1, int64_t s, int64_t e,
                         uint32_t epoch = 0) {
  return StreamElement(Tuple::OfInts({v0, v1}),
                       TimeInterval(Timestamp(s), Timestamp(e)), epoch);
}

/// Runs a unary operator over one ordered input stream; returns its output.
inline MaterializedStream RunUnary(Operator* op,
                                   const MaterializedStream& input) {
  Source src("src");
  CollectorSink sink("sink");
  src.ConnectTo(0, op, 0);
  op->ConnectTo(0, &sink, 0);
  for (const StreamElement& e : input) src.Inject(e);
  src.Close();
  return sink.collected();
}

/// Runs a binary operator over two input streams, merged in global start
/// timestamp order; returns its output.
inline MaterializedStream RunBinary(Operator* op,
                                    const MaterializedStream& in0,
                                    const MaterializedStream& in1) {
  Source src0("src0");
  Source src1("src1");
  CollectorSink sink("sink");
  src0.ConnectTo(0, op, 0);
  src1.ConnectTo(0, op, 1);
  op->ConnectTo(0, &sink, 0);
  size_t i = 0;
  size_t j = 0;
  while (i < in0.size() || j < in1.size()) {
    const bool take0 =
        j >= in1.size() ||
        (i < in0.size() &&
         in0[i].interval.start <= in1[j].interval.start);
    if (take0) {
      src0.Inject(in0[i++]);
    } else {
      src1.Inject(in1[j++]);
    }
  }
  src0.Close();
  src1.Close();
  return sink.collected();
}

/// Like RunUnary, but injects the input as TupleBatches of `batch_rows`
/// rows each — the vectorized twin for batch/scalar differential tests.
inline MaterializedStream RunUnaryBatched(Operator* op,
                                          const MaterializedStream& input,
                                          size_t batch_rows) {
  Source src("src");
  CollectorSink sink("sink");
  src.ConnectTo(0, op, 0);
  op->ConnectTo(0, &sink, 0);
  for (size_t i = 0; i < input.size(); i += batch_rows) {
    TupleBatch batch = TupleBatch::FromStream(
        input, i, std::min(batch_rows, input.size() - i));
    src.InjectBatch(batch);
  }
  src.Close();
  return sink.collected();
}

/// Like RunBinary, but each input is cut into TupleBatches of `batch_rows`
/// rows and the two batch sequences interleave by first-row start.
inline MaterializedStream RunBinaryBatched(Operator* op,
                                           const MaterializedStream& in0,
                                           const MaterializedStream& in1,
                                           size_t batch_rows) {
  Source src0("src0");
  Source src1("src1");
  CollectorSink sink("sink");
  src0.ConnectTo(0, op, 0);
  src1.ConnectTo(0, op, 1);
  op->ConnectTo(0, &sink, 0);
  size_t i = 0;
  size_t j = 0;
  while (i < in0.size() || j < in1.size()) {
    const bool take0 =
        j >= in1.size() ||
        (i < in0.size() && in0[i].interval.start <= in1[j].interval.start);
    if (take0) {
      TupleBatch batch = TupleBatch::FromStream(
          in0, i, std::min(batch_rows, in0.size() - i));
      src0.InjectBatch(batch);
      i += batch.size();
    } else {
      TupleBatch batch = TupleBatch::FromStream(
          in1, j, std::min(batch_rows, in1.size() - j));
      src1.InjectBatch(batch);
      j += batch.size();
    }
  }
  src0.Close();
  src1.Close();
  return sink.collected();
}

/// Total multiplicity-weighted duration of a tuple's validity: sum over
/// elements with this tuple of (end - start), counting only chronon-0 width.
inline int64_t TotalValidity(const MaterializedStream& s, const Tuple& t) {
  int64_t total = 0;
  for (const StreamElement& e : s) {
    if (e.tuple == t) total += e.interval.end.t - e.interval.start.t;
  }
  return total;
}

/// The elements of `s` from index `from` on, as sorted strings (tuple,
/// interval and epoch): a multiset that gtest prints readably.
inline std::vector<std::string> SortedStrings(const MaterializedStream& s,
                                              size_t from = 0) {
  std::vector<std::string> out;
  for (size_t i = from; i < s.size(); ++i) out.push_back(s[i].ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Total value-payload bytes of `s`.
inline size_t PayloadBytes(const MaterializedStream& s) {
  size_t bytes = 0;
  for (const StreamElement& e : s) bytes += e.PayloadBytes();
  return bytes;
}

}  // namespace testutil
}  // namespace genmig

#endif  // GENMIG_TESTS_TEST_UTIL_H_
