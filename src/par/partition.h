// Partitionability analysis for the shard-parallel executor.
//
// A plan can run as N independent replicas over hash-partitioned inputs iff
// every stateful operator only ever combines tuples that agree on one
// partition key per source. Snapshot equivalence (Theorem 1) then holds
// shard-wise: the plan's output is the disjoint union of the per-shard
// outputs, each of which is the plan's output restricted to the tuples whose
// key hashes to that shard — so migrating each shard replica with GenMig at
// one shared T_split preserves global snapshot equivalence.
//
// The analysis computes, per source leaf, the column to hash-partition on:
//  * Equi-join keys force columns equal across sources; a union-find over
//    (leaf, column) pairs must collapse the constrained columns of all
//    leaves into ONE class ("co-partitioning"), else shards would have to
//    exchange tuples.
//  * Duplicate elimination needs at least one class column in its input
//    schema: equal tuples then carry equal key values and land on the same
//    shard, so per-shard dedup equals global dedup.
//  * Selection, projection, and time windows are per-element — always fine.
//  * Aggregates (global groups), unions/differences (cross-source bags
//    without a key constraint), count windows (order across shards), and
//    theta joins without an equi key are NOT partitionable; the caller falls
//    back to the single-threaded engine (shards = 1).

#ifndef GENMIG_PAR_PARTITION_H_
#define GENMIG_PAR_PARTITION_H_

#include <string>
#include <vector>

#include "plan/logical.h"

namespace genmig {
namespace par {

/// Hash-routing rule for one source leaf (= one plan input port).
struct PortKey {
  std::string source;  ///< Stream name of the leaf.
  size_t column = 0;   ///< Partition column, in the leaf's schema.
  Duration window = 0; ///< Time window directly above the leaf (0 = none).
};

struct PartitionSpec {
  bool ok = false;
  std::string reason;          ///< Why the plan is not partitionable.
  std::vector<PortKey> ports;  ///< One per leaf, left-to-right.
  Duration max_window = 0;     ///< Max leaf window (T_split computation).

  std::string ToString() const;
};

/// Analyzes a *windowed* logical plan. On failure, `ok` is false and
/// `reason` explains the first blocking construct.
PartitionSpec AnalyzePlan(const LogicalNode& windowed_root);

/// Owner shard of a row whose partition column holds `key`, in [0, shards).
inline size_t OwnerShard(const Value& key, size_t shards) {
  return key.Hash() % shards;
}
/// Owner shard of `tuple` under `key`, in [0, shards).
size_t OwnerShard(const Tuple& tuple, size_t column, size_t shards);

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_PARTITION_H_
