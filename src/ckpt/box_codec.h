// Per-operator state blobs of a compiled Box (ISSUE 10). Shared by the
// single-threaded engine and the shard runtimes of the parallel executor:
// both walk the box in compile order and key each stateful operator's blob
// by "<prefix><index>:<name>", so a restore into an identically compiled box
// re-binds state positionally AND nominally — any plan or compile-option
// drift between the checkpointed run and the restored one surfaces as a
// typed DataLoss, never as silently misassigned state.

#ifndef GENMIG_CKPT_BOX_CODEC_H_
#define GENMIG_CKPT_BOX_CODEC_H_

#include <map>
#include <string>
#include <vector>

#include "ckpt/format.h"
#include "common/status.h"
#include "plan/box.h"

namespace genmig {
namespace ckpt {

/// Appends one Blob per stateful operator of `box` (group = `group`).
void ExportBoxOps(const std::string& prefix, const Box& box,
                  const std::string& group, std::vector<Blob>* blobs);

/// Imports every stateful operator of `box` from `blobs`. DataLoss when a
/// key is missing (topology mismatch) or a blob fails to decode.
Status ImportBoxOps(const std::string& prefix, const Box& box,
                    const std::map<std::string, std::string>& blobs);

}  // namespace ckpt
}  // namespace genmig

#endif  // GENMIG_CKPT_BOX_CODEC_H_
