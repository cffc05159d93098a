// Checkpoint codec of one migration controller. Shared by the
// single-threaded engine and the shard runtimes of the parallel executor,
// so a shard captures and restores exactly what the engine does: the
// control record, the plans behind the hosted boxes, and one blob per
// stateful operator — including GenMig's new box and merge while a
// migration is in its parallel phase (Sec. 4: old box, new box and T_split
// are the whole migration state).
//
// Operator blobs are keyed "<prefix><box>/<index>:<name>" in compile order,
// so a restore into an identically compiled box re-binds state positionally
// AND nominally — any plan or compile-option drift between the checkpointed
// run and the restored one surfaces as a typed DataLoss, never as silently
// misassigned state.

#ifndef GENMIG_CKPT_BOX_CODEC_H_
#define GENMIG_CKPT_BOX_CODEC_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ckpt/format.h"
#include "common/status.h"
#include "migration/controller.h"
#include "plan/box.h"
#include "plan/logical.h"

namespace genmig {
namespace ckpt {

/// The plans behind a controller's boxes. `plan` compiles into the hosted
/// box, or into the new box while a GenMig is in flight; `old_plan` is the
/// plan the old (hosted) box runs then.
struct HostedPlans {
  LogicalPtr plan;
  LogicalPtr old_plan;
};

/// Encodes one stateful operator's state; `key` is its blob key. Null
/// means a fresh CkptExport (the engine passes its per-operator cache).
using OpEncoder =
    std::function<std::string(const std::string& key, const Operator& op)>;

/// Appends the blobs of `controller` (group = `group`): "<prefix>ctl",
/// "<prefix>plan" and "<prefix>box/<i>:<name>" per stateful operator of the
/// hosted box; in GenMig's kParallel phase also "<prefix>oldplan",
/// "<prefix>nbox/<i>:<name>" and, for a stateful merge, "<prefix>merge".
/// Requires controller.CkptReady().
void ExportController(const std::string& prefix,
                      const MigrationController& controller,
                      const HostedPlans& plans, const std::string& group,
                      std::vector<Blob>* blobs,
                      const OpEncoder& encode = nullptr);

/// Compiles a decoded plan into a box whose inputs match the controller's.
using PlanCompiler = std::function<Box(const LogicalPtr& plan)>;

/// Rebuilds a freshly constructed `controller` from ExportController's
/// blobs: the hosted box, and in kParallel the new box and merge at the
/// recorded T_split, then every operator's state. `plans` receives the
/// decoded plans. DataLoss when a blob is missing (topology mismatch) or
/// corrupt.
Status ImportController(const std::string& prefix,
                        const std::map<std::string, std::string>& blobs,
                        const PlanCompiler& compile,
                        MigrationController* controller, HostedPlans* plans);

}  // namespace ckpt
}  // namespace genmig

#endif  // GENMIG_CKPT_BOX_CODEC_H_
