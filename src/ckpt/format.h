// On-disk checkpoint format (ISSUE 10). Three file kinds live in a
// checkpoint directory:
//
//   chunk-<seq>-<group>.gmc   blob records appended by one commit round
//   MANIFEST-<seq>            the authoritative key -> (chunk, offset) map
//   CURRENT                   name of the last committed manifest
//
// A chunk file is the 8-byte magic "GMCKCHK1" followed by records, each
// framed as [u32 payload_len][u32 crc32(payload)][payload]. Chunks are
// immutable once a manifest referencing them commits; incremental commits
// write only the *changed* blobs into a fresh chunk and carry forward
// manifest entries pointing into older chunks for everything unchanged.
//
// A manifest file is "GMCKMAN1", u32 format version, u64 body length,
// u32 crc32(body), body. The body (StateEnc-coded) lists the checkpoint
// sequence number plus every live entry {key, chunk file, offset, length,
// payload crc, payload hash}. The hash (FNV-1a 64) is what lets the next
// commit skip IO for byte-identical blobs.
//
// Commit order is: chunks fsync'd, manifest written + fsync'd, CURRENT
// swapped via tmp + rename + directory fsync. A crash at any point leaves
// either the old or the new checkpoint fully intact; the reader also
// falls back to scanning MANIFEST-* descending when CURRENT or the
// manifest it names is torn.

#ifndef GENMIG_CKPT_FORMAT_H_
#define GENMIG_CKPT_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace genmig {
namespace ckpt {

inline constexpr std::string_view kChunkMagic = "GMCKCHK1";
inline constexpr std::string_view kManifestMagic = "GMCKMAN1";
inline constexpr uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE, reflected) over `bytes`.
uint32_t Crc32(std::string_view bytes);

/// FNV-1a 64-bit content hash (dirty-blob dedup, not integrity).
uint64_t Fnv1a(std::string_view bytes);

/// One live blob in a manifest.
struct ManifestEntry {
  std::string key;
  std::string chunk_file;  // File name relative to the checkpoint dir.
  uint64_t offset = 0;     // Offset of the record header in the chunk.
  uint64_t length = 0;     // Payload length.
  uint32_t crc = 0;        // crc32(payload).
  uint64_t hash = 0;       // fnv1a(payload).
};

struct Manifest {
  uint64_t seq = 0;
  std::vector<ManifestEntry> entries;
};

/// One serialized piece of operator/engine state.
struct Blob {
  std::string key;
  std::string bytes;
  /// Chunk-file grouping ("main", "s0", "s1", ...). Blobs of one group land
  /// in one chunk file per commit.
  std::string group = "main";
};

/// Appends one framed record to a chunk image and reports where it landed.
/// `offset`/`length`/`crc` are filled for the manifest entry.
void AppendChunkRecord(std::string* chunk, std::string_view payload,
                       uint64_t* offset, uint64_t* length, uint32_t* crc);

/// Extracts and verifies the record an entry points at from a full chunk
/// image. DataLoss on bad magic, framing mismatch, or CRC mismatch.
Status ReadChunkRecord(std::string_view chunk, const ManifestEntry& entry,
                       std::string* payload);

/// Full manifest file image (magic + version + body).
std::string EncodeManifest(const Manifest& manifest);

/// Parses and verifies a manifest file image. DataLoss on corruption,
/// InvalidArgument on a format version from the future.
Status DecodeManifest(std::string_view bytes, Manifest* out);

/// Canonical file names.
std::string ManifestFileName(uint64_t seq);
std::string ChunkFileName(uint64_t seq, std::string_view group);

/// Parses "MANIFEST-<seq>"; returns false for anything else.
bool ParseManifestFileName(std::string_view name, uint64_t* seq);

}  // namespace ckpt
}  // namespace genmig

#endif  // GENMIG_CKPT_FORMAT_H_
