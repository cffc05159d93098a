#include "ckpt/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace genmig {
namespace ckpt {
namespace {

namespace fs = std::filesystem;

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t MonoNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::DataLoss("read error on " + path);
  *out = buf.str();
  return Status::OK();
}

/// Writes `bytes` to `path` and fsyncs the file (not the directory).
Status WriteFileSync(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("write " + path + ": " + err);
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fsync " + path + ": " + err);
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("open dir " + dir + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // Best-effort; Commit reports failures.
  worker_ = std::thread([this] { WorkerMain(); });
}

Store::~Store() {
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

Status Store::Commit(std::vector<Blob> blobs) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return CommitLocked(blobs);
}

bool Store::CommitAsync(std::vector<Blob> blobs) {
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    if (busy_ || pending_.has_value()) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    pending_ = std::move(blobs);
  }
  worker_cv_.notify_all();
  return true;
}

void Store::WaitIdle() {
  std::unique_lock<std::mutex> lock(worker_mu_);
  worker_cv_.wait(lock, [this] { return !busy_ && !pending_.has_value(); });
}

bool Store::idle() const {
  std::lock_guard<std::mutex> lock(worker_mu_);
  return !busy_ && !pending_.has_value();
}

void Store::WorkerMain() {
  for (;;) {
    std::vector<Blob> round;
    {
      std::unique_lock<std::mutex> lock(worker_mu_);
      worker_cv_.wait(lock, [this] { return stop_ || pending_.has_value(); });
      if (stop_ && !pending_.has_value()) return;
      round = std::move(*pending_);
      pending_.reset();
      busy_ = true;
    }
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      CommitLocked(round);  // Failure recorded in stats + event observer.
    }
    {
      std::lock_guard<std::mutex> lock(worker_mu_);
      busy_ = false;
    }
    worker_cv_.notify_all();
  }
}

void Store::Notify(const Event& event) {
  if (observer_) observer_(event);
}

Status Store::CommitLocked(const std::vector<Blob>& blobs) {
  const uint64_t t0 = MonoNowNs();
  const uint64_t seq = seq_.load(std::memory_order_relaxed) + 1;

  Event begin;
  begin.phase = Event::Phase::kBegin;
  begin.seq = seq;
  Notify(begin);

  // Previous entries by key, for hash-based carry-forward.
  Manifest next;
  next.seq = seq;
  uint64_t total_bytes = 0;
  std::unordered_map<std::string, const ManifestEntry*> prev;
  uint64_t prev_seq = 0;
  if (last_manifest_.has_value()) {
    prev_seq = last_manifest_->seq;
    for (const ManifestEntry& e : last_manifest_->entries) {
      prev.emplace(e.key, &e);
    }
  }

  std::map<std::string, std::string> chunks;  // group -> file image.
  uint64_t written_bytes = 0;
  for (const Blob& blob : blobs) {
    total_bytes += blob.bytes.size();
    const uint64_t hash = Fnv1a(blob.bytes);
    auto it = prev.find(blob.key);
    if (it != prev.end() && it->second->hash == hash &&
        it->second->length == blob.bytes.size()) {
      next.entries.push_back(*it->second);  // Unchanged: no IO.
      continue;
    }
    ManifestEntry e;
    e.key = blob.key;
    e.chunk_file = ChunkFileName(seq, blob.group);
    e.hash = hash;
    AppendChunkRecord(&chunks[blob.group], blob.bytes, &e.offset, &e.length,
                      &e.crc);
    written_bytes += blob.bytes.size();
    next.entries.push_back(std::move(e));
  }

  auto abort = [&](Status status) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    Event ev;
    ev.phase = Event::Phase::kAbort;
    ev.seq = seq;
    ev.bytes = total_bytes;
    ev.written_bytes = written_bytes;
    ev.duration_ns = MonoNowNs() - t0;
    ev.message = status.ToString();
    Notify(ev);
    return status;
  };

  // 1. Chunks (fsync'd, but not yet reachable from any manifest).
  for (const auto& [group, image] : chunks) {
    Status s = WriteFileSync(dir_ + "/" + ChunkFileName(seq, group), image);
    if (!s.ok()) return abort(std::move(s));
  }
  // 2. Manifest, written under a temp name that Load() never considers and
  // renamed into place whole, so a kill mid-write leaves no torn MANIFEST-*.
  const std::string manifest_name = ManifestFileName(seq);
  Status s = WriteFileSync(dir_ + "/MANIFEST.tmp", EncodeManifest(next));
  if (!s.ok()) return abort(std::move(s));
  std::error_code ec;
  fs::rename(dir_ + "/MANIFEST.tmp", dir_ + "/" + manifest_name, ec);
  if (ec) return abort(Status::Internal("rename manifest: " + ec.message()));
  s = SyncDir(dir_);
  if (!s.ok()) return abort(std::move(s));
  // 3. Commit point: swap CURRENT.
  s = WriteFileSync(dir_ + "/CURRENT.tmp", manifest_name + "\n");
  if (!s.ok()) return abort(std::move(s));
  fs::rename(dir_ + "/CURRENT.tmp", dir_ + "/CURRENT", ec);
  if (ec) return abort(Status::Internal("rename CURRENT: " + ec.message()));
  s = SyncDir(dir_);
  if (!s.ok()) return abort(std::move(s));

  last_manifest_ = std::move(next);
  seq_.store(seq, std::memory_order_relaxed);
  commits_.fetch_add(1, std::memory_order_relaxed);
  bytes_.store(total_bytes, std::memory_order_relaxed);
  written_bytes_.store(written_bytes, std::memory_order_relaxed);
  const uint64_t dur = MonoNowNs() - t0;
  duration_ns_.store(dur, std::memory_order_relaxed);
  last_commit_wall_ns_.store(WallNowNs(), std::memory_order_relaxed);

  CollectGarbage(seq, prev_seq);

  Event ev;
  ev.phase = Event::Phase::kCommit;
  ev.seq = seq;
  ev.bytes = total_bytes;
  ev.written_bytes = written_bytes;
  ev.duration_ns = dur;
  Notify(ev);
  return Status::OK();
}

// Keeps the manifests with seq `keep_seq_a`/`keep_seq_b` plus every chunk
// they reference; deletes all other checkpoint files. Keeping two manifests
// is what makes the corruption fallback in Load() meaningful.
void Store::CollectGarbage(uint64_t keep_seq_a, uint64_t keep_seq_b) {
  std::set<std::string> keep = {"CURRENT"};
  for (uint64_t seq : {keep_seq_a, keep_seq_b}) {
    if (seq == 0) continue;
    const std::string name = ManifestFileName(seq);
    std::string bytes;
    if (!ReadFileBytes(dir_ + "/" + name, &bytes).ok()) continue;
    Manifest m;
    if (!DecodeManifest(bytes, &m).ok()) continue;
    keep.insert(name);
    for (const ManifestEntry& e : m.entries) keep.insert(e.chunk_file);
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    const bool checkpoint_file =
        ParseManifestFileName(name, &seq) ||
        (name.rfind("chunk-", 0) == 0 && name.size() > 4 &&
         name.substr(name.size() - 4) == ".gmc");
    if (checkpoint_file && keep.count(name) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

Status Store::TryLoadManifest(const std::string& manifest_file,
                              std::map<std::string, std::string>* blobs,
                              Manifest* manifest) {
  std::string bytes;
  Status s = ReadFileBytes(dir_ + "/" + manifest_file, &bytes);
  if (!s.ok()) return s;
  Manifest m;
  s = DecodeManifest(bytes, &m);
  if (!s.ok()) return s;

  // Chunk files are read whole and verified record by record.
  std::map<std::string, std::string> chunk_cache;
  std::map<std::string, std::string> out;
  for (const ManifestEntry& e : m.entries) {
    auto it = chunk_cache.find(e.chunk_file);
    if (it == chunk_cache.end()) {
      std::string image;
      s = ReadFileBytes(dir_ + "/" + e.chunk_file, &image);
      if (!s.ok()) {
        return Status::DataLoss(manifest_file + " references unreadable " +
                                e.chunk_file + " (" + s.ToString() + ")");
      }
      it = chunk_cache.emplace(e.chunk_file, std::move(image)).first;
    }
    std::string payload;
    s = ReadChunkRecord(it->second, e, &payload);
    if (!s.ok()) return s;
    out[e.key] = std::move(payload);
  }
  *blobs = std::move(out);
  *manifest = std::move(m);
  return Status::OK();
}

Status Store::Load(std::map<std::string, std::string>* blobs, uint64_t* seq) {
  std::lock_guard<std::mutex> lock(commit_mu_);

  // Candidate manifests, best first: the one CURRENT names, then every
  // MANIFEST-* on disk in descending seq order.
  std::vector<std::string> candidates;
  std::string current;
  if (ReadFileBytes(dir_ + "/CURRENT", &current).ok()) {
    while (!current.empty() &&
           (current.back() == '\n' || current.back() == '\r')) {
      current.pop_back();
    }
    uint64_t parsed = 0;
    // A torn or scribbled CURRENT must not make Load read outside the
    // checkpoint dir; only well-formed manifest names are followed.
    if (ParseManifestFileName(current, &parsed)) candidates.push_back(current);
  }
  std::vector<std::pair<uint64_t, std::string>> on_disk;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t s = 0;
    if (ParseManifestFileName(name, &s)) on_disk.emplace_back(s, name);
  }
  std::sort(on_disk.rbegin(), on_disk.rend());
  for (const auto& [s, name] : on_disk) {
    if (std::find(candidates.begin(), candidates.end(), name) ==
        candidates.end()) {
      candidates.push_back(name);
    }
  }
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint in " + dir_);
  }

  Status first_error = Status::OK();
  for (const std::string& name : candidates) {
    Manifest m;
    std::map<std::string, std::string> out;
    Status s = TryLoadManifest(name, &out, &m);
    if (s.ok()) {
      *blobs = std::move(out);
      if (seq != nullptr) *seq = m.seq;
      seq_.store(m.seq, std::memory_order_relaxed);
      last_manifest_ = std::move(m);
      return Status::OK();
    }
    if (first_error.ok()) first_error = std::move(s);
  }
  return Status::DataLoss("no intact checkpoint in " + dir_ +
                          " (first error: " + first_error.ToString() + ")");
}

Store::StatsSnapshot Store::stats() const {
  StatsSnapshot s;
  s.seq = seq_.load(std::memory_order_relaxed);
  s.commits = commits_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.written_bytes = written_bytes_.load(std::memory_order_relaxed);
  s.duration_ns = duration_ns_.load(std::memory_order_relaxed);
  s.last_commit_wall_ns = last_commit_wall_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ckpt
}  // namespace genmig
