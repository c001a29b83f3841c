// Process environment for the pipeline benchmark: the machine/build stamp
// attached to every result, resident-memory probes, and the per-run scratch
// directory.
#pragma once

#include <cstdint>
#include <string>

#include "benchkit/json.hpp"

namespace pipeline_bench {

/// Where and how a result was produced.  `flagged` is set for builds whose
/// timings are not representative (Debug, unoptimized, sanitizers).
struct Stamp {
  unsigned nproc = 0;
  std::uint64_t llc_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string sanitize;
  std::string git_sha;
  bool flagged = false;

  static Stamp collect();
  chronosync::benchkit::JsonValue json() const;
};

/// Peak resident set (VmHWM) of this process in bytes.
std::uint64_t peak_rss_bytes();

/// Resets the kernel's peak-RSS mark to the current resident set so a later
/// peak_rss_bytes() covers only what ran after the reset.  Returns false when
/// the kernel refuses (the peak then includes everything before).
bool reset_peak_rss();

/// Unique directory created under `root` and removed, with its contents, when
/// the object is destroyed.  Each benchmark run owns one, so concurrent runs
/// never share fixture, output or spill file names.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::uint64_t file_size(const std::string& path);

}  // namespace pipeline_bench
