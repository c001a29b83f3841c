#include "env.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace pipeline_bench {

namespace fs = std::filesystem;

namespace {

/// Largest cache of cpu0 in bytes, from sysfs (the last-level cache).
std::uint64_t llc_size() {
  std::uint64_t best = 0;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    std::ifstream f(entry.path() / "size");
    std::string text;
    if (!(f >> text) || text.empty()) continue;
    std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') v <<= 10;
    if (text.back() == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

Stamp Stamp::collect() {
  Stamp s;
  s.nproc = std::thread::hardware_concurrency();
  s.llc_bytes = llc_size();
  s.compiler = compiler_id();
  s.build_type = PIPELINE_BENCH_BUILD_TYPE;
  s.sanitize = PIPELINE_BENCH_SANITIZE;
  s.git_sha = PIPELINE_BENCH_GIT_SHA;
  s.flagged = s.build_type == "Debug" || !s.sanitize.empty() || !optimized_build();
  return s;
}

chronosync::benchkit::JsonValue Stamp::json() const {
  auto o = chronosync::benchkit::JsonValue::object();
  o.set("nproc", static_cast<std::int64_t>(nproc));
  o.set("llc_bytes", static_cast<std::int64_t>(llc_bytes));
  o.set("compiler", compiler);
  o.set("build_type", build_type);
  o.set("sanitize", sanitize);
  o.set("git_sha", git_sha);
  o.set("unrepresentative_build", flagged);
  return o;
}

std::uint64_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

ScratchDir::ScratchDir(const std::string& root) {
  fs::create_directories(root);
  std::string templ = root + "/run-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("cannot create a scratch directory under " + root);
  }
  path_ = templ;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::uint64_t file_size(const std::string& path) { return fs::file_size(path); }

}  // namespace pipeline_bench
