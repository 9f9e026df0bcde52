#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace hexbench {

namespace {

double g_process_start = 0;
// Keeps the kernel's reads observable so they are not optimised away.
volatile std::uint64_t g_kernel_sink = 0;

// 40 Mi entries = 320 MiB: larger than the 300 MiB last-level cache of
// the reference host, so the reads go to memory as the stores' do.
constexpr std::size_t kTableEntries = std::size_t{40} << 20;
constexpr std::size_t kReadsPerRun = std::size_t{1} << 20;
constexpr std::size_t kChaseSteps = std::size_t{1} << 18;
constexpr std::uint64_t kKernelSeed = 0x5EEDC0DEull;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  return x ^ (x >> 33);
}

}  // namespace

void MarkProcessStart() { g_process_start = Now(); }
double SinceStart() { return Now() - g_process_start; }

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches_logged_ < 10) {
    std::fprintf(stderr, "hexbench: MISMATCH %s\n", what.c_str());
    ++mismatches_logged_;
  }
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Zipf::Zipf(std::size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

std::size_t Zipf::Draw(Rand& rng) const {
  const double u = rng.Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

Calibrator::Calibrator()
    : table_(kTableEntries) {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = Mix(kKernelSeed + i);
  }
}

double Calibrator::Run() {
  const double t0 = Now();
  std::uint64_t acc = 0;
  std::uint64_t h = kKernelSeed;
  // Independent reads: the memory system's throughput, as in scans.
  for (std::size_t i = 0; i < kReadsPerRun; ++i) {
    h = Mix(h + i);
    acc += table_[h % kTableEntries];
  }
  // A dependent chain: each address comes from the previous read, so
  // every step pays the full memory latency, as in lookups and probes.
  // The step index keeps the walk from closing into a cached cycle.
  std::uint64_t at = acc % kTableEntries;
  for (std::size_t i = 0; i < kChaseSteps; ++i) {
    at = Mix(table_[at] + i) % kTableEntries;
  }
  g_kernel_sink = g_kernel_sink + acc + at;
  const double t1 = Now();
  samples_.push_back(t1 - t0);
  return t1 - t0;
}

double Calibrator::MedianS() {
  if (samples_.empty()) {
    Run();
  }
  return Median(samples_);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void PrintRaw(double setup_s, double queries_per_s,
              double write_triples_per_s, double restart_s, double calib_s) {
  std::fprintf(stderr,
               "hexbench raw: setup_s=%.9g queries_per_s=%.9g "
               "write_triples_per_s=%.9g restart_s=%.9g calib_s=%.9g\n",
               setup_s, queries_per_s, write_triples_per_s, restart_s,
               calib_s);
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace hexbench
