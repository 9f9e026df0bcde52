// Shared pieces of the end-to-end benchmark: options, the result record
// and its JSON line, the host-calibration kernel, a seeded RNG and Zipf
// sampler owned by the benchmark, and small timing helpers.
#ifndef HEXBENCH_COMMON_H_
#define HEXBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hexbench {

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "full" (the benchmark sizes) or "tiny" (the self-check sizes).
  std::string size = "full";
  /// Scratch directory for files a run writes (WAL, snapshots).
  std::string workdir = ".bench_build/work";

  bool tiny() const { return size == "tiny"; }
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an output mismatch: clears `correct` and logs the first few.
  void Mismatch(const std::string& what);

 private:
  int mismatches_logged_ = 0;
};

/// Renders the final result line (exactly correct/attempted/failed/metrics).
std::string ResultJson(const RunResult& result);

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since the process entered main() (set by main()).
double SinceStart();
void MarkProcessStart();

/// splitmix64-based generator; the benchmark's own, so drawing inputs
/// never depends on the program's RNG.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(theta) over ranks [0, n) by inverse CDF (rank 0 is hottest).
class Zipf {
 public:
  Zipf(std::size_t n, double theta);
  std::size_t Draw(Rand& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The host-calibration kernel. Deterministic (fixed seed), one thread,
/// never calls the program. Each Run() does a fixed batch of independent
/// random reads and then a fixed dependent chain of reads, both over a
/// table larger than the last-level cache, and returns its wall seconds.
class Calibrator {
 public:
  /// The kernel's time on the reference host, fixed once with the
  /// benchmark: calibrated seconds = measured * kNominalS / calib_s.
  static constexpr double kNominalS = 0.1000;

  /// Allocates and fills the table (not part of any timed phase).
  Calibrator();
  /// One kernel run; records and returns its seconds.
  double Run();
  /// Median of the runs so far (runs once if there were none).
  double MedianS();
  /// Raw seconds in calibrated seconds: measured_s * kNominalS / MedianS().
  double Seconds(double measured_s) {
    return measured_s * kNominalS / MedianS();
  }
  /// A rate per raw second as a rate per calibrated second.
  double Rate(double per_s) { return per_s * MedianS() / kNominalS; }
  std::size_t runs() const { return samples_.size(); }

 private:
  std::vector<std::uint64_t> table_;
  std::vector<double> samples_;
};

/// Accumulates per-call seconds of one traced function.
struct Timer {
  double total_s = 0;
  std::uint64_t calls = 0;
  void Add(double s, std::uint64_t n = 1) {
    total_s += s;
    calls += n;
  }
  /// Mean microseconds per call (0 when never called).
  double MeanUs() const { return calls == 0 ? 0 : total_s * 1e6 / calls; }
};

/// Work rates over whole segments of a measured phase. Reporting the
/// median segment keeps one slow stretch (a neighbour's burst, a
/// page-fault storm) from moving the run's figure.
class SegmentRates {
 public:
  void Add(double work, double seconds) {
    work_ += work;
    seconds_ += seconds;
  }
  /// Ends the current segment (no-op when it measured nothing).
  void Close() {
    if (seconds_ > 0) {
      rates_.push_back(work_ / seconds_);
    }
    work_ = seconds_ = 0;
  }
  /// Median segment rate, per raw second.
  double MedianRate() const { return Median(rates_); }

 private:
  std::vector<double> rates_;
  double work_ = 0;
  double seconds_ = 0;
};

/// Divides, returning 0 for an empty denominator.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Prints the uncalibrated counterparts of the calibrated end-to-end
/// figures on stderr (README.md compares their spreads).
void PrintRaw(double setup_s, double queries_per_s,
              double write_triples_per_s, double restart_s, double calib_s);

/// Creates `dir` (and parents); false on failure.
bool MakeDirs(const std::string& dir);
/// Removes `path` recursively; ignores absence.
void RemoveTree(const std::string& path);
/// Size of a regular file in bytes (0 when missing).
std::uint64_t FileBytes(const std::string& path);

}  // namespace hexbench

#endif  // HEXBENCH_COMMON_H_
