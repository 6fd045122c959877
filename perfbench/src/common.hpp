// common.hpp — shared plumbing of the perfbench workloads: run arguments,
// the metric report, output-check accounting, order statistics and process
// resource usage.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "grid/matrix.hpp"
#include "sparklet/cluster.hpp"
#include "support/format.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Counts every checked solve, job and query; `failed` covers outputs that
/// failed their check as well as operations that threw or were rejected.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_rate() const {
    return attempted > 0 ? double(failed) / double(attempted) : 0.0;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `e2e` is printed with --trace 0, `layer`
/// with --trace 1; `notes` are human-readable lines printed before the
/// result.
struct Report {
  bool correct = true;
  Tally tally;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

/// Quantile by linear interpolation between order statistics (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Process CPU time (user, system) and peak resident set so far.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_mb = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec);
    u.sys_s = double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
    u.max_rss_mb = double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
    return u;
  }
};

/// Relative comparison that treats equal infinities as equal.
inline bool close_enough(double got, double want, double rel_tol) {
  if (got == want) return true;
  const double scale = std::max(1.0, std::max(std::abs(got), std::abs(want)));
  return std::abs(got - want) <= rel_tol * scale;
}

/// Compare a whole table against a reference; empty when every cell is
/// within 1e-9 relative, else the first cell that is not.
inline std::string compare_tables(const gs::Matrix<double>& got,
                                  const gs::Matrix<double>& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return gs::strfmt("table is %zux%zu, reference %zux%zu", got.rows(),
                      got.cols(), want.rows(), want.cols());
  }
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (!close_enough(got(i, j), want(i, j), 1e-9)) {
        return gs::strfmt("cell (%zu,%zu) %.17g vs reference %.17g", i, j,
                          got(i, j), want(i, j));
      }
    }
  }
  return "";
}

/// Virtual cluster every solve runs on. Spill files, if a storage ladder
/// ever demotes a block, stay inside the working directory.
inline sparklet::ClusterConfig local_cluster(int nodes, int cores) {
  sparklet::ClusterConfig cfg = sparklet::ClusterConfig::local(nodes, cores);
  cfg.spill_dir = ".bench_build/spill";
  return cfg;
}

// Workload entry points (one translation unit each).
void run_ge_bigtile(const RunArgs& args, Report& report);
void run_fw_smalltile(const RunArgs& args, Report& report);
void run_viterbi_rows(const RunArgs& args, Report& report);
void run_serve_mixed(const RunArgs& args, Report& report);

}  // namespace perfbench
