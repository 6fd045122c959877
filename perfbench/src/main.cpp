// perfbench — the repository's wall-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one seeded workload in this process, checks every output, and prints
// as its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. perfbench/README.md defines every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "support/simd_vec.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"ge-bigtile", run_ge_bigtile},
    {"fw-smalltile", run_fw_smalltile},
    {"viterbi-rows", run_viterbi_rows},
    {"serve-mixed", run_serve_mixed},
};

// Every workload reports every metric; a layer a workload does not exercise
// reports 0.
constexpr const char* kEndToEnd[][2] = {
    {"solve_s", "s"},      {"setup_s", "s"},     {"peak_rss_mb", "MB"},
    {"jobs_per_s", "1/s"}, {"job_p50_ms", "ms"},
};

constexpr const char* kPerLayer[][2] = {
    {"fail_rate", "frac"},
    {"job_p90_ms", "ms"},
    {"check.selftest_fail_rate", "frac"},
    {"kernels.a_self_s", "s"},
    {"kernels.bc_self_s", "s"},
    {"kernels.d_self_s", "s"},
    {"kernels.calls", "count"},
    {"kernels.ge_d_gupd_per_s", "Gupd/s"},
    {"kernels.fw_d_gupd_per_s", "Gupd/s"},
    {"kernels.peak_fma_gupd_per_s", "Gupd/s"},
    {"kernels.peak_minplus_gupd_per_s", "Gupd/s"},
    {"kernels.ge_d_roofline_frac", "frac"},
    {"kernels.fw_d_roofline_frac", "frac"},
    {"nested.kernel_self_s", "s"},
    {"nested.driver_self_s", "s"},
    {"nested.waves", "count"},
    {"nested.tasks", "count"},
    {"sparklet.tasks", "count"},
    {"sparklet.stages", "count"},
    {"sparklet.task_self_s", "s"},
    {"sparklet.checkpoint_self_s", "s"},
    {"sparklet.stage_self_s", "s"},
    {"sparklet.lane_idle_frac", "frac"},
    {"sparklet.core_util", "frac"},
    {"sparklet.sys_cpu_frac", "frac"},
    {"sparklet.dispatch_us", "us"},
    {"sparklet.shuffle_mb", "MB"},
    {"sparklet.collect_mb", "MB"},
    {"sparklet.broadcast_mb", "MB"},
    {"sparklet.checkpoint_blocks", "count"},
    {"gepspark.driver_self_s", "s"},
    {"gepspark.iterations", "count"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.job_p99_ms", "ms"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.query_p50_us", "us"},
    {"serve.query_p90_us", "us"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.spans_dropped", "count"},
    {"obs.residue_s", "s"},
    {"obs.traced_solve_s", "s"},
    {"baseline.serial_s", "s"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ge-bigtile|fw-smalltile|viterbi-rows|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

std::string cpu_name() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Metric values go out with every digit; a non-finite value is not JSON
/// and marks the run incorrect.
std::string json_metrics(const std::map<std::string, Metric>& m, Report& rep) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    double v = metric.value;
    if (!std::isfinite(v)) {
      rep.correct = false;
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "perfbench: refusing to report from a sanitizer build\n");
  return 3;
#else
  // Figures are comparable only on the repository's Release flags.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      args.trace = val == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) return usage(("unknown workload " + args.workload).c_str());

  std::printf(
      "host: {\"nproc\": %u, \"cpu\": \"%s\", \"simd\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(), cpu_name().c_str(),
      gs::simd::backend_name(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Report rep;
  for (const auto& m : kEndToEnd) rep.e2e[m[0]] = {0.0, m[1]};
  for (const auto& m : kPerLayer) rep.layer[m[0]] = {0.0, m[1]};
  try {
    wl->run(args, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("workload threw: ") + e.what());
    rep.tally.add(false);
  }
  rep.layer["fail_rate"] = {rep.tally.fail_rate(), "frac"};
  if (rep.tally.failed > 0) rep.correct = false;
  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  if (rep.tally.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  const std::string metrics = json_metrics(args.trace ? rep.layer : rep.e2e, rep);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s}\n",
      rep.correct ? "true" : "false", rep.tally.attempted, rep.tally.failed,
      metrics.c_str());
  return 0;
#endif
}
