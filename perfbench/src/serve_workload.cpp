// serve_workload.cpp — serve-mixed: a JobServer with 2 contexts of 1×2
// cores taking fw/ge/tc/paren/align jobs at n=256 from 4 tenants.
//
// Phases, after set-up and an untimed warm-up:
//  1. open loop — one generator thread submits at seeded exponential
//     arrival times; each job's latency runs from its due time to
//     completion, so a stalled generator or server shows as latency, and
//     generator lateness is reported. A query thread meanwhile answers point
//     queries from completed FW tables, timed in fixed-size batches, and
//     evicts each table once queried.
//  2. closed loop — 4 tenants each keep 2 jobs in flight; completed jobs
//     per second is the saturation throughput.
// A collector thread polls outstanding tickets; client threads never
// exceed 4 (generator, collector, query thread, and the main thread, which
// only waits while they run).
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/model_check.hpp"
#include "baseline/reference.hpp"
#include "common.hpp"
#include "gepspark/workload.hpp"
#include "paren/paren_kernels.hpp"
#include "paren/paren_spec.hpp"
#include "serve/job_server.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using serve::JobId;
using serve::JobStatus;
using serve::ProblemKind;

constexpr std::size_t kN = 256;
constexpr std::size_t kBlock = 64;
constexpr int kTenants = 4;
constexpr int kInputsPerKind = 4;
constexpr ProblemKind kKinds[] = {
    ProblemKind::kFloydWarshall, ProblemKind::kGaussianElimination,
    ProblemKind::kTransitiveClosure, ProblemKind::kParen, ProblemKind::kAlign};
constexpr int kNumKinds = 5;
/// Open-loop arrival rate: about half of the closed-loop capacity (roughly
/// 250 jobs/s with this mix on a 4-core AVX-512 host). At a quarter, idle
/// vCPUs between jobs made run times swing by 50 % from run to run.
constexpr double kArrivalsPerSecond = 120.0;
constexpr int kInFlightPerTenant = 2;
/// Deep enough for the open loop's whole schedule, so a host that slows
/// below the arrival rate shows as latency rather than as rejected jobs.
constexpr int kMaxQueueDepth = 4096;
constexpr int kQueryBatch = 256;
constexpr int kBatchesPerTable = 8;
constexpr auto kPollInterval = std::chrono::microseconds(100);
constexpr auto kQueryInterval = std::chrono::microseconds(500);

/// One distinct input: the request to copy into each job, its reference
/// answer, and the digest of the first table the server returned for it.
struct Input {
  serve::SolveRequest req;
  gs::Matrix<double> ref_values;
  gs::Matrix<std::uint8_t> ref_bools;
  align::ReferenceAlignment ref_align;
  std::mutex mu;  // guards the digest
  bool have_digest = false;
  std::uint64_t digest = 0;
};

serve::SolveRequest make_request(ProblemKind kind, std::uint64_t seed) {
  serve::SolveRequest req;
  req.kind = kind;
  req.options.block_size = kBlock;
  req.options.kernel =
      gs::KernelConfig::recursive(4, 1).with_base(gs::KernelBase::kSimd);
  gs::Rng rng(seed);
  switch (kind) {
    case ProblemKind::kFloydWarshall:
      req.matrix = gs::workload::random_digraph({.n = kN, .seed = seed});
      break;
    case ProblemKind::kGaussianElimination:
      req.matrix = gs::workload::diagonally_dominant_matrix(kN, seed);
      break;
    case ProblemKind::kTransitiveClosure:
      req.bool_matrix = gs::workload::random_bool_digraph(kN, 0.01, seed);
      break;
    case ProblemKind::kParen:
      req.paren_dims.resize(kN + 1);
      for (double& d : req.paren_dims) d = std::floor(rng.uniform(2.0, 80.0));
      req.paren_block = kBlock;
      break;
    case ProblemKind::kAlign:
      for (std::size_t i = 0; i < kN; ++i) {
        req.seq_a.push_back("ACGT"[rng.uniform_u64(4)]);
        req.seq_b.push_back("ACGT"[rng.uniform_u64(4)]);
      }
      req.align_block = kBlock;
      break;
    default:
      break;
  }
  return req;
}

void prepare_reference(Input& in) {
  const serve::SolveRequest& r = in.req;
  switch (r.kind) {
    case ProblemKind::kFloydWarshall:
      in.ref_values = r.matrix;
      gs::baseline::reference_floyd_warshall(in.ref_values);
      break;
    case ProblemKind::kGaussianElimination:
      in.ref_values = r.matrix;
      gs::baseline::reference_gaussian_elimination(in.ref_values);
      break;
    case ProblemKind::kTransitiveClosure:
      in.ref_bools = r.bool_matrix;
      gs::baseline::reference_transitive_closure(in.ref_bools);
      break;
    case ProblemKind::kParen: {
      const paren::MatrixChainSpec spec(r.paren_dims);
      const std::size_t posts = spec.num_posts();
      in.ref_values = gs::Matrix<double>(posts, posts, paren::kParenInf);
      for (std::size_t t = 0; t < posts; ++t) in.ref_values(t, t) = 0.0;
      for (std::size_t t = 0; t + 1 < posts; ++t) in.ref_values(t, t + 1) = 0.0;
      paren::reference_parenthesis(spec, in.ref_values.span());
      break;
    }
    case ProblemKind::kAlign:
      in.ref_align = align::reference_align(r.seq_a, r.seq_b, r.scoring,
                                            r.align_mode);
      break;
    default:
      break;
  }
}

/// Check a resident table against its input's reference, and its digest
/// against the first table served for the same input.
std::string check_table(Input& in, const serve::ResidentTable& t) {
  std::uint64_t digest = 0;
  std::string why;
  switch (in.req.kind) {
    case ProblemKind::kTransitiveClosure:
      digest = analysis::digest_matrix(t.bools);
      if (t.bools.rows() != in.ref_bools.rows() ||
          analysis::digest_matrix(in.ref_bools) != digest) {
        why = "closure differs from reference_transitive_closure";
      }
      break;
    case ProblemKind::kAlign:
      digest = static_cast<std::uint64_t>(t.align.score * 1024.0) ^
               (t.align.end_i << 40) ^ (t.align.end_j << 20);
      if (t.align.score != in.ref_align.score ||
          t.align.end_i != in.ref_align.end_i ||
          t.align.end_j != in.ref_align.end_j) {
        why = gs::strfmt("alignment %.0f@(%zu,%zu) vs reference %.0f@(%zu,%zu)",
                         t.align.score, t.align.end_i, t.align.end_j,
                         in.ref_align.score, in.ref_align.end_i,
                         in.ref_align.end_j);
      }
      break;
    default:
      digest = analysis::digest_matrix(t.values);
      why = compare_tables(t.values, in.ref_values);
      break;
  }
  std::lock_guard<std::mutex> lock(in.mu);
  if (!in.have_digest) {
    in.have_digest = true;
    in.digest = digest;
  } else if (digest != in.digest && why.empty()) {
    why = "table digest differs from the first served for this input";
  }
  return why;
}

struct JobRecord {
  double latency_s = 0.0;  ///< due time → completion
  double run_s = 0.0;      ///< the table's profile.wall_seconds
  double submit_s = 0.0;   ///< duration of the submit() call
  double lag_s = 0.0;      ///< how late the generator submitted
};

/// Shared state of one measured phase. Guarded by `mu` unless noted.
struct Phase {
  std::mutex mu;
  std::condition_variable cv;
  struct Pending {
    serve::SolveTicket ticket;
    int input = 0;
    int tenant = 0;
    Clock::time_point due;
    JobRecord rec;
  };
  std::vector<Pending> outstanding;
  bool submitting_done = false;
  std::vector<JobRecord> done;
  std::deque<std::pair<JobId, int>> query_queue;  // FW tables to query
  std::vector<int> inflight = std::vector<int>(kTenants, 0);
  Tally tally;
  std::vector<std::string> failures;
  long long rejected = 0;
  long long failed_jobs = 0;
};

class ServeBench {
 public:
  ServeBench(const RunArgs& args, Report& rep) : args_(args), rep_(rep) {}

  void run() {
    server_ = std::make_unique<serve::JobServer>(server_config());
    inputs_ = make_inputs();
    time_setups();
    for (auto& in : inputs_) prepare_reference(*in);
    warm_up();
    const double open_s = 0.6 * args_.seconds;
    const double closed_s = 0.4 * args_.seconds;
    run_open_loop(open_s);
    const Usage u0 = Usage::now();
    const auto c0 = Clock::now();
    const double jobs_per_s = run_closed_loop(closed_s);
    const double closed_wall = seconds_since(c0);
    const Usage u1 = Usage::now();
    rep_.e2e["jobs_per_s"] = {jobs_per_s, "1/s"};
    rep_.e2e["peak_rss_mb"] = {u1.max_rss_mb, "MB"};
    rep_.layer["sparklet.core_util"] = {
        (u1.user_s - u0.user_s + u1.sys_s - u0.sys_s) / closed_wall, "frac"};
    rep_.layer["sparklet.sys_cpu_frac"] = {
        (u1.sys_s - u0.sys_s) /
            std::max(1e-9, u1.user_s - u0.user_s + u1.sys_s - u0.sys_s),
        "frac"};
    time_setups();
    rep_.e2e["setup_s"] = {median(setups_), "s"};
    rep_.notes.push_back(
        gs::strfmt("setup_s: median of %zu set-ups", setups_.size()));
    self_test();
    server_->shutdown();
  }

 private:
  static serve::ServerConfig server_config() {
    serve::ServerConfig cfg;
    cfg.cluster = local_cluster(1, 2);
    cfg.num_contexts = 2;
    cfg.max_queue_depth = kMaxQueueDepth;
    cfg.tenant_budget_bytes = std::size_t{1} << 30;
    return cfg;
  }

  std::vector<std::unique_ptr<Input>> make_inputs() const {
    std::vector<std::unique_ptr<Input>> inputs;
    for (int k = 0; k < kNumKinds; ++k) {
      for (int i = 0; i < kInputsPerKind; ++i) {
        auto in = std::make_unique<Input>();
        in->req = make_request(
            kKinds[k], args_.seed * 1000003ull + std::uint64_t(k * 100 + i));
        inputs.push_back(std::move(in));
      }
    }
    return inputs;
  }

  /// Time spare set-ups (server construction + input generation) until
  /// 0.15 s of set-up has been timed, at least 5. It runs before the warm-up
  /// and again after the closed loop, so the median spans the run as
  /// solve_s does; each spare server is torn down after its clock stops.
  void time_setups() {
    double spent = 0.0;
    for (int i = 0; i < 5 || spent < 0.15; ++i) {
      const auto t0 = Clock::now();
      const serve::JobServer spare(server_config());
      const auto spare_inputs = make_inputs();
      const double dt = seconds_since(t0);
      setups_.push_back(dt);
      spent += dt;
    }
  }

  /// Submit a copy of input `idx` for `tenant`; false when admission
  /// control rejected it (counted as a failed operation).
  bool submit(Phase& ph, int idx, int tenant, Clock::time_point due) {
    serve::SolveRequest req = inputs_[static_cast<std::size_t>(idx)]->req;
    req.tenant = gs::strfmt("tenant-%d", tenant);
    const auto t0 = Clock::now();
    serve::SolveTicket ticket;
    try {
      ticket = server_->submit(std::move(req));
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(ph.mu);
      ++ph.rejected;
      ph.tally.add(false);
      ph.failures.push_back(gs::strfmt("submit rejected: %s", e.what()));
      return false;
    }
    Phase::Pending p;
    p.rec.submit_s = seconds_since(t0);
    p.rec.lag_s = std::chrono::duration<double>(t0 - due).count();
    p.ticket = ticket;
    p.input = idx;
    p.tenant = tenant;
    p.due = due;
    std::lock_guard<std::mutex> lock(ph.mu);
    ph.outstanding.push_back(std::move(p));
    ++ph.inflight[static_cast<std::size_t>(tenant)];
    return true;
  }

  /// Poll outstanding tickets; check and record every finished job. FW
  /// tables go to the query thread when `query`, all others are evicted.
  /// Returns the number of jobs still outstanding.
  std::size_t collect(Phase& ph, bool query) {
    std::vector<Phase::Pending> finished;
    std::size_t left = 0;
    {
      std::lock_guard<std::mutex> lock(ph.mu);
      auto& out = ph.outstanding;
      for (std::size_t i = 0; i < out.size();) {
        if (serve::is_terminal(out[i].ticket.status())) {
          finished.push_back(std::move(out[i]));
          if (i + 1 != out.size()) out[i] = std::move(out.back());
          out.pop_back();
        } else {
          ++i;
        }
      }
      left = out.size();
    }
    const auto now = Clock::now();
    for (Phase::Pending& p : finished) {
      p.rec.latency_s = std::chrono::duration<double>(now - p.due).count();
      const JobId id = p.ticket.id();
      std::string why;
      bool to_query = false;
      if (p.ticket.status() != JobStatus::kDone) {
        why = gs::strfmt("job %lld ended %s: %s", static_cast<long long>(id),
                         serve::job_status_name(p.ticket.status()),
                         p.ticket.error().c_str());
      } else if (auto table = server_->table(id)) {
        Input& in = *inputs_[static_cast<std::size_t>(p.input)];
        why = check_table(in, *table);
        p.rec.run_s = table->profile.wall_seconds;
        to_query = query && why.empty() &&
                   in.req.kind == ProblemKind::kFloydWarshall;
      } else {
        why = gs::strfmt("job %lld has no resident table",
                         static_cast<long long>(id));
      }
      if (!to_query) server_->evict(id);
      std::lock_guard<std::mutex> lock(ph.mu);
      --ph.inflight[static_cast<std::size_t>(p.tenant)];
      ph.tally.add(why.empty());
      if (why.empty()) {
        ph.done.push_back(p.rec);
        if (to_query) {
          ph.query_queue.emplace_back(id, p.input);
          ph.cv.notify_all();
        }
      } else {
        ++ph.failed_jobs;
        ph.failures.push_back(why);
      }
    }
    return left;
  }

  void merge(Phase& ph) {
    rep_.tally.attempted += ph.tally.attempted;
    rep_.tally.failed += ph.tally.failed;
    rejected_ += ph.rejected;
    failed_jobs_ += ph.failed_jobs;
    for (const std::string& f : ph.failures) rep_.fail(f);
  }

  void warm_up() {
    Phase ph;
    for (int i = 0; i < static_cast<int>(inputs_.size()); ++i) {
      submit(ph, i, i % kTenants, Clock::now());
    }
    while (collect(ph, false) > 0) std::this_thread::sleep_for(kPollInterval);
    merge(ph);
  }

  void run_open_loop(double duration_s) {
    Phase ph;
    // Arrival schedule: seeded exponential gaps; kinds rotate so every seed
    // sees the same mix, inputs and tenants are drawn from the seed.
    gs::Rng rng(args_.seed ^ 0x0be11ull);
    std::vector<double> due_offsets;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / kArrivalsPerSecond;
      if (t >= duration_s) break;
      due_offsets.push_back(t);
    }

    std::atomic<bool> stop_queries{false};
    std::vector<double> query_us;
    // Client threads record an exception as a failure instead of letting it
    // end the process; every thread is joined before `ph` goes away.
    auto guarded = [&ph](auto&& body) {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(ph.mu);
        ph.tally.add(false);
        ph.failures.push_back(gs::strfmt("client thread threw: %s", e.what()));
      }
    };
    std::thread collector([&] {
      guarded([&] {
        for (;;) {
          collect(ph, true);
          {
            // The generator queues a job before it sets submitting_done.
            std::lock_guard<std::mutex> lock(ph.mu);
            if (ph.submitting_done && ph.outstanding.empty()) return;
          }
          std::this_thread::sleep_for(kPollInterval);
        }
      });
    });
    std::thread querier(
        [&] { guarded([&] { query_loop(ph, stop_queries, query_us); }); });

    guarded([&] {
      const auto start = Clock::now();
      for (std::size_t k = 0; k < due_offsets.size(); ++k) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_offsets[k]));
        std::this_thread::sleep_until(due);
        const int kind = static_cast<int>(k % kNumKinds);
        const int idx = kind * kInputsPerKind +
                        static_cast<int>(rng.uniform_u64(kInputsPerKind));
        submit(ph, idx, static_cast<int>(rng.uniform_u64(kTenants)), due);
      }
    });
    {
      std::lock_guard<std::mutex> lock(ph.mu);
      ph.submitting_done = true;
    }
    collector.join();
    stop_queries.store(true);
    ph.cv.notify_all();
    querier.join();
    merge(ph);

    std::vector<double> latency_ms, run_ms, wait_ms, submit_us, lag_ms;
    for (const JobRecord& r : ph.done) {
      latency_ms.push_back(1e3 * r.latency_s);
      run_ms.push_back(1e3 * r.run_s);
      wait_ms.push_back(1e3 * (r.latency_s - r.run_s));
      submit_us.push_back(1e6 * r.submit_s);
      lag_ms.push_back(1e3 * r.lag_s);
    }
    rep_.e2e["solve_s"] = {1e-3 * median(run_ms), "s"};
    rep_.e2e["job_p50_ms"] = {median(latency_ms), "ms"};
    rep_.layer["job_p90_ms"] = {quantile(latency_ms, 0.9), "ms"};
    rep_.layer["serve.job_p99_ms"] = {quantile(latency_ms, 0.99), "ms"};
    rep_.layer["serve.run_ms"] = {median(run_ms), "ms"};
    rep_.layer["serve.queue_wait_ms"] = {median(wait_ms), "ms"};
    rep_.layer["serve.submit_us"] = {median(submit_us), "us"};
    rep_.layer["serve.gen_lag_ms"] = {
        lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end()),
        "ms"};
    rep_.layer["serve.query_p50_us"] = {median(query_us), "us"};
    rep_.layer["serve.query_p90_us"] = {quantile(query_us, 0.9), "us"};
    rep_.notes.push_back(gs::strfmt(
        "open loop: %zu jobs at %.0f/s over %.1f s, latency from due time; "
        "%zu query batches of %d",
        ph.done.size(), kArrivalsPerSecond, duration_s, query_us.size(),
        kQueryBatch));
  }

  /// Point queries against completed FW tables while solves run: batches of
  /// kQueryBatch timed together, answers checked afterwards, each table
  /// evicted after kBatchesPerTable batches.
  void query_loop(Phase& ph, std::atomic<bool>& stop,
                  std::vector<double>& batch_us) {
    gs::Rng rng(args_.seed ^ 0x9e77ull);
    std::vector<std::pair<std::size_t, std::size_t>> q(kQueryBatch);
    std::vector<double> answers(kQueryBatch);
    for (;;) {
      std::pair<JobId, int> target;
      {
        std::unique_lock<std::mutex> lock(ph.mu);
        ph.cv.wait(lock, [&] { return stop.load() || !ph.query_queue.empty(); });
        if (ph.query_queue.empty()) return;
        target = ph.query_queue.front();
        ph.query_queue.pop_front();
      }
      const Input& in = *inputs_[static_cast<std::size_t>(target.second)];
      long long wrong = 0;
      for (int b = 0; b < kBatchesPerTable; ++b) {
        for (auto& uv : q) uv = {rng.uniform_u64(kN), rng.uniform_u64(kN)};
        const auto t0 = Clock::now();
        for (int i = 0; i < kQueryBatch; ++i) {
          answers[static_cast<std::size_t>(i)] =
              server_->query_dist(target.first, q[static_cast<std::size_t>(i)].first,
                                  q[static_cast<std::size_t>(i)].second);
        }
        batch_us.push_back(1e6 * seconds_since(t0) / kQueryBatch);
        for (int i = 0; i < kQueryBatch; ++i) {
          const auto [u, v] = q[static_cast<std::size_t>(i)];
          if (!close_enough(answers[static_cast<std::size_t>(i)],
                            in.ref_values(u, v), 1e-9)) {
            ++wrong;
          }
        }
        std::this_thread::sleep_for(kQueryInterval);
      }
      server_->evict(target.first);
      std::lock_guard<std::mutex> lock(ph.mu);
      ph.tally.attempted += kBatchesPerTable * kQueryBatch;
      ph.tally.failed += wrong;
      if (wrong > 0) {
        ph.failures.push_back(gs::strfmt("%lld wrong query answers on job %lld",
                                         wrong, static_cast<long long>(target.first)));
      }
    }
  }

  /// Closed loop at saturation: kTenants tenants × kInFlightPerTenant jobs.
  double run_closed_loop(double duration_s) {
    Phase ph;
    gs::Rng rng(args_.seed ^ 0xc105edull);
    long long next = 0;
    auto next_input = [&] {
      const int kind = static_cast<int>(next++ % kNumKinds);
      return kind * kInputsPerKind +
             static_cast<int>(rng.uniform_u64(kInputsPerKind));
    };
    const auto start = Clock::now();
    for (;;) {
      const bool open = seconds_since(start) < duration_s;
      if (open) {
        for (int t = 0; t < kTenants; ++t) {
          int inflight = 0;
          {
            std::lock_guard<std::mutex> lock(ph.mu);
            inflight = ph.inflight[static_cast<std::size_t>(t)];
          }
          for (; inflight < kInFlightPerTenant; ++inflight) {
            if (!submit(ph, next_input(), t, Clock::now())) break;
          }
        }
      }
      const std::size_t left = collect(ph, false);
      if (!open && left == 0) break;
      std::this_thread::sleep_for(kPollInterval);
    }
    const double wall = seconds_since(start);
    merge(ph);
    rep_.notes.push_back(gs::strfmt(
        "closed loop: %zu jobs in %.2f s, %d tenants x %d in flight",
        ph.done.size(), wall, kTenants, kInFlightPerTenant));
    return double(ph.done.size()) / wall;
  }

  /// A served FW table with one perturbed cell must fail the same check.
  void self_test() {
    Input& in = *inputs_[0];
    serve::ResidentTable bad;
    bad.kind = ProblemKind::kFloydWarshall;
    bad.values = in.ref_values;
    gs::Rng rng(args_.seed ^ 0xbadce11ull);
    const std::size_t i = rng.uniform_u64(kN), j = rng.uniform_u64(kN);
    const double v = bad.values(i, j);
    bad.values(i, j) = std::isfinite(v) ? v + 1.0 : 0.0;
    Tally selftest;
    selftest.add(check_table(in, bad).empty());
    rep_.layer["check.selftest_fail_rate"] = {selftest.fail_rate(), "frac"};
    if (selftest.failed != 1) {
      rep_.fail(gs::strfmt("self-test: perturbed cell (%zu,%zu) passed the check", i, j));
    }
    rep_.layer["serve.rejected"] = {double(rejected_), "count"};
    rep_.layer["serve.failed"] = {double(failed_jobs_), "count"};
  }

  const RunArgs& args_;
  Report& rep_;
  std::vector<std::unique_ptr<Input>> inputs_;
  std::vector<double> setups_;
  long long rejected_ = 0;
  long long failed_jobs_ = 0;
  std::unique_ptr<serve::JobServer> server_;  // last: destroyed first
};

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& report) {
  ServeBench bench(args, report);
  bench.run();
}

}  // namespace perfbench
