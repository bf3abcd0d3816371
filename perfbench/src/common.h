// Building blocks of the end-to-end benchmark: the seeded random sources,
// the three workloads and their operation streams, a log-linear latency
// histogram, a crew of persistent client threads, and resident-memory
// reads.  Nothing here knows about any particular structure.
//
// The RNG, Zipf sampler and histogram deliberately do not reuse
// src/util/random.h, src/util/zipf.h or src/bench/latency.h: a change to
// the program under test must not change the benchmark's inputs or how it
// measures them.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/keys.h"

namespace perfbench {

using cbat::Key;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// xoshiro256** seeded through splitmix64: cheap enough to draw inside the
// closed loop without showing up next to a microsecond-scale operation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Zipf(theta) over [0, n): key 0 is the hottest, so every hot key falls in
// the lowest part of the keyspace (the forest's first shard).
class Zipf {
 public:
  Zipf(std::int64_t n, double theta) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<std::size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  Key sample(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<Key>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

// One workload: the paper's §7 protocol (prefill to half the keyspace,
// then a fixed-duration insert-delete-find-query mix).  Mix shares are in
// per mille; queries split evenly across rank, select, range_count and
// range_aggregate.
struct Workload {
  const char* name;
  Key keyspace;
  std::int64_t prefill;
  int insert_pm, erase_pm, find_pm, query_pm;
  double zipf_theta;  // 0 = uniform keys
  Key range_width;    // range_count width and hot-window width
};

// update_heavy: updates dominate and the tree dwarfs the caches.
// query_heavy: version-tree queries dominate; updates are rare.
// skewed_hot: the tree fits in cache and hot keys collide.
inline constexpr Workload kWorkloads[] = {
    {"update_heavy", 1'000'000, 500'000, 450, 450, 90, 10, 0.0, 1000},
    {"query_heavy", 1'000'000, 500'000, 25, 25, 475, 475, 0.0, 1000},
    {"skewed_hot", 10'000, 5'000, 250, 250, 400, 100, 0.99, 1000},
};

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

enum OpKind : std::uint8_t {
  kInsert,
  kErase,
  kFind,
  kRank,
  kSelect,
  kRangeCount,
  kRangeAggregate,
  kNumOpKinds
};

inline const char* op_name(OpKind k) {
  static const char* const kNames[] = {"insert", "erase",       "find",
                                       "rank",   "select",      "range_count",
                                       "range_aggregate"};
  return kNames[k];
}

inline bool is_update(OpKind k) { return k == kInsert || k == kErase; }
inline bool is_query(OpKind k) { return k >= kRank; }

struct Op {
  OpKind kind;
  Key a;  // key, select index, or range low end
  Key b;  // range high end
};

// The range_aggregate windows: eight fixed windows spread evenly over the
// keyspace, the same for every seed, so the aggregates repeat on the same
// key ranges the way a dashboard's would.
inline Op hot_window(const Workload& w, int j) {
  const Key stride = w.keyspace / 8;
  const Key width = std::min(w.range_width, stride);
  return Op{kRangeAggregate, j * stride, j * stride + width - 1};
}

// Seeded operation stream of one client thread.  Streams depend only on
// (workload, seed, stream id), never on the structure or the timing.
class OpStream {
 public:
  OpStream(const Workload& w, const Zipf* zipf, std::uint64_t seed,
           std::uint64_t stream)
      : w_(w), zipf_(zipf), rng_(seed * 0x100000001b3ULL + stream) {}

  Key key() {
    return zipf_ != nullptr ? zipf_->sample(rng_)
                            : static_cast<Key>(rng_.below(w_.keyspace));
  }

  Op next() {
    const int r = static_cast<int>(rng_.below(1000));
    if (r < w_.insert_pm) return Op{kInsert, key(), 0};
    if (r < w_.insert_pm + w_.erase_pm) return Op{kErase, key(), 0};
    if (r < w_.insert_pm + w_.erase_pm + w_.find_pm) return Op{kFind, key(), 0};
    switch (rng_.below(4)) {
      case 0:
        return Op{kRank, key(), 0};
      case 1:
        return Op{kSelect,
                  1 + static_cast<Key>(rng_.below(
                          static_cast<std::uint64_t>(w_.prefill))),
                  0};
      case 2: {
        const Key lo = key();
        return Op{kRangeCount, lo, lo + w_.range_width - 1};
      }
      default:
        return hot_window(w_, static_cast<int>(rng_.below(8)));
    }
  }

 private:
  const Workload& w_;
  const Zipf* zipf_;
  Rng rng_;
};

// Log-linear histogram of nanosecond values: 128 buckets per power of two
// (under 1% relative width).  Percentiles interpolate inside the bucket, so
// a figure moves with the data rather than snapping to bucket edges.
class LogHist {
 public:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 40;

  LogHist() : b_(static_cast<std::size_t>(kSub * kOctaves), 0) {}

  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const LogHist& o) {
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }

  // q in (0, 1); 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const double target = q * static_cast<double>(n_);
    double cum = 0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      if (b_[i] == 0) continue;
      const double c = static_cast<double>(b_[i]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(b_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= 7
    const std::size_t sub = (v >> (e - 7)) & (kSub - 1);
    const std::size_t i = static_cast<std::size_t>(e - 6) * kSub + sub;
    return std::min<std::size_t>(i, kSub * kOctaves - 1);
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + 6;
    return std::ldexp(static_cast<double>(kSub + i % kSub), e - 7);
  }
  static double width(std::size_t i) {
    if (i < kSub) return 1;
    return std::ldexp(1.0, static_cast<int>(i / kSub) + 6 - 7);
  }

  std::vector<std::uint64_t> b_;
  std::uint64_t n_ = 0;
};

// A fixed crew of client threads that outlives every phase of a run
// (prefill, warm-up, timed windows, verification), so per-thread pools and
// EBR slots stay warm across phases the way a server's threads would.
class Crew {
 public:
  explicit Crew(int n) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
  }
  ~Crew() {
    {
      std::lock_guard<std::mutex> g(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  // Starts fn(thread index) on every member; `fn` must outlive wait().
  void start(const std::function<void(int)>& fn) {
    {
      std::lock_guard<std::mutex> g(mu_);
      job_ = &fn;
      running_ = size();
      ++gen_;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> g(mu_);
    done_.wait(g, [this] { return running_ == 0; });
    job_ = nullptr;
  }
  void run(const std::function<void(int)>& fn) {
    start(fn);
    wait();
  }

 private:
  void loop(int i) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> g(mu_);
        cv_.wait(g, [&] { return quit_ || gen_ != seen; });
        if (quit_) return;
        seen = gen_;
        job = job_;
      }
      (*job)(i);
      {
        std::lock_guard<std::mutex> g(mu_);
        if (--running_ == 0) done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t gen_ = 0;
  int running_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // last: the loops use the fields above
};

// Resident set size of this process, in bytes.
inline double rss_bytes() {
  long pages_total = 0;
  long pages_resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench
