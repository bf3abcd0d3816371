// One benchmark process: set-up (construction, configure, prefill, warm-up),
// closed-loop timed windows, and the quiescent oracle check, all on one
// structure.  Each client thread issues its next operation only after the
// previous one returns.  Operations reach the structure through an
// "executor": ApiExec goes through api::AbstractOrderedSet, the traced
// executors in driver.cpp call one layer's public functions directly and
// record spans around them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "common.h"
#include "oracle.h"

namespace perfbench {

// Span names: the root span of every operation, then one child span per
// layer call the traced executors make.
enum SpanName : std::uint32_t {
  kSpanOp,  // + OpKind
  kSpanCore = kSpanOp + kNumOpKinds,  // + OpKind: BatTree public functions
  kSpanShardUpdate = kSpanCore + kNumOpKinds,
  kSpanShardFind,
  kSpanSnapshotAcquire,
  kSpanSnapshotQuery,
  kSpanGuard,  // 8 back-to-back EbrGuard enter/exit pairs
  kNumSpanNames
};

inline std::string span_name(std::uint32_t n) {
  if (n < kSpanCore) return std::string("op.") + op_name(OpKind(n - kSpanOp));
  if (n < kSpanShardUpdate) {
    return std::string("core.") + op_name(OpKind(n - kSpanCore));
  }
  static const char* const kRest[] = {"shard.update", "shard.find",
                                      "shard.snapshot_acquire",
                                      "shard.snapshot_query",
                                      "reclamation.guard_x8"};
  return kRest[n - kSpanShardUpdate];
}

// Per-thread span recorder.  Spans stay in a fixed ring in memory (the
// newest kRing per thread) and per-name histograms see every span; the
// driver writes the ring out after the window ends.
class Tracer {
 public:
  static constexpr std::size_t kRing = 8192;
  struct Span {
    std::uint64_t op;  // operation id; a root and its children share it
    std::uint32_t name;
    std::uint32_t child;  // 1 when the op's root span is the parent
    std::uint64_t start;
    std::uint64_t end;
  };

  Tracer() : ring_(kRing), hist_(kNumSpanNames) {}

  void begin_op() { ++op_; }
  void record(std::uint32_t name, std::uint64_t s, std::uint64_t e,
              bool child) {
    ring_[n_++ % kRing] = Span{op_, name, child ? 1u : 0u, s, e};
    hist_[name].add(e - s);
  }
  // Times `f` as a child span of the current operation.
  template <class F>
  auto child(std::uint32_t name, F&& f) {
    const std::uint64_t s = now_ns();
    auto r = f();
    record(name, s, now_ns(), true);
    return r;
  }

  const LogHist& hist(std::uint32_t name) const { return hist_[name]; }
  std::vector<Span> spans() const {
    std::vector<Span> out;
    const std::size_t n = std::min<std::size_t>(n_, kRing);
    for (std::size_t i = n_ - n; i < n_; ++i) out.push_back(ring_[i % kRing]);
    return out;
  }

 private:
  std::vector<Span> ring_;
  std::vector<LogHist> hist_;
  std::size_t n_ = 0;
  std::uint64_t op_ = 0;
};

// Untraced executor: the API a user of the library programs against.
struct ApiExec {
  cbat::api::AbstractOrderedSet& s;
  Tracer* tracer() { return nullptr; }
  bool insert(Key k) { return s.insert(k); }
  bool erase(Key k) { return s.erase(k); }
  bool find(Key k) { return s.contains(k); }
  std::int64_t rank(Key k) { return s.rank(k); }
  std::int64_t select(std::int64_t i) { return s.select_query(i); }
  std::int64_t range_count(Key lo, Key hi) { return s.range_count(lo, hi); }
  std::int64_t range_aggregate(Key lo, Key hi) {
    return s.range_aggregate(lo, hi);
  }
};

enum LatClass { kLatUpdate, kLatFind, kLatQuery, kNumLat };

struct WindowStats {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
  std::vector<double> sub_rates;  // ops/s of each sub-window
  LogHist lat[kNumLat];
  std::int64_t checks = 0;
  std::int64_t failures = 0;
};

class Harness {
 public:
  static constexpr int kThreads = 4;

  Harness(const Workload& w, std::uint64_t seed)
      : w_(w),
        seed_(seed),
        zipf_(w.zipf_theta > 0 ? std::make_unique<Zipf>(w.keyspace,
                                                        w.zipf_theta)
                               : nullptr),
        oracle_(w, kThreads),
        crew_(kThreads),
        pub_ops_(kThreads) {
    // The prefill set: a seeded sample of exactly w.prefill distinct keys,
    // inserted in shuffled order, so the same seed gives the same tree.
    std::vector<Key> all(static_cast<std::size_t>(w.keyspace));
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Key>(i);
    Rng rng(seed ^ 0x9ef111ULL);
    for (std::size_t i = 0; i < static_cast<std::size_t>(w.prefill); ++i) {
      std::swap(all[i], all[i + rng.below(all.size() - i)]);
    }
    all.resize(static_cast<std::size_t>(w.prefill));
    prefill_keys_ = std::move(all);
    for (int t = 0; t < kThreads; ++t) {
      streams_.emplace_back(w, zipf_.get(), seed,
                            static_cast<std::uint64_t>(t));
    }
  }

  cbat::api::AbstractOrderedSet& set() { return *set_; }

  // Construction, configure, prefill and warm-up; returns seconds, or a
  // negative value when `structure` is not registered.  Prefill inserts
  // that fail count as failed checks.
  double setup(const std::string& structure, std::uint64_t warmup_ops) {
    const std::uint64_t t0 = now_ns();
    set_ = cbat::api::StructureRegistry::instance().create(structure);
    if (!set_) return -1;
    cbat::api::SetOptions opts;
    opts.key_range_hint = w_.keyspace;
    set_->configure(opts);
    ordered_ = set_->supports_order_statistics();
    std::vector<std::int64_t> bad(kThreads, 0);
    const std::function<void(int)> fill = [&](int t) {
      const std::size_t n = prefill_keys_.size();
      set_->warm_up(n / kThreads);
      for (std::size_t i = static_cast<std::size_t>(t); i < n; i += kThreads) {
        const Key k = prefill_keys_[i];
        if (set_->insert(k)) {
          oracle_.mark_initial(k);
        } else {
          ++bad[static_cast<std::size_t>(t)];
        }
      }
    };
    crew_.run(fill);
    std::int64_t filled = w_.prefill;
    for (std::int64_t b : bad) {
      setup_failures_ += b;
      filled -= b;
    }
    oracle_.set_initial_size(filled);
    setup_checks_ += w_.prefill;
    prefill_rss_ = rss_bytes();
    if (warmup_ops > 0) {
      ApiExec ex{*set_};
      run_counted(ex, warmup_ops / kThreads);
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  // Resident bytes right after the prefill, before any erase.
  double prefill_rss() const { return prefill_rss_; }
  std::int64_t setup_checks() const { return setup_checks_; }
  std::int64_t setup_failures() const { return setup_failures_; }

  // One closed-loop window of `seconds` with one executor per client
  // thread, split into `subs` sub-windows whose rates are reported
  // separately.
  template <class Exec>
  WindowStats window(std::vector<Exec>& exec, double seconds, int subs) {
    std::vector<WindowStats> per(kThreads);
    std::atomic<bool> stop{false};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (auto& p : pub_ops_) p.v.store(0, std::memory_order_relaxed);
    const std::function<void(int)> work = [&](int t) {
      WindowStats& st = per[static_cast<std::size_t>(t)];
      Exec& ex = exec[static_cast<std::size_t>(t)];
      std::uint64_t n = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // relaxed: a stop flag; one extra operation after it flips is fine.
      while (!stop.load(std::memory_order_relaxed)) {
        one_op(ex, t, st);
        pub_ops_[static_cast<std::size_t>(t)].v.store(
            ++n, std::memory_order_relaxed);
      }
    };
    crew_.start(work);
    while (ready.load() < kThreads) std::this_thread::yield();
    WindowStats out;
    const std::uint64_t begin = now_ns();
    go.store(true, std::memory_order_release);
    std::uint64_t prev_t = begin;
    std::uint64_t prev_ops = 0;
    for (int s = 1; s <= subs; ++s) {
      const auto until = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(begin + static_cast<std::uint64_t>(
                                               seconds * 1e9 * s / subs)));
      std::this_thread::sleep_until(until);
      std::uint64_t ops = 0;
      for (auto& p : pub_ops_) ops += p.v.load(std::memory_order_relaxed);
      const std::uint64_t t = now_ns();
      out.sub_rates.push_back(static_cast<double>(ops - prev_ops) /
                              (static_cast<double>(t - prev_t) * 1e-9));
      prev_t = t;
      prev_ops = ops;
    }
    stop.store(true, std::memory_order_relaxed);
    crew_.wait();
    out.seconds = static_cast<double>(now_ns() - begin) * 1e-9;
    for (const WindowStats& st : per) {
      out.ops += st.ops;
      out.updates += st.updates;
      out.checks += st.checks;
      out.failures += st.failures;
      for (int c = 0; c < kNumLat; ++c) out.lat[c].merge(st.lat[c]);
    }
    return out;
  }

  Oracle::Verdict verify() { return oracle_.verify(*set_, crew_, seed_); }

 private:
  // The warm-up: `per_thread` operations of the workload on every thread,
  // answers checked like any other.
  template <class Exec>
  void run_counted(Exec& ex, std::uint64_t per_thread) {
    std::vector<WindowStats> per(kThreads);
    const std::function<void(int)> work = [&](int t) {
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        one_op(ex, t, per[static_cast<std::size_t>(t)]);
      }
    };
    crew_.run(work);
    for (const WindowStats& st : per) {
      setup_checks_ += st.checks;
      setup_failures_ += st.failures;
    }
  }

  template <class Exec>
  void one_op(Exec& ex, int t, WindowStats& st) {
    const Op op = streams_[static_cast<std::size_t>(t)].next();
    // Structures without order statistics (the unaugmented chromatic
    // floor) get the stream's updates and finds only.
    if (is_query(op.kind) && !ordered_) return;
    Tracer* tr = ex.tracer();
    if (tr != nullptr) tr->begin_op();
    Oracle::Counts before;
    if (is_query(op.kind)) before = oracle_.published();
    ++st.ops;
    ++st.checks;
    const std::uint64_t t0 = now_ns();
    std::int64_t answer = 0;
    bool ok = false;
    try {
      switch (op.kind) {
        case kInsert:
          ok = ex.insert(op.a);
          break;
        case kErase:
          ok = ex.erase(op.a);
          break;
        case kFind:
          ex.find(op.a);
          break;
        case kRank:
          answer = ex.rank(op.a);
          break;
        case kSelect:
          answer = ex.select(op.a);
          break;
        case kRangeCount:
          answer = ex.range_count(op.a, op.b);
          break;
        case kRangeAggregate:
          answer = ex.range_aggregate(op.a, op.b);
          break;
        default:
          break;
      }
    } catch (...) {
      ++st.failures;
      return;
    }
    const std::uint64_t t1 = now_ns();
    if (tr != nullptr) {
      tr->record(kSpanOp + std::uint32_t{op.kind}, t0, t1, false);
    }
    if (is_update(op.kind)) {
      ++st.updates;
      st.lat[kLatUpdate].add(t1 - t0);
      oracle_.record_update(t, op.kind, op.a, ok);
    } else if (op.kind == kFind) {
      st.lat[kLatFind].add(t1 - t0);
    } else {
      st.lat[kLatQuery].add(t1 - t0);
      if (!oracle_.plausible(op, answer, before, oracle_.published())) {
        ++st.failures;
      }
    }
  }

  struct alignas(64) PubOps {
    std::atomic<std::uint64_t> v{0};
  };

  const Workload& w_;
  const std::uint64_t seed_;
  std::unique_ptr<Zipf> zipf_;
  Oracle oracle_;
  Crew crew_;
  std::vector<PubOps> pub_ops_;
  std::vector<OpStream> streams_;
  std::vector<Key> prefill_keys_;
  std::unique_ptr<cbat::api::AbstractOrderedSet> set_;
  bool ordered_ = true;
  double prefill_rss_ = 0;
  std::int64_t setup_checks_ = 0;
  std::int64_t setup_failures_ = 0;
};

}  // namespace perfbench
