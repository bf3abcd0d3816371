// Correctness oracle that needs no second implementation of a set.
//
// Every client thread records, per key, its successful inserts minus its
// successful erases.  For any linearizable set the sum over threads of a
// key's record equals its final presence minus its initial presence, so the
// final key set can be rebuilt from the records alone, apart from the
// structure under test.  At quiescence `verify` checks contains() for every
// key, size(), and sampled rank/select/range_count/range_aggregate against
// that rebuilt set.
//
// While updates run, answers are checked against properties every
// linearizable answer has: counts within the range width and within the
// live-size bounds the threads' published update counts imply, and select
// results inside the keyspace (and at or above i - 1, keys being distinct
// non-negative integers).  Live-size bounds: a query linearizes between a
// read of every thread's published counts taken before it and one taken
// after it, and each other thread has at most one update in flight, so
//   size >= init + ins(before) - del(after) - (T - 1)
//   size <= init + ins(after) - del(before) + (T - 1).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "api/ordered_set.h"
#include "common.h"

namespace perfbench {

class Oracle {
 public:
  Oracle(const Workload& w, int threads)
      : w_(w),
        threads_(threads),
        initial_(static_cast<std::size_t>(w.keyspace), 0),
        delta_(static_cast<std::size_t>(threads)),
        pub_(static_cast<std::size_t>(threads)) {
    for (auto& d : delta_) d.assign(static_cast<std::size_t>(w.keyspace), 0);
  }

  // Prefill: key k was inserted successfully before any client started.
  // Distinct threads mark distinct keys, so the writes never conflict.
  void mark_initial(Key k) { initial_[static_cast<std::size_t>(k)] = 1; }
  void set_initial_size(std::int64_t n) { initial_size_ = n; }

  void record_update(int t, OpKind kind, Key k, bool ok) {
    if (!ok) return;
    Pub& p = pub_[static_cast<std::size_t>(t)];
    if (kind == kInsert) {
      ++delta_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      // relaxed: only the owner writes; readers bound, not order, with it.
      p.ins.store(p.ins.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    } else {
      --delta_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      p.del.store(p.del.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    }
  }

  struct Counts {
    std::int64_t ins = 0;
    std::int64_t del = 0;
  };
  Counts published() const {
    Counts c;
    for (const Pub& p : pub_) {
      c.ins += p.ins.load(std::memory_order_acquire);
      c.del += p.del.load(std::memory_order_acquire);
    }
    return c;
  }

  // True iff `answer` to `op`, issued between the two reads of published
  // counts, is possible for a linearizable set.
  bool plausible(const Op& op, std::int64_t answer, const Counts& before,
                 const Counts& after) const {
    const std::int64_t slack = threads_ - 1;
    const std::int64_t upper =
        initial_size_ + after.ins - before.del + slack;
    const std::int64_t lower =
        initial_size_ + before.ins - after.del - slack;
    switch (op.kind) {
      case kRank:
        return answer >= 0 && answer <= upper && answer <= op.a + 1;
      case kSelect:
        if (answer < 0 || answer >= w_.keyspace) return false;
        return op.a > lower || answer >= op.a - 1;
      case kRangeCount:
      case kRangeAggregate:
        return answer >= 0 && answer <= upper && answer <= op.b - op.a + 1;
      default:
        return true;
    }
  }

  struct Verdict {
    std::int64_t checks = 0;
    std::int64_t failures = 0;
    std::int64_t final_size = 0;
  };

  // Quiescent check of `set` against the rebuilt key set.  Run only after
  // every client has stopped.  `crew` splits the contains() sweep.
  Verdict verify(cbat::api::AbstractOrderedSet& set, Crew& crew,
                 std::uint64_t seed) const {
    const std::size_t n = static_cast<std::size_t>(w_.keyspace);
    Verdict v;
    // present[k] in {0, 1} for a linearizable set; anything else means an
    // update reported success without taking effect (or vice versa).
    std::vector<std::uint8_t> present(n);
    std::vector<std::int64_t> prefix(n + 1, 0);  // keys < k
    for (std::size_t k = 0; k < n; ++k) {
      std::int64_t s = initial_[k];
      for (const auto& d : delta_) s += d[k];
      ++v.checks;
      if (s != 0 && s != 1) {
        ++v.failures;
        s = s > 0 ? 1 : 0;
      }
      present[k] = static_cast<std::uint8_t>(s);
      prefix[k + 1] = prefix[k] + s;
    }
    v.final_size = prefix[n];

    std::vector<std::int64_t> sweep_fail(static_cast<std::size_t>(crew.size()));
    const std::function<void(int)> sweep = [&](int t) {
      for (std::size_t k = static_cast<std::size_t>(t); k < n;
           k += static_cast<std::size_t>(crew.size())) {
        try {
          if (set.contains(static_cast<Key>(k)) != (present[k] != 0)) {
            ++sweep_fail[static_cast<std::size_t>(t)];
          }
        } catch (...) {
          ++sweep_fail[static_cast<std::size_t>(t)];
        }
      }
    };
    crew.run(sweep);
    v.checks += static_cast<std::int64_t>(n);
    for (std::int64_t f : sweep_fail) v.failures += f;

    const auto check = [&v](auto&& fn) {
      ++v.checks;
      try {
        if (!fn()) ++v.failures;
      } catch (...) {
        ++v.failures;
      }
    };
    check([&] { return set.size() == v.final_size; });
    if (!set.supports_order_statistics()) return v;

    const auto count = [&](Key lo, Key hi) {
      lo = std::max<Key>(lo, 0);
      hi = std::min<Key>(hi, w_.keyspace - 1);
      return lo > hi ? 0 : prefix[static_cast<std::size_t>(hi) + 1] -
                               prefix[static_cast<std::size_t>(lo)];
    };
    Rng rng(seed ^ 0x5eed0f0aac1eULL);
    for (int i = 0; i < kSamples; ++i) {
      const Key k = static_cast<Key>(rng.below(n));
      check([&] {
        return set.rank(k) == prefix[static_cast<std::size_t>(k) + 1];
      });
      const Key lo = static_cast<Key>(rng.below(n));
      const Key hi = lo + w_.range_width - 1;
      check([&] { return set.range_count(lo, hi) == count(lo, hi); });
      const Op win = hot_window(w_, i % 8);
      check([&] {
        return set.range_aggregate(win.a, win.b) == count(win.a, win.b);
      });
      if (v.final_size > 0) {
        const std::int64_t idx =
            1 + static_cast<std::int64_t>(
                    rng.below(static_cast<std::uint64_t>(v.final_size)));
        // The idx-th smallest key is the first k with prefix[k + 1] == idx.
        const auto it = std::lower_bound(prefix.begin() + 1, prefix.end(), idx);
        const Key want = static_cast<Key>(it - prefix.begin()) - 1;
        check([&] { return set.select_query(idx) == want; });
      }
    }
    return v;
  }

 private:
  static constexpr int kSamples = 1000;

  struct alignas(64) Pub {
    std::atomic<std::int64_t> ins{0};
    std::atomic<std::int64_t> del{0};
  };

  const Workload& w_;
  const std::int64_t threads_;
  std::int64_t initial_size_ = 0;
  std::vector<std::uint8_t> initial_;
  std::vector<std::vector<std::int32_t>> delta_;
  std::vector<Pub> pub_;
};

}  // namespace perfbench
