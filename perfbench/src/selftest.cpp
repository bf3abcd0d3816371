// perfbench_selftest: proves the oracle fires.
//
// Runs the benchmark's own set-up, window and quiescent check on
// BAT-EagerDel three times: unmodified, behind a wrapper that silently
// drops 1 in 1000 successful inserts (reports success, leaves the key
// out), and behind one that answers rank(k) + 1.  Exits 0 only when the
// unmodified structure reports no failure and both mutants report some.
// Takes no arguments: it runs skewed_hot, whose hot keys put every
// operation kind on a small key set, for kWindowS per structure.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

using cbat::api::AbstractOrderedSet;

class Forwarding : public AbstractOrderedSet {
 public:
  explicit Forwarding(std::unique_ptr<AbstractOrderedSet> inner)
      : inner_(std::move(inner)) {}
  bool insert(Key k) override { return inner_->insert(k); }
  bool erase(Key k) override { return inner_->erase(k); }
  bool contains(Key k) override { return inner_->contains(k); }
  std::int64_t size() override { return inner_->size(); }
  bool supports_order_statistics() const override {
    return inner_->supports_order_statistics();
  }
  std::int64_t range_count(Key lo, Key hi) override {
    return inner_->range_count(lo, hi);
  }
  std::int64_t rank(Key k) override { return inner_->rank(k); }
  Key select_query(std::int64_t i) override { return inner_->select_query(i); }
  std::int64_t range_aggregate(Key lo, Key hi) override {
    return inner_->range_aggregate(lo, hi);
  }
  bool set_key_range_hint(Key max_key) override {
    return inner_->set_key_range_hint(max_key);
  }
  void warm_up(std::size_t n) override { inner_->warm_up(n); }

 protected:
  std::unique_ptr<AbstractOrderedSet> inner_;
};

// Every 1000th successful insert is undone before it returns true.
class DropInserts final : public Forwarding {
 public:
  using Forwarding::Forwarding;
  bool insert(Key k) override {
    if (!inner_->insert(k)) return false;
    if (ok_.fetch_add(1) % 1000 == 999) inner_->erase(k);
    return true;
  }

 private:
  std::atomic<std::uint64_t> ok_{0};
};

class RankPlusOne final : public Forwarding {
 public:
  using Forwarding::Forwarding;
  std::int64_t rank(Key k) override { return inner_->rank(k) + 1; }
};

template <class Wrapper>
void register_mutant(const std::string& name) {
  cbat::api::StructureRegistry::Entry e;
  e.factory = [] {
    return std::unique_ptr<AbstractOrderedSet>(std::make_unique<Wrapper>(
        cbat::api::StructureRegistry::instance().create("BAT-EagerDel")));
  };
  e.ranked = true;
  cbat::api::StructureRegistry::instance().register_structure(name,
                                                              std::move(e));
}

// Checks run and failures reported for one structure.
std::pair<std::int64_t, std::int64_t> trial(const std::string& structure,
                                            const Workload& w,
                                            double window_s) {
  Harness h(w, 7);
  if (h.setup(structure, 20'000) < 0) return {0, -1};
  std::vector<ApiExec> ex(Harness::kThreads, ApiExec{h.set()});
  const WindowStats win = h.window(ex, window_s, 1);
  const Oracle::Verdict v = h.verify();
  return {h.setup_checks() + win.checks + v.checks,
          h.setup_failures() + win.failures + v.failures};
}

constexpr double kWindowS = 0.5;

int run() {
  const Workload* w = find_workload("skewed_hot");
  register_mutant<DropInserts>("selftest-drop-inserts");
  register_mutant<RankPlusOne>("selftest-rank-plus-one");
  struct Case {
    const char* structure;
    bool expect_failures;
  };
  const Case cases[] = {{"BAT-EagerDel", false},
                        {"selftest-drop-inserts", true},
                        {"selftest-rank-plus-one", true}};
  bool ok = true;
  for (const Case& c : cases) {
    const auto [checks, failures] = trial(c.structure, *w, kWindowS);
    const bool pass = c.expect_failures ? failures > 0 : failures == 0;
    ok = ok && pass;
    std::printf("%-24s checks=%" PRId64 " failures=%" PRId64 "  %s\n",
                c.structure, checks, failures,
                pass ? "ok" : (c.expect_failures ? "MISSED" : "UNEXPECTED"));
  }
  std::printf("selftest: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() {
  const int rc = perfbench::run();
  std::fflush(stdout);
  std::_Exit(rc);
}
