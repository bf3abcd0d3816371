// perfbench_driver: one structure, one workload, one fresh process.
//
//   perfbench_driver --structure BAT-EagerDel --workload update_heavy
//                    --seed 1 --window-s 2 [--spans out.json]
//
// Sets the structure up (construction, configure, prefill, warm-up), runs
// an untraced closed-loop window through api::AbstractOrderedSet, then,
// with --spans, a traced window of the same length that calls the layer's
// public functions directly, records spans around them and writes the
// spans to that file.  Checks every answer
// (oracle.h) and prints one JSON object on its last line.  run.py drives
// it; see README.md.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/bat_tree.h"
#include "harness.h"
#include "reclamation/ebr.h"
#include "shard/sharded_set.h"
#include "util/counters.h"

namespace perfbench {
namespace {

using cbat::api::SetModel;

// Times 8 back-to-back EBR guard enter/exit pairs every 64th operation, so
// the guard's cost under the workload's contention is measured beside it.
inline void sample_guard(Tracer& tr, std::uint64_t& n) {
  if ((++n & 63) != 0) return;
  const std::uint64_t s = now_ns();
  for (int i = 0; i < 8; ++i) {
    cbat::EbrGuard g;
  }
  tr.record(kSpanGuard, s, now_ns(), false);
}

// Traced executor for a single BatTree: the core layer's public functions.
template <class Tree>
struct CoreExec {
  Tree& t;
  Tracer* tr;
  std::uint64_t n = 0;
  Tracer* tracer() {
    sample_guard(*tr, n);
    return tr;
  }
  template <class F>
  auto call(OpKind k, F&& f) {
    return tr->child(kSpanCore + std::uint32_t{k}, f);
  }
  bool insert(Key k) { return call(kInsert, [&] { return t.insert(k); }); }
  bool erase(Key k) { return call(kErase, [&] { return t.erase(k); }); }
  bool find(Key k) { return call(kFind, [&] { return t.contains(k); }); }
  std::int64_t rank(Key k) {
    return call(kRank, [&] { return t.rank(k); });
  }
  std::int64_t select(std::int64_t i) {
    return call(kSelect, [&] { return t.select(i).value_or(0); });
  }
  std::int64_t range_count(Key lo, Key hi) {
    return call(kRangeCount, [&] { return t.range_count(lo, hi); });
  }
  std::int64_t range_aggregate(Key lo, Key hi) {
    return call(kRangeAggregate,
                [&] { return std::int64_t{t.range_aggregate(lo, hi)}; });
  }
};

// Traced executor for a ShardedSet: updates and finds route to one shard;
// every composite query is split into the Snapshot's construction (the
// epoch cut and root pinning) and the query on the pinned forest.
template <class Forest>
struct ShardExec {
  Forest& t;
  Tracer* tr;
  std::uint64_t n = 0;
  Tracer* tracer() {
    sample_guard(*tr, n);
    return tr;
  }
  bool insert(Key k) {
    return tr->child(kSpanShardUpdate, [&] { return t.insert(k); });
  }
  bool erase(Key k) {
    return tr->child(kSpanShardUpdate, [&] { return t.erase(k); });
  }
  bool find(Key k) {
    return tr->child(kSpanShardFind, [&] { return t.contains(k); });
  }
  template <class Q>
  std::int64_t query(Q&& q) {
    const std::uint64_t s = now_ns();
    const typename Forest::Snapshot snap(t);
    const std::uint64_t m = now_ns();
    const std::int64_t r = q(snap);
    const std::uint64_t e = now_ns();
    tr->record(kSpanSnapshotAcquire, s, m, true);
    tr->record(kSpanSnapshotQuery, m, e, true);
    return r;
  }
  std::int64_t rank(Key k) {
    return query([&](const auto& s) { return s.rank(k); });
  }
  std::int64_t select(std::int64_t i) {
    return query([&](const auto& s) { return s.select(i).value_or(0); });
  }
  std::int64_t range_count(Key lo, Key hi) {
    return query([&](const auto& s) { return s.range_count(lo, hi); });
  }
  std::int64_t range_aggregate(Key lo, Key hi) {
    return query(
        [&](const auto& s) { return std::int64_t{s.range_aggregate(lo, hi)}; });
  }
};

using BatEagerDel = cbat::BatEagerDel<cbat::SizeAug>;
using LinForest =
    cbat::ShardedSet<cbat::Bat<cbat::SizeAug>, 16,
                     cbat::SnapshotPolicy::kLinearizable>;

struct Args {
  std::string structure;
  std::string workload;
  std::uint64_t seed = 1;
  double window_s = 2;
  std::string spans;  // non-empty: run a traced window and write its spans
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --structure "
               "NAME --workload W --seed N --window-s S "
               "[--spans FILE]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (f == "--structure") {
      a.structure = v;
    } else if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (f == "--window-s") {
      a.window_s = std::strtod(v, &end);
    } else if (f == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + f).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + f).c_str());
  }
  if (a.structure.empty() || a.workload.empty()) usage("missing flags");
  if (!(a.window_s > 0) || a.window_s > 120) usage("window out of range");
  return a;
}

// Warm-up operations before timing, so the timed window starts from the
// steady state a long-running client sees (pools filled, EBR bags cycling)
// rather than from a cold process.
constexpr std::uint64_t kWarmupOps = 200'000;

// Sub-windows per timed window; ops_per_s is the median of their rates.
constexpr int kSubWindows = 4;

void print_hist(const char* name, const LogHist& h, bool last = false) {
  std::printf("\"%s\":{\"n\":%" PRIu64 ",\"p50_us\":%.6f,\"p99_us\":%.6f}%s",
              name, h.count(), h.quantile(0.5) * 1e-3, h.quantile(0.99) * 1e-3,
              last ? "" : ",");
}

void print_window(const WindowStats& w) {
  std::printf("{\"seconds\":%.6f,\"ops\":%" PRIu64 ",\"updates\":%" PRIu64
              ",\"sub_rates\":[",
              w.seconds, w.ops, w.updates);
  for (std::size_t i = 0; i < w.sub_rates.size(); ++i) {
    std::printf("%s%.3f", i ? "," : "", w.sub_rates[i]);
  }
  std::printf("],");
  print_hist("update", w.lat[kLatUpdate]);
  print_hist("find", w.lat[kLatFind]);
  print_hist("query", w.lat[kLatQuery], true);
  std::printf("}");
}

// Writes the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one complete event per span, microseconds from window start.
bool write_spans(const std::string& path, const std::vector<Tracer>& tracers,
                 std::uint64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const Tracer::Span& s : tracers[t].spans()) {
      const double ts = static_cast<double>(s.start - origin) * 1e-3;
      const double dur = static_cast<double>(s.end - s.start) * 1e-3;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                   ",\"parent\":%s}}",
                   first ? "" : ",\n", span_name(s.name).c_str(), t, ts, dur,
                   s.op, s.child ? "\"op\"" : "null");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

template <class Exec, class Make>
WindowStats traced_window(Harness& h, const Args& a, Make make) {
  std::vector<Tracer> tracers(Harness::kThreads);
  std::vector<Exec> ex;
  for (auto& tr : tracers) ex.push_back(make(&tr));
  const std::uint64_t origin = now_ns();
  const WindowStats w = h.window(ex, a.window_s, kSubWindows);
  LogHist all[kNumSpanNames];
  for (const Tracer& tr : tracers) {
    for (std::uint32_t n = 0; n < kNumSpanNames; ++n) all[n].merge(tr.hist(n));
  }
  std::printf(",\"traced\":");
  print_window(w);
  std::printf(",\"spans_file\":\"%s\",\"spans_written\":%s,\"layers\":{",
              a.spans.c_str(),
              write_spans(a.spans, tracers, origin)
                  ? "true"
                  : "false");
  bool first = true;
  for (std::uint32_t n = 0; n < kNumSpanNames; ++n) {
    if (all[n].count() == 0) continue;
    std::printf("%s", first ? "" : ",");
    print_hist(span_name(n).c_str(), all[n], true);
    first = false;
  }
  std::printf("}");
  return w;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  Harness h(*w, a.seed);
  const double rss0 = rss_bytes();
  const double setup_s = h.setup(a.structure, kWarmupOps);
  if (setup_s < 0) usage(("unknown structure " + a.structure).c_str());

  const cbat::Counters::Snapshot c0 = cbat::Counters::snapshot();
  std::vector<ApiExec> api(Harness::kThreads, ApiExec{h.set()});
  const WindowStats win = h.window(api, a.window_s, kSubWindows);
  const cbat::Counters::Snapshot c1 = cbat::Counters::snapshot();
  // mem_mib is what the structure costs to hold the prefilled keys.  The
  // growth after that (warm-up and window) is mostly EBR limbo and pooled
  // garbage, whose peak follows how long the host deschedules a client
  // inside an operation; it is reported separately.
  constexpr double kMiB = 1024.0 * 1024.0;
  const double mem_mib = (h.prefill_rss() - rss0) / kMiB;
  const double window_mem_mib = (rss_bytes() - h.prefill_rss()) / kMiB;
  const std::size_t limbo = cbat::Ebr::pending();

  std::printf("{\"structure\":\"%s\",\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"setup_s\":%.6f,\"mem_mib\":%.6f,\"window_mem_mib\":%.6f,"
              "\"limbo_objects\":%zu,\"window\":",
              a.structure.c_str(), w->name, a.seed, setup_s, mem_mib,
              window_mem_mib, limbo);
  print_window(win);
  using cbat::Counter;
  const std::pair<const char*, Counter> counters[] = {
      {"scx", Counter::kScxAttempts},
      {"scx_fail", Counter::kScxFailures},
      {"rebalance_steps", Counter::kRebalanceSteps},
      {"propagate_nodes", Counter::kPropagateNodes},
      {"refresh_cas", Counter::kRefreshCas},
      {"refresh_cas_fail", Counter::kRefreshCasFail},
      {"nil_refreshes", Counter::kNilRefreshes},
      {"delegations", Counter::kDelegations},
      {"delegation_timeouts", Counter::kDelegationTimeouts},
      {"ebr_pressure_events", Counter::kEbrPressureEvents},
  };
  std::printf(",\"counters\":{");
  bool first = true;
  for (const auto& [name, c] : counters) {
    std::printf("%s\"%s\":%" PRIu64, first ? "" : ",", name, c1[c] - c0[c]);
    first = false;
  }
  std::printf("}");

  std::int64_t checks = h.setup_checks() + win.checks;
  std::int64_t failures = h.setup_failures() + win.failures;
  if (!a.spans.empty()) {
    auto* model = &h.set();
    WindowStats tw;
    if (auto* m = dynamic_cast<SetModel<BatEagerDel>*>(model)) {
      tw = traced_window<CoreExec<BatEagerDel>>(h, a, [&](Tracer* tr) {
        return CoreExec<BatEagerDel>{m->tree(), tr};
      });
    } else if (auto* f = dynamic_cast<SetModel<LinForest>*>(model)) {
      tw = traced_window<ShardExec<LinForest>>(h, a, [&](Tracer* tr) {
        return ShardExec<LinForest>{f->tree(), tr};
      });
    } else {
      usage(("no traced executor for " + a.structure).c_str());
    }
    checks += tw.checks;
    failures += tw.failures;
  }
  const Oracle::Verdict v = h.verify();
  checks += v.checks;
  failures += v.failures;
  std::printf(",\"final_size\":%" PRId64 ",\"checks\":%" PRId64
              ",\"failures\":%" PRId64 "}\n",
              v.final_size, checks, failures);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int rc = perfbench::run(perfbench::parse(argc, argv));
  // Skip tearing down a tree of a million nodes: the answer is printed.
  std::fflush(stdout);
  std::_Exit(rc);
}
