// Observability-overhead ablation: what the PR-7 instrumentation costs
// on the paths it touches.
//
// The contract the obs layer must keep (docs/observability.md): the
// sampled ScopedTimers add only low-single-digit nanoseconds to the
// ~75ns insert path (within the run-to-run noise of the end-to-end
// series — compare on/off with --benchmark_enable_random_interleaving to
// control for ordering drift), and HEXA_METRICS=0 reduces the
// timers/tracing to a single relaxed flag load. Three groups pin that:
//
//   scoped_timer/*   — the raw primitive: a Counter::Add, one ScopedTimer
//                      over a trivial body at sample_shift 0 (every op
//                      pays two clock reads) and kHotPathSampleShift
//                      (1-in-128, the hot-path configuration), and the
//                      same timer with metrics disabled (the near-zero
//                      toggle).
//   insert/*         — DeltaHexastore::Insert end to end, metrics on vs
//                      off: the overhead claim measured where it
//                      matters; the on/off delta IS the instrumentation
//                      cost.
//   trace_ring/*     — one TraceRing::Record, enabled and disabled.
//   bgp_eval/*       — a two-pattern LUBM join end to end with the PR-8
//                      query profiler detached (profile:off, the default
//                      nullptr path — must match the pre-profiling
//                      baseline), attached (profile:on), and attached
//                      with metrics off.
//
// The enabled/disabled toggle uses SetMetricsEnabledForTesting (the env
// var is read once per process); benchmarks restore the enabled state so
// registration order cannot leak between series.
#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace_ring.h"
#include "query/bgp.h"

namespace hexastore::bench {
namespace {

// Toggles the runtime metrics switch for one benchmark's scope.
class MetricsToggle {
 public:
  explicit MetricsToggle(bool enabled) {
    obs::SetMetricsEnabledForTesting(enabled);
  }
  ~MetricsToggle() { obs::SetMetricsEnabledForTesting(true); }
};

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.Add();
    benchmark::DoNotOptimize(&counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterAdd)->Name("abl_obs_overhead/scoped_timer/counter_add");

void TimerBody(benchmark::State& state, unsigned sample_shift,
               bool enabled) {
  MetricsToggle toggle(enabled);
  obs::LatencyHistogram hist(sample_shift);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    obs::ScopedTimer timer(&hist);
    benchmark::DoNotOptimize(++sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["recorded"] =
      static_cast<double>(hist.Snapshot().count);
}

void BM_TimerShift0(benchmark::State& state) { TimerBody(state, 0, true); }
void BM_TimerHotShift(benchmark::State& state) {
  TimerBody(state, obs::kHotPathSampleShift, true);
}
void BM_TimerOff(benchmark::State& state) {
  TimerBody(state, obs::kHotPathSampleShift, false);
}
BENCHMARK(BM_TimerShift0)
    ->Name("abl_obs_overhead/scoped_timer/shift:0/metrics:on");
BENCHMARK(BM_TimerHotShift)
    ->Name("abl_obs_overhead/scoped_timer/shift:hot/metrics:on");
BENCHMARK(BM_TimerOff)
    ->Name("abl_obs_overhead/scoped_timer/shift:hot/metrics:off");

void BM_TraceRecord(benchmark::State& state) {
  MetricsToggle toggle(state.range(0) != 0);
  obs::TraceRing ring(1024);
  for (auto _ : state) {
    ring.Record(obs::TraceEvent::kSeal, "bench", 1, 2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecord)
    ->Name("abl_obs_overhead/trace_ring/record")
    ->Arg(1)
    ->Arg(0);

// End-to-end insert loop, instrumentation on vs off. One pass inserts
// kInsertTriples fresh LUBM triples into a store with a threshold high
// enough that no drain lands inside the timed loop — isolating the
// per-op cost the timers/counters add, the configuration the <1% budget
// is defined against.
constexpr std::size_t kInsertTriples = 50000;

void InsertBody(benchmark::State& state, bool enabled) {
  MetricsToggle toggle(enabled);
  Dictionary dict;
  IdTripleVec data;
  for (const auto& t : data::LubmGenerator().Generate(kInsertTriples)) {
    data.push_back(dict.Encode(t));
  }
  DeltaOptions options;
  options.compact_threshold = kInsertTriples * 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_unique<DeltaHexastore>(options);
    state.ResumeTiming();
    for (const auto& t : data) {
      store->Insert(t);
    }
    benchmark::DoNotOptimize(store->size());
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kInsertTriples));
}

void BM_InsertMetricsOn(benchmark::State& state) {
  InsertBody(state, true);
}
void BM_InsertMetricsOff(benchmark::State& state) {
  InsertBody(state, false);
}
BENCHMARK(BM_InsertMetricsOn)
    ->Name("abl_obs_overhead/insert/metrics:on")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_InsertMetricsOff)
    ->Name("abl_obs_overhead/insert/metrics:off")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

// Profiled vs unprofiled BGP evaluation. The zero-cost-when-off
// contract (query/bgp.h): passing profile == nullptr runs the unprofiled
// instance of the one evaluation loop, which reads no clock, so
// profile:off tracks the pre-profiling baseline within noise; profile:on
// pays per-probe clock reads and per-pattern tallies.
constexpr std::size_t kBgpTriples = 20000;

void BgpEvalBody(benchmark::State& state, bool profiled,
                 bool metrics_enabled) {
  MetricsToggle toggle(metrics_enabled);
  Dictionary dict;
  Hexastore store;
  for (const auto& t : data::LubmGenerator().Generate(kBgpTriples)) {
    store.Insert(dict.Encode(t));
  }
  const std::string ns = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
  const std::vector<TriplePattern> patterns = {
      {PatternTerm::Variable("s"),
       PatternTerm::Bound(Term::Iri(ns + "advisor")),
       PatternTerm::Variable("prof")},
      {PatternTerm::Variable("prof"),
       PatternTerm::Bound(Term::Iri(ns + "worksFor")),
       PatternTerm::Variable("dept")}};
  std::size_t rows = 0;
  std::uint64_t scanned = 0;
  for (auto _ : state) {
    QueryProfile profile;
    const ResultSet result = EvalBgp(
        store, dict, patterns, profiled ? &profile : nullptr);
    rows = result.rows.size();
    scanned += profile.TotalRowsScanned();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["scanned_per_iter"] =
      static_cast<double>(scanned) /
      static_cast<double>(std::max<std::size_t>(state.iterations(), 1));
}

void BM_BgpEvalProfileOff(benchmark::State& state) {
  BgpEvalBody(state, false, true);
}
void BM_BgpEvalProfileOn(benchmark::State& state) {
  BgpEvalBody(state, true, true);
}
void BM_BgpEvalProfileOnMetricsOff(benchmark::State& state) {
  BgpEvalBody(state, true, false);
}
BENCHMARK(BM_BgpEvalProfileOff)
    ->Name("abl_obs_overhead/bgp_eval/profile:off/metrics:on")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BgpEvalProfileOn)
    ->Name("abl_obs_overhead/bgp_eval/profile:on/metrics:on")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BgpEvalProfileOnMetricsOff)
    ->Name("abl_obs_overhead/bgp_eval/profile:on/metrics:off")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hexastore::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
