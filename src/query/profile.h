// Per-query observability: a nullable, zero-cost-when-off QueryProfile
// threaded through the whole query stack, and a ProfileSink that
// aggregates finished profiles into query-class latency histograms and
// the slow-query log.
//
// Contract:
//
//  - Every profiled entry point takes `QueryProfile* profile = nullptr`.
//    With nullptr the BGP evaluation loop runs its unprofiled
//    instantiation — no clock reads, no allocation (pinned by
//    bench/abl_obs_overhead.cc's bgp_eval series).
//  - With a profile, the planner records per-pattern estimates, chosen
//    order and cardinality-probe counts; BGP evaluation records
//    per-pattern probes, rows scanned/emitted and inclusive wall time;
//    query::Session records the parse, pin (handle acquisition only),
//    plan and eval phases plus one operator per solution-modifier
//    stage. The four phases are disjoint, and the Session sets
//    total_ns once, to the wall time of the whole call, so
//    parse + pin + plan + eval <= total.
//  - A profile is single-query, single-thread state (plain fields, no
//    atomics). Cross-query aggregation happens in ProfileSink, whose
//    instruments are lock-free and shared-safe.
//
// docs/observability.md ("Query profiling") documents the schema, the
// q-error definition and the slow-query ring semantics.
#ifndef HEXASTORE_QUERY_PROFILE_H_
#define HEXASTORE_QUERY_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "query/planner.h"

namespace hexastore {

/// Query classes with dedicated latency histograms and slow-query
/// tagging. Values mirror obs::kSlowQueryKind* (the log stores the raw
/// integer).
enum class QueryKind : std::uint8_t {
  kBgp = obs::kSlowQueryKindBgp,
  kPath = obs::kSlowQueryKindPath,
  kSparql = obs::kSlowQueryKindSparql,
};

/// Stable lowercase name ("bgp", "path", "sparql").
const char* QueryKindName(QueryKind kind);

/// q-error of an estimate against an observed (average) cardinality:
/// max(est/act, act/est) with both sides clamped to >= 1, so a perfect
/// estimate — including "0 expected, 0 seen" — reports exactly 1.
double QError(double estimated, double actual);

/// One BGP pattern in plan order: the planner's view (estimate, index
/// choice, bound positions at pick time) plus the evaluator's actuals.
struct PatternProfile {
  std::size_t pattern_index = 0;  ///< position in the source BGP
  std::string text;               ///< rendered pattern, e.g. "(?x <p> ?y)"
  std::string index;              ///< permutation index serving the probes
  std::uint64_t estimated = 0;    ///< planner estimate when picked
  int bound_at_pick = 0;          ///< constant+bound positions when picked
  bool connected = true;          ///< shared a bound variable when picked

  // Actuals (profiled evaluation / EXPLAIN ANALYZE). wall_ns is
  // inclusive of deeper patterns; self time is wall_ns minus the next
  // pattern's wall_ns (all deeper scans nest inside this one).
  std::uint64_t probes = 0;        ///< index scans issued at this depth
  std::uint64_t rows_scanned = 0;  ///< triples the scans produced
  std::uint64_t rows_emitted = 0;  ///< rows surviving the join filter
  std::uint64_t wall_ns = 0;       ///< inclusive wall time at this depth

  /// Average rows emitted per probe (what the estimate predicts).
  double ActualPerProbe() const;
  /// q-error of `estimated` against ActualPerProbe().
  double QErrorValue() const { return QError(static_cast<double>(estimated),
                                             ActualPerProbe()); }
};

/// One non-pattern operator (path step, filter, modifier).
struct OperatorProfile {
  const char* name = "";  ///< static literal, e.g. "filter", "path_join"
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t wall_ns = 0;
};

/// The per-query collection object. Plain single-thread state; reuse
/// across queries via Reset().
struct QueryProfile {
  QueryKind kind = QueryKind::kBgp;

  // Phase wall times (nanoseconds).
  std::uint64_t parse_ns = 0;
  std::uint64_t plan_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t pin_ns = 0;    ///< read-handle acquisition (0 = unpinned)
  std::uint64_t total_ns = 0;  ///< whole Session call; >= sum of phases

  // Planner accounting (the memoization satellite's pin).
  std::uint64_t estimate_probes = 0;  ///< EstimateCardinality store probes
  std::uint64_t memo_hits = 0;        ///< estimates served from the memo

  std::uint64_t rows_out = 0;

  // Per-query deadline (the PR-9 server's admission contract). The
  // profiled evaluation path checks the clock it already reads at every
  // operator boundary — each BGP probe and each solution-modifier stage
  // — against `deadline_ns` (an absolute obs::NowNanos() instant; 0
  // disables the check) and unwinds by setting `deadline_exceeded`
  // instead of descending further. The nullptr-profile path reads no
  // clock, so deadlines require profiled execution (Session always
  // profiles).
  std::uint64_t deadline_ns = 0;   ///< absolute cutoff; 0 = no deadline
  bool deadline_exceeded = false;  ///< evaluation stopped at the cutoff

  std::vector<PatternProfile> patterns;    ///< in chosen plan order
  std::vector<OperatorProfile> operators;  ///< in execution order

  /// Worst per-pattern q-error (1.0 when no pattern has actuals).
  double MaxQError() const;
  /// Sum of rows_scanned over all patterns and operator rows_in.
  std::uint64_t TotalRowsScanned() const;
  /// Clears everything for reuse.
  void Reset();
};

/// Aggregation target for finished profiles: three query-class latency
/// histograms (hexa_query_{bgp,path,sparql}_latency_ns) plus the
/// slow-query ring. Instruments are lock-free; one sink may serve
/// concurrent query threads.
class ProfileSink {
 public:
  /// `slow_threshold_ns` overrides the HEXA_SLOW_QUERY_US environment
  /// threshold (tests pass 0 to capture everything deterministically).
  explicit ProfileSink(
      std::optional<std::uint64_t> slow_threshold_ns = std::nullopt,
      std::size_t slow_capacity = 64);

  /// Registers the class histograms with `registry` under hexa_query_*
  /// names and attaches the slow-query log to the registry's JSON
  /// export. The sink must outlive the registry's last render (declare
  /// the sink before the store/registry owner, or detach first).
  void RegisterWith(obs::MetricsRegistry* registry);

  /// Records one finished query: class histogram always, slow-query
  /// ring when profile.total_ns >= slow_threshold_ns. `query_text` is
  /// truncated into the ring slot.
  void Record(const QueryProfile& profile, std::string_view query_text);

  obs::LatencyHistogram* histogram(QueryKind kind);
  const obs::SlowQueryLog& slow_queries() const { return slow_; }
  std::uint64_t slow_threshold_ns() const { return slow_threshold_ns_; }

 private:
  obs::LatencyHistogram bgp_ns_{0};
  obs::LatencyHistogram path_ns_{0};
  obs::LatencyHistogram sparql_ns_{0};
  obs::SlowQueryLog slow_;
  std::uint64_t slow_threshold_ns_;
};

/// Copies a finished PlanProfile into `profile->patterns` (in plan
/// order), rendering each pattern's text against `dict`/`bgp.vars` and
/// naming the permutation index its probes will use. Also transfers the
/// planner's estimate-probe accounting.
void AttachPlan(const CompiledBgp& bgp, const Dictionary& dict,
                const PlanProfile& plan, QueryProfile* profile);

/// EXPLAIN for a BGP: compiles and plans `patterns` without evaluating
/// them, and returns the rendered plan tree headed by `kind`'s name
/// (Session::Explain passes kSparql for a query's BGP). Deterministic
/// for a given store state (golden-tested in planner_test).
std::string ExplainBgp(const TripleStore& store, const Dictionary& dict,
                       const std::vector<TriplePattern>& patterns,
                       QueryKind kind = QueryKind::kBgp);

/// Renders a profile as the EXPLAIN plan tree (plan-time facts only:
/// pattern order, index choice, bound positions, estimates, probe
/// counts — no timings, so the text is stable across runs and golden-
/// testable).
std::string RenderExplain(const QueryProfile& profile);

/// Renders the EXPLAIN ANALYZE report: the plan tree annotated with
/// per-pattern actuals (probes, rows, q-error, inclusive/self wall
/// time), the operator list, and the phase breakdown.
std::string RenderExplainAnalyze(const QueryProfile& profile);

/// Renders a slow-query log snapshot as a human-readable table
/// (hexastore_cli --slow-queries).
std::string FormatSlowQueries(const obs::SlowQueryLog& log);

}  // namespace hexastore

#endif  // HEXASTORE_QUERY_PROFILE_H_
