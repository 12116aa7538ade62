#include "query/profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "query/pattern.h"

namespace hexastore {

namespace {

// Permutation index serving a probe with the given bound positions,
// mirroring Hexastore::Scan's dispatch (core/hexastore.cc).
const char* IndexChoiceName(bool bs, bool bp, bool bo) {
  if (bs && bp && bo) return "spo";
  if (bs && bp) return "spo";
  if (bs && bo) return "sop";
  if (bp && bo) return "pos";
  if (bs) return "spo";
  if (bp) return "pso";
  if (bo) return "osp";
  return "scan";
}

std::string RenderSlot(const Slot& slot, const CompiledBgp& bgp,
                       const Dictionary& dict) {
  if (slot.is_var()) {
    return "?" + bgp.vars.name(slot.var);
  }
  if (slot.id == kInvalidId || slot.id > dict.size()) {
    return "<unresolved>";
  }
  return dict.term(slot.id).ToNTriples();
}

void AppendFixed(std::string* out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

// "12.3us" style duration, stable width-free rendering for reports
// (never golden-tested; EXPLAIN output carries no durations).
std::string HumanNanos(std::uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fms",
                  static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs",
                  static_cast<double>(ns) / 1e9);
  }
  return std::string(buf);
}

void AppendPlanLine(std::string* out, const PatternProfile& p,
                    std::size_t step) {
  AppendFixed(out, "  step %zu: pattern[%zu] ", step + 1, p.pattern_index);
  out->append(p.text);
  AppendFixed(out, "  index=%s bound=%d est=%" PRIu64, p.index.c_str(),
              p.bound_at_pick, p.estimated);
  if (!p.connected) {
    out->append(" DISCONNECTED");
  }
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  return obs::SlowQueryKindName(static_cast<std::uint8_t>(kind));
}

double QError(double estimated, double actual) {
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return std::max(est / act, act / est);
}

double PatternProfile::ActualPerProbe() const {
  if (probes == 0) return 0.0;
  return static_cast<double>(rows_emitted) / static_cast<double>(probes);
}

double QueryProfile::MaxQError() const {
  double worst = 1.0;
  for (const PatternProfile& p : patterns) {
    if (p.probes == 0) continue;  // never evaluated (pruned above)
    worst = std::max(worst, p.QErrorValue());
  }
  return worst;
}

std::uint64_t QueryProfile::TotalRowsScanned() const {
  std::uint64_t total = 0;
  for (const PatternProfile& p : patterns) total += p.rows_scanned;
  return total;
}

void QueryProfile::Reset() {
  kind = QueryKind::kBgp;
  parse_ns = plan_ns = eval_ns = pin_ns = total_ns = 0;
  estimate_probes = memo_hits = 0;
  rows_out = 0;
  deadline_ns = 0;
  deadline_exceeded = false;
  patterns.clear();
  operators.clear();
}

void AttachPlan(const CompiledBgp& bgp, const Dictionary& dict,
                const PlanProfile& plan, QueryProfile* profile) {
  profile->estimate_probes = plan.estimate_probes;
  profile->memo_hits = plan.memo_hits;
  profile->patterns.clear();
  profile->patterns.reserve(plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    const CompiledPattern& p = bgp.patterns[step.pattern_index];
    PatternProfile pp;
    pp.pattern_index = step.pattern_index;
    pp.text = "(" + RenderSlot(p.s, bgp, dict) + " " +
              RenderSlot(p.p, bgp, dict) + " " + RenderSlot(p.o, bgp, dict) +
              ")";
    pp.index = IndexChoiceName(step.s_bound, step.p_bound, step.o_bound);
    pp.estimated = step.estimated;
    pp.bound_at_pick = step.bound_at_pick;
    pp.connected = step.connected;
    profile->patterns.push_back(std::move(pp));
  }
}

ProfileSink::ProfileSink(std::optional<std::uint64_t> slow_threshold_ns,
                         std::size_t slow_capacity)
    : slow_(slow_capacity),
      slow_threshold_ns_(slow_threshold_ns.has_value()
                             ? *slow_threshold_ns
                             : obs::SlowQueryThresholdNanos()) {}

void ProfileSink::RegisterWith(obs::MetricsRegistry* registry) {
  registry->RegisterHistogram(
      "hexa_query_bgp_latency_ns",
      "End-to-end latency of profiled BGP queries (plan + eval)", &bgp_ns_);
  registry->RegisterHistogram(
      "hexa_query_path_latency_ns",
      "End-to-end latency of profiled property-path queries", &path_ns_);
  registry->RegisterHistogram(
      "hexa_query_sparql_latency_ns",
      "End-to-end latency of profiled SPARQL queries (parse to results)",
      &sparql_ns_);
  registry->AttachSlowQueryLog(&slow_);
}

obs::LatencyHistogram* ProfileSink::histogram(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBgp:
      return &bgp_ns_;
    case QueryKind::kPath:
      return &path_ns_;
    case QueryKind::kSparql:
      return &sparql_ns_;
  }
  return &sparql_ns_;
}

void ProfileSink::Record(const QueryProfile& profile,
                         std::string_view query_text) {
  histogram(profile.kind)->Record(profile.total_ns);
  if (profile.total_ns < slow_threshold_ns_) return;
  obs::SlowQueryRecord rec;
  rec.kind = static_cast<std::uint8_t>(profile.kind);
  rec.total_ns = profile.total_ns;
  rec.parse_ns = profile.parse_ns;
  rec.plan_ns = profile.plan_ns;
  rec.eval_ns = profile.eval_ns;
  rec.pin_ns = profile.pin_ns;
  rec.rows_out = profile.rows_out;
  rec.rows_scanned = profile.TotalRowsScanned();
  rec.estimate_probes = profile.estimate_probes;
  rec.patterns = static_cast<std::uint32_t>(profile.patterns.size());
  rec.q_error_x1000 =
      static_cast<std::uint64_t>(profile.MaxQError() * 1000.0 + 0.5);
  rec.text.assign(query_text.substr(
      0, std::min(query_text.size(), obs::kSlowQueryTextBytes)));
  slow_.Record(rec);
}

std::string ExplainBgp(const TripleStore& store, const Dictionary& dict,
                       const std::vector<TriplePattern>& patterns,
                       QueryKind kind) {
  CompiledBgp bgp = CompileBgp(patterns, dict);
  if (bgp.trivially_empty) {
    return std::string("plan: ") + QueryKindName(kind) +
           ", empty result (constant term not in dictionary)\n";
  }
  PlanProfile plan;
  PlanBgp(store, bgp, &plan);
  QueryProfile profile;
  profile.kind = kind;
  AttachPlan(bgp, dict, plan, &profile);
  return RenderExplain(profile);
}

std::string RenderExplain(const QueryProfile& profile) {
  std::string out;
  AppendFixed(&out, "plan: %s, %zu patterns, estimate_probes=%" PRIu64
                    ", memo_hits=%" PRIu64 "\n",
              QueryKindName(profile.kind), profile.patterns.size(),
              profile.estimate_probes, profile.memo_hits);
  for (std::size_t i = 0; i < profile.patterns.size(); ++i) {
    AppendPlanLine(&out, profile.patterns[i], i);
    out.push_back('\n');
  }
  return out;
}

std::string RenderExplainAnalyze(const QueryProfile& profile) {
  std::string out;
  AppendFixed(&out, "plan: %s, %zu patterns, estimate_probes=%" PRIu64
                    ", memo_hits=%" PRIu64 "\n",
              QueryKindName(profile.kind), profile.patterns.size(),
              profile.estimate_probes, profile.memo_hits);
  for (std::size_t i = 0; i < profile.patterns.size(); ++i) {
    const PatternProfile& p = profile.patterns[i];
    AppendPlanLine(&out, p, i);
    // Self time: all deeper scans nest inside this depth's scans, so
    // exclusive = inclusive minus the next depth's inclusive.
    const std::uint64_t child_ns =
        (i + 1 < profile.patterns.size()) ? profile.patterns[i + 1].wall_ns
                                          : 0;
    const std::uint64_t self_ns =
        p.wall_ns > child_ns ? p.wall_ns - child_ns : 0;
    AppendFixed(&out,
                "\n           actual: probes=%" PRIu64 " scanned=%" PRIu64
                " emitted=%" PRIu64 " q_error=%.2f incl=%s self=%s\n",
                p.probes, p.rows_scanned, p.rows_emitted,
                p.probes == 0 ? 1.0 : p.QErrorValue(),
                HumanNanos(p.wall_ns).c_str(), HumanNanos(self_ns).c_str());
  }
  for (const OperatorProfile& op : profile.operators) {
    AppendFixed(&out, "  operator %s: rows_in=%" PRIu64 " rows_out=%" PRIu64
                      " wall=%s\n",
                op.name, op.rows_in, op.rows_out,
                HumanNanos(op.wall_ns).c_str());
  }
  AppendFixed(&out, "totals: rows_out=%" PRIu64 " max_q_error=%.2f\n",
              profile.rows_out, profile.MaxQError());
  AppendFixed(&out, "phases: parse=%s plan=%s eval=%s pin=%s total=%s\n",
              HumanNanos(profile.parse_ns).c_str(),
              HumanNanos(profile.plan_ns).c_str(),
              HumanNanos(profile.eval_ns).c_str(),
              HumanNanos(profile.pin_ns).c_str(),
              HumanNanos(profile.total_ns).c_str());
  return out;
}

std::string FormatSlowQueries(const obs::SlowQueryLog& log) {
  const std::vector<obs::SlowQueryRecord> entries = log.Snapshot();
  std::string out;
  AppendFixed(&out,
              "slow queries: %zu retained (capacity %zu, %" PRIu64
              " recorded)\n",
              entries.size(), log.capacity(), log.TotalRecorded());
  for (const obs::SlowQueryRecord& rec : entries) {
    AppendFixed(&out,
                "  #%" PRIu64 " [%s] total=%s parse=%s plan=%s eval=%s"
                " pin=%s rows_out=%" PRIu64 " scanned=%" PRIu64
                " patterns=%" PRIu32 " q_error=%.2f\n",
                rec.ticket, obs::SlowQueryKindName(rec.kind),
                HumanNanos(rec.total_ns).c_str(),
                HumanNanos(rec.parse_ns).c_str(),
                HumanNanos(rec.plan_ns).c_str(),
                HumanNanos(rec.eval_ns).c_str(),
                HumanNanos(rec.pin_ns).c_str(), rec.rows_out,
                rec.rows_scanned, rec.patterns,
                static_cast<double>(rec.q_error_x1000) / 1000.0);
    if (!rec.text.empty()) {
      out += "     " + rec.text + "\n";
    }
  }
  return out;
}

}  // namespace hexastore
