// Traced replay: the same seeded request streams as drive.cc, served
// in-process so that spans can be recorded around calls into each
// module's public functions, from outside the program.
//
// Three stores are built from the same data file:
//  - A: a DurableDeltaHexastore behind a hexastore::Server that is never
//    Start()ed. One serve thread per client connection reads requests
//    with the server's own http.h functions and answers them through
//    Server::Handle, so "http" minus "server.handle" is the transport.
//  - B: a second DurableDeltaHexastore that replays every write through
//    the module calls Server::Handle makes internally (N-Triples parse,
//    dictionary encode, durable Insert/Erase).
//  - C: an in-memory DeltaHexastore that replays the same writes (stage
//    and compaction cost without the WAL) and serves the decomposed
//    read replay: Session::Query and ResultSetToJson as a whole, then
//    ParseSparql, AcquireReadHandle, CompileBgp, PlanCache::Plan (which
//    runs PlanBgp on a miss) and EvalBgp one by one.
// Every span carries a request id and its parent; they stay in memory
// and are written to <dir>/spans.tsv when the run ends.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "delta/delta_hexastore.h"
#include "query/bgp.h"
#include "query/plan_cache.h"
#include "query/result_json.h"
#include "query/session.h"
#include "query/sparql_parser.h"
#include "rdf/ntriples.h"
#include "server/http.h"
#include "server/server.h"
#include "server/store_options.h"
#include "wal/durable_store.h"

namespace hexabench {

namespace hx = hexastore;

namespace {

enum SpanName : std::uint8_t {
  kRequest,
  kHttp,
  kHandle,
  kCheck,
  kSession,
  kRender,
  kParse,
  kPin,
  kCompile,
  kPlan,
  kEval,
  kPaper,
  kRdfParse,
  kEncode,
  kDurable,
  kStage,
  kCompact,
  kPublish,
  kSpanNames
};
constexpr const char* kSpanName[kSpanNames] = {
    "request",       "http",          "server.handle",     "bench.check",
    "query.session", "query.render",  "query.parse",       "delta.pin",
    "query.compile", "query.plan",    "query.eval",        "core.paper_plan",
    "rdf.parse",     "dict.encode",   "wal.durable_write", "delta.stage",
    "delta.compact", "delta.publish"};

struct Span {
  std::uint64_t rid;
  std::uint64_t start;
  std::uint64_t end;
  std::int32_t parent;  // index in the same recorder; -1 = root/remote
  SpanName name;
};

// Per-thread span buffer.
class Recorder {
 public:
  std::int32_t Begin(SpanName name, std::uint64_t rid, std::int32_t parent) {
    spans_.push_back(Span{rid, NowNs(), 0, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t i) { spans_[static_cast<std::size_t>(i)].end = NowNs(); }
  // A span with explicit bounds (per-op compaction, measured inline).
  void Add(SpanName name, std::uint64_t rid, std::int32_t parent,
           std::uint64_t start, std::uint64_t end) {
    spans_.push_back(Span{rid, start, end, parent, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Facts about one request that are not durations.
struct Facts {
  std::uint64_t rid = 0;
  Op op = Op::kQuery;
  bool plan_miss = false;
  std::uint64_t bgp_rows = 0;
  std::uint64_t rows = 0;
  std::uint64_t ops = 0;  // writes: triples encoded and applied
  bool analytic = false;
};

std::uint64_t Rid(int conn, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(conn) << 40) | seq;
}

// Loads `triples` through the same path as hexastore_server: encode
// every triple in file order, then one BulkLoad.
hx::IdTripleVec Encode(const std::vector<hx::Triple>& triples,
                       hx::Dictionary* dict) {
  hx::IdTripleVec ids;
  ids.reserve(triples.size());
  for (const hx::Triple& t : triples) ids.push_back(dict->Encode(t));
  return ids;
}

}  // namespace

int RunTrace(const Model& model, const std::string& data_path,
             const std::string& dir, double seconds) {
  const Workload w = model.workload();
  const hx::StoreOptions options = hx::StoreOptions::FromEnv();

  std::ifstream in(data_path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = hx::ParseNTriplesDocument(buffer.str(), false);
  if (!parsed.ok()) {
    std::fprintf(stderr, "hexabench: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }

  // Store A, behind the server.
  hx::DurabilityOptions durability = options.durability;
  durability.dir = dir + "/a";
  auto opened_a = hx::DurableDeltaHexastore::Open(durability);
  durability.dir = dir + "/b";
  auto opened_b = hx::DurableDeltaHexastore::Open(durability);
  if (!opened_a.ok() || !opened_b.ok()) {
    std::fprintf(stderr, "hexabench: cannot open durable stores in %s\n",
                 dir.c_str());
    return 1;
  }
  std::unique_ptr<hx::DurableDeltaHexastore> store_a =
      std::move(opened_a).value();
  std::unique_ptr<hx::DurableDeltaHexastore> store_b =
      std::move(opened_b).value();
  hx::Dictionary dict_a;
  hx::Dictionary dict_b;  // B's writes intern here
  hx::Dictionary dict_r;  // read replay: preload terms only, never written
  store_a->BulkLoad(Encode(parsed.value(), &dict_a));
  const hx::IdTripleVec preload = Encode(parsed.value(), &dict_b);
  store_b->BulkLoad(preload);
  Encode(parsed.value(), &dict_r);
  hx::DeltaHexastore store_c(options.delta);
  store_c.BulkLoad(preload);
  // Publish: wait-free handles only see published generations.
  store_a->GetSnapshot();
  store_c.GetSnapshot();

  hx::Server server(*store_a, dict_a, options.server);
  hx::ProfileSink sink_a;
  hx::PlanCache cache_a(hx::PlanCacheOptions{
      options.server.plan_cache_capacity, options.server.plan_cache_q_error});
  hx::PlanCache cache_c(hx::PlanCacheOptions{
      options.server.plan_cache_capacity, options.server.plan_cache_q_error});
  hx::PlanCache plan_cache(hx::PlanCacheOptions{
      options.server.plan_cache_capacity, options.server.plan_cache_q_error});

  // Connections: readers, then the writer.
  const int readers = w == Workload::kIngest ? 0 : kReaders;
  const bool writer = w != Workload::kAnalytic;
  const int conns = readers + (writer ? 1 : 0);
  auto listen = hx::ListenTcp("127.0.0.1", 0);
  if (!listen.ok()) {
    std::fprintf(stderr, "hexabench: %s\n",
                 listen.status().ToString().c_str());
    return 1;
  }
  const int listen_fd = listen.value();
  const int port = hx::BoundPort(listen_fd);
  std::vector<HttpClient> clients(conns);
  std::vector<int> served(conns, -1);
  for (int c = 0; c < conns; ++c) {
    if (!clients[c].Connect(port) ||
        (served[c] = ::accept(listen_fd, nullptr, nullptr)) < 0) {
      std::fprintf(stderr, "hexabench: loopback connect failed\n");
      ::close(listen_fd);
      for (int fd : served) {
        if (fd >= 0) ::close(fd);
      }
      return 1;
    }
  }
  ::close(listen_fd);

  std::vector<Recorder> serve_rec(conns);
  std::vector<std::thread> serve_threads;
  for (int c = 0; c < conns; ++c) {
    serve_threads.emplace_back([&, c] {
      hx::query::SessionOptions sopts;
      sopts.pin = hx::query::PinPolicy::kWaitFree;
      sopts.sink = &sink_a;
      sopts.plan_cache = &cache_a;
      sopts.deadline_ns = options.server.query_deadline_ms * 1000000ull;
      hx::query::Session session(store_a->delta(), dict_a, sopts);
      for (std::uint64_t seq = 0;; ++seq) {
        hx::HttpRequest request;
        if (hx::ReadHttpRequest(served[c], options.server.max_request_bytes,
                                &request) != hx::ReadOutcome::kOk) {
          break;
        }
        const std::int32_t h = serve_rec[c].Begin(kHandle, Rid(c, seq), -1);
        const hx::HttpResponse response = server.Handle(request, &session);
        serve_rec[c].End(h);
        if (!hx::WriteHttpResponse(served[c], response, true)) break;
      }
      ::close(served[c]);
    });
  }

  std::vector<Recorder> rec(conns);
  std::vector<std::vector<Facts>> facts(conns);
  std::vector<std::uint64_t> wrong(conns, 0);
  std::vector<std::uint64_t> failed(conns, 0);
  std::vector<std::uint64_t> attempted(conns, 0);
  std::vector<std::uint64_t> completed(conns, 0);
  std::vector<std::string> error(conns);
  std::vector<std::uint64_t> next_seq(conns, 0);
  std::uint64_t acked_inserts = 0;
  std::uint64_t acked_erases = 0;

  // One request over connection c: the HTTP round trip plus its check.
  auto exchange = [&](int c, const Request& r, std::int32_t root,
                      std::uint64_t rid) -> bool {
    ++attempted[c];
    int status = 0;
    std::string body;
    const std::int32_t h = rec[c].Begin(kHttp, rid, root);
    const bool sent = clients[c].Call("POST", r.path(), r.body, &status, &body);
    rec[c].End(h);
    const std::int32_t k = rec[c].Begin(kCheck, rid, root);
    bool ok = sent && status == 200;
    if (!ok) {
      ++failed[c];
    } else if (r.op == Op::kQuery) {
      ok = AnswerMatches(r, body);
      if (!ok) ++wrong[c];
    } else {
      const std::uint64_t n = JsonNumberAfter(
          body, r.op == Op::kInsert ? "\"inserted\":" : "\"erased\":");
      ok = n == r.triples;
      if (ok) {
        (r.op == Op::kInsert ? acked_inserts : acked_erases) += n;
      } else {
        ++wrong[c];
      }
    }
    rec[c].End(k);
    if (!ok && error[c].empty()) {
      error[c] = std::string(r.path()) + " status " + std::to_string(status);
    }
    return ok;
  };

  const std::uint64_t t0 = NowNs();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      hx::query::SessionOptions sopts;
      sopts.pin = hx::query::PinPolicy::kWaitFree;
      sopts.plan_cache = &cache_c;
      hx::query::Session session(store_c, dict_r, sopts);
      Recorder& r = rec[c];
      for (std::uint64_t seq = 0; NowNs() < end; ++seq) {
        const Request req = model.ReaderRequest(c, seq);
        const std::uint64_t rid = Rid(c, next_seq[c]++);
        Facts f;
        f.rid = rid;
        f.analytic = w == Workload::kAnalytic;
        const std::int32_t root = r.Begin(kRequest, rid, -1);
        exchange(c, req, root, rid);

        std::int32_t s = r.Begin(kSession, rid, root);
        auto result = session.Query(req.body);
        r.End(s);
        if (!result.ok()) {
          ++wrong[c];
          r.End(root);
          continue;
        }
        s = r.Begin(kRender, rid, root);
        const std::string json =
            hx::ResultSetToJson(result.value().set, dict_r);
        r.End(s);
        f.rows = result.value().set.rows.size();
        // The traced answer must equal the oracle (and so the untraced
        // server's): a replay over an unpublished store would not.
        s = r.Begin(kCheck, rid, root);
        if (!AnswerMatches(req, json)) {
          ++wrong[c];
          if (error[c].empty()) error[c] = "traced replay answer differs";
        }
        r.End(s);

        s = r.Begin(kParse, rid, root);
        auto query = hx::ParseSparql(req.body);
        r.End(s);
        {
          s = r.Begin(kPin, rid, root);
          const hx::DeltaHexastore::Snapshot snap = store_c.AcquireReadHandle();
          r.End(s);
          s = r.Begin(kCompile, rid, root);
          const hx::CompiledBgp bgp =
              hx::CompileBgp(query.value().patterns, dict_r);
          r.End(s);
          if (!bgp.trivially_empty) {
            // Planning as the Session does it: through a plan cache of
            // the same size that sees the same stream.
            bool hit = false;
            s = r.Begin(kPlan, rid, root);
            const std::vector<std::size_t> order = plan_cache.Plan(
                snap, bgp, hx::PlanCacheStamp{snap.epoch(), snap.staged_ops()},
                nullptr, &hit);
            r.End(s);
            f.plan_miss = !hit;
            std::vector<hx::Row> rows;
            s = r.Begin(kEval, rid, root);
            hx::EvalBgp(snap, bgp, order, [&rows](const hx::Binding& b) {
              rows.push_back(b.values());
            });
            r.End(s);
            f.bgp_rows = rows.size();
          }
        }
        if (f.analytic) {
          s = r.Begin(kPaper, rid, root);
          model.PaperPlan(req.query);
          r.End(s);
        }
        r.End(root);
        ++completed[c];
        facts[c].push_back(f);
      }
    });
  }

  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> acked_at;
  if (writer) {
    threads.emplace_back([&] {
      const int c = readers;
      Recorder& r = rec[c];
      const double period_ns = 1e9 / kMixedWritesPerSecond;
      for (std::uint64_t step = 0;; ++step) {
        if (w == Workload::kMixed) {
          const std::uint64_t slot_due =
              t0 + static_cast<std::uint64_t>(period_ns * step);
          if (slot_due >= end) break;
          due.push_back(slot_due);
          acked_at.push_back(0);
          const std::uint64_t now = NowNs();
          if (now >= end) continue;
          if (now < slot_due) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(slot_due - now));
          }
        } else if (NowNs() >= end) {
          break;
        }
        const Request req =
            w == Workload::kMixed ? model.MixedWrite(step) : model.IngestStep(step);
        const std::uint64_t rid = Rid(c, next_seq[c]++);
        Facts f;
        f.rid = rid;
        f.op = req.op;
        const std::int32_t root = r.Begin(kRequest, rid, -1);
        if (exchange(c, req, root, rid) && w == Workload::kMixed) {
          acked_at.back() = NowNs();
        }

        std::int32_t s = r.Begin(kRdfParse, rid, root);
        auto triples = hx::ParseNTriplesDocument(req.body, true);
        r.End(s);
        hx::IdTripleVec ids;
        s = r.Begin(kEncode, rid, root);
        for (const hx::Triple& t : triples.value()) {
          if (req.op == Op::kInsert) {
            ids.push_back(dict_b.Encode(t));
          } else if (auto id = dict_b.TryEncode(t)) {
            ids.push_back(*id);
          }
        }
        r.End(s);
        s = r.Begin(kDurable, rid, root);
        for (const hx::IdTriple& t : ids) {
          if (req.op == Op::kInsert) {
            store_b->Insert(t);
          } else {
            store_b->Erase(t);
          }
        }
        r.End(s);
        // Stage on C op by op; an op across which the compaction count
        // moved becomes a delta.compact child span.
        std::uint64_t seen = store_c.CompactionCount();
        s = r.Begin(kStage, rid, root);
        for (const hx::IdTriple& t : ids) {
          const std::uint64_t op_start = NowNs();
          if (req.op == Op::kInsert) {
            store_c.Insert(t);
          } else {
            store_c.Erase(t);
          }
          const std::uint64_t now_count = store_c.CompactionCount();
          if (now_count != seen) {
            r.Add(kCompact, rid, s, op_start, NowNs());
            seen = now_count;
          }
        }
        r.End(s);
        s = r.Begin(kPublish, rid, root);
        store_c.GetSnapshot();
        r.End(s);
        f.ops = ids.size();
        r.End(root);
        ++completed[c];
        facts[c].push_back(f);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;

  // Final oracle over the served store, then hang up so serve threads
  // exit.
  std::int64_t writer_count = -1;
  if (writer) {
    int status = 0;
    std::string body;
    if (clients[readers].Call("POST", "/query", Model::WriterCountQuery(),
                              &status, &body) &&
        status == 200) {
      writer_count = static_cast<std::int64_t>(
          JsonNumberAfter(body, "\"value\":\""));
    }
    if (writer_count != static_cast<std::int64_t>(acked_inserts) -
                            static_cast<std::int64_t>(acked_erases)) {
      ++wrong[readers];
      error[readers] = "writer namespace count mismatch";
    }
  }
  for (int c = 0; c < conns; ++c) ::shutdown(served[c], SHUT_RDWR);
  for (auto& t : serve_threads) t.join();
  clients.clear();

  // ---- Accounting ----------------------------------------------------------
  // Index the handle spans by request id; they are children of the
  // request's "http" span.
  std::unordered_map<std::uint64_t, const Span*> handle_of;
  for (const Recorder& sr : serve_rec) {
    for (const Span& s : sr.spans()) handle_of[s.rid] = &s;
  }
  double total_ns[kSpanNames] = {};
  double self_ns[kSpanNames] = {};
  std::uint64_t count[kSpanNames] = {};
  std::uint64_t accounting_errors = 0;
  double wall_ns = 0;
  double unattributed_ns = 0;
  double transport_ns = 0;
  double handle_write_ns = 0;
  std::uint64_t transport_n = 0;
  std::uint64_t handle_write_n = 0;
  std::unordered_map<std::uint64_t, std::array<double, kSpanNames>> per_rid;
  std::ofstream out(dir + "/spans.tsv");
  out << "rid\tname\tstart_ns\tend_ns\tparent\n";
  for (const Recorder& r : rec) {
    const auto& spans = r.spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << s.rid << '\t' << kSpanName[s.name] << '\t' << s.start - t0 << '\t'
          << s.end - t0 << '\t' << s.parent << '\n';
      if (s.end < s.start) ++accounting_errors;
      if (s.parent >= 0) {
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start < p.start || s.end > p.end) ++accounting_errors;
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
      if (s.name == kHttp) {
        auto it = handle_of.find(s.rid);
        if (it != handle_of.end()) {
          const Span& hs = *it->second;
          out << hs.rid << "\tserver.handle\t" << hs.start - t0 << '\t'
              << hs.end - t0 << '\t' << i << '\n';
          if (hs.start < s.start || hs.end > s.end) ++accounting_errors;
          const double handle = static_cast<double>(hs.end - hs.start);
          child_ns[i] += handle;
          total_ns[kHandle] += handle;
          self_ns[kHandle] += handle;
          ++count[kHandle];
          per_rid[s.rid][kHandle] += handle;
        }
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.end - s.start);
      if (child_ns[i] > d) ++accounting_errors;
      if (s.name == kRequest) {
        wall_ns += d;
        unattributed_ns += d - child_ns[i];
        continue;
      }
      total_ns[s.name] += d;
      self_ns[s.name] += d - child_ns[i];
      ++count[s.name];
      per_rid[s.rid][s.name] += d;
    }
  }
  // Self times of every layer plus the unattributed remainder must add
  // up to the traced wall time.
  double self_sum = unattributed_ns;
  for (int n = 0; n < kSpanNames; ++n) {
    if (n != kRequest) self_sum += self_ns[n];
  }
  if (wall_ns > 0 && std::abs(self_sum - wall_ns) > 1e-6 * wall_ns) {
    ++accounting_errors;
  }

  // ---- Per-layer metrics -----------------------------------------------------
  double plan_miss_ns = 0;
  std::uint64_t plan_misses = 0;
  double modifiers_ns = 0;
  std::uint64_t reads = 0;
  std::uint64_t bgp_rows = 0;
  std::uint64_t rows = 0;
  double analytic_eval_ns = 0;
  double paper_ns = 0;
  double stage_ns = 0;
  std::uint64_t stage_ops = 0;
  double compact_ns = 0;
  double compact_max_ns = 0;
  std::uint64_t compactions = 0;
  double encode_ns = 0;
  double rdf_parse_ns = 0;
  double durable_ns = 0;
  double c_write_ns = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t parsed_triples = 0;
  for (const auto& fs : facts) {
    for (const Facts& f : fs) {
      const auto& t = per_rid[f.rid];
      if (t[kHttp] > 0) {
        transport_ns += t[kHttp] - t[kHandle];
        ++transport_n;
      }
      if (f.op == Op::kQuery) {
        ++reads;
        bgp_rows += f.bgp_rows;
        rows += f.rows;
        if (f.plan_miss) {
          plan_miss_ns += t[kPlan];
          ++plan_misses;
        }
        modifiers_ns += t[kSession] - t[kParse] - t[kPin] - t[kCompile] -
                        t[kPlan] - t[kEval];
        if (f.analytic) {
          analytic_eval_ns += t[kEval];
          paper_ns += t[kPaper];
        }
        continue;
      }
      if (t[kHandle] > 0) {
        handle_write_ns += t[kHandle];
        ++handle_write_n;
      }
      write_ops += f.ops;
      parsed_triples += f.ops;
      encode_ns += t[kEncode];
      rdf_parse_ns += t[kRdfParse];
      durable_ns += t[kDurable];
      c_write_ns += t[kStage];
    }
  }
  for (const Recorder& r : rec) {
    for (const Span& s : r.spans()) {
      if (s.name != kCompact) continue;
      const double d = static_cast<double>(s.end - s.start);
      compact_ns += d;
      compact_max_ns = std::max(compact_max_ns, d);
      ++compactions;
    }
  }
  stage_ns = self_ns[kStage];
  stage_ops = write_ops >= compactions ? write_ops - compactions : 0;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::uint64_t total_wrong = 0;
  std::uint64_t total_failed = 0;
  std::uint64_t total_attempted = 0;
  std::uint64_t closed_completed = 0;
  std::string first_error;
  for (int c = 0; c < conns; ++c) {
    total_wrong += wrong[c];
    total_failed += failed[c];
    total_attempted += attempted[c];
    if (first_error.empty()) first_error = error[c];
    // Closed-loop connections: readers, or the ingest writer.
    if (c < readers || w == Workload::kIngest) closed_completed += completed[c];
  }
  std::uint64_t met = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (acked_at[i] != 0 && acked_at[i] - due[i] <= kWriteLimitNs) ++met;
  }

  std::uint64_t span_count = 0;
  for (int k = 0; k < kSpanNames; ++k) span_count += count[k];
  for (char& ch : first_error) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }

  std::ostringstream os;
  os << "{\"workload\":\"" << WorkloadName(w) << "\",\"attempted\":"
     << total_attempted << ",\"failed\":" << total_failed
     << ",\"wrong\":" << total_wrong << ",\"error\":\"" << first_error
     << "\",\"accounting_errors\":" << accounting_errors
     << ",\"elapsed_s\":" << Num(elapsed) << ",\"traced_req_per_s\":"
     << Num(static_cast<double>(closed_completed) / elapsed)
     << ",\"traced_write_met_share\":"
     << Num(per(static_cast<double>(met), static_cast<double>(due.size())))
     << ",\"spans\":" << span_count
     << ",\"metrics\":{"
     << "\"server.transport_us\":"
     << Num(per(transport_ns, static_cast<double>(transport_n)) / 1e3)
     << ",\"server.handle_write_ms\":"
     << Num(per(handle_write_ns, static_cast<double>(handle_write_n)) / 1e6)
     << ",\"query.parse_us\":"
     << Num(per(total_ns[kParse], static_cast<double>(reads)) / 1e3)
     << ",\"query.plan_ms\":"
     << Num(per(plan_miss_ns, static_cast<double>(plan_misses)) / 1e6)
     << ",\"query.eval_ms\":"
     << Num(per(total_ns[kEval], static_cast<double>(reads)) / 1e6)
     << ",\"query.bgp_rows_per_result\":"
     << Num(per(static_cast<double>(bgp_rows), static_cast<double>(rows)))
     << ",\"query.modifiers_ms\":"
     << Num(per(modifiers_ns, static_cast<double>(reads)) / 1e6)
     << ",\"query.render_us_per_row\":"
     << Num(per(total_ns[kRender], static_cast<double>(rows)) / 1e3)
     << ",\"query.engine_over_paper\":" << Num(per(analytic_eval_ns, paper_ns))
     << ",\"delta.pin_us\":"
     << Num(per(total_ns[kPin], static_cast<double>(reads)) / 1e3)
     << ",\"delta.stage_ns_per_op\":"
     << Num(per(stage_ns, static_cast<double>(stage_ops)))
     << ",\"delta.compact_ms\":"
     << Num(per(compact_ns, static_cast<double>(compactions)) / 1e6)
     << ",\"delta.compact_max_ms\":" << Num(compact_max_ns / 1e6)
     << ",\"dict.encode_ns_per_triple\":"
     << Num(per(encode_ns, static_cast<double>(parsed_triples)))
     << ",\"rdf.parse_ns_per_triple\":"
     << Num(per(rdf_parse_ns, static_cast<double>(parsed_triples)))
     << ",\"wal.log_ns_per_op\":"
     << Num(per(durable_ns - c_write_ns, static_cast<double>(write_ops)))
     << ",\"trace.unattributed_share\":" << Num(per(unattributed_ns, wall_ns))
     << "}}";
  std::printf("%s\n", os.str().c_str());
  return total_wrong == 0 && total_failed == 0 && accounting_errors == 0 ? 0
                                                                         : 3;
}

}  // namespace hexabench
