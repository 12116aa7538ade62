// Untraced load generator: drives a running hexastore_server over HTTP
// with the workload's seeded streams, checks every response against the
// oracle and prints one JSON line of raw end-to-end figures.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.h"

namespace hexabench {

namespace {

struct Outcome {
  std::vector<std::uint64_t> lat_ns;  // successful requests only
  std::vector<int> cls;
  std::vector<std::uint64_t> rows;  // expected rows of each success
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-2xx or transport error
  std::uint64_t wrong = 0;   // 2xx with an answer the oracle rejects
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::string error;
};

// Sends `r` and checks the answer. Returns true on a correct 2xx.
bool Exchange(HttpClient* client, const Request& r, Outcome* out,
              std::uint64_t* lat_ns) {
  ++out->attempted;
  int status = 0;
  std::string body;
  const std::uint64_t start = NowNs();
  const bool sent = client->Call("POST", r.path(), r.body, &status, &body);
  *lat_ns = NowNs() - start;
  if (!sent || status / 100 != 2) {
    ++out->failed;
    if (out->error.empty()) {
      out->error = std::string(r.path()) + ": " +
                   (sent ? "HTTP " + std::to_string(status) + " " +
                               body.substr(0, 200)
                         : "transport error");
    }
    return false;
  }
  bool ok = true;
  if (r.op == Op::kQuery) {
    ok = AnswerMatches(r, body);
  } else {
    const std::uint64_t n = JsonNumberAfter(
        body, r.op == Op::kInsert ? "\"inserted\":" : "\"erased\":");
    ok = n == r.triples;
    if (ok) (r.op == Op::kInsert ? out->inserted : out->erased) += n;
  }
  if (!ok) {
    ++out->wrong;
    if (out->error.empty()) {
      out->error = "wrong answer to " + r.body.substr(0, 160);
    }
  }
  return ok;
}

void StatsJson(std::ostringstream& os, const char* name,
               const std::vector<std::uint64_t>& lat, double seconds,
               std::uint64_t failed, std::uint64_t attempted) {
  const Tail tail = TailMs(lat);
  // Requests slower than 100 ms: compaction stalls on ingest.
  std::uint64_t stalls = 0;
  double stall_ns = 0;
  for (std::uint64_t ns : lat) {
    if (ns > 100'000'000) {
      ++stalls;
      stall_ns += static_cast<double>(ns);
    }
  }
  os << "\"" << name << "\":{\"ok\":" << lat.size()
     << ",\"over_100ms\":" << stalls
     << ",\"over_100ms_s\":" << Num(stall_ns / 1e9)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"per_s\":" << Num(static_cast<double>(lat.size()) / seconds)
     << ",\"p50_ms\":" << Num(MedianMs(lat))
     << ",\"tail_ms\":" << Num(tail.value_ms)
     << ",\"tail_pct\":" << Num(tail.percentile)
     << ",\"tail_beyond\":" << tail.beyond << "}";
}

}  // namespace

int RunDrive(const Model& model, int port, double seconds) {
  const Workload w = model.workload();
  const int readers = w == Workload::kIngest ? 0 : kReaders;
  const bool open_writer = w == Workload::kMixed;

  std::vector<HttpClient> clients(readers + 1);
  for (auto& c : clients) {
    if (!c.Connect(port)) {
      std::fprintf(stderr, "hexabench: cannot connect to port %d\n", port);
      return 1;
    }
  }

  // Warm-up (not timed, still checked): one pass over the distinct
  // analytic queries fills the plan cache, as a long-running server's
  // would be.
  Outcome warm;
  if (w == Workload::kAnalytic) {
    std::uint64_t lat = 0;
    for (std::size_t i = 0; i < model.AnalyticQueryCount(); ++i) {
      Exchange(&clients[0], model.AnalyticQuery(i), &warm, &lat);
    }
  }

  std::vector<Outcome> outcomes(readers + 1);
  // Open-loop writer bookkeeping: due and acknowledgement time per slot.
  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> acked_at;
  std::vector<std::uint64_t> lag_ns;
  const std::uint64_t t0 = NowNs();
  const std::uint64_t end =
      t0 + static_cast<std::uint64_t>(seconds * 1e9);

  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Outcome& out = outcomes[c];
      for (std::uint64_t seq = 0; NowNs() < end; ++seq) {
        const Request r = model.ReaderRequest(c, seq);
        std::uint64_t lat = 0;
        if (Exchange(&clients[c], r, &out, &lat)) {
          out.lat_ns.push_back(lat);
          out.cls.push_back(r.cls);
          out.rows.push_back(r.expect.rows);
        }
      }
    });
  }
  threads.emplace_back([&] {
    Outcome& out = outcomes[readers];
    HttpClient& client = clients[readers];
    if (!open_writer) {
      // ingest: closed loop. Readers-only workloads skip this thread's
      // loop entirely.
      if (w != Workload::kIngest) return;
      for (std::uint64_t step = 0; NowNs() < end; ++step) {
        const Request r = model.IngestStep(step);
        std::uint64_t lat = 0;
        if (Exchange(&client, r, &out, &lat)) out.lat_ns.push_back(lat);
      }
      return;
    }
    const double period_ns = 1e9 / kMixedWritesPerSecond;
    for (std::uint64_t slot = 0;; ++slot) {
      const std::uint64_t slot_due =
          t0 + static_cast<std::uint64_t>(period_ns * slot);
      if (slot_due >= end) break;
      due.push_back(slot_due);
      acked_at.push_back(0);
      std::uint64_t now = NowNs();
      if (now >= end) continue;  // offered, never sent: a miss
      if (now < slot_due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(slot_due - now));
      }
      const Request r = model.MixedWrite(slot);
      std::uint64_t lat = 0;
      if (Exchange(&client, r, &out, &lat)) {
        acked_at.back() = NowNs();
        out.lat_ns.push_back(lat);
        lag_ns.push_back(acked_at.back() - slot_due);
      }
    }
  });
  for (auto& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;

  Outcome reads;
  for (int c = 0; c < readers; ++c) {
    const Outcome& o = outcomes[c];
    reads.lat_ns.insert(reads.lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
    reads.cls.insert(reads.cls.end(), o.cls.begin(), o.cls.end());
    reads.rows.insert(reads.rows.end(), o.rows.begin(), o.rows.end());
    reads.attempted += o.attempted;
    reads.failed += o.failed;
    reads.wrong += o.wrong;
    if (reads.error.empty()) reads.error = o.error;
  }
  const Outcome& writes = outcomes[readers];

  // Final oracle: the writer namespace holds exactly what was
  // acknowledged.
  Outcome final_check;
  std::int64_t expect_count = static_cast<std::int64_t>(writes.inserted) -
                              static_cast<std::int64_t>(writes.erased);
  std::int64_t got_count = -1;
  {
    int status = 0;
    std::string body;
    HttpClient& client = clients[readers];
    if (client.Call("POST", "/query", Model::WriterCountQuery(), &status,
                    &body) &&
        status == 200) {
      const std::uint64_t n = JsonNumberAfter(body, "\"value\":\"");
      if (n != UINT64_MAX) got_count = static_cast<std::int64_t>(n);
    }
    ++final_check.attempted;
    if (got_count != expect_count) {
      ++final_check.wrong;
      final_check.error = "writer namespace holds " +
                          std::to_string(got_count) + " triples, expected " +
                          std::to_string(expect_count);
    }
  }

  std::uint64_t met = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (acked_at[i] != 0 && acked_at[i] - due[i] <= kWriteLimitNs) ++met;
  }

  const std::uint64_t attempted = warm.attempted + reads.attempted +
                                  writes.attempted + final_check.attempted;
  const std::uint64_t failed = warm.failed + reads.failed + writes.failed;
  const std::uint64_t wrong =
      warm.wrong + reads.wrong + writes.wrong + final_check.wrong;
  std::string error = !warm.error.empty()          ? warm.error
                      : !reads.error.empty()       ? reads.error
                      : !writes.error.empty()      ? writes.error
                                                   : final_check.error;
  for (char& ch : error) {
    if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) {
      ch = ' ';
    }
  }

  std::ostringstream os;
  os << "{\"workload\":\"" << WorkloadName(w) << "\",\"seed\":"
     << model.seed() << ",\"stream_hash\":\"" << std::hex
     << model.StreamHash(256) << std::dec << "\",\"elapsed_s\":"
     << Num(elapsed) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"wrong\":" << wrong
     << ",\"error\":\"" << error << "\",";
  StatsJson(os, "reads", reads.lat_ns, elapsed, reads.failed,
            reads.attempted);
  os << ",";
  StatsJson(os, "writes", writes.lat_ns, elapsed, writes.failed,
            writes.attempted);
  os << ",\"classes\":{";
  for (int k = 0; k < ClassCount(w) && readers > 0; ++k) {
    std::vector<std::uint64_t> lat;
    std::uint64_t rows = 0;
    for (std::size_t i = 0; i < reads.cls.size(); ++i) {
      if (reads.cls[i] != k) continue;
      lat.push_back(reads.lat_ns[i]);
      rows += reads.rows[i];
    }
    os << (k ? "," : "") << "\"" << ClassName(w, k) << "\":{\"n\":"
       << lat.size() << ",\"p50_ms\":" << Num(MedianMs(lat))
       << ",\"rows_per_query\":"
       << Num(lat.empty() ? 0 : static_cast<double>(rows) / lat.size())
       << "}";
  }
  os << "},\"triples_inserted\":" << writes.inserted
     << ",\"triples_erased\":" << writes.erased
     << ",\"write_triples_per_s\":"
     << Num(static_cast<double>(writes.inserted + writes.erased) / elapsed)
     << ",\"offered_writes\":" << due.size() << ",\"met_writes\":" << met
     << ",\"write_met_share\":"
     << Num(due.empty() ? 0 : static_cast<double>(met) / due.size())
     << ",\"write_lag_p50_ms\":" << Num(MedianMs(lag_ns))
     << ",\"writer_count\":" << got_count << "}";
  std::printf("%s\n", os.str().c_str());
  return wrong == 0 ? 0 : 3;
}

}  // namespace hexabench
