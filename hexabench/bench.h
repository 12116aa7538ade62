// Shared pieces of the hexabench load generator and tracer: workload
// names and sizes, the seeded request streams, the correctness oracle,
// a blocking HTTP/1.1 client and the SPARQL-JSON result digest.
//
// Everything here is derived from two inputs only: the workload seed
// and the N-Triples file generated from it. The untraced load generator
// (drive.cc) and the traced in-process replay (trace.cc) build the same
// Model from the same file, so request i of connection c is the same
// bytes in both.
#ifndef HEXABENCH_BENCH_H_
#define HEXABENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "workload/lubm_queries.h"
#include "util/status.h"

namespace hexabench {

enum class Workload { kAnalytic, kMixed, kIngest };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

// ---- Fixed workload shape (README.md gives the reasons) -----------------

inline constexpr std::size_t kPreloadTriples = 200000;
/// Closed-loop reader connections on analytic and mixed.
inline constexpr int kReaders = 3;
/// mixed: offered open-loop write rate and triples per write batch.
inline constexpr double kMixedWritesPerSecond = 10.0;
inline constexpr std::size_t kMixedBatchTriples = 8;
/// mixed: a write meets its limit when acknowledged within this many ns
/// of its due time.
inline constexpr std::uint64_t kWriteLimitNs = 100'000'000;
/// ingest: triples per /insert and /erase batch, and how many inserted
/// batches stay live before the sliding window erases them. The window
/// holds more than one 64k-op compaction threshold (96k triples), so
/// erases reach merged triples and compactions keep cycling. Batches are
/// small enough that the ~1 in 260 requests that stalls on a compaction
/// stays below the tail percentile (delta.compact_ms reports the stalls).
inline constexpr std::size_t kIngestBatchTriples = 250;
inline constexpr std::size_t kIngestWindowBatches = 384;
/// Namespace of every writer-generated term; readers never query it.
inline constexpr std::string_view kWriterNs = "http://hexabench.invalid/w/";

// ---- Result digests ------------------------------------------------------

/// Order-independent digest of a result table: row count plus the sum of
/// per-row hashes, where a row hashes the "value" strings of its cells
/// in head-variable order.
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

/// Incremental row hashing shared by the oracle and the response parser.
class RowHasher {
 public:
  void Cell(std::string_view value);
  /// Folds the row into `into` and returns the row's hash.
  std::uint64_t EndRow(Digest* into);

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Parses a W3C SPARQL-JSON results document and digests its rows
/// (appending each row's hash to `row_hashes` when non-null). Returns
/// false when the document does not have that shape.
bool DigestSparqlJson(std::string_view json, Digest* out,
                      std::vector<std::uint64_t>* row_hashes = nullptr);

/// FNV-1a over bytes, continuing from `h`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

// ---- Requests ------------------------------------------------------------

enum class Op : std::uint8_t { kQuery, kInsert, kErase };

/// One request of a stream, with what a correct answer must be.
struct Request {
  Op op = Op::kQuery;
  int cls = 0;           ///< query class (analytic/mixed) or 0 for writes
  std::string body;      ///< SPARQL text or N-Triples batch
  Digest expect;         ///< queries: the oracle's digest
  std::uint64_t triples = 0;  ///< writes: triples the server must ack
  /// analytic: index of the distinct query (Model::PaperPlan argument).
  std::size_t query = 0;
  /// LIMIT queries: the sorted row hashes of the unlimited answer. Any
  /// expect.rows of them is correct; expect.sum is not checked.
  const std::vector<std::uint64_t>* allowed = nullptr;
  const char* path() const {
    return op == Op::kQuery ? "/query" : op == Op::kInsert ? "/insert"
                                                           : "/erase";
  }
};

/// True when `json` is a correct answer to query `r`.
bool AnswerMatches(const Request& r, std::string_view json);

/// Query classes, by workload. Names are printed in reports.
const char* ClassName(Workload w, int cls);
int ClassCount(Workload w);

/// The seeded workload: data, oracle and request streams.
class Model {
 public:
  /// Loads `data_path` (the file `gen` wrote for `seed`) into an oracle
  /// Hexastore and precomputes every expected answer.
  static hexastore::Result<std::unique_ptr<Model>> Build(
      Workload w, std::uint64_t seed, const std::string& data_path);

  Workload workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }

  /// Request `seq` of closed-loop reader connection `conn` (analytic,
  /// mixed). Deterministic in (seed, conn, seq).
  Request ReaderRequest(int conn, std::uint64_t seq) const;
  /// Open-loop write slot `slot` (mixed): even slots insert batch
  /// slot/2, odd slots erase it again.
  Request MixedWrite(std::uint64_t slot) const;
  /// Closed-loop ingest step `step`: the first kIngestWindowBatches
  /// steps insert batches 0.., then steps alternate between erasing the
  /// oldest live batch and inserting the next one.
  Request IngestStep(std::uint64_t step) const;
  /// Distinct analytic queries, for the warm-up pass.
  std::size_t AnalyticQueryCount() const { return analytic_.size(); }
  Request AnalyticQuery(std::size_t i) const;
  /// Runs the paper's hand-coded plan (workload::Lubm*Hexa on a
  /// Hexastore) for analytic query `query`; returns its row count.
  std::uint64_t PaperPlan(std::size_t query) const;
  /// COUNT(*) over the writer predicate.
  static std::string WriterCountQuery();

  /// Hash over the first `n` requests of every stream this workload
  /// uses (determinism check).
  std::uint64_t StreamHash(std::size_t n) const;

 private:
  Model(Workload w, std::uint64_t seed) : workload_(w), seed_(seed) {}

  struct Query {
    int cls;
    hexastore::Id constant;
    std::string text;
    Digest expect;
    std::vector<std::uint64_t> allowed;  // LIMIT queries only
  };

  Workload workload_;
  std::uint64_t seed_;
  // analytic: the oracle store stays for PaperPlan.
  std::unique_ptr<hexastore::Graph> graph_;
  hexastore::workload::LubmIds ids_;
  std::vector<Query> analytic_;
  std::vector<std::vector<std::size_t>> analytic_by_class_;
  // mixed: subject lookups, one oracle digest per preload subject, in a
  // seeded order whose head is the hot end of the Zipf skew.
  std::vector<std::string> subjects_;
  std::vector<std::array<Digest, 2>> subject_expect_;
  std::vector<double> zipf_cdf_;
};

// ---- HTTP ----------------------------------------------------------------

/// One keep-alive connection to 127.0.0.1:port. Blocking, with a receive
/// timeout so a wedged server fails the run instead of hanging it.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(int port);
  /// Sends one request and reads the response. Returns false on a
  /// transport error (the connection is then closed).
  bool Call(const char* method, const char* path, std::string_view body,
            int* status, std::string* response);

 private:
  int fd_ = -1;
  std::string buf_;
};

// ---- Latency statistics --------------------------------------------------

struct Tail {
  double value_ms = 0;
  double percentile = 0;
  std::uint64_t beyond = 0;  ///< samples above the percentile
};

double MedianMs(std::vector<std::uint64_t> ns);
/// Highest of p50/75/90/95 with at least 10 samples beyond it. The
/// list stops at p95: above it, ingest's tail lands on the ~60
/// fsync-bound requests of a run and follows the disk, not the program
/// (README.md).
Tail TailMs(std::vector<std::uint64_t> ns);

std::uint64_t NowNs();

/// The unsigned number after the first `key` in `body` (UINT64_MAX when
/// `key` is absent). Reads the small JSON acknowledgements and counts.
std::uint64_t JsonNumberAfter(const std::string& body, const char* key);
/// `v` with every significant digit, for JSON output.
std::string Num(double v);

// ---- Entry points ----------------------------------------------------------

/// Untraced run against a live server on 127.0.0.1:port (drive.cc).
int RunDrive(const Model& model, int port, double seconds);
/// Traced in-process replay over a fresh durable store in `dir`
/// (trace.cc).
int RunTrace(const Model& model, const std::string& data_path,
             const std::string& dir, double seconds);

}  // namespace hexabench

#endif  // HEXABENCH_BENCH_H_
