// Seeded request streams and their oracle (see bench.h).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "bench.h"
#include "core/hexastore.h"
#include "data/lubm_generator.h"
#include "rdf/ntriples.h"
#include "util/rng.h"
#include "workload/lubm_queries.h"

namespace hexabench {

using hexastore::Dictionary;
using hexastore::Hexastore;
using hexastore::Id;
using hexastore::IdVec;
using hexastore::Term;
using hexastore::Triple;
using hexastore::data::LubmGenerator;

namespace {

// Analytic query classes: the paper's LUBM queries LQ1-LQ5 plus the
// Figure 1(b) "same relation" shape, in the SPARQL forms that
// tests/sparql_workload_test.cc cross-checks against the hand-coded
// plans. Weights put the median in the middle of LQ2 (an index scan
// returning ~1.2k rows) rather than on the boundary between it and the
// ~0.1 ms lookups, and the p95 tail in the middle of the 90k-row
// Figure 1(b) answers rather than on their boundary with fig1b_limit.
//
// fig1b_limit is Figure 1(b) under LIMIT: any kLimitRows rows of the
// full answer are correct, and a plan that stops early answers it in a
// fraction of the full query's time.
enum AnalyticClass {
  kLq1,
  kLq2,
  kLq3,
  kLq4,
  kLq5,
  kFig1b,
  kFig1bLimit,
  kAnalyticClasses
};
constexpr const char* kAnalyticNames[] = {"lq1", "lq2",   "lq3",        "lq4",
                                          "lq5", "fig1b", "fig1b_limit"};
constexpr int kAnalyticWeights[] = {1, 13, 1, 1, 1, 2, 1};
constexpr std::size_t kLimitRows = 100;
// Seeded constants per class, well under the 256-entry plan cache.
constexpr std::size_t kConstantsPerClass = 8;
// mixed: two-pattern lookups that join out of one bound subject. Both
// plan with an estimate probe on a pattern whose only constant is a
// predicate (or nothing), so a plan-cache miss costs alike in both.
enum MixedClass { kNeighborTypes, kNeighborEdges, kMixedClasses };
constexpr const char* kMixedNames[] = {"nbr_types", "nbr_edges"};
// mixed: Zipf exponent of the subject skew. Low enough that most
// lookups carry a constant the plan cache has not seen.
constexpr double kSubjectSkew = 0.6;

const IdVec kEmpty;
const IdVec& OrEmpty(const IdVec* v) { return v == nullptr ? kEmpty : *v; }

std::string Iri(const Term& t) { return "<" + t.value() + ">"; }

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Digest of rows given as vectors of cell values.
class RowDigest {
 public:
  explicit RowDigest(const Dictionary& dict,
                         std::vector<std::uint64_t>* row_hashes = nullptr)
      : dict_(dict), row_hashes_(row_hashes) {}
  void Row(std::initializer_list<Id> ids) {
    for (Id id : ids) {
      hasher_.Cell(dict_.term(id).value());
    }
    const std::uint64_t row = hasher_.EndRow(&digest_);
    if (row_hashes_ != nullptr) row_hashes_->push_back(row);
  }
  void RowWithCount(Id id, std::uint64_t count) {
    hasher_.Cell(dict_.term(id).value());
    hasher_.Cell(std::to_string(count));
    hasher_.EndRow(&digest_);
  }
  Digest digest() const { return digest_; }

 private:
  const Dictionary& dict_;
  std::vector<std::uint64_t>* row_hashes_;
  RowHasher hasher_;
  Digest digest_;
};

// Picks `n` distinct entries of `pool` with `rng` (all when smaller).
IdVec Pick(IdVec pool, std::size_t n, hexastore::Rng* rng) {
  for (std::size_t i = 0; i < pool.size() && i < n; ++i) {
    std::size_t j = i + rng->Uniform(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(std::min(n, pool.size()));
  return pool;
}

// Mixes (seed, a, b) into one 64-bit stream seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) {
  return Mix64(Mix64(seed ^ 0x9e3779b97f4a7c15ull) ^ Mix64(a + 1) ^
               Mix64((b + 1) * 0x2545f4914f6cdd1dull));
}

// N-Triples batch `batch` of the writer namespace (`n` triples).
std::string WriterBatch(std::uint64_t batch, std::size_t n) {
  std::string out;
  out.reserve(n * 96);
  const std::string subject_prefix =
      "<" + std::string(kWriterNs) + "b" + std::to_string(batch) + "/t";
  const std::string predicate = "<" + std::string(kWriterNs) + "p>";
  for (std::size_t i = 0; i < n; ++i) {
    out += subject_prefix;
    out += std::to_string(i);
    out += "> ";
    out += predicate;
    out += " \"v";
    out += std::to_string(batch);
    out += '-';
    out += std::to_string(i);
    out += "\" .\n";
  }
  return out;
}

// Figure 1(b) as a hand-coded plan: the professor's predicates from
// spo, then each predicate's subjects from pso. Stops when `sink`
// returns false.
template <typename Sink>
void SameRelation(const Hexastore& store, Id who_not, Sink&& sink) {
  for (Id rel : OrEmpty(store.predicates_of_subject(who_not))) {
    for (Id who : OrEmpty(store.subjects_of_predicate(rel))) {
      if (who != who_not && !sink(who, rel)) return;
    }
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "analytic") {
    *out = Workload::kAnalytic;
  } else if (name == "mixed") {
    *out = Workload::kMixed;
  } else if (name == "ingest") {
    *out = Workload::kIngest;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAnalytic:
      return "analytic";
    case Workload::kMixed:
      return "mixed";
    case Workload::kIngest:
      return "ingest";
  }
  return "?";
}

int ClassCount(Workload w) {
  switch (w) {
    case Workload::kAnalytic:
      return kAnalyticClasses;
    case Workload::kMixed:
      return kMixedClasses;
    case Workload::kIngest:
      return 1;
  }
  return 1;
}

const char* ClassName(Workload w, int cls) {
  switch (w) {
    case Workload::kAnalytic:
      return kAnalyticNames[cls];
    case Workload::kMixed:
      return kMixedNames[cls];
    case Workload::kIngest:
      return "write";
  }
  return "?";
}

std::string Model::WriterCountQuery() {
  return "SELECT (COUNT(*) AS ?n) WHERE { ?s <" + std::string(kWriterNs) +
         "p> ?o }";
}

hexastore::Result<std::unique_ptr<Model>> Model::Build(
    Workload w, std::uint64_t seed, const std::string& data_path) {
  std::ifstream in(data_path, std::ios::binary);
  if (!in) {
    return hexastore::Status::NotFound("cannot open " + data_path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = hexastore::ParseNTriplesDocument(buffer.str(), true);
  if (!parsed.ok()) {
    return parsed.status();
  }
  std::unique_ptr<Model> model(new Model(w, seed));
  if (w == Workload::kIngest) {
    return model;  // the writer namespace starts empty
  }

  model->graph_ = std::make_unique<hexastore::Graph>();
  model->graph_->BulkLoad(parsed.value());
  const Dictionary& dict = model->graph_->dict();
  const Hexastore& store = model->graph_->store();
  const Id type = dict.Lookup(LubmGenerator::PropType());
  hexastore::Rng rng(StreamSeed(seed, 0xC0, 0));

  if (w == Workload::kAnalytic) {
    hexastore::workload::LubmIds& ids = model->ids_;
    ids = hexastore::workload::LubmIds::Resolve(dict);
    auto of_class = [&](const Term& cls) {
      return OrEmpty(store.subjects(type, dict.Lookup(cls)));
    };
    const IdVec courses =
        Pick(of_class(LubmGenerator::ClassCourse()), kConstantsPerClass, &rng);
    const IdVec unis = Pick(of_class(LubmGenerator::ClassUniversity()),
                            kConstantsPerClass, &rng);
    const IdVec profs =
        Pick(of_class(LubmGenerator::ClassAssociateProfessor()),
             kConstantsPerClass, &rng);
    if (courses.empty() || unis.empty() || profs.empty()) {
      return hexastore::Status::Internal("preload lacks LUBM constants");
    }
    const std::string type_iri = Iri(LubmGenerator::PropType());
    const std::string teacher_of = Iri(LubmGenerator::PropTeacherOf());
    const std::string university = Iri(LubmGenerator::ClassUniversity());
    const std::string sub_org = Iri(LubmGenerator::PropSubOrganizationOf());
    model->analytic_by_class_.resize(kAnalyticClasses);
    auto add = [&](int cls, Id constant, std::string text, Digest expect,
                   std::vector<std::uint64_t> allowed = {}) {
      model->analytic_by_class_[cls].push_back(model->analytic_.size());
      model->analytic_.push_back(Query{cls, constant, std::move(text), expect,
                                       std::move(allowed)});
    };
    auto related_to = [&](int cls, Id object) {
      RowDigest d(dict);
      for (const auto& [s, p] :
           hexastore::workload::LubmRelatedToHexa(store, object)) {
        d.Row({s, p});
      }
      add(cls, object,
          "SELECT ?s ?p WHERE { ?s ?p <" + dict.term(object).value() + "> }",
          d.digest());
    };
    for (Id c : courses) related_to(kLq1, c);
    for (Id u : unis) related_to(kLq2, u);
    for (Id ap : profs) {
      const std::string prof = "<" + dict.term(ap).value() + ">";
      ids.assoc_prof10 = ap;
      {  // LQ3, subject side.
        RowDigest d(dict);
        for (const auto& t : hexastore::workload::LubmQ3Hexa(store, ap)) {
          if (t.s == ap) d.Row({t.p, t.o});
        }
        add(kLq3, ap, "SELECT ?p ?o WHERE { " + prof + " ?p ?o }", d.digest());
      }
      {  // LQ4: related people per taught course.
        RowDigest d(dict);
        for (const auto& [course, rows] :
             hexastore::workload::LubmQ4Hexa(store, ids)) {
          d.RowWithCount(course, rows.size());
        }
        add(kLq4, ap,
            "SELECT ?course (COUNT(*) AS ?n) WHERE { " + prof + " " +
                teacher_of +
                " ?course . ?x ?rel ?course } GROUP BY ?course "
                "ORDER BY ?course",
            d.digest());
      }
      {  // LQ5: degree holders per related university.
        RowDigest d(dict);
        for (const auto& [uni, people] :
             hexastore::workload::LubmQ5Hexa(store, ids)) {
          d.RowWithCount(uni, people.size());
        }
        add(kLq5, ap,
            "SELECT ?u (COUNT(DISTINCT ?x) AS ?n) WHERE { " + prof +
                " ?r ?u . ?u " + type_iri + " " + university +
                " . ?x ?deg ?u . FILTER(?deg != " + sub_org +
                ") } GROUP BY ?u",
            d.digest());
      }
      {  // Figure 1(b): who shares a relation with the professor.
        std::vector<std::uint64_t> allowed;
        RowDigest d(dict, &allowed);
        SameRelation(store, ap, [&d](Id who, Id rel) {
          d.Row({who, rel});
          return true;
        });
        const std::string text = "SELECT DISTINCT ?who ?rel WHERE { " + prof +
                                 " ?rel ?u1 . ?who ?rel ?u2 . FILTER(?who != " +
                                 prof + ") }";
        add(kFig1b, ap, text, d.digest());
        std::sort(allowed.begin(), allowed.end());
        Digest limited;
        limited.rows = std::min<std::uint64_t>(kLimitRows, allowed.size());
        add(kFig1bLimit, ap, text + " LIMIT " + std::to_string(kLimitRows),
            limited, std::move(allowed));
      }
    }
    return model;
  }

  // mixed: every IRI subject of the preload, in seeded order.
  std::unordered_set<Id> seen;
  IdVec subjects;
  for (const Triple& t : parsed.value()) {
    if (!t.subject.is_iri()) continue;
    const Id s = dict.Lookup(t.subject);
    if (seen.insert(s).second) subjects.push_back(s);
  }
  const std::size_t subject_count = subjects.size();
  subjects = Pick(std::move(subjects), subject_count, &rng);
  for (Id s : subjects) {
    RowDigest types(dict);
    RowDigest edges(dict);
    for (Id p : OrEmpty(store.predicates_of_subject(s))) {
      for (Id o : OrEmpty(store.objects(s, p))) {
        for (Id c : OrEmpty(store.objects(o, type))) types.Row({p, o, c});
        for (Id q : OrEmpty(store.predicates_of_subject(o))) {
          for (Id x : OrEmpty(store.objects(o, q))) edges.Row({p, o, q, x});
        }
      }
    }
    model->subjects_.push_back(dict.term(s).value());
    model->subject_expect_.push_back({types.digest(), edges.digest()});
  }
  double total = 0;
  model->zipf_cdf_.reserve(subjects.size());
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kSubjectSkew);
    model->zipf_cdf_.push_back(total);
  }
  for (double& c : model->zipf_cdf_) c /= total;
  model->graph_.reset();  // lookups need only the digests
  return model;
}

std::uint64_t Model::PaperPlan(std::size_t query) const {
  namespace wl = hexastore::workload;
  const Hexastore& store = graph_->store();
  const Query& q = analytic_[query];
  wl::LubmIds ids = ids_;
  ids.assoc_prof10 = q.constant;
  std::uint64_t rows = 0;
  switch (q.cls) {
    case kLq1:
    case kLq2:
      return wl::LubmRelatedToHexa(store, q.constant).size();
    case kLq3:
      return wl::LubmQ3Hexa(store, q.constant).size();
    case kLq4:
      for (const auto& group : wl::LubmQ4Hexa(store, ids)) {
        rows += group.second.size();
      }
      return rows;
    case kLq5:
      for (const auto& group : wl::LubmQ5Hexa(store, ids)) {
        rows += group.second.size();
      }
      return rows;
    case kFig1b:
      SameRelation(store, q.constant, [&rows](Id, Id) {
        ++rows;
        return true;
      });
      return rows;
    default:  // kFig1bLimit: the hand-coded plan stops at the limit
      SameRelation(store, q.constant,
                   [&rows](Id, Id) { return ++rows < kLimitRows; });
      return rows;
  }
}

Request Model::AnalyticQuery(std::size_t i) const {
  Request r;
  r.query = i;
  if (analytic_[i].cls == kFig1bLimit) r.allowed = &analytic_[i].allowed;
  r.cls = analytic_[i].cls;
  r.body = analytic_[i].text;
  r.expect = analytic_[i].expect;
  return r;
}

Request Model::ReaderRequest(int conn, std::uint64_t seq) const {
  hexastore::Rng rng(StreamSeed(seed_, 0x100 + conn, seq));
  if (workload_ == Workload::kAnalytic) {
    // Classes come from shuffled decks holding each class as often as
    // its weight, so every run carries the same class mix and only the
    // order and the constants vary with the seed.
    std::vector<int> deck;
    for (int cls = 0; cls < kAnalyticClasses; ++cls) {
      deck.insert(deck.end(), kAnalyticWeights[cls], cls);
    }
    hexastore::Rng shuffle(StreamSeed(seed_, 0x200 + conn, seq / deck.size()));
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[shuffle.Uniform(i)]);
    }
    const auto& members = analytic_by_class_[deck[seq % deck.size()]];
    return AnalyticQuery(members[rng.Uniform(members.size())]);
  }
  const double u = rng.NextDouble();
  const std::size_t k = std::min<std::size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin(),
      subjects_.size() - 1);
  Request r;
  r.cls = static_cast<int>(rng.Uniform(kMixedClasses));
  const std::string subject = "<" + subjects_[k] + ">";
  if (r.cls == kNeighborTypes) {
    r.body = "SELECT ?p ?o ?c WHERE { " + subject + " ?p ?o . ?o " +
             Iri(LubmGenerator::PropType()) + " ?c }";
  } else {
    r.body = "SELECT ?p ?o ?q ?x WHERE { " + subject +
             " ?p ?o . ?o ?q ?x }";
  }
  r.expect = subject_expect_[k][r.cls];
  return r;
}

Request Model::MixedWrite(std::uint64_t slot) const {
  Request r;
  r.op = slot % 2 == 0 ? Op::kInsert : Op::kErase;
  r.body = WriterBatch(slot / 2, kMixedBatchTriples);
  r.triples = kMixedBatchTriples;
  return r;
}

Request Model::IngestStep(std::uint64_t step) const {
  Request r;
  r.triples = kIngestBatchTriples;
  if (step < kIngestWindowBatches) {
    r.op = Op::kInsert;
    r.body = WriterBatch(step, kIngestBatchTriples);
    return r;
  }
  const std::uint64_t k = (step - kIngestWindowBatches) / 2;
  if ((step - kIngestWindowBatches) % 2 == 0) {
    r.op = Op::kErase;
    r.body = WriterBatch(k, kIngestBatchTriples);
  } else {
    r.op = Op::kInsert;
    r.body = WriterBatch(kIngestWindowBatches + k, kIngestBatchTriples);
  }
  return r;
}

std::uint64_t Model::StreamHash(std::size_t n) const {
  std::uint64_t h = Fnv1a(WorkloadName(workload_));
  auto fold = [&h](const Request& r) {
    h = Fnv1a(r.path(), h);
    h = Fnv1a(r.body, h);
  };
  for (std::size_t i = 0; i < n; ++i) {
    switch (workload_) {
      case Workload::kAnalytic:
      case Workload::kMixed:
        for (int c = 0; c < kReaders; ++c) fold(ReaderRequest(c, i));
        if (workload_ == Workload::kMixed) fold(MixedWrite(i));
        break;
      case Workload::kIngest:
        fold(IngestStep(i));
        break;
    }
  }
  return h;
}

}  // namespace hexabench
