// Test helpers that read a store's terminal lists and header vectors
// back through the TripleStore interface: a Match on the bound prefix,
// projected onto one role. Layered stores (DeltaHexastore, its
// snapshots, ShardedHexastore and ShardedSnapshot) serve these reads
// only through Scan, so this is how their tests compare them with an
// oracle.
#ifndef HEXASTORE_TESTS_STORE_PROJECTION_H_
#define HEXASTORE_TESTS_STORE_PROJECTION_H_

#include "core/store_interface.h"
#include "index/sorted_vec.h"
#include "rdf/triple.h"
#include "util/common.h"

namespace hexastore {

/// `role` of every match of `pattern`, in Match's (s, p, o) order. With
/// two positions bound this is the terminal list, sorted ascending; a
/// match emitted twice shows up as a repeated id.
inline IdVec Project(const TripleStore& store, const IdPattern& pattern,
                     Id IdTriple::*role) {
  IdVec out;
  for (const IdTriple& t : store.Match(pattern)) {
    out.push_back(t.*role);
  }
  return out;
}

/// Distinct values of `role` over the matches of `pattern`, sorted. With
/// one position bound this is the header vector (e.g. the subjects of a
/// predicate).
inline IdVec ProjectDistinct(const TripleStore& store,
                             const IdPattern& pattern, Id IdTriple::*role) {
  IdVec out = Project(store, pattern, role);
  SortUnique(&out);
  return out;
}

}  // namespace hexastore

#endif  // HEXASTORE_TESTS_STORE_PROJECTION_H_
