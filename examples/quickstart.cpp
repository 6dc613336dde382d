// Quickstart: open a database, create an NFR-backed relation, insert
// and delete tuples (maintained in canonical form by the paper's §4
// algorithms), and query it.
//
//   $ ./quickstart [db_dir]

#include <cstdio>
#include <filesystem>

#include "core/format.h"
#include "engine/database.h"
#include "nfrql/executor.h"
#include "util/logging.h"

using nf2::AttrSet;
using nf2::Database;
using nf2::FlatTuple;
using nf2::Mvd;
using nf2::Schema;
using nf2::V;

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/nf2_quickstart";
  std::filesystem::remove_all(dir);

  // 1. Open (or create) a database directory.
  auto db = Database::Open(dir);
  NF2_CHECK(db.ok()) << db.status();

  // 2. Create a relation. Declaring the MVD Student ->-> Course | Club
  //    lets the engine pick a nest order whose canonical form keeps one
  //    tuple per student (§3.4, Theorems 4-5).
  nf2::Status created = (*db)->CreateRelation(
      "takes", Schema::OfStrings({"Student", "Course", "Club"}),
      /*nest_order=*/{}, /*fds=*/{},
      /*mvds=*/{Mvd{AttrSet{0}, AttrSet{1}}});
  NF2_CHECK(created.ok()) << created;

  // 3. Insert plain 1NF tuples; the engine composes them into NFR
  //    tuples incrementally.
  for (const char* course : {"algebra", "calculus", "databases"}) {
    NF2_CHECK((*db)->Insert("takes", FlatTuple{V("ada"), V(course),
                                               V("chess")})
                  .ok());
  }
  NF2_CHECK(
      (*db)->Insert("takes", FlatTuple{V("bob"), V("databases"), V("go")})
          .ok());

  // 4. Look at the stored nested relation: ada is ONE tuple.
  auto rel = (*db)->Relation("takes");
  NF2_CHECK(rel.ok());
  std::printf("%s\n", nf2::RenderTable(**rel, "takes (stored NFR)").c_str());

  // 5. Query in NFRQL; results come back flat.
  nf2::Executor executor(db->get());
  auto q = executor.Execute("SELECT * FROM takes WHERE Course = databases");
  NF2_CHECK(q.ok()) << q.status();
  std::printf("who takes databases?\n%s\n\n", q->c_str());

  // 6. Delete one course enrollment; the canonical form is maintained
  //    with O(f(n)) compositions, independent of relation size.
  NF2_CHECK(
      (*db)->Delete("takes", FlatTuple{V("ada"), V("calculus"), V("chess")})
          .ok());
  rel = (*db)->Relation("takes");
  std::printf("%s\n",
              nf2::RenderTable(**rel, "takes (after delete)").c_str());

  // 7. Statistics: how much the nested representation saves.
  auto stats = (*db)->Stats("takes");
  NF2_CHECK(stats.ok());
  std::printf("stats: %s\n", stats->ToString().c_str());

  // 8. Everything is durable: the WAL + checkpoint machinery replays on
  //    the next Open.
  NF2_CHECK((*db)->Checkpoint().ok());
  std::printf("\nquickstart OK (database in %s)\n", dir.c_str());
  return 0;
}
